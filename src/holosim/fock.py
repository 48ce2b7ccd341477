"""Truncated occupation-basis oracle for few-mode photonic states.

States live on a shared per-mode cutoff ``n_max`` and are stored as dense
complex amplitude tensors of shape ``(n_max+1,)*mode_count``.  The module
provides exact builders for twin-beam and coherent inputs (with an explicit
discarded-tail receipt), an exactly unitary beam-splitter action, and
expectation values of low-degree ordered ladder monomials evaluated by
sparse axis-wise matrix action.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._propagators import apply_exponential
from .errors import (
    AmplitudeTooLarge,
    CutoffTooSmall,
    DegreeTooHigh,
    InvalidModeIndex,
    NegativeParameter,
    ParameterOutOfRange,
    UnsupportedPhase,
)

DEFAULT_TWO_MODE_TAIL_TOL = 1e-10
DEFAULT_FOUR_MODE_CUTOFF = 16
DEFAULT_FOUR_MODE_TAIL_TOL = 1e-6
MAX_MONOMIAL_DEGREE = 8
MAX_DIFFERENCE_POWER = 4
# e^{2r}, cosh(2r) and sinh(2r) overflow a double beyond r = 354.9.
MAX_SQUEEZE_R = 350.0


@dataclass(frozen=True)
class FockCutoff:
    """Per-mode truncation: occupations run over 0..n_max inclusive."""

    n_max: int

    def __post_init__(self):
        if not isinstance(self.n_max, (int, np.integer)) or self.n_max < 1:
            raise CutoffTooSmall(f"n_max must be a positive integer, got {self.n_max!r}")

    @property
    def dim(self) -> int:
        return self.n_max + 1


@dataclass(frozen=True)
class SqueezeParams:
    """Two-mode squeeze strength r in [0, MAX_SQUEEZE_R]."""

    r: float

    def __post_init__(self):
        if not (self.r >= 0.0):
            raise NegativeParameter(f"squeeze strength must satisfy r >= 0, got {self.r!r}")
        if self.r > MAX_SQUEEZE_R:
            raise ParameterOutOfRange(
                f"squeeze strength must satisfy r <= {MAX_SQUEEZE_R}, got {self.r!r}")


@dataclass(frozen=True)
class CoherentInput:
    """Coherent amplitude mu (complex) for one interferometer input port."""

    mu: complex

    def __post_init__(self):
        if not (math.isfinite(self.mu.real) and math.isfinite(self.mu.imag)):
            raise ParameterOutOfRange(f"coherent amplitude must be finite, got {self.mu!r}")

    @property
    def mean_photons(self) -> float:
        return abs(self.mu) ** 2


@dataclass(frozen=True)
class MultiModeFockState:
    """Dense amplitude tensor over the truncated occupation basis.

    ``discarded_tail`` records the probability weight of the exact
    (untruncated) state that fell above the cutoff at build time; it is
    carried through unitary transformations unchanged.
    """

    mode_count: int
    cutoff: FockCutoff
    amplitudes: np.ndarray
    discarded_tail: float = 0.0

    def __post_init__(self):
        expected = (self.cutoff.dim,) * self.mode_count
        if self.amplitudes.shape != expected:
            raise InvalidModeIndex(
                f"amplitude tensor has shape {self.amplitudes.shape}, expected {expected}")


def twb_tail(r: float, cutoff: FockCutoff,
             tail_tol: float = DEFAULT_TWO_MODE_TAIL_TOL) -> float:
    """Exact out-of-cutoff weight tanh(r)^(2*(n_max+1)) of the twin-beam state.

    This is the one guard of every twin-beam construction: it checks r as
    ``SqueezeParams`` does, then raises ``CutoffTooSmall`` if the weight
    exceeds ``tail_tol``.
    """
    SqueezeParams(r)  # NaN would pass the tail test: tanh(nan)**k > tol is False
    tail = math.tanh(r) ** (2 * (cutoff.n_max + 1))
    if tail > tail_tol:
        raise CutoffTooSmall(
            f"twin-beam tail {tail:.3e} above cutoff n_max={cutoff.n_max} "
            f"exceeds tail_tol={tail_tol:.3e}")
    return tail


def build_twb(params: SqueezeParams, cutoff: FockCutoff,
              tail_tol: float = DEFAULT_TWO_MODE_TAIL_TOL) -> MultiModeFockState:
    """Twin-beam (two-mode squeezed vacuum) state on two modes.

    Amplitudes are the exact geometric series tanh(r)^n * sech(r) on the
    diagonal |n, n>, renormalized after truncation.  Raises
    ``CutoffTooSmall`` if the exact discarded weight exceeds ``tail_tol``.
    """
    tail = twb_tail(params.r, cutoff, tail_tol)
    n = np.arange(cutoff.dim)
    diag = (np.tanh(params.r) ** n) * (1.0 / np.cosh(params.r))
    amp = np.zeros((cutoff.dim, cutoff.dim), dtype=complex)
    amp[n, n] = diag
    amp /= np.linalg.norm(amp)
    return MultiModeFockState(2, cutoff, amp, discarded_tail=tail)


def build_coherent(inp: CoherentInput, cutoff: FockCutoff) -> MultiModeFockState:
    """Single-mode coherent state |mu>, renormalized after truncation.

    Requires |mu|^2 <= n_max / 4 so the retained Poisson weight is
    overwhelming; otherwise raises ``AmplitudeTooLarge``.
    """
    nbar = inp.mean_photons
    if nbar > cutoff.n_max / 4.0:
        raise AmplitudeTooLarge(
            f"|mu|^2 = {nbar:.4g} exceeds n_max/4 = {cutoff.n_max / 4.0:.4g}")
    n = np.arange(cutoff.dim)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, cutoff.dim)))))
    mags = np.exp(-0.5 * nbar + n * np.log(abs(inp.mu)) - 0.5 * log_fact
                  ) if nbar > 0 else np.where(n == 0, 1.0, 0.0)
    phases = np.exp(1j * n * np.angle(inp.mu)) if nbar > 0 else np.ones(cutoff.dim)
    amp = mags * phases
    tail = max(0.0, 1.0 - float(np.vdot(amp, amp).real))
    amp = amp / np.linalg.norm(amp)
    return MultiModeFockState(1, cutoff, amp, discarded_tail=tail)


def basis_state(occupations, cutoff: FockCutoff) -> MultiModeFockState:
    """Occupation-basis ket |n_0, n_1, ...> as a state tensor."""
    occupations = tuple(int(n) for n in occupations)
    for n in occupations:
        if not 0 <= n <= cutoff.n_max:
            raise CutoffTooSmall(f"occupation {n} outside 0..{cutoff.n_max}")
    amp = np.zeros((cutoff.dim,) * len(occupations), dtype=complex)
    amp[occupations] = 1.0
    return MultiModeFockState(len(occupations), cutoff, amp)


def tensor_product(*states: MultiModeFockState) -> MultiModeFockState:
    """Combine states on disjoint mode sets; cutoffs must agree."""
    cut = states[0].cutoff
    amp = states[0].amplitudes
    tail = states[0].discarded_tail
    for s in states[1:]:
        if s.cutoff != cut:
            raise InvalidModeIndex("tensor_product requires a common cutoff")
        amp = np.multiply.outer(amp, s.amplitudes)
        tail = 1.0 - (1.0 - tail) * (1.0 - s.discarded_tail)
    return MultiModeFockState(sum(s.mode_count for s in states), cut, amp,
                              discarded_tail=tail)


def _check_mode(state: MultiModeFockState, mode: int) -> None:
    if not 0 <= mode < state.mode_count:
        raise InvalidModeIndex(
            f"mode {mode} out of range for a {state.mode_count}-mode state")


def apply_beam_splitter(state: MultiModeFockState, mode_a: int, mode_b: int,
                        phi: float) -> MultiModeFockState:
    """Apply exp(phi*(a'b - b'a)/2) mixing ``mode_a`` into ``mode_b``.

    In the Heisenberg picture this sends a -> a*cos(phi/2) + b*sin(phi/2),
    so phi = pi swaps the two modes (up to sign).  Exactly unitary at any
    cutoff; applied chain-wise without building the dense unitary.
    """
    _check_mode(state, mode_a)
    _check_mode(state, mode_b)
    if mode_a == mode_b:
        raise InvalidModeIndex("beam splitter requires two distinct modes")
    if not math.isfinite(phi):
        raise UnsupportedPhase("beam-splitter angle must be finite")
    amp = np.moveaxis(state.amplitudes, (mode_a, mode_b), (0, 1))
    amp = apply_exponential("beam_splitter", state.cutoff.dim, phi, amp)
    amp = np.moveaxis(amp, (0, 1), (mode_a, mode_b))
    return MultiModeFockState(state.mode_count, state.cutoff, amp,
                              discarded_tail=state.discarded_tail)


def _apply_ladder(amp: np.ndarray, mode: int, dagger: bool) -> np.ndarray:
    """Apply a or a' on one tensor axis via the shifted-sqrt stencil."""
    out = np.zeros_like(amp)
    src = np.moveaxis(amp, mode, 0)
    dst = np.moveaxis(out, mode, 0)
    dim = amp.shape[mode]
    root = np.sqrt(np.arange(1, dim))
    shape = (dim - 1,) + (1,) * (amp.ndim - 1)
    if dagger:
        dst[1:] = root.reshape(shape) * src[:-1]
    else:
        dst[:-1] = root.reshape(shape) * src[1:]
    return out


def expectation(state: MultiModeFockState, monomial) -> complex:
    """Expectation of an ordered ladder monomial.

    ``monomial`` is a sequence of ``(mode, dagger)`` pairs read left to
    right as written, e.g. ``[(0, True), (1, False)]`` for a0' a1.  Degree
    is capped at 8.
    """
    ops = list(monomial)
    if len(ops) > MAX_MONOMIAL_DEGREE:
        raise DegreeTooHigh(f"monomial degree {len(ops)} exceeds {MAX_MONOMIAL_DEGREE}")
    for mode, _ in ops:
        _check_mode(state, int(mode))
    ket = state.amplitudes
    for mode, dagger in reversed(ops):
        ket = _apply_ladder(ket, int(mode), bool(dagger))
    return complex(np.vdot(state.amplitudes, ket))


def _check_difference_power(power) -> None:
    if not isinstance(power, (int, np.integer)) or not 1 <= power <= MAX_DIFFERENCE_POWER:
        raise DegreeTooHigh(
            f"difference power must be an integer in 1..{MAX_DIFFERENCE_POWER}")


def _occupation_difference(dim: int) -> np.ndarray:
    """N1 - N2 as a diagonal weight on two-mode amplitude tensors."""
    return (np.arange(dim)[:, None] - np.arange(dim)[None, :]).astype(float)


def number_difference_moment(state: MultiModeFockState, power: int) -> float:
    """<(N_0 - N_1)^power> on the first two modes of a state.

    Multi-mode states keep tensor-product order, so modes 0 and 1 are the
    twin-beam signal modes.  The number operators are diagonal, so this is
    an exact weighted probability sum.
    """
    _check_difference_power(power)
    if state.mode_count < 2:
        raise InvalidModeIndex("number-difference moments need at least two modes")
    weight = (_occupation_difference(state.cutoff.dim) ** power).reshape(
        (state.cutoff.dim,) * 2 + (1,) * (state.mode_count - 2))
    prob = np.abs(state.amplitudes) ** 2
    return float(np.sum(weight * prob))
