"""Truncated occupation-basis oracle for few-mode photonic states.

A state is a plain complex amplitude tensor, one axis per mode, each of
length ``n_max+1`` for a shared per-mode cutoff ``n_max``: the mode count
is its ``ndim`` and the cutoff its ``shape[0] - 1``.  The module
provides the twin-beam builder with its exact tail above the cutoff
(``twb_tail``), occupation-basis kets, an exactly unitary beam-splitter
action, and expectation values of low-degree ordered ladder monomials
evaluated by sparse axis-wise matrix action.
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
MAX_MONOMIAL_DEGREE = 8
MAX_DIFFERENCE_POWER = 4
# e^{2r}, cosh(2r) and sinh(2r) overflow a double beyond r = 354.9.
MAX_SQUEEZE_R = 350.0
# The phase table reads its mixed derivative, of order |mu|^2, off entries of
# order |mu|^4: relative rounding 2.5e-11 at |mu| = 1e3, 2e-8 at 1e4.
MAX_COHERENT_AMPLITUDE = 1e3


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
        if abs(self.mu) > MAX_COHERENT_AMPLITUDE:
            raise AmplitudeTooLarge(
                f"|mu| must be <= {MAX_COHERENT_AMPLITUDE:g}, got {abs(self.mu):.4g}")

    @property
    def mean_photons(self) -> float:
        return abs(self.mu) ** 2


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
              tail_tol: float = DEFAULT_TWO_MODE_TAIL_TOL) -> np.ndarray:
    """Twin-beam (two-mode squeezed vacuum) amplitudes on two modes.

    Amplitudes are the exact geometric series tanh(r)^n * sech(r) on the
    diagonal |n, n>, renormalized after truncation.  Raises
    ``CutoffTooSmall`` if the exact discarded weight exceeds ``tail_tol``.
    """
    twb_tail(params.r, cutoff, tail_tol)
    n = np.arange(cutoff.dim)
    diag = (np.tanh(params.r) ** n) * (1.0 / np.cosh(params.r))
    amp = np.zeros((cutoff.dim, cutoff.dim), dtype=complex)
    amp[n, n] = diag
    amp /= np.linalg.norm(amp)
    return amp


def basis_state(occupations, cutoff: FockCutoff) -> np.ndarray:
    """Occupation-basis ket |n_0, n_1, ...> as an amplitude tensor."""
    occupations = tuple(int(n) for n in occupations)
    for n in occupations:
        if not 0 <= n <= cutoff.n_max:
            raise CutoffTooSmall(f"occupation {n} outside 0..{cutoff.n_max}")
    amp = np.zeros((cutoff.dim,) * len(occupations), dtype=complex)
    amp[occupations] = 1.0
    return amp


def _check_state(amp: np.ndarray, *modes) -> None:
    """Raise ``InvalidModeIndex`` unless ``amp``'s axes share one length and
    each of ``modes`` is one of its axes."""
    if len(set(amp.shape)) > 1:
        raise InvalidModeIndex(
            f"amplitude tensor has shape {amp.shape}, expected axes of one length")
    for mode in modes:
        if not 0 <= mode < amp.ndim:
            raise InvalidModeIndex(f"mode {mode} out of range for a {amp.ndim}-mode state")


def apply_beam_splitter(amp: np.ndarray, mode_a: int, mode_b: int,
                        phi: float) -> np.ndarray:
    """Apply exp(phi*(a'b - b'a)/2) mixing ``mode_a`` into ``mode_b``.

    In the Heisenberg picture this sends a -> a*cos(phi/2) + b*sin(phi/2),
    so phi = pi swaps the two modes (up to sign).  Exactly unitary at any
    cutoff; applied chain-wise without building the dense unitary.
    """
    _check_state(amp, mode_a, mode_b)
    if mode_a == mode_b:
        raise InvalidModeIndex("beam splitter requires two distinct modes")
    if not math.isfinite(phi):
        raise UnsupportedPhase("beam-splitter angle must be finite")
    amp = np.moveaxis(amp, (mode_a, mode_b), (0, 1))
    amp = apply_exponential("beam_splitter", amp.shape[0], phi, amp)
    return np.moveaxis(amp, (0, 1), (mode_a, mode_b))


def _apply_ladder(amp: np.ndarray, mode: int, dagger: bool) -> np.ndarray:
    """Apply a or a' on one tensor axis via the shifted-sqrt stencil."""
    out = np.empty_like(amp)
    dim = amp.shape[mode]
    root = np.sqrt(np.arange(1, dim)).reshape((dim - 1,) + (1,) * (amp.ndim - 1 - mode))
    head = (slice(None),) * mode
    low, high = head + (slice(None, -1),), head + (slice(1, None),)
    # a' fills levels 1.. and leaves level 0 empty; a fills all but the top.
    src, dst, edge = (low, high, 0) if dagger else (high, low, -1)
    np.multiply(root, amp[src], out=out[dst])
    out[head + (edge,)] = 0.0
    return out


def expectation(amp: np.ndarray, monomial) -> complex:
    """Expectation of an ordered ladder monomial on amplitudes ``amp``.

    ``monomial`` is a sequence of ``(mode, dagger)`` pairs read left to
    right as written, e.g. ``[(0, True), (1, False)]`` for a0' a1.  Degree
    is capped at 8.
    """
    ops = list(monomial)
    if len(ops) > MAX_MONOMIAL_DEGREE:
        raise DegreeTooHigh(f"monomial degree {len(ops)} exceeds {MAX_MONOMIAL_DEGREE}")
    _check_state(amp, *(int(mode) for mode, _ in ops))
    ket = amp
    for mode, dagger in reversed(ops):
        ket = _apply_ladder(ket, int(mode), bool(dagger))
    return complex(np.vdot(amp, ket))


def _check_difference_power(power) -> None:
    if not isinstance(power, (int, np.integer)) or not 1 <= power <= MAX_DIFFERENCE_POWER:
        raise DegreeTooHigh(
            f"difference power must be an integer in 1..{MAX_DIFFERENCE_POWER}")


def _occupation_difference(dim: int) -> np.ndarray:
    """N1 - N2 as a diagonal weight on two-mode amplitude tensors."""
    return (np.arange(dim)[:, None] - np.arange(dim)[None, :]).astype(float)


def number_difference_moment(amp: np.ndarray, power: int) -> float:
    """<(N_0 - N_1)^power> on the first two modes of amplitudes ``amp``.

    On a twin beam these are its two modes.  The number operators are
    diagonal, so this is an exact weighted probability sum.
    """
    _check_difference_power(power)
    _check_state(amp, 0, 1)
    dim = amp.shape[0]
    weight = (_occupation_difference(dim) ** power).reshape((dim,) * 2 + (1,) * (amp.ndim - 2))
    return float(np.sum(weight * np.abs(amp) ** 2))
