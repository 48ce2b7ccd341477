"""Analytic backend: two-mode Gaussian phase-space states and their moments.

States are parametrized by the widths (sigma_plus, sigma_minus) of the
correlated quadrature combinations (x1+x2)/(y1-y2) and (y1+y2)/(x1-x2),
plus an optional mean vector.  The closed-form thermal-channel evolution
acts directly on the widths.  Ordered ladder-operator moments are computed
two independent ways: an exact Gaussian moment factorization with
commutator bookkeeping (`isserlis_moment`) and direct numerical quadrature
of the phase-space Laguerre-kernel formula (`glauber_moment`).

Normalization is fixed by the vacuum: sigma_plus = sigma_minus = 1 gives
Var(x) = Var(y) = 1/4 per mode with a = x + i*y, which reproduces
<a'a> = 0 on the vacuum and <a'a> = sinh(r)^2 on the two-mode squeezed
state; this dictionary is pinned by tests against the occupation-basis
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .environment import EnvironmentParams
from .errors import (
    DegreeTooHigh,
    NegativeParameter,
    QuadratureUnderResolved,
    UnsupportedPhase,
)
from .fock import SqueezeParams

MAX_MOMENT_DEGREE = 8
MIN_NODES_PER_AXIS = 12


@dataclass(frozen=True)
class WignerMonomial:
    """Ordered ladder monomial (a1')^n1 a1^m1 (a2')^n2 a2^m2 (primes = daggers)."""

    n1: int
    m1: int
    n2: int
    m2: int

    def __post_init__(self):
        for p in self.powers:
            if not isinstance(p, (int, np.integer)) or p < 0:
                raise DegreeTooHigh(f"powers must be non-negative integers, got {p!r}")
        if self.degree > MAX_MOMENT_DEGREE:
            raise DegreeTooHigh(
                f"total degree {self.degree} exceeds {MAX_MOMENT_DEGREE}")

    @property
    def powers(self) -> tuple:
        return (self.n1, self.m1, self.n2, self.m2)

    @property
    def degree(self) -> int:
        return self.n1 + self.m1 + self.n2 + self.m2


def as_ladder_sequence(monomial: WignerMonomial) -> tuple:
    """The monomial as an ordered ((mode, dagger), ...) sequence, left to right."""
    return tuple([(0, True)] * monomial.n1 + [(0, False)] * monomial.m1
                 + [(1, True)] * monomial.n2 + [(1, False)] * monomial.m2)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tensor-product Gauss-Hermite rule size for phase-space integration."""

    nodes_per_axis: int = 48


@dataclass(frozen=True)
class TwoModeGaussianState:
    """Gaussian Wigner state with widths Sigma+/Sigma- and mean (x1,y1,x2,y2).

    sigma_plus is the variance of sqrt(2)*(x1+x2) (equivalently of
    sqrt(2)*(y1-y2)); sigma_minus the variance of sqrt(2)*(y1+y2) and
    sqrt(2)*(x1-x2).  The pure two-mode squeezed state has
    sigma_plus*sigma_minus = 1.
    """

    sigma_plus: float
    sigma_minus: float
    mean: tuple = field(default=(0.0, 0.0, 0.0, 0.0))

    def __post_init__(self):
        if not (self.sigma_plus > 0.0 and self.sigma_minus > 0.0):
            raise NegativeParameter(
                f"widths must be positive, got ({self.sigma_plus!r}, {self.sigma_minus!r})")
        if len(self.mean) != 4:
            raise NegativeParameter("mean must be a 4-vector (x1, y1, x2, y2)")
        object.__setattr__(self, "mean", tuple(float(v) for v in self.mean))

    def covariance_matrix(self) -> np.ndarray:
        """4x4 covariance of (x1, y1, x2, y2)."""
        s, d = (self.sigma_plus + self.sigma_minus) / 8.0, (
            self.sigma_plus - self.sigma_minus) / 8.0
        cov = np.diag([s, s, s, s])
        cov[0, 2] = cov[2, 0] = d
        cov[1, 3] = cov[3, 1] = -d
        return cov

    def mean_occupancy(self) -> float:
        """<a'a> per mode (equal for both modes by symmetry), zero-mean part."""
        return (self.sigma_plus + self.sigma_minus) / 4.0 - 0.5

    def pair_correlation(self) -> float:
        """<a1 a2> = <a1' a2'> for the zero-mean part."""
        return (self.sigma_plus - self.sigma_minus) / 4.0


def from_squeezing(params: SqueezeParams) -> TwoModeGaussianState:
    """Pure twin-beam state of squeeze strength r: widths e^{2r}, e^{-2r}."""
    if params.theta != 0.0:
        raise UnsupportedPhase(
            "the analytic backend evolves real squeezing only (theta = 0)")
    return TwoModeGaussianState(math.exp(2.0 * params.r), math.exp(-2.0 * params.r))


def evolve(state: TwoModeGaussianState, env: EnvironmentParams,
           t: float) -> TwoModeGaussianState:
    """Closed-form thermal-channel action on the widths after time t.

    Sigma(t) = (M + 1/2)(1 - e^{-lambda t})/2 + Sigma(0) e^{-lambda t} for
    both widths; means decay as e^{-lambda t / 2}.  Forward evolution only.
    """
    if t < 0.0:
        raise NegativeParameter(f"evolution time must be non-negative, got {t!r}")
    decay = math.exp(-env.lam * t)
    asym = 0.5 * (env.M + 0.5) * (1.0 - decay)
    amp = math.sqrt(decay)
    return TwoModeGaussianState(
        asym + state.sigma_plus * decay,
        asym + state.sigma_minus * decay,
        tuple(amp * v for v in state.mean))


def _ladder_means(state: TwoModeGaussianState) -> dict:
    x1, y1, x2, y2 = state.mean
    z1, z2 = complex(x1, y1), complex(x2, y2)
    return {(0, False): z1, (0, True): z1.conjugate(),
            (1, False): z2, (1, True): z2.conjugate()}


def _central_kernel(state: TwoModeGaussianState):
    """Ordered second moments K[(op_i, op_j)] = <op_i op_j> - <op_i><op_j>."""
    nbar = state.mean_occupancy()
    c = state.pair_correlation()
    kern = {}
    for mode in (0, 1):
        kern[((mode, False), (mode, True))] = nbar + 1.0
        kern[((mode, True), (mode, False))] = nbar
        kern[((mode, False), (mode, False))] = 0.0
        kern[((mode, True), (mode, True))] = 0.0
    for da in (False, True):
        for db in (False, True):
            val = c if da == db else 0.0
            kern[((0, da), (1, db))] = val
            kern[((1, da), (0, db))] = val
    return kern


def isserlis_moment(state: TwoModeGaussianState,
                    monomial: WignerMonomial) -> complex:
    """Ordered moment by Gaussian pairwise factorization.

    The ordered product expectation of displaced Gaussian mode operators
    obeys the recursion <o1 o2 ... ok> = mu1 <rest> + sum_j K(1, j) <rest
    without j>, where K is the ordered central second-moment kernel; the
    kernel's asymmetry between (a, a') and (a', a) carries all commutator
    corrections, so no separate reordering pass is needed.
    """
    ops = as_ladder_sequence(monomial)
    if not ops:
        return 1.0 + 0.0j
    means = _ladder_means(state)
    kern = _central_kernel(state)
    mu = [means[o] for o in ops]
    kc = [[kern[(a, b)] for b in ops] for a in ops]
    n = len(ops)
    memo = {0: 1.0 + 0.0j}

    def rec(mask: int) -> complex:
        if mask in memo:
            return memo[mask]
        first = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << first)
        total = mu[first] * rec(rest)
        sub = rest
        while sub:
            j = (sub & -sub).bit_length() - 1
            total += kc[first][j] * rec(rest & ~(1 << j))
            sub &= sub - 1
        memo[mask] = total
        return total

    return rec((1 << n) - 1)


def _genlaguerre(n: int, alpha: int, x: np.ndarray) -> np.ndarray:
    """Generalized Laguerre polynomial L_n^alpha(x) by its three-term recurrence."""
    prev, cur = np.zeros_like(x), np.ones_like(x)
    for k in range(n):
        prev, cur = cur, ((2 * k + 1 + alpha - x) * cur - (k + alpha) * prev) / (k + 1)
    return cur


def _laguerre_kernel(z: np.ndarray, n: int, m: int) -> np.ndarray:
    """Phase-space kernel whose Gaussian average gives <(a')^n a^m> per mode."""
    if n == 0 and m == 0:
        return np.ones_like(z)
    arg = 2.0 * np.abs(z) ** 2
    if m >= n:
        return (math.factorial(n) * (-0.5) ** n * z ** (m - n)
                * _genlaguerre(n, m - n, arg))
    return (math.factorial(m) * (-0.5) ** m * np.conj(z) ** (n - m)
            * _genlaguerre(m, n - m, arg))


@lru_cache(maxsize=8)
def _hermite_rule(nodes: int):
    t, w = np.polynomial.hermite.hermgauss(nodes)
    return t, w / math.sqrt(math.pi)


def glauber_moment(state: TwoModeGaussianState, monomial: WignerMonomial,
                   quad: QuadratureSpec = QuadratureSpec()) -> complex:
    """Ordered moment by direct phase-space quadrature.

    Integrates the per-mode Laguerre kernels against the Gaussian Wigner
    density using a tensor-product Gauss-Hermite rule in the four
    statistically independent rotated quadratures (x1+x2, y1+y2, x1-x2,
    y1-y2), each rescaled to its own width.  Exact for polynomial kernels
    once the rule's degree exceeds the integrand's, so the default 48-node
    rule is far beyond the degree-8 cap.
    """
    if monomial.degree > MAX_MOMENT_DEGREE:
        raise DegreeTooHigh(
            f"total degree {monomial.degree} exceeds {MAX_MOMENT_DEGREE}")
    if quad.nodes_per_axis < MIN_NODES_PER_AXIS:
        raise QuadratureUnderResolved(
            f"need at least {MIN_NODES_PER_AXIS} nodes per axis, "
            f"got {quad.nodes_per_axis}")
    t, w = _hermite_rule(quad.nodes_per_axis)
    x1m, y1m, x2m, y2m = state.mean
    # Independent rotated coordinates and their variances.
    specs = (
        (x1m + x2m, state.sigma_plus / 2.0),   # u_plus  = x1 + x2
        (y1m + y2m, state.sigma_minus / 2.0),  # w_plus  = y1 + y2
        (x1m - x2m, state.sigma_minus / 2.0),  # u_minus = x1 - x2
        (y1m - y2m, state.sigma_plus / 2.0),   # w_minus = y1 - y2
    )
    axes = [mean + math.sqrt(2.0 * var) * t for mean, var in specs]
    total = 0.0 + 0.0j
    # Loop the outermost axis to keep the node tensors small.
    wp = axes[1][:, None, None]
    um = axes[2][None, :, None]
    wm = axes[3][None, None, :]
    w3 = (w[:, None, None] * w[None, :, None] * w[None, None, :])
    for up, wu in zip(axes[0], w):
        z1 = 0.5 * ((up + um) + 1j * (wp + wm))
        z2 = 0.5 * ((up - um) + 1j * (wp - wm))
        vals = (_laguerre_kernel(z1, monomial.n1, monomial.m1)
                * _laguerre_kernel(z2, monomial.n2, monomial.m2))
        total += wu * np.sum(w3 * vals)
    return complex(total)
