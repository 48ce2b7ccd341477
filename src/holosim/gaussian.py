"""Analytic backend: two-mode Gaussian phase-space states and their moments.

States are parametrized by the widths (sigma_plus, sigma_minus) of the
correlated quadrature combinations (x1+x2)/(y1-y2) and (y1+y2)/(x1-x2);
every state is centered at the origin.  The closed-form thermal-channel
evolution acts directly on the widths.  Ordered moments are computed two
independent ways: one Gaussian pairwise factorization with commutator
bookkeeping, for ordered products of linear forms with means
(`ordered_moment`, which `isserlis_moment` applies to a two-mode ladder
sequence ((mode, dagger), ...) in any order), and direct numerical
quadrature of the phase-space Laguerre-kernel formula (`glauber_moment`,
for the normally ordered powers (n1, m1, n2, m2)).

Normalization is fixed by the vacuum: sigma_plus = sigma_minus = 1 gives
Var(x) = Var(y) = 1/4 per mode with a = x + i*y, which reproduces
<a'a> = 0 on the vacuum and <a'a> = sinh(r)^2 on the two-mode squeezed
state; this dictionary is pinned by tests against the occupation-basis
oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegreeTooHigh, InvalidModeIndex, NegativeParameter
from .fock import MAX_MONOMIAL_DEGREE, SqueezeParams


def as_ladder_sequence(powers: tuple) -> tuple:
    """(a1')^n1 a1^m1 (a2')^n2 a2^m2 as a ((mode, dagger), ...) sequence,
    left to right, for powers (n1, m1, n2, m2)."""
    n1, m1, n2, m2 = powers
    return ((0, True),) * n1 + ((0, False),) * m1 + ((1, True),) * n2 + ((1, False),) * m2


@dataclass(frozen=True)
class TwoModeGaussianState:
    """Zero-mean Gaussian Wigner state with widths Sigma+/Sigma-.

    sigma_plus is the variance of sqrt(2)*(x1+x2) (equivalently of
    sqrt(2)*(y1-y2)); sigma_minus the variance of sqrt(2)*(y1+y2) and
    sqrt(2)*(x1-x2).  The pure two-mode squeezed state has
    sigma_plus*sigma_minus = 1.
    """

    sigma_plus: float
    sigma_minus: float

    def __post_init__(self):
        if not (self.sigma_plus > 0.0 and self.sigma_minus > 0.0):
            raise NegativeParameter(
                f"widths must be positive, got ({self.sigma_plus!r}, {self.sigma_minus!r})")

    def mean_occupancy(self) -> float:
        """<a'a> per mode (equal for both modes by symmetry)."""
        return (self.sigma_plus + self.sigma_minus) / 4.0 - 0.5

    def pair_correlation(self) -> float:
        """<a1 a2> = <a1' a2'>."""
        return (self.sigma_plus - self.sigma_minus) / 4.0

    @functools.cached_property
    def kernel(self) -> tuple:
        """Ordered second moments K[i][j] = <o_i o_j> over (a1', a1, a2', a2).

        Every entry is read: a product in normal order reads the entries
        with i <= j, and one in another order, such as a1 a1', also reads
        the n + 1 entries and the lower c entries (``ordered_moment``).
        """
        n, c = self.mean_occupancy(), self.pair_correlation()
        return ((0.0, n, c, 0.0), (n + 1.0, 0.0, 0.0, c),
                (c, 0.0, 0.0, n), (0.0, c, n + 1.0, 0.0))


def from_squeezing(params: SqueezeParams) -> TwoModeGaussianState:
    """Pure twin-beam state of squeeze strength r: widths e^{2r}, e^{-2r}."""
    return TwoModeGaussianState(math.exp(2.0 * params.r), math.exp(-2.0 * params.r))


def asymptotic_width(m_thermal: float) -> float:
    """Width (M + 1/2)/2 that the thermal channel relaxes both widths toward.

    A thermal state of occupation M has width 2M + 1 in the vacuum-is-1
    convention, four times this value; the normalization is an open
    question and lives only here.
    """
    return 0.5 * (m_thermal + 0.5)


def fokker_planck_coefficients(m_thermal: float) -> tuple:
    """(drift, diffusion) per unit coupling rate of the phase-space equation.

    drift multiplies (d/dx x + d/dy y), diffusion multiplies
    (d2/dx2 + d2/dy2) per mode: (1/2, (2M+1)/2).
    """
    return 0.5, (2.0 * m_thermal + 1.0) / 2.0


def evolve(state: TwoModeGaussianState, m_thermal: float,
           lambda_t: float) -> TwoModeGaussianState:
    """Closed-form thermal-channel action on the widths after time t.

    Time is measured in units of 1/lambda, so only M and lambda*t enter:
    Sigma(t) = (M + 1/2)(1 - e^{-lambda t})/2 + Sigma(0) e^{-lambda t} for
    both widths.  Forward evolution only.
    """
    if not m_thermal >= 0.0:
        raise NegativeParameter(
            f"thermal occupation M must be non-negative, got {m_thermal!r}")
    if not lambda_t >= 0.0:
        raise NegativeParameter(
            f"evolution time must be non-negative, got {lambda_t!r}")
    decay = math.exp(-lambda_t)
    return TwoModeGaussianState(relax_width(state.sigma_plus, m_thermal, decay),
                                relax_width(state.sigma_minus, m_thermal, decay))


def relax_width(width, m_thermal, decay):
    """One width after the channel, given decay = e^{-lambda t}; elementwise on arrays."""
    return asymptotic_width(m_thermal) * (1.0 - decay) + width * decay


def _pairwise(lin, pair):
    """The recursion of ``ordered_moment`` on the contractions of its forms.

    lin[k] = w_k.m, or None where every mean vanishes, and pair[k][j] =
    w_k G w_j, as Python numbers or as batch arrays.
    """
    memo = {0: 1.0}

    def rec(mask):
        if mask in memo:
            return memo[mask]
        first = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << first)
        total = 0.0 if lin is None else lin[first] * rec(rest)
        sub = rest
        while sub:
            j = (sub & -sub).bit_length() - 1
            total = total + pair[first][j] * rec(rest & ~(1 << j))
            sub &= sub - 1
        memo[mask] = total
        return total

    return rec((1 << len(pair)) - 1)


def ordered_moment(kernel, means, forms):
    """<(w_1.alpha)(w_2.alpha)...(w_k.alpha)> of a Gaussian state, in that order.

    ``kernel`` is the ordered covariance G[i][j] = <da_i da_j> of the mode
    operators alpha (da = alpha - <alpha>), ``means`` their means m, and
    row k of ``forms`` the coefficients w_k; a trailing batch axis on
    ``forms`` gives one moment per batch column.  Pairwise factorization
    gives the recursion over the set S of forms still in the product

        f(S) = (w_first.m) f(S - first) + sum_j (w_first G w_j) f(S - {first, j}),

    memoized on bitmasks.  G keeps the operator order, so the commutator
    bookkeeping holds for products in any order.
    """
    lin = np.einsum("kn...,n->k...", forms, means)
    pair = np.einsum("in...,nm,jm...->ij...", forms, kernel, forms)
    return _pairwise(lin if np.any(means) else None, pair)


def isserlis_moment(state: TwoModeGaussianState, ops) -> complex:
    """Ordered moment of a zero-mean two-mode state by pairwise factorization.

    ``ops`` is a ((mode, dagger), ...) sequence, as ``fock.expectation``
    reads it, in any order.  The recursion of ``ordered_moment`` with each
    operator as a unit form over (a1', a1, a2', a2), whose contractions are
    entries of ``state.kernel``: read off directly, cheaper than numpy here.
    """
    rows = [2 * int(mode) + (not dagger) for mode, dagger in ops]
    if len(rows) > MAX_MONOMIAL_DEGREE:
        raise DegreeTooHigh(f"total degree {len(rows)} exceeds {MAX_MONOMIAL_DEGREE}")
    if not set(rows) <= {0, 1, 2, 3}:
        raise InvalidModeIndex(f"two-mode products take modes 0 and 1, got {ops!r}")
    return complex(_pairwise(None, [[state.kernel[a][b] for b in rows] for a in rows]))


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


# The 5-node Gauss-Hermite rule for the density e^{-x^2}/sqrt(pi) in closed
# form (Abramowitz & Stegun, Table 25.10), in ascending node order: nodes 0,
# +-sqrt((5 - sqrt(10))/2), +-sqrt((5 + sqrt(10))/2) carry the weights 8/15,
# (7 + 2 sqrt(10))/60, (7 - 2 sqrt(10))/60.  Exact through degree 9.
_SQRT10 = math.sqrt(10.0)
_INNER, _OUTER = math.sqrt((5.0 - _SQRT10) / 2.0), math.sqrt((5.0 + _SQRT10) / 2.0)
_W_INNER, _W_OUTER = (7.0 + 2.0 * _SQRT10) / 60.0, (7.0 - 2.0 * _SQRT10) / 60.0
HERMITE_NODES = np.array([-_OUTER, -_INNER, 0.0, _INNER, _OUTER])
HERMITE_WEIGHTS = np.array([_W_OUTER, _W_INNER, 8.0 / 15.0, _W_INNER, _W_OUTER])


def glauber_moment(state: TwoModeGaussianState, powers: tuple) -> complex:
    """<(a1')^n1 a1^m1 (a2')^n2 a2^m2> by direct phase-space quadrature.

    Takes the powers (n1, m1, n2, m2) of a normally ordered product.
    Integrates the per-mode Laguerre kernels against the Gaussian Wigner
    density using a tensor-product Gauss-Hermite rule in the four
    statistically independent rotated quadratures (x1+x2, y1+y2, x1-x2,
    y1-y2), each rescaled to its own width.  The kernels are polynomials
    of degree at most MAX_MONOMIAL_DEGREE, so the smallest exact rule has
    MAX_MONOMIAL_DEGREE // 2 + 1 = 5 nodes (exact through degree 2n - 1 = 9):
    ``HERMITE_NODES`` and ``HERMITE_WEIGHTS``, in closed form.
    """
    for p in powers:
        if not isinstance(p, (int, np.integer)) or p < 0:
            raise DegreeTooHigh(f"powers must be non-negative integers, got {p!r}")
    if sum(powers) > MAX_MONOMIAL_DEGREE:
        raise DegreeTooHigh(f"total degree {sum(powers)} exceeds {MAX_MONOMIAL_DEGREE}")
    n1, m1, n2, m2 = powers
    # Independent rotated coordinates and their variances: u_plus = x1 + x2,
    # w_plus = y1 + y2, u_minus = x1 - x2, w_minus = y1 - y2.
    variances = (state.sigma_plus / 2.0, state.sigma_minus / 2.0,
                 state.sigma_minus / 2.0, state.sigma_plus / 2.0)
    up, wp, um, wm = np.ix_(*(math.sqrt(2.0 * var) * HERMITE_NODES for var in variances))
    z1 = 0.5 * ((up + um) + 1j * (wp + wm))
    z2 = 0.5 * ((up - um) + 1j * (wp - wm))
    vals = _laguerre_kernel(z1, n1, m1) * _laguerre_kernel(z2, n2, m2)
    w1, w2, w3, w4 = np.ix_(*(HERMITE_WEIGHTS,) * 4)
    return complex(np.sum(w1 * w2 * w3 * w4 * vals))
