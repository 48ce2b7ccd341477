"""Phase-correlation estimator assembly.

Builds the measurable pieces of the two-interferometer scheme: the
output photon-number-difference statistics as a function of the two
interferometer phases, their Monte-Carlo averages over correlated
(parallel) and uncorrelated (orthogonal) phase noise, the correlation
estimator with its mixed-derivative denominator, and the closed-form
entanglement-enhanced uncertainty ratios for the thermal-environment and
deformed-commutator degradation channels, each with an independent
cross-checking backend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import (
    DegenerateDenominator,
    NegativeParameter,
    ParameterOutOfRange,
    ZeroAmplitude,
)
from .fock import (
    DEFAULT_FOUR_MODE_CUTOFF,
    DEFAULT_FOUR_MODE_TAIL_TOL,
    MAX_DIFFERENCE_POWER,
    CoherentInput,
    FockCutoff,
    MultiModeFockState,
    SqueezeParams,
    apply_beam_splitter,
    build_coherent,
    build_twb,
    expectation,
    number_difference_moment,
    tensor_product,
    twb_tail,
)
from .gaussian import WignerMonomial, evolve, from_squeezing
from .modccr import _check_epsilon, deformed_variance_coefficient

DENOM_FLOOR = 1e-8
MC_CHUNK = 4096
MIN_SAMPLES = 1000
ORACLE_MAX_EPSILON = 0.1
DEFAULT_ORACLE_CUTOFF = 64
PLANCK_MASS_GEV = 1.22e19  # PDG rounded value
EV_PER_GEV = 1e9
_TABLE_HARMONICS = MAX_DIFFERENCE_POWER  # the table is exact only up to its order


class Backend(str, Enum):
    GAUSSIAN_FULL = "gaussian_full"
    GAUSSIAN_APPROX = "gaussian_approx"
    FOCK_ORACLE = "fock_oracle"
    ANALYTIC_MODCCR = "analytic_modccr"


@dataclass(frozen=True)
class UncertaintyResult:
    """Normalized uncertainty ratio and the backend that computed it."""

    ratio: float
    backend: Backend

    def __post_init__(self):
        if not self.ratio >= 0.0:
            raise NegativeParameter(f"ratio must be >= 0, got {self.ratio!r}")


@dataclass(frozen=True)
class PhaseNoiseModel:
    """Bivariate Gaussian phase-noise model for the two interferometers.

    The phase fluctuations have widths sigma1, sigma2 and correlation
    coefficient rho; rho = 0 describes the orthogonal configuration.
    """

    sigma1: float
    sigma2: float
    rho: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.sigma1) and math.isfinite(self.sigma2)):
            raise ParameterOutOfRange(
                f"noise widths must be finite, got ({self.sigma1!r}, {self.sigma2!r})")
        if self.sigma1 < 0.0 or self.sigma2 < 0.0:
            raise NegativeParameter("noise widths must be non-negative")
        if not -1.0 <= self.rho <= 1.0:
            raise NegativeParameter(f"correlation must be in [-1, 1], got {self.rho!r}")

    def scale_matrix(self) -> np.ndarray:
        """Lower-triangular L with phases = centers + L @ z, z ~ N(0, I)."""
        return np.array([
            [self.sigma1, 0.0],
            [self.rho * self.sigma2,
             self.sigma2 * math.sqrt(max(0.0, 1.0 - self.rho ** 2))],
        ])


# ---------------------------------------------------------------------------
# Moment bookkeeping: number-difference powers as ordered ladder monomials.
# ---------------------------------------------------------------------------

# (a'a)^p = sum_k T[p][k] (a')^k a^k  (occupation-number ordering table)
_POWER_TABLE = {
    0: {0: 1},
    1: {1: 1},
    2: {1: 1, 2: 1},
    3: {1: 1, 2: 3, 3: 1},
    4: {1: 1, 2: 7, 3: 6, 4: 1},
}


def difference_power_terms(power: int) -> dict:
    """(N1 - N2)^power as {WignerMonomial: integer coefficient}."""
    terms = {}
    for j in range(power + 1):
        sign_binom = (-1) ** j * math.comb(power, j)
        for k1, c1 in _POWER_TABLE[power - j].items():
            for k2, c2 in _POWER_TABLE[j].items():
                mono = WignerMonomial(k1, k1, k2, k2)
                terms[mono] = terms.get(mono, 0) + sign_binom * c1 * c2
    return terms


_DENOMINATOR_MONOMIALS = (
    WignerMonomial(0, 1, 0, 1),  # a1 a2
    WignerMonomial(1, 0, 1, 0),  # a1' a2'
    WignerMonomial(0, 1, 1, 0),  # a1 a2'
    WignerMonomial(1, 0, 0, 1),  # a1' a2
)


def required_monomials() -> tuple:
    """Every ordered monomial the uncertainty ratio is assembled from."""
    monos = dict.fromkeys(_DENOMINATOR_MONOMIALS)
    for power in (2, 4):
        for mono in difference_power_terms(power):
            if mono.degree > 0:
                monos.setdefault(mono)
    return tuple(monos)


# ---------------------------------------------------------------------------
# Closed-form uncertainty ratios.
# ---------------------------------------------------------------------------

def classical_uncertainty(mu: complex) -> float:
    """Shot-noise floor sqrt(2)/|mu|^2 of the coherent-input scheme."""
    photons = CoherentInput(mu).mean_photons
    if photons == 0.0:
        raise ZeroAmplitude("classical baseline needs a nonzero coherent amplitude")
    return math.sqrt(2.0) / photons


def _ratio_squeeze(r: float) -> SqueezeParams:
    """Validated squeeze strength of a closed-form ratio with denominator sinh(2r)."""
    if r == 0.0:
        raise DegenerateDenominator("the ratio denominator sinh(2r) vanishes at r = 0")
    return SqueezeParams(r)


def _check_thermal(m_thermal: float, lambda_tau: float) -> None:
    if not (m_thermal >= 0.0 and lambda_tau >= 0.0):
        raise NegativeParameter(
            f"M and lambda*tau must be non-negative, "
            f"got ({m_thermal!r}, {lambda_tau!r})")


def uncertainty_env_approx(r: float, m_thermal: float,
                           lambda_tau: float) -> UncertaintyResult:
    """Lowest-order ratio 8 sqrt(lt) sqrt((2M+1)cosh(2r) - 1) / sinh(2r)."""
    _ratio_squeeze(r)
    _check_thermal(m_thermal, lambda_tau)
    ratio = (8.0 * math.sqrt(lambda_tau)
             * math.sqrt((2.0 * m_thermal + 1.0) * math.cosh(2.0 * r) - 1.0)
             / math.sinh(2.0 * r))
    return UncertaintyResult(ratio, Backend.GAUSSIAN_APPROX)


def uncertainty_env_full(r: float, m_thermal: float,
                         lambda_tau: float) -> UncertaintyResult:
    """Uncertainty ratio from the evolved analytic state.

    Numerator: the variance <DN^4> - <DN^2>^2 vanishes on the pure state
    and grows linearly along the channel, so it is evaluated as (growth
    rate of the purity parameter q = S+S-) x (variance slope 1/2 in q) x
    (lambda tau); the square root of a linear ramp matches the exact
    small-coupling behaviour, which is the regime where the printed closed
    form is valid.  Denominator: the quadrature correlator
    <(a1' + a1)(a2' + a2)> = 2 <a1 a2> read off the evolved widths.
    Coherent ports affect only the classical normalization and are taken
    at zeroth order, so their amplitude does not enter the ratio.
    """
    squeeze = _ratio_squeeze(r)
    _check_thermal(m_thermal, lambda_tau)
    if lambda_tau == 0.0:
        return UncertaintyResult(0.0, Backend.GAUSSIAN_FULL)
    initial = from_squeezing(squeeze)
    evolved = evolve(initial, m_thermal, lambda_tau)
    denom = 2.0 * evolved.pair_correlation()
    if abs(denom) <= DENOM_FLOOR:
        raise DegenerateDenominator(
            f"quadrature correlator {denom:.3e} below floor {DENOM_FLOOR:.0e}")
    sp, sm = initial.sigma_plus, initial.sigma_minus
    heat = 2.0 * m_thermal + 1.0
    # d(S+ S-)/dt at t=0 for the width relaxation toward the variance-scale
    # asymptote, in lambda*t units with the numerator's rate normalization.
    q_rate = 16.0 * ((heat - sp) * sm + sp * (heat - sm))
    # The variance is (q - 1)(5q - 3)/4 for every aspect ratio: slope 1/2 at q = 1.
    variance_lin = 0.5 * q_rate * lambda_tau
    ratio = 2.0 * math.sqrt(max(variance_lin, 0.0)) / denom
    return UncertaintyResult(ratio, Backend.GAUSSIAN_FULL)


def planck_coupling_estimate(omega_gamma_ev: float) -> float:
    """Order-of-magnitude lambda*tau ~ omega/M_Planck for photon energy in eV."""
    if omega_gamma_ev < 0.0:
        raise NegativeParameter(
            f"photon energy must be non-negative, got {omega_gamma_ev!r}")
    return (omega_gamma_ev / EV_PER_GEV) / PLANCK_MASS_GEV


def uncertainty_modccr_analytic(r: float, epsilon: float) -> UncertaintyResult:
    """First-order deformed-algebra ratio 8 r |eps| / sinh(2r)."""
    _ratio_squeeze(r)
    if not math.isfinite(epsilon):
        raise ParameterOutOfRange(f"epsilon must be finite, got {epsilon!r}")
    ratio = 8.0 * r * abs(epsilon) / math.sinh(2.0 * r)
    return UncertaintyResult(ratio, Backend.ANALYTIC_MODCCR)


@lru_cache
def _oracle_terms(r: float, cutoff: FockCutoff) -> tuple:
    """(sqrt of the eps^2 variance coefficient, quadrature correlator) at r.

    Both depend only on the squeeze strength and the cutoff, so a sweep
    over epsilon builds the twin beam once per (r, cutoff).
    """
    twb = build_twb(SqueezeParams(r), cutoff)
    denom = sum(
        expectation(twb, (((0, da), (1, db)))).real
        for da in (True, False) for db in (True, False))
    return math.sqrt(deformed_variance_coefficient(r, cutoff)), denom


def uncertainty_modccr_fock(r: float, epsilon: float,
                            cutoff: FockCutoff = FockCutoff(DEFAULT_ORACLE_CUTOFF),
                            ) -> UncertaintyResult:
    """Oracle evaluation of the deformed-sector ratio on the truncated basis.

    The numerator uses the deformed number-difference observable on the
    first-order-corrected twin-beam state.  Its variance is a polynomial in
    epsilon starting at epsilon^2; the oracle keeps only that leading
    coefficient, taken exactly by ``deformed_variance_coefficient``.  The
    higher orders are not small at moderate squeezing -- they carry extra
    powers of sinh(2r) from the undeformed pair correlations.  The
    denominator is the undeformed quadrature correlator on the same twin
    beam, consistent with first order.  Support is the twin beam's:
    ``CutoffTooSmall`` where its tail above the cutoff exceeds 1e-10, and
    ``AmplitudeTooLarge`` for |epsilon| > 0.1.
    """
    _check_epsilon(epsilon, ORACLE_MAX_EPSILON)
    SqueezeParams(r)  # a negative r would pass the tail check
    twb_tail(r, cutoff)
    if epsilon == 0.0:
        return UncertaintyResult(0.0, Backend.FOCK_ORACLE)
    if r == 0.0:
        raise DegenerateDenominator("the ratio denominator sinh(2r) vanishes at r = 0")
    root, denom = _oracle_terms(r, cutoff)
    if abs(denom) <= DENOM_FLOOR:
        raise DegenerateDenominator(
            f"quadrature correlator {denom:.3e} below floor {DENOM_FLOOR:.0e}")
    return UncertaintyResult(2.0 * root * abs(epsilon) / denom, Backend.FOCK_ORACLE)


# ---------------------------------------------------------------------------
# Interferometer output statistics and their phase-noise averages.
# ---------------------------------------------------------------------------

def four_mode_input(squeeze: SqueezeParams, coherent: CoherentInput,
                    cutoff: FockCutoff = FockCutoff(DEFAULT_FOUR_MODE_CUTOFF),
                    ) -> MultiModeFockState:
    """Input state TWB x |mu> x |mu> on modes (a1, a2, b1, b2).

    Interferometer i mixes signal mode a_i with its coherent port b_i, that
    is modes (0, 2) and (1, 3), and each beam splitter conserves its photon
    total s = n_a + n_b.  The per-mode box keeps every chain with s > n_max
    only in part.  The state is therefore projected onto s1, s2 <= n_max,
    where every chain is a complete spin-s/2 representation and the
    beam splitters act exactly; the projected-out weight is folded into
    ``discarded_tail``.
    """
    twb = build_twb(squeeze, cutoff, tail_tol=DEFAULT_FOUR_MODE_TAIL_TOL)
    port = build_coherent(coherent, cutoff)
    combined = tensor_product(twb, port, port)  # (a1, a2, b1, b2)
    amp = combined.amplitudes
    n_max = cutoff.n_max
    for n in range(1, cutoff.dim):
        amp[n, :, n_max - n + 1:] = 0.0
        amp[:, n, :, n_max - n + 1:] = 0.0
    # Kept weight from the factors: the twin beam pairs n_a1 = n_a2 = n.
    pair = np.abs(np.diagonal(twb.amplitudes)) ** 2
    ports = np.cumsum(np.abs(port.amplitudes) ** 2)[::-1]
    kept = float(np.dot(pair, ports * ports))
    amp /= math.sqrt(kept)
    tail = 1.0 - (1.0 - combined.discarded_tail) * kept
    return MultiModeFockState(4, cutoff, amp, discarded_tail=tail)


def _output_moments(state: MultiModeFockState, phi1: float, phi2: float,
                    powers: tuple) -> list:
    """<(N_c1 - N_c2)^p> for each power, by direct beam-splitter evaluation."""
    out = apply_beam_splitter(state, 0, 2, phi1)
    out = apply_beam_splitter(out, 1, 3, phi2)
    return [number_difference_moment(out, power) for power in powers]


def _trig_basis(phi: np.ndarray) -> np.ndarray:
    """Rows (1, cos phi, sin phi, ..., cos 4phi, sin 4phi), one per phase.

    Only cos phi and sin phi are evaluated; the higher harmonics follow by
    angle addition.
    """
    basis = np.empty((2 * _TABLE_HARMONICS + 1, np.size(phi)))
    basis[0] = 1.0
    cos1, sin1 = basis[1], basis[2]
    np.cos(phi, out=cos1)
    np.sin(phi, out=sin1)
    for k in range(2, _TABLE_HARMONICS + 1):
        cos_prev, sin_prev = basis[2 * k - 3], basis[2 * k - 2]
        np.subtract(cos_prev * cos1, sin_prev * sin1, out=basis[2 * k - 1])
        np.add(sin_prev * cos1, cos_prev * sin1, out=basis[2 * k])
    return basis.T


class _PhaseFourierTable:
    """Trigonometric-polynomial tables of number-difference moments.

    In the Heisenberg picture the output number operators are quadratic
    polynomials in the input modes with coefficients of trigonometric
    degree one per interferometer phase, so <(N_c1 - N_c2)^p> is a trig
    polynomial of harmonic order p in each phase.  That holds exactly on
    states made of complete beam-splitter chains, as ``four_mode_input``
    builds them.  The moments are sampled on a (2*4+1)^2 phase grid and
    interpolated by their 2-D FFT, every power from the same rotated
    states.  Each power's coefficients are folded once into a real matrix
    R over the basis (1, cos phi, sin phi, ..., cos 4phi, sin 4phi), so a
    Monte-Carlo evaluation is a small real contraction instead of a pair
    of beam-splitter applications, and the mixed derivative
    d^2/dphi1 dphi2 at (0, 0) is ``slope @ R @ slope`` with the basis
    slopes k on the sin(k phi) rows.
    """

    def __init__(self, state: MultiModeFockState, powers: tuple):
        n = 2 * _TABLE_HARMONICS + 1
        grid = 2.0 * math.pi * np.arange(n) / n
        values = np.empty((len(powers), n, n))
        for j, p1 in enumerate(grid):
            first = apply_beam_splitter(state, 0, 2, p1)
            for k, p2 in enumerate(grid):
                out = apply_beam_splitter(first, 1, 3, p2)
                for i, power in enumerate(powers):
                    values[i, j, k] = number_difference_moment(out, power)
        # FFT index order (0, 1, ..., 4, -4, ..., -1): e^{i h phi} = fold @ basis.
        fold = np.zeros((n, n), dtype=complex)
        fold[0, 0] = 1.0
        for k in range(1, _TABLE_HARMONICS + 1):
            fold[[k, n - k], 2 * k - 1] = 1.0
            fold[[k, n - k], 2 * k] = (1j, -1j)
        self.coeffs = [(fold.T @ (np.fft.fft2(v) / (n * n)) @ fold).real
                       for v in values]
        slope = np.zeros(n)
        slope[2::2] = np.arange(1, _TABLE_HARMONICS + 1)
        self.mixed_derivatives = [float(slope @ r @ slope) for r in self.coeffs]

    def evaluate(self, phi1: np.ndarray, phi2: np.ndarray) -> list:
        """Each tabulated moment at the phase samples, one array per power."""
        b1, b2 = _trig_basis(phi1), _trig_basis(phi2)
        return [((b1 @ r) * b2).sum(axis=1) for r in self.coeffs]


def _chunk_seeds(samples: int, seed: int):
    n_chunks = (samples + MC_CHUNK - 1) // MC_CHUNK
    sizes = [MC_CHUNK] * (n_chunks - 1) + [samples - MC_CHUNK * (n_chunks - 1)]
    return list(zip(np.random.SeedSequence(seed).spawn(n_chunks), sizes))


def _mean_and_se(total: float, total_sq: float, n: int) -> tuple:
    mean = float(total) / n
    var = max(float(total_sq) - n * mean * mean, 0.0) / (n - 1)
    return mean, math.sqrt(var / n)


@dataclass(frozen=True)
class PairedAverages:
    """Phase-noise averages under both configurations with shared draws."""

    mean_par: float
    se_par: float
    mean_perp: float
    se_perp: float
    mean_diff: float
    se_diff: float
    samples: int
    table_residual: float
    mixed_derivative: float


def paired_phase_average(noise: PhaseNoiseModel, state: MultiModeFockState,
                         samples: int, seed: int,
                         powers: tuple = (2,)) -> tuple:
    """Monte-Carlo averages of <(N_c1 - N_c2)^p> over phase noise.

    Phases are drawn from the bivariate Gaussian noise model centered at
    the working point (0, 0), under the parallel and orthogonal
    configurations jointly.  Both configurations and every power consume
    the identical standard-normal draws (common random numbers), so
    differences between configurations are estimated with strongly
    reduced variance; per-sample differences give the standard error of
    the difference directly.  Draws come in fixed chunks from spawned
    seed sequences and are accumulated in chunk order, so the result is
    deterministic for a given seed.  Returns one ``PairedAverages`` per
    entry of ``powers``, in order.  Each carries ``table_residual``, the
    relative deviation |table - direct| / |direct| of the interpolation
    table from direct beam-splitter evaluation at the off-grid point
    (sigma1, sigma2), NaN where the direct moment vanishes; and
    ``mixed_derivative``, the table's exact d^2/dphi1 dphi2 at (0, 0).
    """
    if samples < MIN_SAMPLES:
        raise NegativeParameter(f"need at least {MIN_SAMPLES} samples, got {samples}")
    perp = PhaseNoiseModel(noise.sigma1, noise.sigma2)
    scales = (noise.scale_matrix(), perp.scale_matrix())
    table = _PhaseFourierTable(state, powers)
    # Per power: running sums for the parallel, orthogonal and difference series.
    sums = np.zeros((len(powers), 3))
    sq_sums = np.zeros((len(powers), 3))
    for seq, size in _chunk_seeds(samples, seed):
        z = np.random.default_rng(seq).standard_normal((size, 2))
        vals_par, vals_perp = (table.evaluate(phi[:, 0], phi[:, 1])
                               for phi in (z @ scale.T for scale in scales))
        for i, (a, b) in enumerate(zip(vals_par, vals_perp)):
            for k, vals in enumerate((a, b, a - b)):
                sums[i, k] += float(vals.sum())
                sq_sums[i, k] += float((vals * vals).sum())
    phi1, phi2 = noise.sigma1, noise.sigma2
    direct = _output_moments(state, phi1, phi2, powers)
    tabulated = table.evaluate(np.array([phi1]), np.array([phi2]))
    results = []
    for total, total_sq, exact, approx, derivative in zip(
            sums, sq_sums, direct, tabulated, table.mixed_derivatives):
        stats = [_mean_and_se(t, q, samples) for t, q in zip(total, total_sq)]
        residual = (abs(float(approx[0]) - exact) / abs(exact)
                    if exact != 0.0 else math.nan)
        results.append(PairedAverages(*stats[0], *stats[1], *stats[2], samples,
                                      residual, derivative))
    return tuple(results)


def correlation_estimate(e_par: float, e_perp: float, denom: float) -> float:
    """Recovered phase covariance (E_par - E_perp) / denom."""
    if abs(denom) <= DENOM_FLOOR:
        raise DegenerateDenominator(
            f"mixed-derivative denominator {denom:.3e} below floor {DENOM_FLOOR:.0e}")
    return (e_par - e_perp) / denom
