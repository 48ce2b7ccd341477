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

from ._propagators import beam_splitter_blocks
from .errors import (
    CutoffTooSmall,
    DegenerateDenominator,
    InvalidModeIndex,
    NegativeParameter,
    ParameterOutOfRange,
    ZeroAmplitude,
)
from .fock import (
    DEFAULT_FOUR_MODE_CUTOFF,
    DEFAULT_FOUR_MODE_TAIL_TOL,
    MAX_DIFFERENCE_POWER,
    MAX_SQUEEZE_R,
    CoherentInput,
    FockCutoff,
    MultiModeFockState,
    SqueezeParams,
    _check_difference_power,
    apply_beam_splitter,
    build_coherent,
    build_twb,
    expectation,
    number_difference_moment,
    tensor_product,
    twb_tail,
)
from .gaussian import WignerMonomial, relax_width
from .modccr import _check_epsilon, deformed_variance_coefficient

DENOM_FLOOR = 1e-8
MC_CHUNK = 4096
MIN_SAMPLES = 1000
DEFAULT_ORACLE_CUTOFF = 64
PLANCK_MASS_GEV = 1.22e19  # PDG rounded value
EV_PER_GEV = 1e9
_TABLE_HARMONICS = MAX_DIFFERENCE_POWER  # the table is exact only up to its order
_BASIS_SIZE = 2 * _TABLE_HARMONICS + 1
_LAYOUT_TOL = 1e-12  # input weight the total-photon layout may leave out
# The table's rounding relative to sum |R|, which bounds the moment: its
# distance from direct evaluation stays below this on random inputs.
_ROUNDING_TOL = 1e-12


class Backend(str, Enum):
    GAUSSIAN_FULL = "gaussian_full"
    GAUSSIAN_APPROX = "gaussian_approx"
    FOCK_ORACLE = "fock_oracle"
    ANALYTIC_MODCCR = "analytic_modccr"


@dataclass(frozen=True)
class UncertaintyResult:
    """Normalized uncertainty ratio and the backend that computed it."""

    ratio: float | np.ndarray  # an array for array input
    backend: Backend

    def __post_init__(self):
        bad = _offending(np.asarray(self.ratio) >= 0.0, self.ratio)
        if bad:
            raise NegativeParameter(f"ratio must be >= 0, got {bad[0]!r}")


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
    """The monomials of the quadrature correlator and of (N1 - N2)^2, ^4.

    No ratio is assembled from them; they are the set on which ``validate``
    check 2 and acceptance criterion 2 cross-check the moment routes.
    """
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


def _offending(ok: np.ndarray, *values) -> tuple | None:
    """The first elements of ``values`` (broadcast to ``ok``) where ``ok`` fails."""
    if ok.all():
        return None
    first = np.flatnonzero(~ok)[0]
    return tuple(np.broadcast_to(v, ok.shape).flat[first].item() for v in values)


def _each(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` from math per element: numpy's exp, cosh and sinh differ from
    math's in the last bit, and the ratios must not depend on the route."""
    return np.array([fn(v) for v in x.ravel().tolist()]).reshape(x.shape)


def _ratio_squeeze(r) -> np.ndarray:
    """Squeeze strengths of a closed-form ratio with denominator sinh(2r), as
    an array, validated like ``SqueezeParams`` before any exponential."""
    r = np.asarray(r, dtype=float)
    bad = _offending((r > 0.0) & (r <= MAX_SQUEEZE_R), r)
    if bad and bad[0] == 0.0:
        raise DegenerateDenominator("the ratio denominator sinh(2r) vanishes at r = 0")
    if bad:
        SqueezeParams(*bad)  # raises the typed error that names the value
    return r


def _check_thermal(m_thermal, lambda_tau) -> tuple:
    """(M, lambda*tau) as arrays, both non-negative."""
    m, lt = np.asarray(m_thermal, dtype=float), np.asarray(lambda_tau, dtype=float)
    bad = _offending((m >= 0.0) & (lt >= 0.0), m, lt)
    if bad:
        raise NegativeParameter(
            f"M and lambda*tau must be non-negative, got ({bad[0]!r}, {bad[1]!r})")
    return m, lt


def _result(ratio: np.ndarray, backend: Backend) -> UncertaintyResult:
    return UncertaintyResult(float(ratio) if ratio.ndim == 0 else ratio, backend)


def uncertainty_env_approx(r, m_thermal, lambda_tau) -> UncertaintyResult:
    """Lowest-order ratio 8 sqrt(lt) sqrt((2M+1)cosh(2r) - 1) / sinh(2r).

    Takes scalars or broadcastable arrays; ``ratio`` has their broadcast
    shape, and is a float for scalar input.
    """
    two_r = 2.0 * _ratio_squeeze(r)
    m, lt = _check_thermal(m_thermal, lambda_tau)
    with np.errstate(all="ignore"):  # float semantics: overflow gives inf
        ratio = (8.0 * np.sqrt(lt)
                 * np.sqrt((2.0 * m + 1.0) * _each(math.cosh, two_r) - 1.0)
                 / _each(math.sinh, two_r))
    return _result(ratio, Backend.GAUSSIAN_APPROX)


def uncertainty_env_full(r, m_thermal, lambda_tau) -> UncertaintyResult:
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

    Takes scalars or broadcastable arrays like ``uncertainty_env_approx``;
    the ratio is 0 where lambda*tau is 0.
    """
    two_r = 2.0 * _ratio_squeeze(r)
    m, lt = _check_thermal(m_thermal, lambda_tau)
    # The pure twin beam's widths (from_squeezing), and their decay (evolve).
    sp, sm = _each(math.exp, two_r), _each(math.exp, -two_r)
    decay = _each(math.exp, -lt)
    with np.errstate(all="ignore"):  # float semantics: overflow gives inf
        denom = 2.0 * ((relax_width(sp, m, decay) - relax_width(sm, m, decay)) / 4.0)
        bad = _offending(~(np.abs(denom) <= DENOM_FLOOR) | (lt == 0.0), denom)
        if bad:
            raise DegenerateDenominator(
                f"quadrature correlator {bad[0]:.3e} below floor {DENOM_FLOOR:.0e}")
        heat = 2.0 * m + 1.0
        # d(S+ S-)/dt at t=0 for the width relaxation toward the variance-scale
        # asymptote, in lambda*t units with the numerator's rate normalization.
        q_rate = 16.0 * ((heat - sp) * sm + sp * (heat - sm))
        # The variance is (q - 1)(5q - 3)/4 for every aspect ratio: slope 1/2 at q = 1.
        variance_lin = 0.5 * q_rate * lt
        # max(v, 0.0), which keeps -0.0 where np.maximum would not.
        ratio = 2.0 * np.sqrt(np.where(variance_lin < 0.0, 0.0, variance_lin)) / denom
        ratio = np.where(lt == 0.0, 0.0, ratio)
    return _result(ratio, Backend.GAUSSIAN_FULL)


def planck_coupling_estimate(omega_gamma_ev: float) -> float:
    """Order-of-magnitude lambda*tau ~ omega/M_Planck for photon energy in eV."""
    if omega_gamma_ev < 0.0:
        raise NegativeParameter(
            f"photon energy must be non-negative, got {omega_gamma_ev!r}")
    return (omega_gamma_ev / EV_PER_GEV) / PLANCK_MASS_GEV


def uncertainty_modccr_analytic(r, epsilon) -> UncertaintyResult:
    """First-order deformed-algebra ratio 8 r |eps| / sinh(2r).

    Takes scalars or broadcastable arrays like ``uncertainty_env_approx``.
    """
    r = _ratio_squeeze(r)
    eps = np.asarray(epsilon, dtype=float)
    bad = _offending(np.isfinite(eps), eps)
    if bad:
        raise ParameterOutOfRange(f"epsilon must be finite, got {bad[0]!r}")
    ratio = 8.0 * r * np.abs(eps) / _each(math.sinh, 2.0 * r)
    return _result(ratio, Backend.ANALYTIC_MODCCR)


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
    ``AmplitudeTooLarge`` for |epsilon| > 0.2.
    """
    _check_epsilon(epsilon)
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


def _trig_basis(phi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Rows (1, cos phi, sin phi, ..., cos 4phi, sin 4phi), one per phase.

    Only cos phi and sin phi are evaluated; the higher harmonics follow by
    angle addition.  ``out``, of shape (9, len(phi)), receives the basis
    transposed; the result is its transpose.
    """
    basis = np.empty((_BASIS_SIZE, np.size(phi))) if out is None else out
    basis[0] = 1.0
    cos1, sin1 = basis[1], basis[2]
    np.cos(phi, out=cos1)
    np.sin(phi, out=sin1)
    for k in range(2, _TABLE_HARMONICS + 1):
        cos_prev, sin_prev = basis[2 * k - 3], basis[2 * k - 2]
        np.subtract(cos_prev * cos1, sin_prev * sin1, out=basis[2 * k - 1])
        np.add(sin_prev * cos1, cos_prev * sin1, out=basis[2 * k])
    return basis.T


def _phase_table(state: MultiModeFockState, powers: tuple) -> list:
    """Trigonometric-polynomial tables of number-difference moments.

    In the Heisenberg picture the output number operators are quadratic
    polynomials in the input modes with coefficients of trigonometric
    degree one per interferometer phase, so <(N_c1 - N_c2)^p> is a trig
    polynomial of harmonic order p in each phase.  That holds exactly on
    states made of complete beam-splitter chains, as ``four_mode_input``
    builds them; weight outside s1, s2 <= n_max raises ``CutoffTooSmall``.
    The moments are sampled on a (2*4+1)^2 phase grid and interpolated by
    their 2-D FFT, every power from the same rotated states.  The state is
    held in each interferometer's total-photon labels (s, k = n_a), as
    x[s1, k1, (s2, k2)], so a beam splitter is one batched matmul of the
    complete-chain blocks ``beam_splitter_blocks``: the grid takes 9
    rotations of interferometer 1 and 81 of interferometer 2.  Each
    power's coefficients are folded once into a real matrix R over the
    basis (1, cos phi, sin phi, ..., cos 4phi, sin 4phi), so a moment at
    (phi1, phi2) is b(phi1)^T R b(phi2), a small real contraction instead
    of a pair of beam-splitter applications.  Returns one R per power.
    """
    for power in powers:
        _check_difference_power(power)
    if state.mode_count != 4:
        raise InvalidModeIndex(
            f"the phase table needs a four-mode input, got {state.mode_count} modes")
    d = state.cutoff.dim
    # Label (s, k) is |n_a = k, n_b = s - k> of one interferometer, s <= n_max.
    s, k = np.tril_indices(d)
    amp = state.amplitudes
    pairs = amp[k[:, None], k, (s - k)[:, None], s - k]  # [c1, c2]
    lost = float(np.vdot(amp, amp).real - np.vdot(pairs, pairs).real)
    if lost > _LAYOUT_TOL:
        raise CutoffTooSmall(
            f"weight {lost:.3e} lies outside s1, s2 <= n_max={state.cutoff.n_max}, "
            "where the table is not exact; build the input with four_mode_input")
    n = _BASIS_SIZE
    grid = 2.0 * math.pi * np.arange(n) / n
    blocks = [beam_splitter_blocks(d, phi) for phi in grid]
    # weights[i][k2, c1] = (k1 - k2)^p with k1 the n_a1 of label c1.
    weights = [(k - np.arange(d)[:, None]).astype(float) ** p for p in powers]
    state1 = np.zeros((d, d, k.size), dtype=complex)
    state1[s, k] = pairs  # x[s1, k1, c2]
    state2 = np.zeros_like(state1)
    values = np.empty((len(powers), n, n))
    for j, first in enumerate(blocks):
        state2[s, k] = (first @ state1)[s, k].T  # x[s2, k2, c1]
        for jj, second in enumerate(blocks):
            out = second @ state2
            prob = (out.real ** 2 + out.imag ** 2).sum(axis=0)
            for i, weight in enumerate(weights):
                values[i, j, jj] = np.vdot(weight, prob)
    # FFT index order (0, 1, ..., 4, -4, ..., -1): e^{i h phi} = fold @ basis.
    fold = np.zeros((n, n), dtype=complex)
    fold[0, 0] = 1.0
    for k in range(1, _TABLE_HARMONICS + 1):
        fold[[k, n - k], 2 * k - 1] = 1.0
        fold[[k, n - k], 2 * k] = (1j, -1j)
    return [(fold.T @ (np.fft.fft2(v) / (n * n)) @ fold).real for v in values]


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
    table_residual: float
    mixed_derivative: float
    exact_par: float
    exact_perp: float
    rounding_level: float


def noise_average(coeffs: np.ndarray, covariance: np.ndarray) -> float:
    """E[b(phi1)^T R b(phi2)] in closed form for phases ~ N((0, 0), covariance).

    ``coeffs`` is a table's R.  With g(k, l) = E[e^{i(k phi1 + l phi2)}]
    = exp(-(k, l) covariance (k, l)^T / 2), the basis products average to
    (g(k, -l) + g(k, l))/2 for cos k phi1 cos l phi2, (g(k, -l) - g(k, l))/2
    for sin k phi1 sin l phi2, and 0 for a cos-sin product, which is odd.
    """
    h = np.repeat(np.arange(_TABLE_HARMONICS + 1), 2)[1:]  # harmonic of each row
    sin_row = (np.arange(_BASIS_SIZE) % 2 == 0) & (h > 0)
    k, l = h[:, None], h[None, :]
    square = covariance[0, 0] * k * k + covariance[1, 1] * l * l
    cross = 2.0 * covariance[0, 1] * k * l
    g_plus, g_minus = np.exp(-0.5 * (square + cross)), np.exp(-0.5 * (square - cross))
    sign = np.where(sin_row, -1.0, 1.0)[:, None]
    moments = np.where(sin_row[:, None] == sin_row, (g_minus + sign * g_plus) / 2.0, 0.0)
    return float(np.sum(coeffs * moments))


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
    entry of ``powers``, in order.  Each carries ``rounding_level``, the
    table's rounding scale 1e-12 sum |R|; ``table_residual``, the
    relative deviation |table - direct| / |direct| of the interpolation
    table from direct beam-splitter evaluation at the off-grid point
    (sigma1, sigma2), NaN where the direct moment is within the rounding
    level of 0; ``mixed_derivative``, the table's exact d^2/dphi1 dphi2
    at (0, 0); and ``exact_par``/``exact_perp``, the table's noise
    averages in closed form (``noise_average``), which the Monte-Carlo
    means estimate.
    """
    if samples < MIN_SAMPLES:
        raise NegativeParameter(f"need at least {MIN_SAMPLES} samples, got {samples}")
    perp = PhaseNoiseModel(noise.sigma1, noise.sigma2)
    scales = (noise.scale_matrix(), perp.scale_matrix())
    coeffs = _phase_table(state, powers)
    # The direct receipt goes first: its box-sized temporaries are freed
    # before the chunk buffers are allocated, which lowers the peak RSS.
    phi1, phi2 = noise.sigma1, noise.sigma2
    direct = _output_moments(state, phi1, phi2, powers)
    # Per power: running sums for the parallel, orthogonal and difference series.
    sums = np.zeros((len(powers), 3))
    sq_sums = np.zeros((len(powers), 3))
    # Row 0 of both scale matrices is (sigma1, 0): phi1 is shared.
    rows = (scales[0][0], scales[0][1], scales[1][1])
    z = None
    for seq, size in _chunk_seeds(samples, seed):
        if z is None or len(z) != size:
            # Chunk buffers, filled in place: fresh arrays this size would
            # each be mapped and unmapped per chunk.
            z, phi = np.empty((size, 2)), np.empty(size)
            bases = np.empty((len(rows), _BASIS_SIZE, size))
            left = np.empty((size, _BASIS_SIZE))
            vals = np.empty((3, size))  # parallel, orthogonal, difference
        np.random.default_rng(seq).standard_normal(out=z)
        b1, *b2s = (_trig_basis(np.matmul(z, row, out=phi), out=basis)
                    for row, basis in zip(rows, bases))
        for i, r in enumerate(coeffs):
            np.matmul(b1, r, out=left)
            for b2, v in zip(b2s, vals):
                np.einsum("sb,sb->s", left, b2, out=v)
            np.subtract(vals[0], vals[1], out=vals[2])
            for k, v in enumerate(vals):
                sums[i, k] += float(v.sum())
                sq_sums[i, k] += float(v @ v)
    b1, b2 = _trig_basis(np.array([phi1])), _trig_basis(np.array([phi2]))
    # The basis slopes at 0: k on the sin(k phi) rows, so d^2/dphi1 dphi2 at
    # (0, 0) of b(phi1)^T R b(phi2) is slope @ R @ slope.
    slope = np.zeros(_BASIS_SIZE)
    slope[2::2] = np.arange(1, _TABLE_HARMONICS + 1)
    covariances = [scale @ scale.T for scale in scales]
    results = []
    for total, total_sq, exact, r in zip(sums, sq_sums, direct, coeffs):
        stats = [_mean_and_se(t, q, samples) for t, q in zip(total, total_sq)]
        level = _ROUNDING_TOL * float(np.abs(r).sum())
        approx = float(((b1 @ r) * b2).sum(axis=1)[0])
        residual = abs(approx - exact) / abs(exact) if abs(exact) > level else math.nan
        averages = [noise_average(r, cov) for cov in covariances]
        results.append(PairedAverages(*stats[0], *stats[1], *stats[2], residual,
                                      float(slope @ r @ slope), *averages, level))
    return tuple(results)


def correlation_estimate(e_par: float, e_perp: float, denom: float) -> float:
    """Recovered phase covariance (E_par - E_perp) / denom."""
    if abs(denom) <= DENOM_FLOOR:
        raise DegenerateDenominator(
            f"mixed-derivative denominator {denom:.3e} below floor {DENOM_FLOOR:.0e}")
    return (e_par - e_perp) / denom
