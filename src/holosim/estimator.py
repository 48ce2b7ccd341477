"""Phase-correlation estimator assembly.

Builds the measurable pieces of the two-interferometer scheme: the
output photon-number-difference statistics as a function of the two
interferometer phases, tabulated from Gaussian moments with an
occupation-basis receipt, their Monte-Carlo averages over correlated
(parallel) and uncorrelated (orthogonal) phase noise, the correlation
estimator with its mixed-derivative denominator, and the closed-form
entanglement-enhanced uncertainty ratios for the thermal-environment and
deformed-commutator degradation channels, each with an independent
cross-checking backend.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from ._propagators import apply_exponential
from .errors import (
    DegenerateDenominator,
    NegativeParameter,
    ParameterOutOfRange,
    UnsupportedPhase,
    WorkerFailed,
    ZeroAmplitude,
)
from .fock import (
    DEFAULT_TWO_MODE_TAIL_TOL,
    MAX_DIFFERENCE_POWER,
    MAX_SQUEEZE_R,
    CoherentInput,
    FockCutoff,
    SqueezeParams,
    _check_difference_power,
    _occupation_difference,
    build_twb,
    twb_tail,
)
from .gaussian import from_squeezing, ordered_moment, relax_width
from .modccr import MAX_EPSILON, _check_epsilon, deformed_variance_coefficient

DENOM_FLOOR = 1e-8
MC_CHUNK = 4096
MIN_SAMPLES = 1000
DEFAULT_ORACLE_CUTOFF = 64
DEFAULT_RECEIPT_CUTOFF = 16
# The Fock receipt runs where it drops at most this weight of its input.
RECEIPT_TAIL_TOL = 1e-6
PLANCK_MASS_GEV = 1.22e19  # PDG rounded value
EV_PER_GEV = 1e9
_TABLE_HARMONICS = MAX_DIFFERENCE_POWER  # the table is exact only up to its order
_BASIS_SIZE = 2 * _TABLE_HARMONICS + 1
# The table's rounding relative to sum |R|, which bounds the moment: its
# distance from direct evaluation stays below this on random inputs.
_ROUNDING_TOL = 1e-12
# Widths from about 1e154 overflow float64 in (k sigma)^2 and in sigma * z.
MAX_NOISE_WIDTH = 1e150


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
        if not (abs(self.sigma1) <= MAX_NOISE_WIDTH and abs(self.sigma2) <= MAX_NOISE_WIDTH):
            raise ParameterOutOfRange(
                f"noise widths must be finite and at most {MAX_NOISE_WIDTH:g}, "
                f"got ({self.sigma1!r}, {self.sigma2!r})")
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


def _checked_ratio(ratio):
    """``ratio`` as a float for scalar input, else as an array; every
    element must be >= 0, so NaN is rejected too."""
    bad = _offending(np.asarray(ratio) >= 0.0, ratio)
    if bad:
        raise NegativeParameter(f"ratio must be >= 0, got {bad[0]!r}")
    return float(ratio) if np.ndim(ratio) == 0 else ratio


def uncertainty_env_approx(r, m_thermal, lambda_tau) -> float | np.ndarray:
    """Lowest-order ratio 8 sqrt(lt) sqrt((2M+1)cosh(2r) - 1) / sinh(2r).

    Takes scalars or broadcastable arrays; returns an array of their
    broadcast shape, or a float for scalar input.
    """
    two_r = 2.0 * _ratio_squeeze(r)
    m, lt = _check_thermal(m_thermal, lambda_tau)
    with np.errstate(all="ignore"):  # float semantics: overflow gives inf
        ratio = (8.0 * np.sqrt(lt)
                 * np.sqrt((2.0 * m + 1.0) * _each(math.cosh, two_r) - 1.0)
                 / _each(math.sinh, two_r))
    return _checked_ratio(ratio)


def uncertainty_env_full(r, m_thermal, lambda_tau) -> float | np.ndarray:
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
    return _checked_ratio(ratio)


def planck_coupling_estimate(omega_gamma_ev: float) -> float:
    """Order-of-magnitude lambda*tau ~ omega/M_Planck for photon energy in eV."""
    if omega_gamma_ev < 0.0:
        raise NegativeParameter(
            f"photon energy must be non-negative, got {omega_gamma_ev!r}")
    return (omega_gamma_ev / EV_PER_GEV) / PLANCK_MASS_GEV


def uncertainty_modccr_analytic(r, epsilon) -> float | np.ndarray:
    """First-order deformed-algebra ratio 8 r |eps| / sinh(2r).

    Takes scalars or broadcastable arrays like ``uncertainty_env_approx``.
    """
    r = _ratio_squeeze(r)
    eps = np.asarray(epsilon, dtype=float)
    bad = _offending(np.isfinite(eps), eps)
    if bad:
        raise ParameterOutOfRange(f"epsilon must be finite, got {bad[0]!r}")
    return _checked_ratio(8.0 * r * np.abs(eps) / _each(math.sinh, 2.0 * r))


def uncertainty_modccr_fock(r: float, epsilon: float,
                            cutoff: FockCutoff = FockCutoff(DEFAULT_ORACLE_CUTOFF),
                            ) -> float | np.ndarray:
    """Oracle evaluation of the deformed-sector ratio on the truncated basis:
    ``modccr_oracle_column`` at one point.  Raises ``CutoffTooSmall`` where the
    twin beam's tail above the cutoff exceeds 1e-10, ``AmplitudeTooLarge`` for
    |epsilon| > 0.2, and ``DegenerateDenominator`` where the correlator is
    within ``DENOM_FLOOR``.
    """
    _check_epsilon(epsilon)
    twb_tail(r, cutoff)
    ratio = float(modccr_oracle_column([r], [epsilon], cutoff)[0, 0])
    if math.isnan(ratio):
        raise DegenerateDenominator(
            "the ratio denominator sinh(2r) vanishes at r = 0" if r == 0.0 else
            f"quadrature correlator at r = {r!r} below floor {DENOM_FLOOR:.0e}")
    return ratio


def modccr_oracle_column(r, epsilon, cutoff: FockCutoff) -> np.ndarray:
    """``uncertainty_modccr_fock`` at every (r[i], epsilon[j]) of two 1-D
    sequences, as a (len(r), len(epsilon)) array, NaN where that raises
    ``CutoffTooSmall``, ``AmplitudeTooLarge`` or ``DegenerateDenominator``.
    A cutoff with n_max < 2 raises ``CutoffTooSmall`` instead of giving NaN.

    The numerator is the exact epsilon^2 coefficient of the variance
    (``deformed_variance_coefficient``).  The denominator is the quadrature
    correlator <a1'a2'> + <a1a2> on the twin beam sum_n c_n |n, n>, with
    c_n = tanh^n r sech r renormalized on n <= n_max, one (rows, n_max + 1)
    array over the supported r: 2 sum_n (n+1) c_n c_{n+1}.  The cross terms
    <a1'a2> and <a1a2'> move n1 - n2 off 0, so they vanish exactly.
    """
    r, eps = np.asarray(r, dtype=float), np.asarray(epsilon, dtype=float)
    tails = [twb_tail(x, cutoff, tail_tol=math.inf) for x in r.tolist()]
    rows = np.array(tails) <= DEFAULT_TWO_MODE_TAIL_TOL
    n, kept = np.arange(cutoff.dim), r[rows, None]
    c = np.tanh(kept) ** n * (1.0 / np.cosh(kept))
    c /= np.sqrt((c * c).sum(axis=1, keepdims=True))
    denom = 2.0 * (n[1:] * c[:, :-1] * c[:, 1:]).sum(axis=1, keepdims=True)
    root = np.sqrt(deformed_variance_coefficient(kept, cutoff))
    ratio = np.full((r.size, eps.size), math.nan)
    live = (np.abs(denom) > DENOM_FLOOR) & (np.abs(eps) <= MAX_EPSILON)  # skips r = 0's 0/0
    ratio[rows] = np.divide(2.0 * root * np.abs(eps), denom, where=live, out=ratio[rows])
    ratio[rows[:, None] & (eps == 0.0)] = 0.0
    return ratio


# ---------------------------------------------------------------------------
# Interferometer output statistics and their phase-noise averages.
# ---------------------------------------------------------------------------

def fock_receipt(squeeze: SqueezeParams, coherent: CoherentInput, cutoff: FockCutoff,
                 phi1: float, phi2: float, powers: tuple) -> tuple:
    """(discarded_tail, moments) of the input TWB x |mu> x |mu> at (phi1, phi2):
    the occupation-basis route, which shares no step with ``phase_table``.

    Each beam splitter conserves n_a + n_b, so the input is projected onto
    the complete chains n + n_b <= n_max of the twin beam's pairs n, where
    it acts exactly.  ``discarded_tail`` is the weight of the untruncated
    input outside them: the twin beam's ``twb_tail`` plus, per kept pair,
    w_n Q (2 - Q), with w_n = sech^2 r tanh^2n r and Q a port's Poisson
    weight above n_max - n.  Where it exceeds ``RECEIPT_TAIL_TOL`` the
    moments are ``None``.  The twin beam pairs n_a1 = n_a2 = n, so
    interferometer i acts on sum_n c_n |n, mu> |n>, the partner mode only
    an index, and the outputs' joint distribution is
    P(x1, x2) = sum_{m,n} R_1[x1,m,n] R_2[x2,m,n] over the Gram products
    R_i[x,m,n] = sum_y conj(v_i[x,y,m]) v_i[x,y,n], with c_n folded into v_1.
    """
    for power in powers:
        _check_difference_power(power)
    if not (math.isfinite(phi1) and math.isfinite(phi2)):
        raise UnsupportedPhase("beam-splitter angle must be finite")
    # |<k|mu>| past the cutoff.  Q is 1 - P where the lower sum P < 1/2, as
    # where every weight in range underflows, else the upper sum: P >= 1/2
    # puts |mu|^2 - ln 2, below the Poisson median, under n_max + 1, so past
    # 2 (n_max + 1) the weights fall at least 2x per level, and 80 more
    # levels leave 2e-24 of the sum.
    nbar, k = coherent.mean_photons, np.arange(2 * cutoff.dim + 80)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(k[1:]))))
    mags = (np.exp(-0.5 * nbar + k * np.log(abs(coherent.mu)) - 0.5 * log_fact)
            if nbar > 0 else np.where(k == 0, 1.0, 0.0))
    lower = np.cumsum(mags ** 2)[cutoff.n_max::-1]  # P, at n_max - n for n = 0..n_max
    upper = np.cumsum(mags[::-1] ** 2)[::-1][cutoff.n_max + 1:0:-1]
    q = np.where(lower < 0.5, 1.0 - lower, upper)
    n = np.arange(cutoff.dim)
    weights = np.tanh(squeeze.r) ** (2 * n) / math.cosh(squeeze.r) ** 2
    tail = twb_tail(squeeze.r, cutoff, tail_tol=math.inf) + float(
        np.dot(weights, q * (2.0 - q)))
    if tail > RECEIPT_TAIL_TOL:
        return tail, None
    pair = np.diagonal(build_twb(squeeze, cutoff, tail_tol=RECEIPT_TAIL_TOL))
    port = mags[:cutoff.dim] * np.exp(1j * n * np.angle(coherent.mu))
    port /= np.linalg.norm(port)
    # The normalization of the kept chains: the pair's n with both ports' n_b <= n_max - n.
    ports = np.cumsum(np.abs(port) ** 2)[::-1]
    kept = float(np.dot(np.abs(pair) ** 2, ports * ports))
    chains = np.zeros((cutoff.dim,) * 3, dtype=complex)
    chains[n, :, n] = np.where(n[:, None] + n <= cutoff.n_max, port, 0.0)
    grams = []
    for phi, weight in ((phi1, pair / math.sqrt(kept)), (phi2, 1.0)):
        # fock.apply_beam_splitter's exp(phi K) on modes a (axis 0) and b (axis 1).
        v = apply_exponential("beam_splitter", cutoff.dim, phi, chains * weight)
        grams.append(np.matmul(v.conj().swapaxes(1, 2), v).reshape(cutoff.dim, -1))
    # The powers weight probabilities: a binomial sum of Gram products
    # would cancel, losing about 6 digits at phi = 0.01.
    prob = (grams[0] @ grams[1].T).real
    diff = _occupation_difference(cutoff.dim)
    return tail, [float(np.sum(diff ** p * prob)) for p in powers]


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


def phase_table(squeeze: SqueezeParams, coherent: CoherentInput, powers: tuple) -> list:
    """Tables R of <(N_c1 - N_c2)^p>, one per power: b(phi1)^T R b(phi2).

    The input TWB x |mu> x |mu> is Gaussian and the beam splitters are
    passive, so each moment is a finite Wick sum (``ordered_moment``) over
    alpha = (a1', a1, a2', a2, b1', b1, b2', b2), with no cutoff.
    Interferometer i outputs c_i = cos(phi_i/2) a_i + sin(phi_i/2) b_i,
    ``fock.apply_beam_splitter``'s Heisenberg rule.  N_c1 and N_c2 commute,
    so (N_c1 - N_c2)^p is a binomial sum of ordered products.  The moment
    is a trig polynomial of order p in each phase, so its values on a
    (2*4+1)^2 grid, the recursion's batch axis, fix it through their 2-D
    FFT, folded into R over the basis (1, cos phi, sin phi, ..., sin 4phi).
    """
    for power in powers:
        _check_difference_power(power)
    kernel = np.zeros((8, 8))
    kernel[:4, :4] = from_squeezing(squeeze).kernel
    kernel[5, 4] = kernel[7, 6] = 1.0  # a vacuum block per port: <b b'> = 1
    mu = complex(coherent.mu)
    means = np.array([0, 0, 0, 0, mu.conjugate(), mu, mu.conjugate(), mu])
    n = _BASIS_SIZE
    half = math.pi * np.arange(n) / n  # phi/2 at the grid phases 2 pi j / n
    cos, sin = np.cos(half), np.sin(half)
    # number[i, d] is the form of c_i' (d = 0) or c_i (d = 1) on the (phi1, phi2) grid.
    number = np.zeros((2, 2, 8, n, n))
    for d in range(2):
        number[0, d, d], number[0, d, 4 + d] = cos[:, None], sin[:, None]
        number[1, d, 2 + d], number[1, d, 6 + d] = cos, sin
    values = []
    for p in powers:
        terms = [(-1) ** k * math.comb(p, k) * ordered_moment(
                     kernel, means, number[[0] * (p - k) + [1] * k].reshape(2 * p, 8, n, n))
                 for k in range(p + 1)]
        values.append(sum(terms).real)
    # FFT index order (0, 1, ..., 4, -4, ..., -1): e^{i h phi} = fold @ basis.
    fold = np.zeros((n, n), dtype=complex)
    fold[0, 0] = 1.0
    for k in range(1, _TABLE_HARMONICS + 1):
        fold[[k, n - k], 2 * k - 1] = 1.0
        fold[[k, n - k], 2 * k] = (1j, -1j)
    return [(fold.T @ (np.fft.fft2(v) / (n * n)) @ fold).real for v in values]


def table_residuals(table: list, phi1: float, phi2: float, direct: list) -> list:
    """|table - direct| / |direct| at (phi1, phi2) per R, for ``direct`` from
    another route; NaN where |direct| is within the table's rounding level
    1e-12 sum |R|, which bounds the moment (each basis function is <= 1)."""
    b1, b2 = _trig_basis(np.array([phi1])), _trig_basis(np.array([phi2]))
    residuals = []
    for r, exact in zip(table, direct):
        level = rounding_level(r)
        approx = float(((b1 @ r) * b2).sum(axis=1)[0])
        residuals.append(abs(approx - exact) / abs(exact) if abs(exact) > level else math.nan)
    return residuals


def _chunk_seeds(samples: int, seed: int):
    n_chunks = (samples + MC_CHUNK - 1) // MC_CHUNK
    sizes = [MC_CHUNK] * (n_chunks - 1) + [samples - MC_CHUNK * (n_chunks - 1)]
    return list(zip(np.random.SeedSequence(seed).spawn(n_chunks), sizes))


def _chunk_partials(table: list, rows: tuple, chunks: list) -> np.ndarray:
    """Per chunk, per R, per series (parallel, orthogonal, difference): the
    sum and the sum of squares of b(phi1)^T R b(phi2) over the chunk's
    draws, shaped (len(chunks), len(table), 3, 2)."""
    partials = np.empty((len(chunks), len(table), 3, 2))
    z = None
    for part, (seq, size) in zip(partials, chunks):
        if z is None or len(z) != size:
            # Chunk buffers, filled in place: fresh arrays this size would
            # each be mapped and unmapped per chunk.
            z, phi = np.empty((size, 2)), np.empty(size)
            bases = np.empty((len(rows), _BASIS_SIZE, size))
            left = np.empty((_BASIS_SIZE, size))
            vals = np.empty((3, size))  # parallel, orthogonal, difference
        np.random.default_rng(seq).standard_normal(out=z)
        for row, basis in zip(rows, bases):
            _trig_basis(np.matmul(z, row, out=phi), out=basis)
        # Contracted on the harmonic-major buffers, where a sample's 9 terms
        # sit one row apart; each sum still runs over b = 0..8 in order.
        for i, r in enumerate(table):
            np.matmul(r.T, bases[0], out=left)
            np.einsum("bs,kbs->ks", left, bases[1:], out=vals[:2])
            np.subtract(vals[0], vals[1], out=vals[2])
            part[i, :, 0] = vals.sum(axis=1)
            for k, v in enumerate(vals):
                part[i, k, 1] = v @ v
    return partials


def _mc_processes() -> int:
    """Processes the Monte Carlo runs in: 2 where ``os.fork`` exists and
    the CPU affinity mask allows 2 CPUs, else 1."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, 2) if hasattr(os, "fork") else 1


def _forked_partials(table: list, rows: tuple, chunks: list) -> np.ndarray:
    """``_chunk_partials`` of all chunks, the first half in this process and
    the second in one forked worker, which sends its partial sums back
    over a pipe as float64 bytes.  The worker never returns into the
    caller, and it is reaped before this returns or raises.  Where the fork
    fails, every chunk runs in this process, with the same bits."""
    split = (len(chunks) + 1) // 2
    tail_shape = (len(chunks) - split, len(table), 3, 2)
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return _chunk_partials(table, rows, chunks)
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                pipe.write(_chunk_partials(table, rows, chunks[split:]))
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    try:
        with open(read_end, "rb") as pipe:
            head = _chunk_partials(table, rows, chunks[:split])
            tail = pipe.read()
    except BaseException:
        import signal  # only this path needs it: a module-level import costs every run
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    expected = 8 * math.prod(tail_shape)
    if status != 0 or len(tail) != expected:
        raise WorkerFailed(f"Monte-Carlo worker exited with status {status} "
                           f"after sending {len(tail)} of {expected} bytes")
    return np.concatenate([head, np.frombuffer(tail).reshape(tail_shape)])


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
    exact_par: float
    exact_perp: float


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


def paired_phase_average(noise: PhaseNoiseModel, table: list, samples: int,
                         seed: int) -> tuple:
    """Monte-Carlo averages of <(N_c1 - N_c2)^p> over phase noise.

    Phases are drawn from the bivariate Gaussian noise model centered at
    the working point (0, 0), under the parallel and orthogonal
    configurations jointly.  Both configurations and every power consume
    the identical standard-normal draws (common random numbers), so
    differences between configurations are estimated with strongly
    reduced variance; per-sample differences give the standard error of
    the difference directly.  Draws come in fixed chunks from spawned
    seed sequences and are accumulated in chunk order, so the result is
    deterministic for a given seed.  Where ``os.fork`` exists and two CPUs
    are allowed, one forked worker runs the second half of the chunks
    (``_forked_partials``); the sums are the same bits either way.
    ``table`` is ``phase_table``'s list of R, one per power; returns one
    ``PairedAverages`` per R, in order.  Each carries ``exact_par`` and
    ``exact_perp``, the table's noise averages in closed form
    (``noise_average``), which the Monte-Carlo means estimate.
    """
    if samples < MIN_SAMPLES:
        raise NegativeParameter(f"need at least {MIN_SAMPLES} samples, got {samples}")
    perp = PhaseNoiseModel(noise.sigma1, noise.sigma2)
    scales = (noise.scale_matrix(), perp.scale_matrix())
    # Row 0 of both scale matrices is (sigma1, 0): phi1 is shared.
    rows = (scales[0][0], scales[0][1], scales[1][1])
    chunks = _chunk_seeds(samples, seed)
    if len(chunks) >= 2 and _mc_processes() >= 2:
        partials = _forked_partials(table, rows, chunks)
    else:
        partials = _chunk_partials(table, rows, chunks)
    # Per power: running sums for the parallel, orthogonal and difference
    # series, and their squares, added in chunk order.
    totals = np.zeros(partials.shape[1:])
    for part in partials:
        totals += part
    covariances = [scale @ scale.T for scale in scales]
    results = []
    for total, r in zip(totals, table):
        stats = [_mean_and_se(t, q, samples) for t, q in total]
        averages = [noise_average(r, cov) for cov in covariances]
        results.append(PairedAverages(*stats[0], *stats[1], *stats[2], *averages))
    return tuple(results)


def mixed_derivative(coeffs: np.ndarray) -> float:
    """d^2/dphi1 dphi2 of b(phi1)^T R b(phi2) at (0, 0), for a table's R.

    The basis slopes at 0 are k on the sin(k phi) rows and 0 on the others,
    so the derivative is slope @ R @ slope.
    """
    slope = np.zeros(_BASIS_SIZE)
    slope[2::2] = np.arange(1, _TABLE_HARMONICS + 1)
    return float(slope @ coeffs @ slope)


def rounding_level(coeffs: np.ndarray) -> float:
    """A table's rounding level 1e-12 sum |R|, which bounds its moment's rounding."""
    return _ROUNDING_TOL * float(np.abs(coeffs).sum())


def check_denominator(denom: float, level: float = 0.0) -> float:
    """``denom``; ``DegenerateDenominator`` where |denom| <= DENOM_FLOOR, or
    within ``level``, the rounding level of a table it was read off."""
    floor = max(DENOM_FLOOR, level)
    if abs(denom) <= floor:
        raise DegenerateDenominator(
            f"mixed-derivative denominator {denom:.3e} below floor {floor:.0e}"
            + (" (the table's rounding level)" if floor == level else ""))
    return denom


def correlation_estimate(e_par: float, e_perp: float, denom: float) -> float:
    """Recovered phase covariance (E_par - E_perp) / denom."""
    return (e_par - e_perp) / check_denominator(denom)
