"""Uncertainty ratios, interferometer statistics, and phase-noise averaging."""

import itertools
import math
import os
import runpy
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest

from holosim import (
    CoherentInput,
    FockCutoff,
    HolosimError,
    PhaseNoiseModel,
    SqueezeParams,
    paired_phase_average,
    phase_table,
    uncertainty_env_approx,
    uncertainty_env_full,
    uncertainty_modccr_analytic,
    uncertainty_modccr_fock,
)
from holosim import cli, estimator
from holosim.cli import CROSS_CHECK_POWERS
from holosim.errors import (
    AmplitudeTooLarge,
    CutoffTooSmall,
    DegenerateDenominator,
    DegreeTooHigh,
    NegativeParameter,
    ParameterOutOfRange,
    WorkerFailed,
    ZeroAmplitude,
)
from holosim.estimator import (
    DEFAULT_RECEIPT_CUTOFF,
    RECEIPT_TAIL_TOL,
    _trig_basis,
    classical_uncertainty,
    correlation_estimate,
    fock_receipt,
    mixed_derivative,
    noise_average,
    table_residuals,
)
from holosim.fock import (
    apply_beam_splitter,
    build_twb,
    expectation,
    number_difference_moment,
    twb_tail,
)
from holosim.gaussian import evolve, from_squeezing, ordered_moment

# Independently derived anchors (hyperbolic closed forms and high-precision
# reference runs frozen at module-creation time).
RATIO_R2_M0 = 0.047548148179516546        # 8 sqrt(1e-3 (cosh4 - 1)) / sinh4
RATIO_R2_M1 = 0.08339275355461528         # same with (2M+1) = 3
MODCCR_R1 = 0.11028822590871327           # 8 * 1 * 0.05 / sinh(2)
MODCCR_R08 = 0.13470462908413722          # 8 * 0.8 * 0.05 / sinh(1.6)
DELTA_N_REF = 0.011930345372360728        # r=0.6, mu=0.8, phi=(0.2, 0.2)
DENOM_REF = -0.4830276337318953           # -mu^2 sinh(2r)/2 at r=0.6, mu=0.8
MC_MEAN_PAR = 5.424100905343062e-05       # seed=7, 1e5 samples, sigma=0.01
MC_MEAN_PERP = 7.851922404913538e-05
MC_MEAN_DIFF = -2.427821499570475e-05
MC_SE_PAR = 1.7439222089306468e-07
MC_SE_PERP = 2.930769408755007e-07
MC_SE_DIFF = 1.5064738927875038e-07
INJECTED_COV = 5e-05                      # rho * sigma1 * sigma2


@pytest.fixture(scope="module")
def state4():
    return four_mode_input(SqueezeParams(0.6), CoherentInput(0.8))


@pytest.fixture(scope="module")
def table4():
    return phase_table(SqueezeParams(0.6), CoherentInput(0.8), (2, 4))


@pytest.fixture(scope="module")
def table3():
    """A weaker input's table, for tests that pin no value."""
    return phase_table(SqueezeParams(0.3), CoherentInput(0.5), (2, 4))


def four_mode_input(squeeze, coherent, cutoff=FockCutoff(DEFAULT_RECEIPT_CUTOFF)):
    """Reference input TWB x |mu> x |mu> as one dense state on modes (a1, a2, b1, b2).

    This is the four-mode route that ``fock_receipt`` replaced, kept as its
    reference, with each port's amplitudes e^{-|mu|^2/2} mu^k / sqrt(k!)
    from that formula.  Interferometer i mixes modes (0, 2) and (1, 3), and
    each beam splitter conserves its photon total s = n_a + n_b.  The state
    is projected onto s1, s2 <= n_max, where every chain is complete.
    """
    twb = build_twb(squeeze, cutoff, tail_tol=RECEIPT_TAIL_TOL)
    mu = complex(coherent.mu)
    port = np.array([math.exp(-abs(mu) ** 2 / 2.0) * mu ** k / math.sqrt(math.factorial(k))
                     for k in range(cutoff.dim)])
    port /= np.linalg.norm(port)
    amp = np.multiply.outer(np.multiply.outer(twb, port), port)
    n_max = cutoff.n_max
    for n in range(1, cutoff.dim):
        amp[n, :, n_max - n + 1:] = 0.0
        amp[:, n, :, n_max - n + 1:] = 0.0
    return amp / np.linalg.norm(amp)


def dropped_weight_reference(r, mu, n_max):
    """The weight of the untruncated TWB x |mu> x |mu> outside the chains
    n + n_b <= n_max, as 1 - sum_n w_n P_n^2 in 50-digit decimals, with
    w_n = sech^2 r tanh^2n r and P_n a port's Poisson weight up to
    n_max - n.  The 50 digits resolve weights down to about 1e-38 to 1e-12.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        e = (2 * Decimal(r)).exp()
        t2 = ((e - 1) / (e + 1)) ** 2
        lam = Decimal(abs(mu)) ** 2
        below, term, total = [], (-lam).exp(), Decimal(0)
        for k in range(n_max + 1):
            total += term
            below.append(total)
            term *= lam / (k + 1)
        kept, w = Decimal(0), 1 - t2
        for n in range(n_max + 1):
            kept += w * below[n_max - n] ** 2
            w *= t2
        return float(1 - kept)


def output_moments(state, phi1, phi2, powers):
    """<(N_c1 - N_c2)^p> of a ``four_mode_input`` state, by direct beam-splitter evaluation."""
    out = apply_beam_splitter(state, 0, 2, phi1)
    out = apply_beam_splitter(out, 1, 3, phi2)
    return [number_difference_moment(out, power) for power in powers]


def delta_n_squared(phi1, phi2, squeeze=SqueezeParams(0.6), coherent=CoherentInput(0.8),
                    cutoff=FockCutoff(DEFAULT_RECEIPT_CUTOFF)):
    return fock_receipt(squeeze, coherent, cutoff, phi1, phi2, (2,))[1][0]


def cross_difference(squeeze, coherent, h=0.3):
    """d^2 <(N_c1 - N_c2)^2> / dphi1 dphi2 at (0, 0) from four receipts at cutoff 16.

    Only the cross term -2 <N_c1 N_c2> depends on both phases, and it is
    of harmonic order one in each, so the cross difference at step h is
    exactly the derivative times sin(h)^2.
    """
    total = sum(s1 * s2 * delta_n_squared(s1 * h, s2 * h, squeeze, coherent)
                for s1 in (1.0, -1.0) for s2 in (1.0, -1.0))
    return total / (4.0 * math.sin(h) ** 2)


def tabulate(coeffs, phi1, phi2):
    """Each table R at the phase samples, b(phi1)^T R b(phi2), one array per R."""
    b1, b2 = _trig_basis(phi1), _trig_basis(phi2)
    return [np.einsum("si,ij,sj->s", b1, r, b2) for r in coeffs]


def gaussian_moments(r, mu, phi1, phi2, powers):
    """<(N_c1 - N_c2)^p> at one phase pair from ``ordered_moment``.

    Sums the 2^p signed ordered products of N_c1 and N_c2 as written,
    without the table's binomial sum, grid or FFT.
    """
    kernel = np.zeros((8, 8))
    kernel[:4, :4] = from_squeezing(SqueezeParams(r)).kernel
    kernel[5, 4] = kernel[7, 6] = 1.0
    mu = complex(mu)
    means = np.array([0, 0, 0, 0, mu.conjugate(), mu, mu.conjugate(), mu])
    number = np.zeros((2, 2, 8))  # (c_i', c_i) over (a1', a1, a2', a2, b1', b1, b2', b2)
    for i, phi in enumerate((phi1, phi2)):
        for d in range(2):
            number[i, d, 2 * i + d] = math.cos(phi / 2.0)
            number[i, d, 4 + 2 * i + d] = math.sin(phi / 2.0)
    return [sum((-1) ** sum(picks) * ordered_moment(kernel, means,
                                                      number[list(picks)].reshape(-1, 8))
                for picks in itertools.product((0, 1), repeat=p)).real
            for p in powers]


def heisenberg_delta_n_squared(state, phi1, phi2):
    """<(N_c1 - N_c2)^2> assembled from input-mode ladder monomials.

    Each output number operator is expanded through the beam-splitter
    rotation of its two input modes; products are evaluated term by term
    in operator order, independent of the state-propagation code path.
    """
    def port_terms(sig, comp, phi):
        half = phi / 2.0
        c, s = math.cos(half), math.sin(half)
        return [
            (c * c, ((sig, True), (sig, False))),
            (s * s, ((comp, True), (comp, False))),
            (c * s, ((sig, True), (comp, False))),
            (c * s, ((comp, True), (sig, False))),
        ]

    terms = ([(w, ops) for w, ops in port_terms(0, 2, phi1)]
             + [(-w, ops) for w, ops in port_terms(1, 3, phi2)])
    total = 0.0
    for w1, ops1 in terms:
        for w2, ops2 in terms:
            total += w1 * w2 * expectation(state, ops1 + ops2).real
    return total


def test_classical_uncertainty_values():
    assert classical_uncertainty(1.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert classical_uncertainty(2.0) == pytest.approx(math.sqrt(2.0) / 4.0,
                                                       rel=1e-15)
    assert classical_uncertainty(1000.0) == pytest.approx(1.4142135623730951e-06,
                                                          rel=1e-12, abs=0)
    with pytest.raises(ZeroAmplitude):
        classical_uncertainty(0.0)
    with pytest.raises(ParameterOutOfRange):
        classical_uncertainty(math.nan)


def test_required_monomials_inventory():
    # The correlator's four terms, then every normally ordered term
    # (a1')^k1 a1^k1 (a2')^k2 a2^k2 of (N1 - N2)^2 and ^4, each once.
    assert len(CROSS_CHECK_POWERS) == len(set(CROSS_CHECK_POWERS)) == 18
    assert all(sum(p) <= 8 for p in CROSS_CHECK_POWERS)
    assert set(CROSS_CHECK_POWERS[:4]) == {(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0),
                                           (0, 1, 0, 1)}
    assert set(CROSS_CHECK_POWERS[4:]) == {
        (k1, k1, k2, k2) for k1, k2 in itertools.product(range(5), repeat=2)
        if 0 < k1 + k2 <= 4}


def test_delta_n_vanishes_at_zero_phase():
    assert delta_n_squared(0.0, 0.0) == pytest.approx(0.0, abs=1e-9)


def test_delta_n_vacuum_input():
    vac = delta_n_squared(0.3, 0.7, SqueezeParams(0.0), CoherentInput(0.0), FockCutoff(6))
    assert vac == pytest.approx(0.0, abs=1e-12)


def test_delta_n_matches_heisenberg_expansion(state4):
    # The receipt against ladder monomials on the dense reference state.
    via_splitters = delta_n_squared(0.2, 0.2)
    via_monomials = heisenberg_delta_n_squared(state4, 0.2, 0.2)
    assert via_splitters == pytest.approx(via_monomials, abs=1e-9)
    assert via_splitters == pytest.approx(DELTA_N_REF, abs=1e-9)


def test_mixed_derivative_reference(table4):
    # d^2/dphi1 dphi2 of -2 <N_c1 N_c2> at (0, 0) is -Re(mu^2) <a1 a2>, with
    # <a1 a2> = sinh(2r)/2 on the twin beam.
    denom = mixed_derivative(table4[0])
    assert denom == pytest.approx(-0.64 * math.sinh(1.2) / 2.0, rel=1e-12, abs=0.0)
    assert denom == pytest.approx(DENOM_REF, rel=1e-12, abs=0.0)


def test_mixed_derivative_interferometer_swap(table4):
    # Swapping the interferometers maps N_c1 - N_c2 to its negative at
    # swapped phases; the input is symmetric, so each even power's R is a
    # symmetric matrix, and both interferometers enter the slope alike.
    for r in table4:
        assert np.max(np.abs(r - r.T)) <= 1e-12 * np.abs(r).sum()
    assert gaussian_moments(0.6, 0.8, 0.2, 0.7, (2, 4)) == pytest.approx(
        gaussian_moments(0.6, 0.8, 0.7, 0.2, (2, 4)), rel=1e-12)
    assert mixed_derivative(table4[0]) == pytest.approx(
        mixed_derivative(table4[0].T), rel=1e-12)


def test_mixed_derivative_degenerate_guard():
    vac = phase_table(SqueezeParams(0.0), CoherentInput(0.0), (2,))
    with pytest.raises(DegenerateDenominator):
        correlation_estimate(0.0, 0.0, mixed_derivative(vac[0]))


def test_uncorrelated_noise_has_identical_configurations(table3):
    noise = PhaseNoiseModel(0.01, 0.02, rho=0.0)
    (res,) = paired_phase_average(noise, table3[:1], 2000, seed=11)
    assert res.mean_par == res.mean_perp
    assert res.mean_diff == 0.0
    assert res.se_diff == 0.0


def test_uncorrelated_scale_matrix_is_diagonal():
    noise = PhaseNoiseModel(0.01, 0.01)
    assert np.array_equal(noise.scale_matrix(), np.diag([0.01, 0.01]))


@pytest.mark.parametrize("args,error", [
    ((math.nan, 0.01), ParameterOutOfRange),
    ((0.01, math.inf), ParameterOutOfRange),
    ((0.01, -0.01), NegativeParameter),
    ((0.01, 0.01, 1.5), NegativeParameter),
    ((0.01, 1e151), ParameterOutOfRange),
], ids=["nan-sigma1", "inf-sigma2", "negative-sigma2", "rho-above-1", "sigma2-above-bound"])
def test_noise_model_rejects_non_finite_widths(args, error):
    with pytest.raises(error):
        PhaseNoiseModel(*args)


def test_paired_average_reference_run(table4):
    noise = PhaseNoiseModel(0.01, 0.01, rho=0.5)
    (res,) = paired_phase_average(noise, table4[:1], 100_000, seed=7)
    # 5e-12 allows the rounding of the 9x9 table and nothing more.
    assert res.mean_par == pytest.approx(MC_MEAN_PAR, rel=5e-12, abs=0.0)
    assert res.mean_perp == pytest.approx(MC_MEAN_PERP, rel=5e-12, abs=0.0)
    assert res.mean_diff == pytest.approx(MC_MEAN_DIFF, rel=5e-12, abs=0.0)
    assert res.se_par == pytest.approx(MC_SE_PAR, rel=5e-12, abs=0.0)
    assert res.se_perp == pytest.approx(MC_SE_PERP, rel=5e-12, abs=0.0)
    assert res.se_diff == pytest.approx(MC_SE_DIFF, rel=5e-12, abs=0.0)
    assert res.se_diff < abs(res.mean_diff)
    recovered = correlation_estimate(res.mean_par, res.mean_perp,
                                     mixed_derivative(table4[0]))
    assert recovered == pytest.approx(INJECTED_COV, rel=0.1)


def test_chunk_partials_match_a_per_sample_reference(table4):
    # Two full chunks and a short one, each against b(phi1)^T R b(phi2) per
    # sample on _trig_basis's (samples, 9) views, from the chunk's own draws.
    noise, perp = PhaseNoiseModel(0.3, 0.5, rho=0.4), PhaseNoiseModel(0.3, 0.5)
    scales = (noise.scale_matrix(), perp.scale_matrix())
    rows = (scales[0][0], scales[0][1], scales[1][1])
    chunks = estimator._chunk_seeds(2 * estimator.MC_CHUNK + 100, seed=11)
    assert [size for _, size in chunks] == [estimator.MC_CHUNK] * 2 + [100]
    partials = estimator._chunk_partials(table4, rows, chunks)
    assert partials.shape == (3, len(table4), 3, 2)
    for part, (seq, size) in zip(partials, chunks):
        z = np.random.default_rng(seq).standard_normal((size, 2))
        b1, b2_par, b2_perp = (_trig_basis(z @ row) for row in rows)
        for got, r in zip(part, table4):
            par, orth = (np.einsum("sb,bc,sc->s", b1, r, b2) for b2 in (b2_par, b2_perp))
            for (total, square), series in zip(got, (par, orth, par - orth)):
                assert total == pytest.approx(series.sum(), rel=1e-12, abs=0.0)
                assert square == pytest.approx(series @ series, rel=1e-12, abs=0.0)


def test_paired_average_deterministic_for_a_seed(table3):
    noise = PhaseNoiseModel(0.01, 0.01, rho=0.5)
    first = paired_phase_average(noise, table3[:1], 5000, seed=21)
    assert paired_phase_average(noise, table3[:1], 5000, seed=21) == first
    other = paired_phase_average(noise, table3[:1], 5000, seed=22)
    assert other[0].mean_par != first[0].mean_par
    assert other[0].mean_diff != first[0].mean_diff


def test_paired_average_powers_share_draws(table3):
    noise = PhaseNoiseModel(0.01, 0.01, rho=0.5)
    joint = paired_phase_average(noise, table3, 5000, seed=5)
    separate = tuple(paired_phase_average(noise, [r], 5000, seed=5)[0] for r in table3)
    assert joint == separate


def test_sample_floor(table4):
    noise = PhaseNoiseModel(0.01, 0.01)
    with pytest.raises(NegativeParameter):
        paired_phase_average(noise, table4, 999, seed=1)


def mc_runs(monkeypatch, table, samples, seed=3):
    """(inline, forked, forks): ``paired_phase_average`` in one process and
    in two, with the number of ``os.fork`` calls the two-process run made."""
    noise = PhaseNoiseModel(0.02, 0.01, rho=0.6)
    monkeypatch.setattr(estimator, "_mc_processes", lambda: 1)
    inline = paired_phase_average(noise, table, samples, seed)
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    monkeypatch.setattr(estimator, "_mc_processes", lambda: 2)
    forked = paired_phase_average(noise, table, samples, seed)
    return inline, forked, len(forks)


@pytest.mark.parametrize("samples", [1000, 4096, 4097, 8193, 100_000])
def test_forked_mc_equals_inline(monkeypatch, table3, table4, samples):
    chunks = -(-samples // estimator.MC_CHUNK)
    for table in (table3, table4):
        inline, forked, forks = mc_runs(monkeypatch, table, samples)
        assert forked == inline
        assert forks == (chunks >= 2)


def test_forked_mc_equals_inline_on_drawn_sample_counts(monkeypatch, table4):
    hypothesis = pytest.importorskip("hypothesis")
    samples = hypothesis.strategies.integers(1000, 3 * estimator.MC_CHUNK + 7)

    @hypothesis.settings(max_examples=20, deadline=None)
    @hypothesis.given(samples=samples)
    def check(samples):
        inline, forked, _ = mc_runs(monkeypatch, table4, samples, seed=samples)
        assert forked == inline

    check()


def test_one_chunk_forks_nothing(monkeypatch, table4):
    def no_fork():
        raise AssertionError("one chunk must run inline")

    monkeypatch.setattr(estimator, "_mc_processes", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    paired_phase_average(PhaseNoiseModel(0.01, 0.01), table4, estimator.MC_CHUNK, seed=1)


def test_failed_fork_runs_every_chunk_inline(monkeypatch, table4, capsys):
    def failed_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    pipes, real_pipe = [], os.pipe
    noise = PhaseNoiseModel(0.02, 0.01, rho=0.6)
    monkeypatch.setattr(estimator, "_mc_processes", lambda: 1)
    inline = paired_phase_average(noise, table4, 3 * estimator.MC_CHUNK, seed=3)
    monkeypatch.setattr(estimator, "_mc_processes", lambda: 2)
    monkeypatch.setattr(os, "fork", failed_fork)
    monkeypatch.setattr(os, "pipe", lambda: pipes.append(real_pipe()) or pipes[-1])
    assert paired_phase_average(noise, table4, 3 * estimator.MC_CHUNK, seed=3) == inline
    assert len(pipes) == 1
    for fd in pipes[0]:
        with pytest.raises(OSError):
            os.fstat(fd)
    assert cli.main(["phase-mc"]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_mc_processes_follow_fork_and_affinity(monkeypatch):
    assert estimator._mc_processes() in (1, 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert estimator._mc_processes() == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert estimator._mc_processes() == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert estimator._mc_processes() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert estimator._mc_processes() == 2
    monkeypatch.delattr(os, "fork", raising=False)
    assert estimator._mc_processes() == 1


@pytest.mark.parametrize("kind, error, message", [
    ("worker raises", WorkerFailed, "status 1 after sending 0 of 96 bytes"),
    ("worker sends short data", WorkerFailed, "status 0 after sending 0 of 96 bytes"),
    ("caller raises", RuntimeError, "caller raises"),
])
def test_mc_faults_raise_and_leave_no_child(monkeypatch, table4, kind, error, message):
    caller = os.getpid()
    trig_basis, chunk_partials = estimator._trig_basis, estimator._chunk_partials

    def raising(*args, **kwargs):
        if (os.getpid() == caller) == (kind == "caller raises"):
            raise RuntimeError(kind)
        return trig_basis(*args, **kwargs)

    def short(*args):
        partials = chunk_partials(*args)
        return partials if os.getpid() == caller else partials[:-1]

    monkeypatch.setattr(estimator, "_mc_processes", lambda: 2)
    if kind == "worker sends short data":
        monkeypatch.setattr(estimator, "_chunk_partials", short)
    else:
        monkeypatch.setattr(estimator, "_trig_basis", raising)
    # Three chunks: the worker runs the last one, 2 powers x 3 series x 2 sums.
    with pytest.raises(error, match=message):
        paired_phase_average(PhaseNoiseModel(0.01, 0.01), table4, 3 * estimator.MC_CHUNK,
                             seed=1)
    assert issubclass(WorkerFailed, HolosimError)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_dead_worker_exits_2_without_traceback(monkeypatch, capsys):
    caller, trig_basis = os.getpid(), estimator._trig_basis

    def raising(*args, **kwargs):
        if os.getpid() != caller:
            raise RuntimeError("worker fault")
        return trig_basis(*args, **kwargs)

    monkeypatch.setattr(estimator, "_mc_processes", lambda: 2)
    monkeypatch.setattr(estimator, "_trig_basis", raising)
    assert cli.main(["phase-mc", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Monte-Carlo worker exited with status 1")
    assert "Traceback" not in err


def test_trig_basis_matches_cos_and_sin():
    phi = np.linspace(-50.0, 50.0, 4001)
    basis = _trig_basis(phi)
    assert basis.shape == (phi.size, 9)
    assert np.array_equal(basis[:, 0], np.ones(phi.size))
    for k in range(1, 5):
        assert np.max(np.abs(basis[:, 2 * k - 1] - np.cos(k * phi))) <= 1e-13
        assert np.max(np.abs(basis[:, 2 * k] - np.sin(k * phi))) <= 1e-13


def test_phase_table_reproduces_grid_nodes(table3, table4):
    nodes = 2.0 * math.pi * np.arange(9) / 9
    grid = [g.ravel() for g in np.meshgrid(nodes, nodes, indexing="ij")]
    off_grid = [np.array([0.2, -1.3, 2.9, 0.01]), np.array([0.35, 0.7, -2.2, 0.01])]
    for (r, mu), table in (((0.3, 0.5), table3), ((0.6, 0.8), table4)):
        for phi1, phi2 in (grid, off_grid):
            direct = np.array([gaussian_moments(r, mu, a, b, (2, 4))
                               for a, b in zip(phi1, phi2)]).T
            for values, approx in zip(direct, tabulate(table, phi1, phi2)):
                assert np.max(np.abs(approx - values)) <= 1e-12 * np.max(np.abs(values))
    # The last pass is table4 off the grid; its first point is (0.2, 0.35).
    assert approx[0] == pytest.approx(values[0], rel=1e-12)
    # At r = 0.3, mu = 0.5 the occupation basis holds the input to 3e-13
    # at cutoff 16, so the two routes agree off the grid.
    for a, b in zip(*off_grid):
        _, fock = fock_receipt(SqueezeParams(0.3), CoherentInput(0.5), FockCutoff(16),
                               a, b, (2, 4))
        assert fock == pytest.approx(gaussian_moments(0.3, 0.5, a, b, (2, 4)), rel=1e-11)


def test_table_residual_receipt(table4):
    # |table - Fock| / |Fock| at (sigma1, sigma2) is the Fock route's
    # truncation: about 2e-7 at cutoff 16, and it shrinks with the cutoff.
    squeeze, coherent = SqueezeParams(0.6), CoherentInput(0.8)
    residuals = []
    for n_max in (16, 24):
        tail, direct = fock_receipt(squeeze, coherent, FockCutoff(n_max), 0.01, 0.01, (2, 4))
        assert 0.0 < tail < 1e-6
        residuals.append(table_residuals(table4, 0.01, 0.01, direct))
    assert all(1e-8 < res < 1e-6 for res in residuals[0])
    assert all(b < a / 100.0 for a, b in zip(*residuals))
    vac = phase_table(SqueezeParams(0.0), CoherentInput(0.0), (2,))
    _, direct = fock_receipt(SqueezeParams(0.0), CoherentInput(0.0), FockCutoff(6),
                             0.01, 0.01, (2,))
    assert math.isnan(table_residuals(vac, 0.01, 0.01, direct)[0])


def dense_receipts(squeeze, coherent, cutoff, phases, powers):
    """``fock_receipt``'s (tail, moments) at each phase pair: the tail from
    ``dropped_weight_reference``, the moments on ``four_mode_input``."""
    tail = dropped_weight_reference(squeeze.r, coherent.mu, cutoff.n_max)
    if tail > RECEIPT_TAIL_TOL:
        return [(tail, None)] * len(phases)
    state = four_mode_input(squeeze, coherent, cutoff)
    return [(tail, output_moments(state, phi1, phi2, powers)) for phi1, phi2 in phases]


@pytest.mark.parametrize("n_max", [6, 16, 24])
def test_fock_receipt_matches_the_dense_four_mode_route(n_max):
    # The receipt skips where it would drop more than 1e-6 of its input:
    # at cutoff 6 all but r <= 0.3 with mu = 0, at cutoff 16 r = 0.8 with
    # a nonzero mu, at cutoff 24 none.
    cutoff, powers = FockCutoff(n_max), (1, 2, 3, 4)
    phases = ((0.0, 0.0), (0.01, 0.01), (math.pi, -math.pi / 2), (0.2, -1.3))
    skipped = 0
    for r, mu in itertools.product((0.0, 0.3, 0.6, 0.8), (0.0, 0.8, 0.5 - 0.9j, 1.3j)):
        squeeze, coherent = SqueezeParams(r), CoherentInput(mu)
        reference = dense_receipts(squeeze, coherent, cutoff, phases, powers)
        for (phi1, phi2), (ref_tail, ref) in zip(phases, reference):
            tail, moments = fock_receipt(squeeze, coherent, cutoff, phi1, phi2, powers)
            assert tail == pytest.approx(ref_tail, rel=1e-12, abs=0)
            if ref is None:
                assert moments is None
                skipped += 1
                continue
            for value, exact in zip(moments, ref):
                assert value == pytest.approx(exact, rel=1e-13, abs=1e-15)
    assert skipped == {6: 14, 16: 3, 24: 0}[n_max] * len(phases)


@pytest.mark.parametrize("n_max, expected", [
    (16, 5.2704731910226729e-9), (24, 2.523942989141062e-13), (40, 5.788145041842671e-22),
], ids=["cutoff-16", "cutoff-24", "cutoff-40"])
def test_fock_receipt_tail_is_the_exact_dropped_weight(n_max, expected):
    # phase-mc's defaults, r = 0.6 and mu = 0.8.  A tail composed as
    # 1 - (1 - t) kept rounds these to 5.270473835e-9, 2.5258e-13 and 0.0.
    tail, moments = fock_receipt(SqueezeParams(0.6), CoherentInput(0.8), FockCutoff(n_max),
                                 0.01, 0.01, (2,))
    assert tail == pytest.approx(expected, rel=1e-12, abs=0)
    assert tail == pytest.approx(dropped_weight_reference(0.6, 0.8, n_max), rel=1e-12, abs=0)
    assert moments is not None


@pytest.mark.parametrize("r, mu, expected", [
    # The twin beam alone drops 9.0e-7 above cutoff 16, and the ports
    # 2.6e-4 more.
    (0.8, 2.0, 2.6346550696930193e-4),
    # Every port weight in range underflows, and the whole input is dropped.
    (0.6, 1000.0, 1.0),
], ids=["r-0.8-mu-2", "mu-1000"])
def test_fock_receipt_skips_by_the_total_dropped_weight(r, mu, expected):
    tail, moments = fock_receipt(SqueezeParams(r), CoherentInput(mu), FockCutoff(16),
                                 0.01, 0.01, (2, 4))
    assert tail == pytest.approx(expected, rel=1e-12, abs=0)
    assert tail == pytest.approx(dropped_weight_reference(r, mu, 16), rel=1e-12, abs=0)
    assert moments is None


def test_fock_receipt_at_the_cutoff_bound_stays_small():
    # The dense four-mode state alone is 41^4 complex amplitudes, 45 MB, at
    # phase-mc's cutoff bound; the pair route holds a few 41^3 arrays.
    args = (SqueezeParams(0.6), CoherentInput(0.8), FockCutoff(cli.MAX_CUTOFF["phase-mc"]),
            0.01, 0.01, (2, 4))
    tracemalloc.start()
    try:
        tail, moments = fock_receipt(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 <= tail < 1e-6 and moments is not None
    assert peak < 16e6


def test_power_guard_precedes_any_work(monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("from_squeezing", "ordered_moment"):
        monkeypatch.setattr(estimator, name, counted(name, getattr(estimator, name)))
    with pytest.raises(DegreeTooHigh):
        phase_table(SqueezeParams(0.3), CoherentInput(0.5), (2, 5))
    assert calls == []
    # The counters see the work of a valid power.
    phase_table(SqueezeParams(0.3), CoherentInput(0.5), (4,))
    assert set(calls) == {"from_squeezing", "ordered_moment"}


@pytest.mark.parametrize("noise, cancel", [
    (PhaseNoiseModel(0.3, 0.5, rho=0.6), 0.0),
    (PhaseNoiseModel(0.4, 0.2, rho=-0.8), 0.0),
    # At the phase-mc widths the average is ~1e-5 of sum |R|, so both
    # routes round at that scale.
    (PhaseNoiseModel(0.01, 0.01, rho=0.5), 1e-12),
], ids=["correlated", "anticorrelated", "narrow"])
def test_noise_average_matches_gauss_hermite(table3, noise, cancel):
    nodes, weights = np.polynomial.hermite_e.hermegauss(40)
    z1, z2 = (g.ravel() for g in np.meshgrid(nodes, nodes, indexing="ij"))
    w = np.outer(weights, weights).ravel() / (2.0 * math.pi)
    scale = noise.scale_matrix()
    phi1, phi2 = scale @ np.array([z1, z2])
    for coeffs, values in zip(table3, tabulate(table3, phi1, phi2)):
        assert noise_average(coeffs, scale @ scale.T) == pytest.approx(
            float(w @ values), rel=1e-12, abs=cancel * np.abs(coeffs).sum())


def test_noise_average_z_scores_at_reference_run(table4):
    noise = PhaseNoiseModel(0.01, 0.01, rho=0.5)
    for res in paired_phase_average(noise, table4, 100_000, seed=7):
        assert abs(res.mean_par - res.exact_par) <= 4.0 * res.se_par
        assert abs(res.mean_perp - res.exact_perp) <= 4.0 * res.se_perp


def test_correlation_estimate_floor():
    with pytest.raises(DegenerateDenominator):
        correlation_estimate(1.0, 0.5, 1e-9)


def test_env_ratio_lowest_order_values():
    res = uncertainty_env_approx(2.0, 0.0, 1e-3)
    assert type(res) is float
    assert res == pytest.approx(RATIO_R2_M0, rel=1e-12)
    assert uncertainty_env_approx(2.0, 1.0, 1e-3) == pytest.approx(RATIO_R2_M1, rel=1e-12)


def test_env_ratio_vanishes_without_coupling():
    assert uncertainty_env_approx(1.0, 0.5, 0.0) == 0.0
    full = uncertainty_env_full(1.0, 0.5, 0.0)
    assert type(full) is float and full == 0.0


def test_env_full_matches_lowest_order_at_weak_coupling():
    for m in (0.0, 0.5, 1.0, 2.0):
        full = uncertainty_env_full(1.0, m, 1e-4)
        approx = uncertainty_env_approx(1.0, m, 1e-4)
        assert full == pytest.approx(approx, rel=0.02)


BENCH_M_VALUES = (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0)


def env_full_row(r, m, lt):
    """The full ratio as one row was computed before the column route."""
    if lt == 0.0:
        return 0.0
    initial = from_squeezing(SqueezeParams(r))
    denom = 2.0 * evolve(initial, m, lt).pair_correlation()
    sp, sm = initial.sigma_plus, initial.sigma_minus
    heat = 2.0 * m + 1.0
    q_rate = 16.0 * ((heat - sp) * sm + sp * (heat - sm))
    return 2.0 * math.sqrt(max(0.5 * q_rate * lt, 0.0)) / denom


def env_approx_row(r, m, lt):
    return (8.0 * math.sqrt(lt)
            * math.sqrt((2.0 * m + 1.0) * math.cosh(2.0 * r) - 1.0)
            / math.sinh(2.0 * r))


@pytest.mark.parametrize("r, lt", [
    (2.0, np.geomspace(1e-6, 1e-2, 1500)[:, None]),
    (np.linspace(0.25, 3.0, 1500)[:, None], 1e-3),
], ids=["coupling", "squeezing"])
def test_env_ratio_columns_equal_row_values(r, lt):
    # The benchmark's grids.  numpy's exp, cosh and sinh differ from math's
    # in the last bit on many of them (exp(-lt) on 107 of the 1,500
    # coupling values with numpy 2.4 on x86-64), so only math per element
    # keeps the columns bit-equal to the rows.
    points = list(zip(*(a.ravel().tolist() for a in
                        np.broadcast_arrays(r, np.array(BENCH_M_VALUES), lt))))
    for ratio, row in ((uncertainty_env_full, env_full_row),
                       (uncertainty_env_approx, env_approx_row)):
        column = ratio(r, BENCH_M_VALUES, lt).ravel().tolist()
        assert column == [row(*p) for p in points]
        assert column[::10] == [ratio(*p) for p in points[::10]]


def test_env_ratio_columns_name_the_offending_value():
    for ratio in (uncertainty_env_full, uncertainty_env_approx):
        with pytest.raises(ParameterOutOfRange, match="got 400.0"):
            ratio(np.array([0.5, 400.0, -1.0]), 0.0, 1e-3)
        with pytest.raises(NegativeParameter, match="got -1.0"):
            ratio(np.array([0.5, -1.0, 400.0]), 0.0, 1e-3)
        with pytest.raises(DegenerateDenominator):
            ratio(np.array([0.5, 0.0]), 0.0, 1e-3)
        with pytest.raises(NegativeParameter, match=r"got \(-0.5, 0.001\)"):
            ratio(1.0, np.array([0.0, -0.5]), 1e-3)
        with pytest.raises(NegativeParameter, match=r"got \(0.0, nan\)"):
            ratio(1.0, 0.0, np.array([1e-3, math.nan]))
    with pytest.raises(NegativeParameter, match="ratio must be >= 0, got nan"):
        uncertainty_env_approx(1.0, np.array([0.0, math.inf]), 0.0)
    # The floor holds only where lambda*tau > 0, as for one row; at r = 1e-17
    # the correlator is exactly 0 without coupling, and the ratio still 0.
    with pytest.raises(DegenerateDenominator, match="below floor"):
        uncertainty_env_full(1.0, 0.0, np.array([1e-3, 40.0]))
    assert uncertainty_env_full(1e-17, 0.0, np.zeros(2)).tolist() == [0.0, 0.0]


def test_env_full_increases_with_temperature():
    ratios = [uncertainty_env_full(1.0, m, 1e-3) for m in (0.0, 0.5, 1.0, 2.0)]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_env_ratio_guards():
    with pytest.raises(DegenerateDenominator):
        uncertainty_env_approx(0.0, 0.0, 1e-3)
    with pytest.raises(NegativeParameter):
        uncertainty_env_approx(1.0, -0.5, 1e-3)
    with pytest.raises(DegenerateDenominator):
        uncertainty_env_full(0.0, 0.0, 1e-3)
    with pytest.raises(NegativeParameter):
        uncertainty_env_full(1.0, 0.0, -1e-3)


@pytest.mark.parametrize("ratio", [
    lambda r, x: uncertainty_env_approx(r, x, 1e-3),
    lambda r, x: uncertainty_env_full(r, x, 1e-3),
    lambda r, x: uncertainty_modccr_analytic(r, 0.05 * x),
], ids=["env_approx", "env_full", "modccr_analytic"])
def test_closed_form_ratios_reject_nan_and_overflow(ratio):
    with pytest.raises(NegativeParameter, match="squeeze strength"):
        ratio(math.nan, 0.0)
    with pytest.raises(ParameterOutOfRange, match="squeeze strength"):
        ratio(400.0, 0.0)
    with pytest.raises(HolosimError, match="nan"):
        ratio(1.0, math.nan)


def test_modccr_analytic_values():
    res = uncertainty_modccr_analytic(1.0, 0.05)
    assert type(res) is float
    assert res == pytest.approx(MODCCR_R1, rel=1e-12)
    assert uncertainty_modccr_analytic(0.8, 0.05) == pytest.approx(MODCCR_R08, rel=1e-12)
    assert uncertainty_modccr_analytic(0.7, 0.0) == 0.0
    column = uncertainty_modccr_analytic(np.array([1.0, 0.8])[:, None], [0.05, 0.0])
    assert isinstance(column, np.ndarray)
    assert column.tolist() == [
        [uncertainty_modccr_analytic(r, eps) for eps in (0.05, 0.0)]
        for r in (1.0, 0.8)]


@pytest.fixture(scope="module")
def modccr_grids(tmp_path_factory):
    """(r grid, epsilon values, cutoff) of sweep-modccr at its defaults and
    at bench/workloads.py's CONFIG."""
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "bench", "workloads.py")
    path = tmp_path_factory.mktemp("modccr") / "bench.cfg"
    path.write_text(runpy.run_path(bench)["CONFIG"], encoding="utf-8")
    grids = {}
    for name, values in (("defaults", {}), ("bench", cli.parse_config_file(str(path),
                                                                          "sweep-modccr"))):
        config = cli.resolve_config("sweep-modccr", values, {})
        grids[name] = (config.r_grid, config.epsilon_values, config.cutoff)
    return grids


def dense_denominator(r, cutoff):
    """The oracle's quadrature correlator the dense way: the four monomials
    a1^(') a2^(') by ``expectation`` on the (d, d) twin beam, summed in order."""
    twb = build_twb(SqueezeParams(r), cutoff)
    return sum(expectation(twb, (((0, da), (1, db)))).real
               for da in (True, False) for db in (True, False))


@pytest.mark.parametrize("n_max", [1, 2, 16, 64, 400])
def test_oracle_denominator_matches_the_dense_route(monkeypatch, modccr_grids, n_max):
    # With the coefficient pinned at 0.25 and epsilon at 0.125, the column
    # reads 2 * 0.5 * 0.125 / denominator, which returns the pair route's
    # denominator within one rounding.  The tiny r keep cutoffs 1 and 2,
    # where no grid point is supported, from passing vacuously.
    monkeypatch.setattr(estimator, "deformed_variance_coefficient",
                        lambda r, cutoff: np.full(np.shape(r), 0.25))
    cutoff = FockCutoff(n_max)
    r = [x for x in (1e-3, 3e-3, *modccr_grids["defaults"][0], *modccr_grids["bench"][0])
         if twb_tail(x, cutoff, tail_tol=math.inf) <= 1e-10]
    assert r
    column = estimator.modccr_oracle_column(r, [0.125], cutoff)[:, 0]
    for x, ratio in zip(r, column.tolist()):
        dense = dense_denominator(x, cutoff)
        assert abs(0.125 / ratio - dense) <= 1e-14 * abs(dense), x


@pytest.mark.parametrize("grid, supported", [("defaults", 60), ("bench", 188)])
def test_oracle_column_is_the_scalar_oracle_bit_for_bit(modccr_grids, grid, supported):
    r_grid, eps_values, n_max = modccr_grids[grid]
    cutoff = FockCutoff(n_max)
    r = [0.0, 1e-9, *r_grid]
    eps = [*eps_values, 0.0, 0.2, -0.2, 0.2000001]
    column = estimator.modccr_oracle_column(r, eps, cutoff)
    assert column.shape == (len(r), len(eps))
    raised = set()
    for i, x in enumerate(r):
        for j, e in enumerate(eps):
            try:
                scalar = uncertainty_modccr_fock(x, e, cutoff)
            except (CutoffTooSmall, AmplitudeTooLarge, DegenerateDenominator) as exc:
                raised.add(type(exc))
                assert math.isnan(column[i, j]), (x, e)
            else:
                assert type(scalar) is float
                assert np.float64(scalar).tobytes() == column[i, j].tobytes(), (x, e)
    assert raised == {CutoffTooSmall, AmplitudeTooLarge, DegenerateDenominator}
    # The sweep's own rows: the oracle's support is unchanged.
    assert np.count_nonzero(~np.isnan(column[2:, :len(eps_values)])) == supported


def test_modccr_oracle_agrees_with_analytic():
    res = uncertainty_modccr_fock(0.8, 0.05, FockCutoff(48))
    assert type(res) is float
    assert res == pytest.approx(MODCCR_R08, rel=1e-12)
    # The oracle's ratio is exactly linear in eps, so it holds the map's
    # whole range |eps| <= 0.2.
    res = uncertainty_modccr_fock(0.8, 0.15, FockCutoff(48))
    assert res == pytest.approx(8 * 0.8 * 0.15 / math.sinh(1.6), rel=1e-8, abs=0)


def test_modccr_oracle_guards():
    with pytest.raises(CutoffTooSmall):
        uncertainty_modccr_fock(1.3, 0.05)
    for eps in (0.25, math.nan):
        with pytest.raises(AmplitudeTooLarge):
            uncertainty_modccr_fock(1.0, eps)
    # A negative r would pass the twin-beam tail check.
    with pytest.raises(NegativeParameter):
        uncertainty_modccr_fock(-0.5, 0.05)
    assert uncertainty_modccr_fock(0.8, 0.0) == 0.0
    with pytest.raises(DegenerateDenominator, match="vanishes at r = 0"):
        uncertainty_modccr_fock(0.0, 0.05)
    # The correlator 2e-9 at r = 1e-9 lies below the 1e-8 floor.
    with pytest.raises(DegenerateDenominator, match="below floor 1e-08"):
        uncertainty_modccr_fock(1e-9, 0.05)
