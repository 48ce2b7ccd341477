"""Uncertainty ratios, interferometer statistics, and phase-noise averaging."""

import math

import numpy as np
import pytest

from holosim import (
    CoherentInput,
    FockCutoff,
    HolosimError,
    PhaseNoiseModel,
    SqueezeParams,
    four_mode_input,
    paired_phase_average,
    uncertainty_env_approx,
    uncertainty_env_full,
    uncertainty_modccr_analytic,
    uncertainty_modccr_fock,
)
from holosim import estimator
from holosim.errors import (
    AmplitudeTooLarge,
    CutoffTooSmall,
    DegenerateDenominator,
    DegreeTooHigh,
    InvalidModeIndex,
    NegativeParameter,
    ParameterOutOfRange,
    ZeroAmplitude,
)
from holosim.estimator import (
    Backend,
    _output_moments,
    _phase_table,
    _trig_basis,
    classical_uncertainty,
    correlation_estimate,
    noise_average,
    required_monomials,
)
from holosim.fock import (
    DEFAULT_FOUR_MODE_TAIL_TOL,
    MultiModeFockState,
    build_coherent,
    build_twb,
    expectation,
    tensor_product,
)
from holosim.gaussian import WignerMonomial, evolve, from_squeezing

# Independently derived anchors (hyperbolic closed forms and high-precision
# reference runs frozen at module-creation time).
RATIO_R2_M0 = 0.047548148179516546        # 8 sqrt(1e-3 (cosh4 - 1)) / sinh4
RATIO_R2_M1 = 0.08339275355461528         # same with (2M+1) = 3
MODCCR_R1 = 0.11028822590871327           # 8 * 1 * 0.05 / sinh(2)
MODCCR_R08 = 0.13470462908413722          # 8 * 0.8 * 0.05 / sinh(1.6)
DELTA_N_REF = 0.011930345372360728        # r=0.6, mu=0.8, phi=(0.2, 0.2)
DENOM_REF = -0.4830276337318953           # analytic mixed derivative at (0, 0)
MC_MEAN_PAR = 5.4240998382217586e-05      # seed=7, 1e5 samples, sigma=0.01
MC_MEAN_PERP = 7.8519208814477e-05
MC_MEAN_DIFF = -2.427821043225943e-05
INJECTED_COV = 5e-05                      # rho * sigma1 * sigma2


@pytest.fixture(scope="module")
def state4():
    return four_mode_input(SqueezeParams(0.6), CoherentInput(0.8))


@pytest.fixture(scope="module")
def state8():
    """A cutoff-8 input for tests that pin no cutoff-16 value."""
    return four_mode_input(SqueezeParams(0.3), CoherentInput(0.5), FockCutoff(8))


def delta_n_squared(state, phi1, phi2):
    return _output_moments(state, phi1, phi2, (2,))[0]


def cross_difference(state, h=0.3):
    """d^2 <(N_c1 - N_c2)^2> / dphi1 dphi2 at (0, 0) from four direct evaluations.

    Only the cross term -2 <N_c1 N_c2> depends on both phases, and it is
    of harmonic order one in each, so the cross difference at step h is
    exactly the derivative times sin(h)^2.
    """
    total = sum(s1 * s2 * delta_n_squared(state, s1 * h, s2 * h)
                for s1 in (1.0, -1.0) for s2 in (1.0, -1.0))
    return total / (4.0 * math.sin(h) ** 2)


def tabulate(coeffs, phi1, phi2):
    """Each table R at the phase samples, b(phi1)^T R b(phi2), one array per R."""
    b1, b2 = _trig_basis(phi1), _trig_basis(phi2)
    return [np.einsum("si,ij,sj->s", b1, r, b2) for r in coeffs]


def mixed_derivative(state):
    noise = PhaseNoiseModel(0.01, 0.01)
    return paired_phase_average(noise, state, 1000, seed=1)[0].mixed_derivative


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
    mons = required_monomials()
    assert len(mons) == 18
    assert all(m.degree <= 8 for m in mons)
    for n1, m1, n2, m2 in ((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)):
        assert WignerMonomial(n1, m1, n2, m2) in mons


def test_four_mode_input_shape(state4):
    assert state4.mode_count == 4
    assert state4.amplitudes.shape == (17, 17, 17, 17)


def test_delta_n_vanishes_at_zero_phase(state4):
    assert delta_n_squared(state4, 0.0, 0.0) == pytest.approx(0.0, abs=1e-9)


def test_delta_n_vacuum_input():
    vac = four_mode_input(SqueezeParams(0.0), CoherentInput(0.0), FockCutoff(6))
    assert delta_n_squared(vac, 0.3, 0.7) == pytest.approx(0.0, abs=1e-12)


def test_delta_n_matches_heisenberg_expansion(state4):
    via_splitters = delta_n_squared(state4, 0.2, 0.2)
    via_monomials = heisenberg_delta_n_squared(state4, 0.2, 0.2)
    assert via_splitters == pytest.approx(via_monomials, abs=1e-9)
    assert via_splitters == pytest.approx(DELTA_N_REF, abs=1e-9)


def test_mixed_derivative_reference(state4):
    denom = mixed_derivative(state4)
    assert denom == pytest.approx(cross_difference(state4), rel=1e-12)
    assert denom == pytest.approx(DENOM_REF, abs=1e-6)


def test_mixed_derivative_interferometer_swap(state4):
    swapped = MultiModeFockState(
        4, state4.cutoff, np.transpose(state4.amplitudes, (1, 0, 3, 2)))
    assert mixed_derivative(state4) == pytest.approx(
        mixed_derivative(swapped), rel=1e-12)


def test_mixed_derivative_degenerate_guard():
    vac = four_mode_input(SqueezeParams(0.0), CoherentInput(0.0), FockCutoff(6))
    with pytest.raises(DegenerateDenominator):
        correlation_estimate(0.0, 0.0, mixed_derivative(vac))


def test_uncorrelated_noise_has_identical_configurations(state8):
    noise = PhaseNoiseModel(0.01, 0.02, rho=0.0)
    (res,) = paired_phase_average(noise, state8, 2000, seed=11)
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
], ids=["nan-sigma1", "inf-sigma2", "negative-sigma2", "rho-above-1"])
def test_noise_model_rejects_non_finite_widths(args, error):
    with pytest.raises(error):
        PhaseNoiseModel(*args)


def test_paired_average_reference_run(state4):
    noise = PhaseNoiseModel(0.01, 0.01, rho=0.5)
    (res,) = paired_phase_average(noise, state4, 100_000, seed=7)
    # The pins predate the total-photon table build, which moved the means
    # by 2.6e-12 (par) and 1.8e-12 (perp) relative: rounding of the 9x9
    # table, which 5e-12 allows and nothing more.
    assert res.mean_par == pytest.approx(MC_MEAN_PAR, rel=5e-12, abs=0.0)
    assert res.mean_perp == pytest.approx(MC_MEAN_PERP, rel=5e-12, abs=0.0)
    assert res.mean_diff == pytest.approx(MC_MEAN_DIFF, rel=5e-12, abs=0.0)
    assert res.se_diff < abs(res.mean_diff)
    recovered = correlation_estimate(res.mean_par, res.mean_perp,
                                     res.mixed_derivative)
    assert recovered == pytest.approx(INJECTED_COV, rel=0.1)


def test_paired_average_deterministic_for_a_seed(state8):
    noise = PhaseNoiseModel(0.01, 0.01, rho=0.5)
    first = paired_phase_average(noise, state8, 5000, seed=21)
    assert paired_phase_average(noise, state8, 5000, seed=21) == first
    other = paired_phase_average(noise, state8, 5000, seed=22)
    assert other[0].mean_par != first[0].mean_par
    assert other[0].mean_diff != first[0].mean_diff


def test_paired_average_powers_share_draws(state8):
    noise = PhaseNoiseModel(0.01, 0.01, rho=0.5)
    joint = paired_phase_average(noise, state8, 5000, seed=5, powers=(2, 4))
    separate = tuple(paired_phase_average(noise, state8, 5000, seed=5,
                                          powers=(p,))[0] for p in (2, 4))
    assert joint == separate


def test_sample_floor(state4):
    noise = PhaseNoiseModel(0.01, 0.01)
    with pytest.raises(NegativeParameter):
        paired_phase_average(noise, state4, 999, seed=1)


def test_trig_basis_matches_cos_and_sin():
    phi = np.linspace(-50.0, 50.0, 4001)
    basis = _trig_basis(phi)
    assert basis.shape == (phi.size, 9)
    assert np.array_equal(basis[:, 0], np.ones(phi.size))
    for k in range(1, 5):
        assert np.max(np.abs(basis[:, 2 * k - 1] - np.cos(k * phi))) <= 1e-13
        assert np.max(np.abs(basis[:, 2 * k] - np.sin(k * phi))) <= 1e-13


def test_phase_table_reproduces_grid_nodes(state8, state4):
    nodes = 2.0 * math.pi * np.arange(9) / 9
    grid = [g.ravel() for g in np.meshgrid(nodes, nodes, indexing="ij")]
    # Off the grid the table is exact only because the input holds
    # complete beam-splitter chains.
    off_grid = [np.array([0.2, -1.3, 2.9, 0.01]), np.array([0.35, 0.7, -2.2, 0.01])]
    for st, phases in ((state8, (grid, off_grid)), (state4, (off_grid,))):
        coeffs = _phase_table(st, (2, 4))
        for phi1, phi2 in phases:
            direct = np.array([_output_moments(st, a, b, (2, 4))
                               for a, b in zip(phi1, phi2)]).T
            tabulated = tabulate(coeffs, phi1, phi2)
            for values, approx in zip(direct, tabulated):
                scale = np.max(np.abs(values))
                assert np.max(np.abs(approx - values)) <= 1e-12 * scale
    # The last pass is state4 off the grid; its first point is (0.2, 0.35).
    assert tabulated[0][0] == pytest.approx(direct[0][0], rel=1e-12)


def test_table_residual_receipt(state8):
    noise = PhaseNoiseModel(0.01, 0.01, rho=0.5)
    quad, quartic = paired_phase_average(noise, state8, 1000, seed=1,
                                         powers=(2, 4))
    for res in (quad, quartic):
        assert math.isfinite(res.table_residual) and res.table_residual > 0.0
    vac = four_mode_input(SqueezeParams(0.0), CoherentInput(0.0), FockCutoff(6))
    (res,) = paired_phase_average(noise, vac, 1000, seed=1)
    assert math.isnan(res.table_residual)


def test_phase_table_rejects_an_unprojected_box_state():
    # The per-mode box keeps chains with s = n_a + n_b > n_max in part.
    cutoff = FockCutoff(16)
    twb = build_twb(SqueezeParams(0.6), cutoff, tail_tol=DEFAULT_FOUR_MODE_TAIL_TOL)
    port = build_coherent(CoherentInput(0.8), cutoff)
    box = tensor_product(twb, port, port)
    with pytest.raises(CutoffTooSmall, match=r"weight \d\.\d+e-\d+ lies outside"):
        _phase_table(box, (2,))
    with pytest.raises(InvalidModeIndex, match="four-mode input, got 2 modes"):
        _phase_table(twb, (2,))


def test_power_guard_precedes_any_work(state8, monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("apply_beam_splitter", "beam_splitter_blocks", "_chunk_seeds"):
        monkeypatch.setattr(estimator, name, counted(name, getattr(estimator, name)))
    noise = PhaseNoiseModel(0.01, 0.01, rho=0.5)
    with pytest.raises(DegreeTooHigh):
        paired_phase_average(noise, state8, 1000, seed=1, powers=(5,))
    assert calls == []
    # The counters see the work of a valid power.
    paired_phase_average(noise, state8, 1000, seed=1, powers=(4,))
    assert set(calls) == {"apply_beam_splitter", "beam_splitter_blocks", "_chunk_seeds"}


@pytest.mark.parametrize("noise, cancel", [
    (PhaseNoiseModel(0.3, 0.5, rho=0.6), 0.0),
    (PhaseNoiseModel(0.4, 0.2, rho=-0.8), 0.0),
    # At the phase-mc widths the average is ~1e-5 of sum |R|, so both
    # routes round at that scale.
    (PhaseNoiseModel(0.01, 0.01, rho=0.5), 1e-12),
], ids=["correlated", "anticorrelated", "narrow"])
def test_noise_average_matches_gauss_hermite(state8, noise, cancel):
    nodes, weights = np.polynomial.hermite_e.hermegauss(40)
    z1, z2 = (g.ravel() for g in np.meshgrid(nodes, nodes, indexing="ij"))
    w = np.outer(weights, weights).ravel() / (2.0 * math.pi)
    scale = noise.scale_matrix()
    phi1, phi2 = scale @ np.array([z1, z2])
    table = _phase_table(state8, (2, 4))
    for coeffs, values in zip(table, tabulate(table, phi1, phi2)):
        assert noise_average(coeffs, scale @ scale.T) == pytest.approx(
            float(w @ values), rel=1e-12, abs=cancel * np.abs(coeffs).sum())


def test_noise_average_z_scores_at_reference_run(state4):
    noise = PhaseNoiseModel(0.01, 0.01, rho=0.5)
    for res in paired_phase_average(noise, state4, 100_000, seed=7, powers=(2, 4)):
        assert abs(res.mean_par - res.exact_par) <= 4.0 * res.se_par
        assert abs(res.mean_perp - res.exact_perp) <= 4.0 * res.se_perp


def test_correlation_estimate_floor():
    with pytest.raises(DegenerateDenominator):
        correlation_estimate(1.0, 0.5, 1e-9)


def test_env_ratio_lowest_order_values():
    res = uncertainty_env_approx(2.0, 0.0, 1e-3)
    assert res.ratio == pytest.approx(RATIO_R2_M0, rel=1e-12)
    assert res.backend is Backend.GAUSSIAN_APPROX
    assert res.backend.value == "gaussian_approx"
    res = uncertainty_env_approx(2.0, 1.0, 1e-3)
    assert res.ratio == pytest.approx(RATIO_R2_M1, rel=1e-12)


def test_env_ratio_vanishes_without_coupling():
    assert uncertainty_env_approx(1.0, 0.5, 0.0).ratio == 0.0
    full = uncertainty_env_full(1.0, 0.5, 0.0)
    assert full.ratio == 0.0
    assert full.backend is Backend.GAUSSIAN_FULL


def test_env_full_matches_lowest_order_at_weak_coupling():
    for m in (0.0, 0.5, 1.0, 2.0):
        full = uncertainty_env_full(1.0, m, 1e-4).ratio
        approx = uncertainty_env_approx(1.0, m, 1e-4).ratio
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
        column = ratio(r, BENCH_M_VALUES, lt).ratio.ravel().tolist()
        assert column == [row(*p) for p in points]
        assert column[::10] == [ratio(*p).ratio for p in points[::10]]


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
    assert uncertainty_env_full(1e-17, 0.0, np.zeros(2)).ratio.tolist() == [0.0, 0.0]


def test_env_full_increases_with_temperature():
    ratios = [uncertainty_env_full(1.0, m, 1e-3).ratio
              for m in (0.0, 0.5, 1.0, 2.0)]
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
    assert res.ratio == pytest.approx(MODCCR_R1, rel=1e-12)
    assert res.backend is Backend.ANALYTIC_MODCCR
    res = uncertainty_modccr_analytic(0.8, 0.05)
    assert res.ratio == pytest.approx(MODCCR_R08, rel=1e-12)
    assert uncertainty_modccr_analytic(0.7, 0.0).ratio == 0.0
    column = uncertainty_modccr_analytic(np.array([1.0, 0.8])[:, None], [0.05, 0.0])
    assert column.ratio.tolist() == [
        [uncertainty_modccr_analytic(r, eps).ratio for eps in (0.05, 0.0)]
        for r in (1.0, 0.8)]


def test_modccr_oracle_agrees_with_analytic():
    res = uncertainty_modccr_fock(0.8, 0.05, FockCutoff(48))
    assert res.backend is Backend.FOCK_ORACLE
    assert res.ratio == pytest.approx(MODCCR_R08, rel=1e-12)
    # The oracle's ratio is exactly linear in eps, so it holds the map's
    # whole range |eps| <= 0.2.
    res = uncertainty_modccr_fock(0.8, 0.15, FockCutoff(48))
    assert res.ratio == pytest.approx(8 * 0.8 * 0.15 / math.sinh(1.6), rel=1e-8, abs=0)


def test_modccr_oracle_guards():
    with pytest.raises(CutoffTooSmall):
        uncertainty_modccr_fock(1.3, 0.05)
    for eps in (0.25, math.nan):
        with pytest.raises(AmplitudeTooLarge):
            uncertainty_modccr_fock(1.0, eps)
    # A negative r would pass the twin-beam tail check.
    with pytest.raises(NegativeParameter):
        uncertainty_modccr_fock(-0.5, 0.05)
    assert uncertainty_modccr_fock(0.8, 0.0).ratio == 0.0
    with pytest.raises(DegenerateDenominator, match="vanishes at r = 0"):
        uncertainty_modccr_fock(0.0, 0.05)
    # The correlator 2e-9 at r = 1e-9 lies below the 1e-8 floor.
    with pytest.raises(DegenerateDenominator, match="below floor 1e-08"):
        uncertainty_modccr_fock(1e-9, 0.05)
