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
from holosim.errors import (
    AmplitudeTooLarge,
    CutoffTooSmall,
    DegenerateDenominator,
    NegativeParameter,
    ParameterOutOfRange,
    ZeroAmplitude,
)
from holosim.estimator import (
    Backend,
    _output_moments,
    _PhaseFourierTable,
    _trig_basis,
    classical_uncertainty,
    correlation_estimate,
    required_monomials,
)
from holosim.fock import MultiModeFockState, expectation
from holosim.gaussian import WignerMonomial

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
                                                          rel=1e-12)
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


@pytest.mark.parametrize("widths", [(math.nan, 0.01), (0.01, math.inf)],
                         ids=["nan-sigma1", "inf-sigma2"])
def test_noise_model_rejects_non_finite_widths(widths):
    with pytest.raises(ParameterOutOfRange):
        PhaseNoiseModel(*widths)


def test_paired_average_reference_run(state4):
    noise = PhaseNoiseModel(0.01, 0.01, rho=0.5)
    (res,) = paired_phase_average(noise, state4, 100_000, seed=7)
    assert res.samples == 100_000
    assert res.mean_par == pytest.approx(MC_MEAN_PAR, rel=1e-12)
    assert res.mean_perp == pytest.approx(MC_MEAN_PERP, rel=1e-12)
    assert res.mean_diff == pytest.approx(MC_MEAN_DIFF, rel=1e-12)
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
        table = _PhaseFourierTable(st, (2, 4))
        for phi1, phi2 in phases:
            direct = np.array([_output_moments(st, a, b, (2, 4))
                               for a, b in zip(phi1, phi2)]).T
            tabulated = table.evaluate(phi1, phi2)
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


def test_modccr_oracle_agrees_with_analytic():
    res = uncertainty_modccr_fock(0.8, 0.05, FockCutoff(48))
    assert res.backend is Backend.FOCK_ORACLE
    assert res.ratio == pytest.approx(MODCCR_R08, rel=1e-12)


def test_modccr_oracle_guards():
    with pytest.raises(CutoffTooSmall):
        uncertainty_modccr_fock(1.3, 0.05)
    for eps in (0.15, math.nan):
        with pytest.raises(AmplitudeTooLarge):
            uncertainty_modccr_fock(1.0, eps)
    # A negative r would pass the twin-beam tail check.
    with pytest.raises(NegativeParameter):
        uncertainty_modccr_fock(-0.5, 0.05)
    assert uncertainty_modccr_fock(0.8, 0.0).ratio == 0.0
