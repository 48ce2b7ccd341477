"""Acceptance gate: one test per release criterion, each printing a verdict.

Every criterion owns a wall-clock budget; the short PASS/FAIL line it
prints names the number so the suite output doubles as a release report.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from holosim import (
    CoherentInput,
    FockCutoff,
    PhaseNoiseModel,
    SqueezeParams,
    paired_phase_average,
    phase_table,
    uncertainty_env_approx,
    uncertainty_env_full,
    uncertainty_modccr_analytic,
    uncertainty_modccr_fock,
)
from holosim.cli import CROSS_CHECK_POWERS
from holosim.estimator import correlation_estimate, planck_coupling_estimate
from holosim.fock import build_twb, expectation, number_difference_moment
from holosim.gaussian import (
    as_ladder_sequence,
    evolve,
    fokker_planck_coefficients,
    from_squeezing,
    glauber_moment,
    isserlis_moment,
)
from holosim.modccr import deformed_commutator_check, perturbation_generator_action
from test_modccr import closed_form_correction, duhamel_response


@contextlib.contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_seconds:
        print(f"ACCEPTANCE {number}: FAIL - {description} "
              f"(runtime {elapsed:.1f}s over budget {budget_seconds:.0f}s)")
        raise AssertionError(
            f"criterion {number} took {elapsed:.1f}s, budget {budget_seconds}s")
    print(f"ACCEPTANCE {number}: PASS - {description} ({elapsed:.2f}s)")


def test_acceptance_1_null_difference_moments():
    with criterion(1, "twin-beam number-difference moments vanish", 5.0):
        for r in (0.5, 1.0, 1.5):
            twb = build_twb(SqueezeParams(r), FockCutoff(40), tail_tol=1e-3)
            for power in (1, 2, 3, 4):
                assert abs(number_difference_moment(twb, power)) < 1e-10


def test_acceptance_2_three_backend_cross_check():
    with criterion(2, "occupation, factorized, and quadrature moments agree",
                   120.0):
        for r, n_max in ((0.3, 40), (0.8, 48), (1.2, 80)):
            twb = build_twb(SqueezeParams(r), FockCutoff(n_max))
            state = from_squeezing(SqueezeParams(r))
            for powers in CROSS_CHECK_POWERS:
                ops = as_ladder_sequence(powers)
                wick = isserlis_moment(state, ops)
                scale = max(1.0, abs(wick))
                oracle = expectation(twb, ops)
                quad = glauber_moment(state, powers)
                assert abs(oracle - wick) / scale <= 1e-5
                assert abs(quad - wick) / scale <= 1e-5


def test_acceptance_3_weak_coupling_closed_form():
    with criterion(3, "evolved ratio matches the weak-coupling closed form",
                   60.0):
        anchor = uncertainty_env_approx(2.0, 0.0, 1e-3)
        assert anchor == pytest.approx(0.047548148179516546, abs=1e-6)
        for lam_tau, band in ((1e-3, 0.05), (1e-4, 0.02)):
            for m in (0.0, 0.5, 1.0, 2.0):
                full = uncertainty_env_full(2.0, m, lam_tau)
                approx = uncertainty_env_approx(2.0, m, lam_tau)
                assert abs(full / approx - 1.0) <= band


def test_acceptance_4_environment_ratio_shape():
    with criterion(4, "ratio grows with coupling and temperature, falls with "
                      "squeezing", 60.0):
        m_grid = (0.0, 0.5, 1.0, 2.0)
        lt_grid = np.geomspace(1e-6, 1e-2, 25)
        curves = {m: [uncertainty_env_full(2.0, m, float(lt))
                      for lt in lt_grid] for m in m_grid}
        for series in curves.values():
            assert all(b > a for a, b in zip(series, series[1:]))
        for column in zip(*curves.values()):
            assert all(b > a for a, b in zip(column, column[1:]))
        r_grid = [r for r in np.linspace(0.25, 3.0, 56) if r >= 0.5]
        for m in m_grid:
            series = [uncertainty_env_full(float(r), m, 1e-3)
                      for r in r_grid]
            assert all(b < a for a, b in zip(series, series[1:]))


def test_acceptance_5_modccr_backends_and_shape():
    with criterion(5, "deformed-algebra oracle matches the first-order ratio",
                   600.0):
        cutoff = FockCutoff(64)
        for r in (0.4, 0.8, 1.2):
            for eps in (0.02, 0.05, 0.1):
                analytic = uncertainty_modccr_analytic(r, eps)
                oracle = uncertainty_modccr_fock(r, eps, cutoff)
                assert abs(oracle - analytic) / analytic <= 1e-8
            double = uncertainty_modccr_analytic(r, 0.04)
            single = uncertainty_modccr_analytic(r, 0.02)
            assert double / single == pytest.approx(2.0, rel=1e-12)
        along_r = [uncertainty_modccr_analytic(r, 0.05)
                   for r in (0.4, 0.8, 1.2)]
        assert all(b < a for a, b in zip(along_r, along_r[1:]))


def test_acceptance_6_evolution_consistency():
    with criterion(6, "width relaxation composes and matches its generator",
                   5.0):
        state = from_squeezing(SqueezeParams(0.8))
        m_thermal = 0.5
        one = evolve(evolve(state, m_thermal, 0.3), m_thermal, 1.1)
        two = evolve(state, m_thermal, 1.4)
        assert abs(one.sigma_plus - two.sigma_plus) <= 1e-12
        assert abs(one.sigma_minus - two.sigma_minus) <= 1e-12
        drift, diffusion = fokker_planck_coefficients(m_thermal)
        dt = 1e-6  # in units of 1/lambda
        stepped = evolve(state, m_thermal, dt)
        for before, after in ((state.sigma_plus, stepped.sigma_plus),
                              (state.sigma_minus, stepped.sigma_minus)):
            rate = (after - before) / dt
            predicted = -2.0 * drift * before + diffusion / 2.0
            assert abs(rate - predicted) / abs(predicted) <= 1e-6


def test_acceptance_7_deformed_sector_consistency():
    with criterion(7, "deformed commutators close and the response integral "
                      "collapses", 60.0):
        for eps in (0.01, 0.1):
            assert deformed_commutator_check(eps, FockCutoff(20)) <= 1e-10
        for r, n_max in ((0.4, 48), (0.8, 80), (1.2, 160)):
            cut = FockCutoff(n_max)
            integral = duhamel_response(r, perturbation_generator_action(r), cut)
            closed = closed_form_correction(r, cut)
            assert np.max(np.abs(integral - closed)) <= 1e-8


def test_acceptance_8_phase_noise_recovery():
    with criterion(8, "correlated phase noise is recovered from paired "
                      "averages", 300.0):
        table = phase_table(SqueezeParams(0.6), CoherentInput(0.8), (2,))
        noise = PhaseNoiseModel(1e-2, 1e-2, rho=0.5)
        (res,) = paired_phase_average(noise, table, 100_000, seed=7)
        recovered = correlation_estimate(res.mean_par, res.mean_perp,
                                         res.mixed_derivative)
        injected = 0.5 * 1e-2 * 1e-2
        assert abs(recovered - injected) / injected <= 0.10
        (again,) = paired_phase_average(noise, table, 100_000, seed=7)
        assert again == res


def test_acceptance_9_benchmark_coupling_magnitude():
    with criterion(9, "benchmark coupling puts the ratio near 1e-14", 1.0):
        coupling = planck_coupling_estimate(1.0)
        ratio = uncertainty_env_approx(1.0, 0.0, coupling)
        assert math.floor(math.log10(ratio)) in (-16, -15, -14)
        assert ratio == pytest.approx(3.3189938890841196e-14, rel=1e-12, abs=0)
