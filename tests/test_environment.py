"""Channel parameter layer: rates, Kossakowski structure, estimates."""

import math

import numpy as np
import pytest

from holosim import (
    EnvironmentParams,
    HolosimError,
    NegativeParameter,
    NonPositiveExponent,
    NonPositiveLength,
    SqueezeParams,
    boltzmann_factor,
    evolve,
    flight_time,
    fokker_planck_coefficients,
    from_squeezing,
    kossakowski,
    planck_coupling_estimate,
)

INV_EM1 = 0.5819767068693265          # 1/(e - 1)
TAU_40M = 5.337025523170433e-07       # 4 * 40 m / c


def test_boltzmann_reference_points():
    assert boltzmann_factor(1.0, math.log(2.0)) == pytest.approx(1.0, rel=1e-12)
    assert boltzmann_factor(1.0, 1.0) == pytest.approx(INV_EM1, rel=1e-13)
    assert boltzmann_factor(1.0, 80.0) < 1e-34


def test_boltzmann_rejects_non_positive_exponent():
    with pytest.raises(NonPositiveExponent):
        boltzmann_factor(0.0, 1.0)
    with pytest.raises(NonPositiveExponent):
        boltzmann_factor(1.0, -2.0)


def test_kossakowski_reference_matrices():
    zero_temp = kossakowski(EnvironmentParams(1.0, 0.0))
    assert np.allclose(zero_temp.entries, np.diag([1.0, 0.0, 1.0, 0.0]))
    off = kossakowski(EnvironmentParams(0.0, 3.0))
    assert np.max(np.abs(off.entries)) == 0.0
    warm = kossakowski(EnvironmentParams(2.0, 0.5))
    assert np.allclose(warm.entries, np.diag([3.0, 1.0, 3.0, 1.0]))


@pytest.mark.parametrize("lam, m", [(0.0, 0.0), (1.0, 0.0), (2.5, 1.7), (1e-6, 4.0)])
def test_kossakowski_positive_semidefinite(lam, m):
    mat = kossakowski(EnvironmentParams(lam, m))
    assert mat.is_positive_semidefinite()
    assert np.min(mat.eigenvalues()) >= 0.0


def test_fokker_planck_reference_points():
    assert fokker_planck_coefficients(EnvironmentParams(1.0, 0.0)) == (0.5, 0.5)
    assert fokker_planck_coefficients(EnvironmentParams(0.0, 1.0)) == (0.0, 0.0)
    drift, diffusion = fokker_planck_coefficients(EnvironmentParams(1e-3, 1.0))
    assert drift == pytest.approx(5e-4, rel=1e-14)
    assert diffusion == pytest.approx(1.5e-3, rel=1e-14)


def test_flight_time_examples():
    assert flight_time(0.25, c=1.0) == pytest.approx(1.0, rel=1e-15)
    assert flight_time(40.0) == pytest.approx(TAU_40M, rel=1e-14)
    assert flight_time(80.0) == pytest.approx(2.0 * flight_time(40.0), rel=1e-14)


def test_flight_time_rejects_non_positive_length():
    with pytest.raises(NonPositiveLength):
        flight_time(0.0)
    with pytest.raises(NonPositiveLength):
        flight_time(-3.0)


def test_planck_coupling_estimate():
    val = planck_coupling_estimate(1.0)
    assert val == pytest.approx(1e-9 / 1.22e19, rel=1e-14)
    assert 5e-29 < val < 1e-28
    assert planck_coupling_estimate(0.0) == 0.0


def test_provenance_closure():
    env = EnvironmentParams.from_provenance(2.0, beta=1.0, omega=1.0, length=40.0)
    assert env.M == pytest.approx(boltzmann_factor(1.0, 1.0), abs=1e-12)
    assert env.tau == pytest.approx(flight_time(40.0), abs=1e-12)
    assert env.lambda_tau == pytest.approx(2.0 * TAU_40M, rel=1e-13)


def test_provenance_mismatch_rejected():
    with pytest.raises(HolosimError):
        EnvironmentParams(1.0, 0.9, flight_time(40.0),
                          provenance=(1.0, 1.0, 40.0))


def test_negative_parameters_rejected():
    with pytest.raises(NegativeParameter):
        EnvironmentParams(-1.0, 0.0)
    with pytest.raises(NegativeParameter):
        EnvironmentParams(1.0, -0.5)


@pytest.mark.parametrize("args", [(math.nan, 0.0), (1.0, math.nan),
                                  (1.0, 0.0, math.nan)])
def test_nan_parameters_rejected(args):
    with pytest.raises(NegativeParameter):
        EnvironmentParams(*args)


def test_width_rate_matches_drift_and_diffusion():
    # d(width)/dt at t=0 must equal -2*drift*width + diffusion/2 for both
    # widths; checked by a forward difference at dt = 1e-6/lam.
    lam, m = 0.8, 0.7
    env = EnvironmentParams(lam, m)
    drift, diffusion = fokker_planck_coefficients(env)
    state = from_squeezing(SqueezeParams(1.2))
    dt = 1e-6 / lam
    stepped = evolve(state, env, dt)
    for width, new in ((state.sigma_plus, stepped.sigma_plus),
                       (state.sigma_minus, stepped.sigma_minus)):
        fd_rate = (new - width) / dt
        predicted = -2.0 * drift * width + 0.5 * diffusion
        assert fd_rate == pytest.approx(predicted, rel=1e-6)
