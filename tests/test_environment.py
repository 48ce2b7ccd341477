"""Thermal channel in lambda*t units: coefficients, guards, estimates."""

import math

import pytest

from holosim.errors import NegativeParameter
from holosim.estimator import planck_coupling_estimate
from holosim.fock import SqueezeParams
from holosim.gaussian import evolve, fokker_planck_coefficients, from_squeezing


def test_fokker_planck_reference_points():
    assert fokker_planck_coefficients(0.0) == (0.5, 0.5)
    assert fokker_planck_coefficients(1.0) == (0.5, 1.5)
    drift, diffusion = fokker_planck_coefficients(0.25)
    assert drift == 0.5
    assert diffusion == pytest.approx(0.75, rel=1e-14)


def test_planck_coupling_estimate():
    val = planck_coupling_estimate(1.0)
    assert val == pytest.approx(1e-9 / 1.22e19, rel=1e-14, abs=0)
    assert 5e-29 < val < 1e-28
    assert planck_coupling_estimate(0.0) == 0.0
    with pytest.raises(NegativeParameter):
        planck_coupling_estimate(-1.0)


def test_negative_parameters_rejected():
    state = from_squeezing(SqueezeParams(0.5))
    with pytest.raises(NegativeParameter):
        evolve(state, -0.5, 0.1)
    with pytest.raises(NegativeParameter):
        evolve(state, 0.5, -0.1)


@pytest.mark.parametrize("args", [(math.nan, 0.1), (math.nan, 0.0),
                                  (0.5, math.nan)])
def test_nan_parameters_rejected(args):
    with pytest.raises(NegativeParameter):
        evolve(from_squeezing(SqueezeParams(0.5)), *args)


def test_width_rate_matches_drift_and_diffusion():
    # d(width)/d(lambda t) at t=0 must equal -2*drift*width + diffusion/2 for
    # both widths; checked by a forward difference at lambda*dt = 1e-6.
    m = 0.7
    drift, diffusion = fokker_planck_coefficients(m)
    state = from_squeezing(SqueezeParams(1.2))
    dt = 1e-6
    stepped = evolve(state, m, dt)
    for width, new in ((state.sigma_plus, stepped.sigma_plus),
                       (state.sigma_minus, stepped.sigma_minus)):
        fd_rate = (new - width) / dt
        predicted = -2.0 * drift * width + 0.5 * diffusion
        assert fd_rate == pytest.approx(predicted, rel=1e-6)
