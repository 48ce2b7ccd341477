"""Property tests over random inputs; skipped when hypothesis is missing."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from holosim import CoherentInput, FockCutoff, SqueezeParams, four_mode_input  # noqa: E402
from holosim.estimator import _output_moments, _PhaseFourierTable  # noqa: E402
from test_estimator import cross_difference  # noqa: E402

PHASE = st.floats(-math.pi, math.pi)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(r=st.floats(0.0, 0.5), mu=st.floats(0.0, 1.4), phi1=PHASE, phi2=PHASE)
def test_phase_table_is_exact_off_grid(r, mu, phi1, phi2):
    # Cutoff 8 holds r <= 0.5 (tail below 1e-6) and |mu|^2 <= 2.
    state = four_mode_input(SqueezeParams(r), CoherentInput(mu), FockCutoff(8))
    table = _PhaseFourierTable(state, (2, 4))
    direct = _output_moments(state, phi1, phi2, (2, 4))
    tabulated = table.evaluate(np.array([phi1]), np.array([phi2]))
    for coeffs, exact, approx in zip(table.coeffs, direct, tabulated):
        # Each basis function is bounded by 1, so sum |R| bounds the moment.
        scale = np.abs(coeffs).sum()
        assert abs(approx[0] - exact) <= 1e-12 * scale
    derivative = table.mixed_derivatives[0]
    assert derivative == pytest.approx(cross_difference(state), rel=1e-8,
                                       abs=1e-12 * np.abs(table.coeffs[0]).sum())
