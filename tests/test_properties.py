"""Property tests over random inputs; skipped when hypothesis is missing."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from holosim import CoherentInput, FockCutoff, SqueezeParams, four_mode_input  # noqa: E402
from holosim._propagators import apply_exponential, beam_splitter_blocks  # noqa: E402
from holosim.estimator import _output_moments, _PhaseFourierTable  # noqa: E402
from test_estimator import cross_difference  # noqa: E402

PHASE = st.floats(-math.pi, math.pi)
ANGLE = st.floats(-20.0, 20.0)


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


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["squeeze", "beam_splitter"]), dim=st.integers(1, 24),
       theta=ANGLE, seed=st.integers(0, 2**32 - 1))
def test_chain_exponentials_preserve_the_norm(kind, dim, theta, seed):
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal((dim * dim, 2)) @ np.array([1.0, 1j])
    out = apply_exponential(kind, dim, theta, vec)
    assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(vec), rel=1e-12)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(dim=st.integers(1, 24), theta=ANGLE)
def test_complete_chain_blocks_are_unitary(dim, theta):
    blocks = beam_splitter_blocks(dim, theta)
    products = blocks @ blocks.conj().transpose(0, 2, 1)
    assert np.max(np.abs(products - np.eye(dim))) <= 1e-12
