"""Occupation-basis backend: state builders, beam splitter, moments."""

import math

import numpy as np
import pytest

from holosim.errors import (
    AmplitudeTooLarge,
    CutoffTooSmall,
    DegreeTooHigh,
    InvalidModeIndex,
    ParameterOutOfRange,
)
from holosim.fock import (
    CoherentInput,
    FockCutoff,
    MultiModeFockState,
    SqueezeParams,
    apply_beam_splitter,
    basis_state,
    build_coherent,
    build_twb,
    expectation,
    number_difference_moment,
    tensor_product,
)

# Closed-form anchors (evaluated independently, frozen here).
TWB_AMP_1_1 = 0.49355434756457306       # tanh(1)/cosh(1)
TWB_MEAN_OCC = 1.3810978455418155       # sinh(1)**2
TWB_QUAD_CORR = 3.626860407847019       # sinh(2)


def test_twb_vacuum_limit():
    state = build_twb(SqueezeParams(0.0), FockCutoff(4))
    assert state.amplitudes[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert np.count_nonzero(state.amplitudes) == 1


def test_twb_reference_amplitude():
    state = build_twb(SqueezeParams(1.0), FockCutoff(30), tail_tol=1e-6)
    # Renormalization over the truncated space shifts the value by ~1e-8.
    assert state.amplitudes[1, 1].real == pytest.approx(TWB_AMP_1_1, abs=1e-7)
    assert state.amplitudes[1, 1].imag == 0.0


def test_twb_amplitudes_vanish_off_diagonal():
    state = build_twb(SqueezeParams(0.7), FockCutoff(12), tail_tol=1e-5)
    off = state.amplitudes - np.diag(np.diag(state.amplitudes))
    assert np.max(np.abs(off)) == 0.0


def test_twb_mean_occupation():
    state = build_twb(SqueezeParams(1.0), FockCutoff(30), tail_tol=1e-6)
    occ = expectation(state, ((0, True), (0, False))).real
    assert occ == pytest.approx(TWB_MEAN_OCC, abs=5e-6)


def test_twb_quadrature_correlator():
    state = build_twb(SqueezeParams(1.0), FockCutoff(30), tail_tol=1e-6)
    total = sum(
        expectation(state, ((0, da), (1, db))).real
        for da in (True, False) for db in (True, False))
    assert total == pytest.approx(TWB_QUAD_CORR, abs=2e-5)


def test_twb_tail_guard():
    with pytest.raises(CutoffTooSmall):
        build_twb(SqueezeParams(1.5), FockCutoff(40))


@pytest.mark.parametrize("mu, mean", [(0.0, 0.0), (1.0, 1.0), (0.5 + 0.5j, 0.5)])
def test_coherent_mean_photons(mu, mean):
    state = build_coherent(CoherentInput(mu), FockCutoff(20))
    occ = expectation(state, ((0, True), (0, False))).real
    assert occ == pytest.approx(mean, abs=1e-9)


def test_coherent_annihilation_eigenvalue():
    state = build_coherent(CoherentInput(1.0), FockCutoff(20))
    assert expectation(state, ((0, False),)) == pytest.approx(1.0, abs=1e-9)


def test_coherent_amplitude_guard():
    with pytest.raises(AmplitudeTooLarge):
        build_coherent(CoherentInput(4.0), FockCutoff(20))


@pytest.mark.parametrize("mu", [math.nan, complex(0.5, math.inf)])
def test_coherent_rejects_non_finite_amplitude(mu):
    with pytest.raises(ParameterOutOfRange):
        CoherentInput(mu)


def test_beam_splitter_transparent_at_zero():
    state = build_twb(SqueezeParams(0.5), FockCutoff(10), tail_tol=1e-6)
    out = apply_beam_splitter(state, 0, 1, 0.0)
    assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-12


def test_beam_splitter_full_swap():
    one_zero = basis_state((1, 0), FockCutoff(4))
    out = apply_beam_splitter(one_zero, 0, 1, math.pi)
    assert abs(abs(out.amplitudes[0, 1]) - 1.0) < 1e-12
    occ = expectation(out, ((0, True), (0, False))).real
    assert occ == pytest.approx(0.0, abs=1e-12)


def test_beam_splitter_half_transmission():
    one_zero = basis_state((1, 0), FockCutoff(4))
    out = apply_beam_splitter(one_zero, 0, 1, math.pi / 2.0)
    occ = expectation(out, ((0, True), (0, False))).real
    assert occ == pytest.approx(0.5, abs=1e-12)


def test_beam_splitter_unitarity_random_states():
    rng = np.random.default_rng(42)
    cutoff = FockCutoff(6)
    for phi in (0.1, 1.0, 2.5, math.pi, 5.0):
        amp = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
        amp /= np.linalg.norm(amp)
        state = MultiModeFockState(2, cutoff, amp)
        out = apply_beam_splitter(state, 0, 1, phi)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10


def test_beam_splitter_composition():
    rng = np.random.default_rng(7)
    cutoff = FockCutoff(6)
    amp = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    amp /= np.linalg.norm(amp)
    state = MultiModeFockState(2, cutoff, amp)
    a = apply_beam_splitter(apply_beam_splitter(state, 0, 1, 0.4), 0, 1, 0.9)
    b = apply_beam_splitter(state, 0, 1, 1.3)
    assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-9


def test_beam_splitter_mode_validation():
    state = basis_state((1, 0), FockCutoff(4))
    with pytest.raises(InvalidModeIndex):
        apply_beam_splitter(state, 0, 0, 1.0)
    with pytest.raises(InvalidModeIndex):
        apply_beam_splitter(state, 0, 2, 1.0)


def test_expectation_vacuum():
    vac = basis_state((0, 0), FockCutoff(4))
    assert expectation(vac, ((0, True), (0, False))) == 0.0


def test_expectation_respects_operator_order():
    state = build_coherent(CoherentInput(1.0), FockCutoff(20))
    normal = expectation(state, ((0, True), (0, False))).real
    anti = expectation(state, ((0, False), (0, True))).real
    assert anti - normal == pytest.approx(1.0, abs=1e-9)


def test_expectation_degree_cap():
    state = basis_state((0, 0), FockCutoff(4))
    mono = (((0, True),) * 5) + (((0, False),) * 4)
    with pytest.raises(DegreeTooHigh):
        expectation(state, mono)


@pytest.mark.parametrize("r", [0.5, 1.0, 1.5])
def test_number_difference_moments_vanish_on_twb(r):
    state = build_twb(SqueezeParams(r), FockCutoff(40), tail_tol=1e-3)
    for p in (1, 2, 3, 4):
        assert abs(number_difference_moment(state, p)) < 1e-10


def test_number_difference_on_basis_states():
    assert number_difference_moment(
        basis_state((1, 0), FockCutoff(4)), 2) == pytest.approx(1.0, abs=1e-12)
    assert number_difference_moment(
        basis_state((2, 0), FockCutoff(4)), 2) == pytest.approx(4.0, abs=1e-12)
    # Four-mode states keep tensor-product order: the pair is modes 0 and 1.
    assert number_difference_moment(
        basis_state((3, 1, 0, 2), FockCutoff(4)), 2) == pytest.approx(4.0, abs=1e-12)
    with pytest.raises(InvalidModeIndex):
        number_difference_moment(basis_state((1,), FockCutoff(4)), 2)


def test_tensor_product_preserves_marginals():
    twb = build_twb(SqueezeParams(0.6), FockCutoff(10), tail_tol=1e-5)
    port = build_coherent(CoherentInput(0.8), FockCutoff(10))
    combined = tensor_product(twb, port)
    occ_before = expectation(twb, ((0, True), (0, False))).real
    occ_twb = expectation(combined, ((0, True), (0, False))).real
    occ_port = expectation(combined, ((2, True), (2, False))).real
    assert combined.mode_count == 3
    assert occ_twb == pytest.approx(occ_before, abs=1e-12)
    assert occ_port == pytest.approx(0.64, abs=1e-8)
