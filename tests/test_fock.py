"""Occupation-basis backend: state builders, beam splitter, moments."""

import math

import numpy as np
import pytest

from holosim.errors import (
    CutoffTooSmall,
    DegreeTooHigh,
    InvalidModeIndex,
    ParameterOutOfRange,
    UnsupportedPhase,
)
from holosim.estimator import fock_receipt
from holosim.fock import (
    CoherentInput,
    FockCutoff,
    SqueezeParams,
    _apply_ladder,
    apply_beam_splitter,
    basis_state,
    build_twb,
    expectation,
    number_difference_moment,
)

# Closed-form anchors (evaluated independently, frozen here).
TWB_AMP_1_1 = 0.49355434756457306       # tanh(1)/cosh(1)
TWB_MEAN_OCC = 1.3810978455418155       # sinh(1)**2
TWB_QUAD_CORR = 3.626860407847019       # sinh(2)


def test_twb_vacuum_limit():
    amp = build_twb(SqueezeParams(0.0), FockCutoff(4))
    assert amp[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert np.count_nonzero(amp) == 1


def test_twb_reference_amplitude():
    amp = build_twb(SqueezeParams(1.0), FockCutoff(30), tail_tol=1e-6)
    # Renormalization over the truncated space shifts the value by ~1e-8.
    assert amp[1, 1].real == pytest.approx(TWB_AMP_1_1, abs=1e-7)
    assert amp[1, 1].imag == 0.0


def test_twb_amplitudes_vanish_off_diagonal():
    amp = build_twb(SqueezeParams(0.7), FockCutoff(12), tail_tol=1e-5)
    off = amp - np.diag(np.diag(amp))
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
    with pytest.raises(CutoffTooSmall, match="positive integer"):
        FockCutoff(0)


@pytest.mark.parametrize("mu, mean", [(0.0, 0.0), (1.0, 1.0), (0.5 + 0.5j, 0.5)])
def test_coherent_mean_photons(mu, mean):
    # The receipt's coherent ports, read through it: at r = 0 and phases pi
    # both outputs are the ports, independent Poisson counts, so
    # <(N_c1 - N_c2)^2> is twice the mean photon number.
    _, (moment,) = fock_receipt(SqueezeParams(0.0), CoherentInput(mu), FockCutoff(20),
                                math.pi, math.pi, (2,))
    assert moment == pytest.approx(2.0 * mean, abs=1e-9)


def test_coherent_amplitude_guard():
    # A port that its cutoff cannot hold skips the receipt: at |mu|^2 = 16
    # a port's Poisson weight above 20 is Q = 0.13, and both ports drop
    # 2Q - Q^2 of the input.
    tail, moments = fock_receipt(SqueezeParams(0.0), CoherentInput(4.0), FockCutoff(20),
                                 math.pi, math.pi, (2,))
    q = 1.0 - sum(math.exp(-16.0) * 16.0 ** k / math.factorial(k) for k in range(21))
    assert moments is None
    assert tail == pytest.approx(q * (2.0 - q), rel=1e-12)


@pytest.mark.parametrize("mu", [math.nan, complex(0.5, math.inf)])
def test_coherent_rejects_non_finite_amplitude(mu):
    with pytest.raises(ParameterOutOfRange):
        CoherentInput(mu)


def test_beam_splitter_transparent_at_zero():
    state = build_twb(SqueezeParams(0.5), FockCutoff(10), tail_tol=1e-6)
    out = apply_beam_splitter(state, 0, 1, 0.0)
    assert np.max(np.abs(out - state)) < 1e-12


def test_beam_splitter_full_swap():
    one_zero = basis_state((1, 0), FockCutoff(4))
    out = apply_beam_splitter(one_zero, 0, 1, math.pi)
    assert abs(abs(out[0, 1]) - 1.0) < 1e-12
    occ = expectation(out, ((0, True), (0, False))).real
    assert occ == pytest.approx(0.0, abs=1e-12)


def test_beam_splitter_half_transmission():
    one_zero = basis_state((1, 0), FockCutoff(4))
    out = apply_beam_splitter(one_zero, 0, 1, math.pi / 2.0)
    occ = expectation(out, ((0, True), (0, False))).real
    assert occ == pytest.approx(0.5, abs=1e-12)


def test_beam_splitter_unitarity_random_states():
    rng = np.random.default_rng(42)
    for phi in (0.1, 1.0, 2.5, math.pi, 5.0):
        amp = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
        amp /= np.linalg.norm(amp)
        out = apply_beam_splitter(amp, 0, 1, phi)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-10


def test_beam_splitter_composition():
    rng = np.random.default_rng(7)
    amp = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    amp /= np.linalg.norm(amp)
    a = apply_beam_splitter(apply_beam_splitter(amp, 0, 1, 0.4), 0, 1, 0.9)
    b = apply_beam_splitter(amp, 0, 1, 1.3)
    assert np.max(np.abs(a - b)) < 1e-9


def test_beam_splitter_mode_validation():
    state = basis_state((1, 0), FockCutoff(4))
    with pytest.raises(InvalidModeIndex):
        apply_beam_splitter(state, 0, 0, 1.0)
    with pytest.raises(InvalidModeIndex):
        apply_beam_splitter(state, 0, 2, 1.0)
    with pytest.raises(UnsupportedPhase):
        apply_beam_splitter(state, 0, 1, math.inf)


@pytest.mark.parametrize("phases", [(math.inf, 0.1), (0.1, math.nan), (-math.inf, math.inf)])
def test_fock_receipt_rejects_a_non_finite_phase(phases):
    with pytest.raises(UnsupportedPhase, match="must be finite"):
        fock_receipt(SqueezeParams(0.3), CoherentInput(0.5), FockCutoff(8), *phases, (2,))


@pytest.mark.parametrize("call", [
    lambda amp: expectation(amp, ((0, True), (0, False))),
    lambda amp: number_difference_moment(amp, 2),
    lambda amp: apply_beam_splitter(amp, 0, 1, 1.0),
], ids=["expectation", "number_difference_moment", "apply_beam_splitter"])
def test_state_functions_reject_axes_of_unequal_length(call):
    with pytest.raises(InvalidModeIndex, match=r"shape \(11, 12\)"):
        call(np.zeros((11, 12), dtype=complex))


@pytest.mark.parametrize("modes,dim", [(2, 9), (4, 5)])
def test_ladder_matches_the_dense_matrix_on_each_axis(modes, dim):
    # a has sqrt(n) at [n - 1, n] and a' is its transpose; each acts on one
    # axis of a random complex tensor.  The stencil must also zero the edge
    # level it does not write (level 0 for a', the top level for a).
    rng = np.random.default_rng(modes)
    amp = rng.standard_normal((dim,) * modes) + 1j * rng.standard_normal((dim,) * modes)
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    for mode in range(modes):
        for dagger, matrix in ((False, a), (True, a.T)):
            expected = np.moveaxis(np.tensordot(matrix, amp, axes=(1, mode)), 0, mode)
            got = _apply_ladder(amp, mode, dagger)
            assert got.dtype == amp.dtype and got.shape == amp.shape
            assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_expectation_vacuum():
    vac = basis_state((0, 0), FockCutoff(4))
    assert expectation(vac, ((0, True), (0, False))) == 0.0


def test_expectation_respects_operator_order():
    state = build_twb(SqueezeParams(0.5), FockCutoff(20))
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
    with pytest.raises(CutoffTooSmall, match="outside 0..4"):
        basis_state((5, 0), FockCutoff(4))
