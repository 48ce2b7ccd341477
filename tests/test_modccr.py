"""Deformed-commutator sector: mode map, correction vectors, observables."""

import math

import numpy as np
import pytest

from holosim import _propagators, modccr
from holosim._propagators import apply_exponential
from holosim.errors import (
    AmplitudeTooLarge,
    CutoffTooSmall,
    NegativeParameter,
    ParameterOutOfRange,
)
from holosim.estimator import uncertainty_modccr_analytic, uncertainty_modccr_fock
from holosim.fock import (
    FockCutoff,
    MultiModeFockState,
    SqueezeParams,
    _apply_ladder,
    _occupation_difference,
    build_twb,
    twb_tail,
)
from holosim.modccr import (
    _check_epsilon,
    _sum_ladder,
    auxiliary_mode_map,
    deformed_commutator_check,
    deformed_variance_coefficient,
    perturbation_generator_action,
)


def duhamel_response(r, generator, cutoff):
    """Reference first-order response e^{rA} Int_0^1 e^{-urA} B e^{urA} du |0>.

    A is the squeeze generator A1'A2' - A1A2 and ``generator`` the action of
    B on (d, d) amplitudes.  The u-integral uses numpy's 16-node
    Gauss-Legendre rule mapped to [0, 1]; the integrand is analytic in u.
    """
    d = cutoff.dim
    vac = np.zeros((d, d), dtype=complex)
    vac[0, 0] = 1.0
    nodes, weights = np.polynomial.legendre.leggauss(16)
    integral = np.zeros_like(vac)
    for u, w in zip((nodes + 1.0) / 2.0, weights / 2.0):
        v = generator(apply_exponential("squeeze", d, u * r, vac))
        integral += w * apply_exponential("squeeze", d, -u * r, v)
    return apply_exponential("squeeze", d, r, integral)


# The finite-eps reference: the first-order correction, propagated through
# the squeeze chains, the corrected twin beam, and the deformed observable's
# first-order action.

def closed_form_correction(r: float, cutoff: FockCutoff) -> np.ndarray:
    """First-order correction r * e^{rA} ((X'^2)/2 - 1) |0> = B|TWB>, as (d, d).

    The Duhamel response e^{rA} Int_0^1 e^{-urA} B e^{urA} du |0> to the
    perturbation B (``perturbation_generator_action``) collapses to this
    because B commutes with the squeeze generator A.  It propagates the
    shipped seed, ``modccr._correction_seed``, so a faulty seed fails the
    Duhamel comparison.  Not a normalized state; ``twb_tail`` guards its
    support as ``build_twb`` does by default.
    """
    twb_tail(r, cutoff)
    return r * apply_exponential("squeeze", cutoff.dim, r, modccr._correction_seed(cutoff.dim))


def _pair_ladder(psi: np.ndarray, dagger: bool) -> np.ndarray:
    """A1' A2' (dagger) or A1 A2 acting on a two-mode amplitude tensor."""
    return _apply_ladder(_apply_ladder(psi, 1, dagger), 0, dagger)


def build_twb_prime(r: float, epsilon: float, cutoff: FockCutoff,
                    tail_tol: float = 1e-10) -> MultiModeFockState:
    """Twin-beam state carrying the first-order deformation correction.

    Returns the renormalized |TWB> + eps * r * e^{rA}((X'^2)/2 - 1)|0>;
    renormalization shifts moments only at second order in epsilon.
    ``tail_tol`` loosens only the twin beam's own check: a nonzero
    correction keeps ``closed_form_correction``'s default support.
    """
    _check_epsilon(epsilon)
    twb = build_twb(SqueezeParams(r), cutoff, tail_tol=tail_tol)
    if epsilon == 0.0 or r == 0.0:
        return twb
    amp = twb.amplitudes + epsilon * closed_form_correction(r, cutoff)
    amp = amp / np.linalg.norm(amp)
    return MultiModeFockState(2, cutoff, amp)


def deformed_number_difference_action(epsilon: float):
    """First-order action of the deformed number difference on (d, d) amplitudes.

    Through the auxiliary-mode map, a1'a1 - a2'a2 equals
    (1+eps)(N1 - N2) - eps(A1A2 + A1'A2') up to O(eps^2) terms.
    """
    def act(psi: np.ndarray) -> np.ndarray:
        return ((1.0 + epsilon) * _occupation_difference(len(psi)) * psi
                - epsilon * (_pair_ladder(psi, False) + _pair_ladder(psi, True)))

    return act


def flat_basis(n1, n2, dim):
    vec = np.zeros((dim, dim), dtype=complex)
    vec[n1, n2] = 1.0
    return vec


def test_mode_map_coefficients():
    eps = 0.1
    root = math.sqrt(1.1)
    eta = eps / (2.0 * root)
    expected = np.array([[root, eta, 0.0, -eta],
                         [eta, root, eta, 0.0]])
    assert np.allclose(auxiliary_mode_map(eps), expected, atol=1e-15)


def test_mode_map_strength_guard():
    for eps in (0.3, -0.3, math.nan):
        with pytest.raises(AmplitudeTooLarge):
            auxiliary_mode_map(eps)
        with pytest.raises(AmplitudeTooLarge):
            deformed_commutator_check(eps, FockCutoff(20))


@pytest.mark.parametrize("eps", [0.01, 0.1])
def test_deformed_commutators(eps):
    assert deformed_commutator_check(eps, FockCutoff(20)) < 1e-10


def test_commutators_undeformed_limit():
    assert deformed_commutator_check(0.0, FockCutoff(10)) < 1e-12


def test_commutator_check_needs_guard_room():
    with pytest.raises(CutoffTooSmall):
        deformed_commutator_check(0.1, FockCutoff(3))


def test_perturbation_generator_on_vacuum():
    cut = FockCutoff(6)
    r = 0.9
    act = perturbation_generator_action(r)
    out = act(flat_basis(0, 0, cut.dim))
    assert out[2, 0] == pytest.approx(r * math.sqrt(2.0) / 2.0, abs=1e-14)
    assert out[0, 2] == pytest.approx(r * math.sqrt(2.0) / 2.0, abs=1e-14)
    assert out[1, 1] == pytest.approx(r, abs=1e-14)
    assert out[0, 0] == pytest.approx(-r, abs=1e-14)


def test_deformed_difference_on_basis_state():
    cut = FockCutoff(6)
    eps = 0.05
    act = deformed_number_difference_action(eps)
    out = act(flat_basis(2, 0, cut.dim))
    assert out[2, 0] == pytest.approx(2.0 * (1.0 + eps), abs=1e-14)
    assert out[3, 1] == pytest.approx(-eps * math.sqrt(3.0), abs=1e-14)


def test_duhamel_matches_closed_form():
    cut = FockCutoff(48)
    duh = duhamel_response(0.4, perturbation_generator_action(0.4), cut)
    closed = closed_form_correction(0.4, cut)
    assert duh.shape == closed.shape == (cut.dim, cut.dim)
    assert np.max(np.abs(duh - closed)) < 1e-8


@pytest.mark.parametrize("build,chains", [
    (lambda: closed_form_correction(0.8, FockCutoff(64)), 3),
    (lambda: closed_form_correction(0.8, FockCutoff(80)), 3),
], ids=["closed-form-64", "closed-form-80"])
def test_chain_spectra_are_built_on_first_use(build, chains):
    # The deformed-sector vectors occupy the squeeze chains q = 0, +-2 only.
    # Counted as chain-builder cache misses, not eigh calls: the chains
    # q and -q share one eigensolve.
    builders = (_propagators._squeeze_chain, _propagators._beam_splitter_chain)
    for builder in builders:
        builder.cache_clear()
    for _ in range(2):
        build()
        assert sum(builder.cache_info().misses for builder in builders) == chains


def test_duhamel_reduces_to_strength_derivative():
    # With the perturbation equal to the generator itself, the response is
    # r * d/dr of the squeezed-pair state; checked by central differencing.
    r, h = 0.6, 1e-4
    cut = FockCutoff(60)

    def squeeze_generator(psi):  # r * (A1'A2' - A1A2)
        up = _apply_ladder(_apply_ladder(psi, 1, True), 0, True)
        down = _apply_ladder(_apply_ladder(psi, 1, False), 0, False)
        return r * (up - down)

    duh = duhamel_response(r, squeeze_generator, cut)
    plus = build_twb(SqueezeParams(r + h), cut)
    minus = build_twb(SqueezeParams(r - h), cut)
    fd = r * (plus.amplitudes - minus.amplitudes) / (2.0 * h)
    assert np.max(np.abs(duh - fd)) < 1e-6


def test_duhamel_guards():
    # The correction vector shares the twin beam's guard, and through it so
    # does the variance coefficient.
    cut = FockCutoff(16)
    for build in (closed_form_correction, deformed_variance_coefficient):
        for r, cutoff, error in ((math.nan, cut, NegativeParameter),
                                 (-0.5, cut, NegativeParameter),
                                 (math.inf, cut, ParameterOutOfRange),
                                 (3.0, FockCutoff(10), CutoffTooSmall)):
            with pytest.raises(error):
                build(r, cutoff)


def test_pair_mode_conjugation_identity():
    # exp(-u*G) A1 exp(u*G) = cosh(ru) A1 + sinh(ru) A2' on the guarded
    # interior block (occupations <= 8 in, <= 10 out); near the truncation
    # edge the finite-space exponential genuinely departs from the algebra.
    d, guard, r = 101, 8, 0.8
    cols = [n1 * d + n2 for n1 in range(guard + 1) for n2 in range(guard + 1)]
    basis = np.zeros((d * d, len(cols)), dtype=complex)
    for j, idx in enumerate(cols):
        basis[idx, j] = 1.0
    root = np.sqrt(np.arange(1, d))

    def lower_1(batch):
        psi = batch.reshape(d, d, -1)
        out = np.zeros_like(psi)
        out[:-1] = root[:, None, None] * psi[1:]
        return out.reshape(d * d, -1)

    def raise_2(batch):
        psi = batch.reshape(d, d, -1)
        out = np.zeros_like(psi)
        out[:, 1:] = root[None, :, None] * psi[:, :-1]
        return out.reshape(d * d, -1)

    rows = np.zeros(d * d, dtype=bool)
    for n1 in range(guard + 3):
        for n2 in range(guard + 3):
            rows[n1 * d + n2] = True
    for u in (0.25, 0.5, 1.0):
        lhs = apply_exponential(
            "squeeze", d, -u * r,
            lower_1(apply_exponential("squeeze", d, u * r, basis)))
        rhs = (math.cosh(r * u) * lower_1(basis)
               + math.sinh(r * u) * raise_2(basis))
        assert np.max(np.abs((lhs - rhs)[rows])) < 1e-9


def test_twb_prime_degenerate_limits():
    cut = FockCutoff(20)
    plain = build_twb(SqueezeParams(0.5), cut)
    no_deform = build_twb_prime(0.5, 0.0, cut)
    assert np.array_equal(no_deform.amplitudes, plain.amplitudes)
    no_squeeze = build_twb_prime(0.0, 0.1, cut)
    assert no_squeeze.amplitudes[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_twb_prime_overlap_and_norm():
    eps = 0.05
    cut = FockCutoff(30)
    twb = build_twb(SqueezeParams(0.8), cut, tail_tol=1e-6)
    prime = build_twb_prime(0.8, eps, cut, tail_tol=1e-6)
    assert np.linalg.norm(prime.amplitudes) == pytest.approx(1.0, abs=1e-12)
    deviation = 1.0 - abs(np.vdot(twb.amplitudes, prime.amplitudes)) ** 2
    assert 0.0 < deviation < 4.0 * eps * eps


def test_twb_prime_correction_scales_linearly():
    # Using the eps=0.02 build as the reference slope, the residual after
    # removing the linear part grows like eps*(eps - 0.02).
    cut = FockCutoff(30)
    base = build_twb(SqueezeParams(0.8), cut, tail_tol=1e-6).amplitudes
    slope = (build_twb_prime(0.8, 0.02, cut, tail_tol=1e-6).amplitudes
             - base) / 0.02
    residual = {}
    for eps in (0.04, 0.08):
        prime = build_twb_prime(0.8, eps, cut, tail_tol=1e-6)
        residual[eps] = float(np.linalg.norm(
            prime.amplitudes - base - eps * slope))
    assert 3.0 < residual[0.08] / residual[0.04] < 9.0


def test_deformed_difference_first_order_structure():
    # To first order the observable on the corrected state equals
    # eps * (sqrt(2) r e^{rG}(|2,0> - |0,2>) - (A1A2 + A1'A2')|TWB>).
    r = 0.8
    cut = FockCutoff(40)
    d = cut.dim
    twb = build_twb(SqueezeParams(r), cut)
    seed = np.zeros((d, d), dtype=complex)
    seed[2, 0], seed[0, 2] = 1.0, -1.0
    rotated = apply_exponential("squeeze", d, r, seed)
    amp = twb.amplitudes
    pair_part = (_apply_ladder(_apply_ladder(amp, 1, False), 0, False)
                 + _apply_ladder(_apply_ladder(amp, 1, True), 0, True))
    residuals = {}
    for eps in (1e-4, 2e-4):
        prime = build_twb_prime(r, eps, cut)
        moved = deformed_number_difference_action(eps)(prime.amplitudes)
        first_order = eps * (math.sqrt(2.0) * r * rotated - pair_part)
        residuals[eps] = float(np.linalg.norm(moved - first_order))
        assert residuals[eps] < 30.0 * eps * eps
    assert 3.0 < residuals[2e-4] / residuals[1e-4] < 5.0


def test_variance_coefficient_matches_finite_epsilon():
    # Independent finite-eps route: the +-eps average of the variance on the
    # renormalized corrected state, divided by eps^2, approaches the exact
    # coefficient with an eps^2 remainder, so the gap shrinks 4x per halving.
    r = 0.8
    cut = FockCutoff(64)
    exact = deformed_variance_coefficient(r, cut)

    def variance(eps):
        state = build_twb_prime(r, eps, cut)
        observable = deformed_number_difference_action(eps)
        once = observable(state.amplitudes)
        twice = observable(once)
        m2 = float(np.vdot(once, once).real)
        return float(np.vdot(twice, twice).real) - m2 ** 2

    gaps = [0.5 * (variance(eps) + variance(-eps)) / eps ** 2 - exact
            for eps in (0.02, 0.01, 0.005)]
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 3.5 < coarse / fine < 4.5


def test_variance_coefficient_is_16_r_squared():
    # Exact at every cutoff, for the reasons deformed_variance_coefficient gives.
    for r, n_max in ((0.1, 16), (0.6, 32), (1.0, 48)):
        coefficient = deformed_variance_coefficient(r, FockCutoff(n_max))
        assert coefficient == pytest.approx(16.0 * r * r, rel=1e-14)


def test_variance_coefficient_needs_the_two_photon_corner():
    # At n_max = 1 the seed's |2,0> and |0,2> lie above the cutoff, so the
    # coefficient, and with it the oracle ratio, must raise, not read 0.
    for evaluate in (lambda: deformed_variance_coefficient(1e-3, FockCutoff(1)),
                     lambda: uncertainty_modccr_fock(1e-3, 0.05, FockCutoff(1))):
        with pytest.raises(CutoffTooSmall, match="n_max >= 2"):
            evaluate()
    assert deformed_variance_coefficient(1e-3, FockCutoff(2)) == pytest.approx(16e-6, rel=1e-14)


def _seed_builder(half, vacuum):
    """A correction seed (half * X'^2 + vacuum) |0> on (dim, dim) amplitudes."""
    def seed(dim):
        vac = np.zeros((dim, dim), dtype=complex)
        vac[0, 0] = 1.0
        return half * _sum_ladder(_sum_ladder(vac, True), True) + vacuum * vac
    return seed


@pytest.mark.parametrize("half,vacuum,moves", [
    (0.5, -1.0, False),
    (1.0, -1.0, True),   # 1/2 -> 1
    (0.5, 0.0, False),   # without -|0>
    (0.5, 1.0, False),   # +|0>
], ids=["shipped", "half-to-one", "seed-without-vacuum", "plus-vacuum"])
def test_oracle_sees_only_the_seeds_two_photon_part(monkeypatch, half, vacuum, moves):
    # D0^2 keeps only |2,0> and |0,2>, so the oracle reads the seed's
    # X'^2 weight and is blind to its q = 0 part; the Duhamel comparison
    # (test_duhamel_matches_closed_form) catches a faulty q = 0 part.  The
    # oracle caches nothing: every call reads the seed afresh, so the
    # patched seed is the one the second call sees.
    r, eps = 0.8, 0.05
    shipped = uncertainty_modccr_fock(r, eps)
    monkeypatch.setattr(modccr, "_correction_seed", _seed_builder(half, vacuum))
    faulty = uncertainty_modccr_fock(r, eps)
    if moves:
        # Acceptance 5 bounds the oracle's deviation from the analytic ratio by 1e-8.
        assert abs(faulty / uncertainty_modccr_analytic(r, eps) - 1.0) > 1e-8
    else:
        assert faulty == shipped


def test_twb_prime_guards():
    cut = FockCutoff(20)
    for eps in (0.25, math.nan):
        with pytest.raises(AmplitudeTooLarge):
            build_twb_prime(0.5, eps, cut)
    with pytest.raises(NegativeParameter):
        build_twb_prime(-0.5, 0.1, cut)
    # A looser tail_tol admits the twin beam (tail 4.6e-8 at r = 1, cutoff 30)
    # but not its correction, whose support is checked at the default 1e-10.
    loose = FockCutoff(30)
    build_twb_prime(1.0, 0.0, loose, tail_tol=1e-6)
    with pytest.raises(CutoffTooSmall):
        build_twb_prime(1.0, 0.05, loose, tail_tol=1e-6)
