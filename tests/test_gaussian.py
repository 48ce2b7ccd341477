"""Analytic backend: width evolution, moment factorization, quadrature."""

import itertools
import math

import numpy as np
import pytest

from holosim._propagators import gauss_rule
from holosim.cli import CROSS_CHECK_POWERS
from holosim.errors import (DegreeTooHigh, InvalidModeIndex, NegativeParameter,
                            ParameterOutOfRange)
from holosim.fock import (MAX_MONOMIAL_DEGREE, FockCutoff, SqueezeParams, build_twb,
                          expectation)
from holosim.gaussian import (
    TwoModeGaussianState,
    as_ladder_sequence,
    evolve,
    from_squeezing,
    glauber_moment,
    isserlis_moment,
    ordered_moment,
)

E4 = 54.598150033144236                  # exp(4)
EM4 = 0.018315638888734182               # exp(-4)
SINH2_1 = 1.3810978455418155             # sinh(1)**2
COSH1_SINH1 = 1.8134302039235093         # cosh(1)*sinh(1)
SIGMA_PLUS_REF = 54.54382904813035       # r=2, M=0, lambda*t=1e-3


# N1 = a1' a1 and N2 = a2' a2 as ladder sequences.
N1, N2 = ((0, True), (0, False)), ((1, True), (1, False))


def difference_moment(state, power):
    """<(N1 - N2)^power> as the binomial sum of the products N1^(p-k) N2^k,
    each one ladder sequence (not normally ordered), through isserlis_moment."""
    return sum((-1) ** k * math.comb(power, k)
               * isserlis_moment(state, N1 * (power - k) + N2 * k).real
               for k in range(power + 1))


def stirling2(p, k):
    """S(p, k) in (a'a)^p = sum_k S(p, k) (a')^k a^k, by its recurrence."""
    if p == 0 or k == 0:
        return int(p == k)
    return k * stirling2(p - 1, k) + stirling2(p - 1, k - 1)


def normal_difference_moment(state, power):
    """<(N1 - N2)^power> from the normally ordered (a1')^k1 a1^k1 (a2')^k2 a2^k2.

    Better conditioned than ``difference_moment``: at r = 1.2 its binomial
    terms near 1,100 cancel to a fourth moment near 0.08."""
    def coeff(k1, k2):
        return sum((-1) ** j * math.comb(power, j) * stirling2(power - j, k1)
                   * stirling2(j, k2) for j in range(power + 1))
    return sum(coeff(k1, k2)
               * isserlis_moment(state, as_ladder_sequence((k1, k1, k2, k2))).real
               for k1 in range(power + 1) for k2 in range(power + 1 - k1))


def test_from_squeezing_vacuum():
    state = from_squeezing(SqueezeParams(0.0))
    assert state.sigma_plus == 1.0
    assert state.sigma_minus == 1.0


def test_from_squeezing_reference_widths():
    state = from_squeezing(SqueezeParams(2.0))
    assert state.sigma_plus == pytest.approx(E4, rel=1e-14)
    assert state.sigma_minus == pytest.approx(EM4, rel=1e-14)


@pytest.mark.parametrize("r", [0.1, 0.8, 1.7, 3.0])
def test_from_squeezing_purity(r):
    state = from_squeezing(SqueezeParams(r))
    assert state.sigma_plus * state.sigma_minus == pytest.approx(1.0, rel=1e-12)


def test_squeeze_strength_capped_below_overflow():
    assert from_squeezing(SqueezeParams(350.0)).sigma_plus < math.inf
    with pytest.raises(ParameterOutOfRange):
        from_squeezing(SqueezeParams(400.0))


def test_evolve_identity_at_zero_time():
    state = from_squeezing(SqueezeParams(1.3))
    out = evolve(state, 0.4, 0.0)
    assert out.sigma_plus == pytest.approx(state.sigma_plus, rel=1e-15)
    assert out.sigma_minus == pytest.approx(state.sigma_minus, rel=1e-15)


def test_evolve_asymptote():
    state = from_squeezing(SqueezeParams(1.5))
    out = evolve(state, 0.8, 1e4)
    target = 0.5 * (0.8 + 0.5)
    assert out.sigma_plus == pytest.approx(target, rel=1e-12)
    assert out.sigma_minus == pytest.approx(target, rel=1e-12)


def test_evolve_reference_value():
    state = from_squeezing(SqueezeParams(2.0))
    out = evolve(state, 0.0, 1e-3)
    assert out.sigma_plus == pytest.approx(SIGMA_PLUS_REF, rel=1e-13)
    assert round(out.sigma_plus, 4) == 54.5438


def test_evolve_semigroup():
    state = from_squeezing(SqueezeParams(1.1))
    one = evolve(evolve(state, 0.3, 0.3), 0.3, 1.1)
    two = evolve(state, 0.3, 1.4)
    assert abs(one.sigma_plus - two.sigma_plus) < 1e-12
    assert abs(one.sigma_minus - two.sigma_minus) < 1e-12


def test_evolve_monotone_approach():
    target = 0.5 * (0.6 + 0.5)
    state = from_squeezing(SqueezeParams(1.4))
    times = [0.02 * k for k in range(14)]
    gaps_plus = [abs(evolve(state, 0.6, t).sigma_plus - target) for t in times]
    gaps_minus = [abs(evolve(state, 0.6, t).sigma_minus - target) for t in times]
    assert all(b <= a for a, b in zip(gaps_plus, gaps_plus[1:]))
    assert all(b <= a for a, b in zip(gaps_minus, gaps_minus[1:]))


def test_evolve_rejects_negative_time():
    state = from_squeezing(SqueezeParams(1.0))
    with pytest.raises(NegativeParameter):
        evolve(state, 0.0, -0.1)


def test_state_rejects_non_positive_widths():
    with pytest.raises(NegativeParameter):
        TwoModeGaussianState(-1.0, 0.5)
    with pytest.raises(NegativeParameter):
        TwoModeGaussianState(1.0, 0.0)


def test_isserlis_vacuum_occupation():
    state = from_squeezing(SqueezeParams(0.0))
    assert isserlis_moment(state, N1) == pytest.approx(0.0, abs=1e-14)


def test_isserlis_squeezed_occupation():
    state = from_squeezing(SqueezeParams(1.0))
    occ = isserlis_moment(state, N1)
    assert occ.real == pytest.approx(SINH2_1, rel=1e-12)
    assert abs(occ.imag) < 1e-14


def test_isserlis_pair_correlation():
    state = from_squeezing(SqueezeParams(1.0))
    pair = isserlis_moment(state, ((0, False), (1, False)))
    assert pair.real == pytest.approx(COSH1_SINH1, rel=1e-12)


def test_isserlis_matches_occupation_oracle():
    twb = build_twb(SqueezeParams(0.8), FockCutoff(48))
    state = from_squeezing(SqueezeParams(0.8))
    for n1, m1, n2, m2 in ((1, 1, 0, 0), (0, 1, 0, 1), (1, 1, 1, 1), (2, 2, 0, 0)):
        seq = (((0, True),) * n1 + ((0, False),) * m1
               + ((1, True),) * n2 + ((1, False),) * m2)
        assert seq == as_ladder_sequence((n1, m1, n2, m2))
        oracle = expectation(twb, seq).real
        assert isserlis_moment(state, seq).real == pytest.approx(
            oracle, rel=1e-10, abs=1e-10)


def evolved(r, m_thermal, t):
    return evolve(from_squeezing(SqueezeParams(r)), m_thermal, t)


@pytest.mark.parametrize("state", [
    evolved(0.8, 0.5, 0.1),
    evolved(1.2, 2.0, 1e-2),
    evolved(2.0, 2.0, 0.5),
    evolved(0.3, 0.0, 0.5),
    TwoModeGaussianState(2.6, 0.5),
], ids=["r0.8-M0.5-t0.1", "r1.2-M2-t1e-2", "r2-M2-t0.5", "r0.3-M0-t0.5", "q1.3"])
def test_evolved_difference_moments_match_closed_form(state):
    # For any widths the photon-number difference obeys occupation-style
    # closed forms in N = (sqrt(q) - 1)/2 with q = sigma_plus*sigma_minus:
    #   <dN^2> = 2N(N+1),   Var(dN^2) = 20N^4 + 40N^3 + 22N^2 + 2N,
    # and the variance equals (q - 1)(5q - 3)/4, whose slope at q = 1 is the
    # 1/2 that uncertainty_env_full uses.
    q = state.sigma_plus * state.sigma_minus
    n_eff = (math.sqrt(q) - 1.0) / 2.0
    second = normal_difference_moment(state, 2)
    fourth = normal_difference_moment(state, 4)
    assert second == pytest.approx(2.0 * n_eff * (n_eff + 1.0), rel=1e-12)
    variance = fourth - second * second
    closed = 20.0 * n_eff ** 4 + 40.0 * n_eff ** 3 + 22.0 * n_eff ** 2 + 2.0 * n_eff
    assert variance == pytest.approx(closed, rel=1e-11)
    assert variance == pytest.approx((q - 1.0) * (5.0 * q - 3.0) / 4.0, rel=1e-11)


@pytest.mark.parametrize("state", [from_squeezing(SqueezeParams(2.0)),
                                   evolved(2.0, 2.0, 1e-3)], ids=["pure", "evolved"])
def test_denominator_monomials_sum_to_twice_pair_correlation(state):
    total = sum(isserlis_moment(state, as_ladder_sequence(p)).real
                for p in CROSS_CHECK_POWERS[:4])
    assert total == 2.0 * state.pair_correlation()


def test_glauber_vacuum_occupation():
    state = from_squeezing(SqueezeParams(0.0))
    val = glauber_moment(state, (1, 1, 0, 0))
    assert abs(val) < 1e-6


def test_glauber_matches_isserlis_squeezed():
    state = from_squeezing(SqueezeParams(0.8))
    quad = glauber_moment(state, (1, 1, 0, 0))
    wick = isserlis_moment(state, N1)
    assert quad.real == pytest.approx(wick.real, abs=1e-6)
    assert quad.real == pytest.approx(math.sinh(0.8) ** 2, abs=1e-6)


def test_glauber_matches_isserlis_evolved():
    state = evolve(from_squeezing(SqueezeParams(0.8)), 0.5, 0.1)
    # (N1 - N2)^2 in normal order: N1 + (a1')^2 a1^2 - 2 N1 N2 + N2 + (a2')^2 a2^2.
    terms = {(1, 1, 0, 0): 1, (2, 2, 0, 0): 1, (1, 1, 1, 1): -2,
             (0, 0, 1, 1): 1, (0, 0, 2, 2): 1}
    via_quad = sum(c * glauber_moment(state, p).real for p, c in terms.items())
    via_wick = difference_moment(state, 2)
    assert via_quad == pytest.approx(via_wick, rel=1e-5)


@pytest.mark.parametrize("state", [
    from_squeezing(SqueezeParams(2.0)),
    evolve(from_squeezing(SqueezeParams(2.0)), 2.0, 1e-3),
], ids=["pure", "evolved"])
def test_glauber_matches_isserlis_on_required_monomials(state):
    for powers in CROSS_CHECK_POWERS:
        wick = isserlis_moment(state, as_ladder_sequence(powers))
        quad = glauber_moment(state, powers)
        assert abs(quad - wick) <= 1e-12 * max(1.0, abs(wick))


def test_gauss_rules_match_numpy_polynomial():
    # numpy.polynomial is the reference in tests only.
    nodes, weights = gauss_rule(5)
    ref_nodes, ref_weights = np.polynomial.hermite.hermgauss(5)
    assert np.max(np.abs(nodes - ref_nodes)) <= 1e-14
    assert np.max(np.abs(weights - ref_weights / math.sqrt(math.pi))) <= 1e-14
    assert not (nodes.flags.writeable or weights.flags.writeable)


def test_five_hermite_nodes_are_the_fewest_exact_through_degree_8():
    # E[x^8] = 105/16 under e^{-x^2}/sqrt(pi): an n-node rule is exact through
    # degree 2n - 1, so glauber_moment's 5 nodes reach degree 8 and 4 do not.
    def eighth_moment(n):
        nodes, weights = gauss_rule(n)
        return float(weights @ nodes ** 8)

    assert MAX_MONOMIAL_DEGREE // 2 + 1 == 5
    assert eighth_moment(5) == pytest.approx(105.0 / 16.0, rel=1e-14)
    assert abs(eighth_moment(4) - 105.0 / 16.0) > 1.0


def test_degree_caps():
    state = from_squeezing(SqueezeParams(0.5))
    with pytest.raises(DegreeTooHigh, match="total degree 9 exceeds 8"):
        isserlis_moment(state, as_ladder_sequence((3, 3, 2, 1)))
    with pytest.raises(DegreeTooHigh, match="total degree 9 exceeds 8"):
        glauber_moment(state, (3, 3, 2, 1))
    with pytest.raises(DegreeTooHigh, match="non-negative"):
        glauber_moment(state, (1, -1, 0, 0))
    for mode in (2, -1):
        with pytest.raises(InvalidModeIndex):
            isserlis_moment(state, ((0, True), (mode, False)))
    # The empty product has expectation 1 on every state.
    assert isserlis_moment(state, ()) == 1


# (mode, dagger) of each row of TwoModeGaussianState.kernel: a1', a1, a2', a2.
KERNEL_OPS = ((0, True), (0, False), (1, True), (1, False))


@pytest.mark.parametrize("rows", [
    *itertools.product(range(4), repeat=2),
    (1, 0, 3, 2),  # a1 a1' a2 a2'
    (3, 0, 1, 2),  # a2 a1' a1 a2'
], ids=lambda rows: "".join("a{}{}".format(KERNEL_OPS[i][0] + 1, "'" * KERNEL_OPS[i][1])
                            for i in rows))
def test_ordered_moment_reads_every_kernel_entry(rows):
    # The 16 products o_i o_j read each kernel entry once; the two of
    # degree 4 are not normally ordered, so the recursion reads the n + 1
    # and the lower c entries as well.
    state = from_squeezing(SqueezeParams(0.5))
    wick = ordered_moment(state.kernel, np.zeros(4), np.eye(4)[list(rows)])
    oracle = expectation(build_twb(SqueezeParams(0.5), FockCutoff(40)),
                         [KERNEL_OPS[i] for i in rows])
    assert abs(wick - oracle) <= 1e-12 * max(1.0, abs(oracle))


def test_ordered_moment_batch_axis_matches_single_products():
    # A trailing batch axis on the forms gives one moment per column, with
    # means, as separate calls on Python numbers do.
    rng = np.random.default_rng(5)
    kernel = from_squeezing(SqueezeParams(0.4)).kernel
    means = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    forms = rng.standard_normal((5, 4, 3))
    batch = ordered_moment(kernel, means, forms)
    assert batch.shape == (3,)
    for col in range(3):
        single = ordered_moment(kernel, means, forms[:, :, col])
        assert batch[col] == pytest.approx(single, rel=1e-13)
