"""Deformed-commutator sector.

A constant deformation epsilon of the canonical mode algebra
([a1,a2] = [a1,a2'] = eps, [ai,ai'] = 1+eps) is realized through an
explicit linear map onto standard auxiliary modes A1, A2.  This module
verifies the deformed algebra on the truncated space and gives the
first-order perturbation B of the squeeze generator, whose Duhamel response
collapses to a closed form because B commutes with the generator (Wilcox,
J. Math. Phys. 8, 962 (1967)).  The exact eps^2 coefficient of the deformed
number difference's variance, which the oracle uses, is read off that
response's seed with no propagator.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AmplitudeTooLarge, CutoffTooSmall
from .fock import FockCutoff, _apply_ladder, _occupation_difference, twb_tail

MAX_EPSILON = 0.2


def _check_epsilon(epsilon: float) -> None:
    """The one guard on a deformation strength; rejects NaN as well."""
    if not abs(epsilon) <= MAX_EPSILON:
        raise AmplitudeTooLarge(f"|epsilon| must be <= {MAX_EPSILON}, got {epsilon!r}")


def auxiliary_mode_map(epsilon: float) -> np.ndarray:
    """Coefficients of (a1, a2) over the operator basis (A1, A2, A1', A2').

    Rows are the deformed modes; the defining map is
    a1 = sqrt(1+eps) A1 + eta (A2 - A2') and
    a2 = sqrt(1+eps) A2 + eta (A1 + A1'), with eta = eps / (2 sqrt(1+eps)).
    """
    _check_epsilon(epsilon)
    root = math.sqrt(1.0 + epsilon)
    eta = epsilon / (2.0 * root)
    return np.array([
        #  A1    A2    A1'   A2'
        [root,  eta,  0.0, -eta],   # a1
        [eta,  root,  eta,  0.0],   # a2
    ])


def deformed_commutator_check(epsilon: float, cutoff: FockCutoff) -> float:
    """Max deviation of ([a1,a2], [a1,a2'], [ai,ai']) from (eps, eps, 1+eps).

    The commutators are those of the truncated-space operators, on the
    guarded subspace with both occupations <= n_max - 2, where quadratic
    products close and the expected values hold exactly.  Over the basis
    B = (A1, A2, A1', A2'), with k' the dagger of k, two real forms u.B and
    v.B commute to w1 [A1,A1'] x I + w2 I x [A2,A2'], w_k = u_k v_k' - u_k' v_k,
    and a form's dagger swaps its halves.  The truncated [A,A'] is diagonal,
    so the deviation is max |w1 c[n1] + w2 c[n2] - expected| over its diagonal c.
    """
    if cutoff.n_max < 4:
        raise CutoffTooSmall(
            "commutator check needs n_max >= 4 to guard the truncation edge")
    a1, a2 = auxiliary_mode_map(epsilon)
    a = _apply_ladder(np.eye(cutoff.dim), 0, False)
    c = np.diag(a @ a.T - a.T @ a)[:cutoff.n_max - 1]  # guarded occupations
    a1_dag, a2_dag = np.roll(a1, 2), np.roll(a2, 2)
    deviation = 0.0
    for u, v, expected in ((a1, a2, epsilon), (a1, a2_dag, epsilon),
                           (a1, a1_dag, 1.0 + epsilon), (a2, a2_dag, 1.0 + epsilon)):
        w1, w2 = u[:2] * v[2:] - u[2:] * v[:2]
        deviation = max(deviation, float(np.max(np.abs(
            w1 * c[:, None] + w2 * c[None, :] - expected))))
    return deviation


def _sum_ladder(psi: np.ndarray, dagger: bool) -> np.ndarray:
    """(A1' + A2') (dagger) or (A1 + A2) acting on a two-mode amplitude tensor."""
    return _apply_ladder(psi, 0, dagger) + _apply_ladder(psi, 1, dagger)


def perturbation_generator_action(r: float):
    """First-order generator perturbation per unit epsilon, on (d, d) amplitudes.

    Expanding the squeeze generator A = A1'A2' - A1A2 written in deformed
    modes around eps = 0 gives B = r*((X'^2 - X^2)/2 - 1), X = A1 + A2.
    [A, X'] = -X and [A, X] = -X', so B commutes with A, which collapses the
    Duhamel integral to the correction B|TWB> = r e^{rA} ((X'^2)/2 - 1)|0>.
    """
    def act(psi: np.ndarray) -> np.ndarray:
        up2 = _sum_ladder(_sum_ladder(psi, True), True)
        down2 = _sum_ladder(_sum_ladder(psi, False), False)
        return r * (0.5 * (up2 - down2) - psi)

    return act


def _correction_seed(dim: int) -> np.ndarray:
    """The correction's seed ((X'^2)/2 - 1)|0> on (dim, dim) amplitudes."""
    vac = np.zeros((dim, dim), dtype=complex)
    vac[0, 0] = 1.0
    return 0.5 * _sum_ladder(_sum_ladder(vac, True), True) - vac


def deformed_variance_coefficient(r, cutoff: FockCutoff):
    """Exact eps^2 coefficient of Var(a1'a1 - a2'a2) on the corrected twin beam,
    at a squeeze strength r or at each of an array of them.

    The twin beam |TWB> of squeeze strength r is an eigenstate of
    D0 = N1 - N2 with eigenvalue 0, so the deformed observable
    (1+eps)D0 - eps P with P = A1A2 + A1'A2', acting on |TWB> + eps*c (c the
    first-order correction B|TWB>), gives eps*v + O(eps^2) with
    v = D0 c - P|TWB>; the renormalization and the overlap of c with |TWB>
    drop out.  Then <O^4> = eps^2 |D0 v|^2 + O(eps^3) while
    <O^2>^2 = O(eps^4).  P keeps the twin beam on the diagonal n1 = n2,
    where D0 vanishes, so D0 v = D0^2 c.

    With c = r e^{rA} s, s the seed, D0 commutes with the squeeze generator
    A and the truncated e^{rA} is exactly unitary on each n1 - n2 chain, so
    |D0^2 c|^2 = r^2 |D0^2 s|^2: no propagator is needed, and |D0^2 s|^2 is
    read once for all r.  D0^2 keeps only the seed's |2,0> and |0,2>, so its
    3x3 corner suffices.  Their part (|2,0> + |0,2>)/sqrt(2) has norm 1, so
    the coefficient is exactly 16 r^2 at every cutoff n_max >= 2; a smaller
    cutoff cannot hold them and raises ``CutoffTooSmall``.
    """
    if cutoff.n_max < 2:
        raise CutoffTooSmall(f"the eps^2 coefficient needs n_max >= 2, got {cutoff.n_max}")
    for x in np.ravel(r).tolist():
        twb_tail(x, cutoff)
    occ_diff = _occupation_difference(3)
    seed = _correction_seed(3)
    return r * r * float(np.linalg.norm(occ_diff * (occ_diff * seed)) ** 2)
