"""Deformed-commutator sector.

A constant deformation epsilon of the canonical mode algebra
([a1,a2] = [a1,a2'] = eps, [ai,ai'] = 1+eps) is realized through an
explicit linear map onto standard auxiliary modes A1, A2.  This module
verifies the deformed algebra on the truncated space, builds the
first-order perturbative correction to the twin-beam state via a Duhamel
integral over conjugated generators, and provides the closed-form
correction vector it collapses to, the deformed number-difference
observable, and the exact eps^2 coefficient of its variance that the
oracle uncertainty evaluation uses.
"""

from __future__ import annotations

import math

import numpy as np

from ._propagators import apply_exponential
from .errors import AmplitudeTooLarge, CutoffTooSmall, NegativeParameter
from .fock import (
    FockCutoff,
    MultiModeFockState,
    SqueezeParams,
    _apply_ladder,
    build_twb,
    twb_tail,
)

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

    The commutators are evaluated as truncated-space matrices.  The
    expected values hold exactly away from the truncation edge, so the
    deviation is taken on the guarded subspace with both occupations
    <= n_max - 2, where quadratic products close.
    """
    if cutoff.n_max < 4:
        raise CutoffTooSmall(
            "commutator check needs n_max >= 4 to guard the truncation edge")
    mode_map = auxiliary_mode_map(epsilon)
    d = cutoff.dim
    a = _apply_ladder(np.eye(d), 0, False)
    eye = np.eye(d)
    basis = [np.kron(a, eye), np.kron(eye, a),
             np.kron(a.T, eye), np.kron(eye, a.T)]
    a1 = sum(c * op for c, op in zip(mode_map[0], basis))
    a2 = sum(c * op for c, op in zip(mode_map[1], basis))
    eye2 = np.eye(d * d)

    occ = np.arange(d)
    keep = ((occ[:, None] <= cutoff.n_max - 2)
            & (occ[None, :] <= cutoff.n_max - 2)).ravel()

    def guarded_dev(mat: np.ndarray, expected: float) -> float:
        block = (mat - expected * eye2)[np.ix_(keep, keep)]
        return float(np.max(np.abs(block)))

    return max(guarded_dev(a1 @ a2 - a2 @ a1, epsilon),
               guarded_dev(a1 @ a2.T - a2.T @ a1, epsilon),
               guarded_dev(a1 @ a1.T - a1.T @ a1, 1.0 + epsilon),
               guarded_dev(a2 @ a2.T - a2.T @ a2, 1.0 + epsilon))


def _pair_ladder(psi: np.ndarray, dagger: bool) -> np.ndarray:
    """A1' A2' (dagger) or A1 A2 acting on a two-mode amplitude tensor."""
    return _apply_ladder(_apply_ladder(psi, 1, dagger), 0, dagger)


def _sum_ladder(psi: np.ndarray, dagger: bool) -> np.ndarray:
    """(A1' + A2') (dagger) or (A1 + A2) acting on a two-mode amplitude tensor."""
    return _apply_ladder(psi, 0, dagger) + _apply_ladder(psi, 1, dagger)


def squeeze_generator_action(r: float, cutoff: FockCutoff):
    """Action of the squeeze generator r*(A1'A2' - A1A2) on flat vectors."""
    d = cutoff.dim

    def act(flat: np.ndarray) -> np.ndarray:
        psi = flat.reshape(d, d)
        return (r * (_pair_ladder(psi, True) - _pair_ladder(psi, False))).ravel()

    return act


def perturbation_generator_action(r: float, cutoff: FockCutoff):
    """First-order generator perturbation per unit epsilon.

    Expanding the squeeze generator written in deformed modes around
    eps = 0 gives the perturbation r*((X'^2 - X^2)/2 - 1) with
    X = A1 + A2; it commutes with the unperturbed generator, which is what
    collapses the Duhamel integral to a closed form.
    """
    d = cutoff.dim

    def act(flat: np.ndarray) -> np.ndarray:
        psi = flat.reshape(d, d)
        up2 = _sum_ladder(_sum_ladder(psi, True), True)
        down2 = _sum_ladder(_sum_ladder(psi, False), False)
        return (r * (0.5 * (up2 - down2) - psi)).ravel()

    return act


def duhamel_first_order(r: float, b_pert, cutoff: FockCutoff) -> MultiModeFockState:
    """First-order response vector e^A Int_0^1 e^{-uA} B e^{uA} du |0>.

    A is the squeeze generator with strength r; ``b_pert`` is the
    perturbing operator, a callable on flat vectors of the two-mode space.
    The u-integral uses a fixed 16-node Gauss-Legendre rule; the integrand
    is analytic in u, so convergence is rapid.  The result is a correction
    vector, not a normalized state.  Its support is the twin beam's: raises
    ``CutoffTooSmall`` where ``build_twb`` would at the default tolerance.
    """
    if not r >= 0.0:
        raise NegativeParameter(f"squeeze strength must be >= 0, got {r!r}")
    twb_tail(r, cutoff)
    d = cutoff.dim
    vac = np.zeros(d * d, dtype=complex)
    vac[0] = 1.0
    x, w = np.polynomial.legendre.leggauss(16)
    u_nodes, u_weights = (x + 1.0) / 2.0, w / 2.0
    integral = np.zeros(d * d, dtype=complex)
    for u, wu in zip(u_nodes, u_weights):
        v = apply_exponential("squeeze", d, u * r, vac)
        v = b_pert(v)
        integral += wu * apply_exponential("squeeze", d, -u * r, v)
    out = apply_exponential("squeeze", d, r, integral)
    return MultiModeFockState(2, cutoff, out.reshape(d, d))


def closed_form_correction(r: float, cutoff: FockCutoff) -> MultiModeFockState:
    """The collapsed Duhamel vector r * e^{rA} ((X'^2)/2 - 1) |0>."""
    d = cutoff.dim
    vac = np.zeros((d, d), dtype=complex)
    vac[0, 0] = 1.0
    seed = 0.5 * _sum_ladder(_sum_ladder(vac, True), True) - vac
    out = r * apply_exponential("squeeze", d, r, seed.ravel())
    return MultiModeFockState(2, cutoff, out.reshape(d, d))


def build_twb_prime(r: float, epsilon: float, cutoff: FockCutoff,
                    tail_tol: float = 1e-10) -> MultiModeFockState:
    """Twin-beam state carrying the first-order deformation correction.

    Returns the renormalized |TWB> + eps * r * e^{rA}((X'^2)/2 - 1)|0>;
    renormalization shifts moments only at second order in epsilon.
    """
    _check_epsilon(epsilon)
    twb = build_twb(SqueezeParams(r), cutoff, tail_tol=tail_tol)
    if epsilon == 0.0 or r == 0.0:
        return twb
    corr = closed_form_correction(r, cutoff)
    amp = twb.amplitudes + epsilon * corr.amplitudes
    amp = amp / np.linalg.norm(amp.ravel())
    return MultiModeFockState(2, cutoff, amp, discarded_tail=twb.discarded_tail)


def _occupation_difference(dim: int) -> np.ndarray:
    """N1 - N2 as a diagonal weight on two-mode amplitude tensors."""
    return (np.arange(dim)[:, None] - np.arange(dim)[None, :]).astype(float)


def deformed_number_difference_action(epsilon: float, cutoff: FockCutoff):
    """Action of the deformed-mode number difference, to first order.

    Through the auxiliary-mode map, a1'a1 - a2'a2 equals
    (1+eps)(N1 - N2) - eps(A1A2 + A1'A2') up to O(eps^2) terms.
    """
    occ_diff = _occupation_difference(cutoff.dim)

    def act(psi: np.ndarray) -> np.ndarray:
        return ((1.0 + epsilon) * occ_diff * psi
                - epsilon * (_pair_ladder(psi, False) + _pair_ladder(psi, True)))

    return act


def deformed_variance_coefficient(r: float, cutoff: FockCutoff) -> float:
    """Exact eps^2 coefficient of Var(a1'a1 - a2'a2) on the corrected twin beam.

    The twin beam |TWB> of squeeze strength r is an eigenstate of
    D0 = N1 - N2 with eigenvalue 0, so the deformed observable
    (1+eps)D0 - eps P with P = A1A2 + A1'A2', acting on |TWB> + eps*c (c the
    closed-form correction), gives eps*v + O(eps^2) with v = D0 c - P|TWB>;
    the renormalization and the overlap of c with |TWB> drop out.  Then
    <O^4> = eps^2 |D0 v|^2 + O(eps^3) while <O^2>^2 = O(eps^4).  P keeps the
    twin beam on the diagonal n1 = n2, where D0 vanishes, so D0 v = D0^2 c.

    The coefficient is exactly 16 r^2 at every cutoff: D0 commutes with the
    squeeze generator, the truncated e^{rA} is exactly unitary on each
    n1 - n2 chain, and the seed's n1 - n2 = +-2 part (|2,0> + |0,2>)/sqrt(2)
    has norm 1.
    """
    occ_diff = _occupation_difference(cutoff.dim)
    corr = closed_form_correction(r, cutoff).amplitudes
    return float(np.linalg.norm(occ_diff * (occ_diff * corr)) ** 2)
