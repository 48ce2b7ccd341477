"""Exact exponentials of the two quadratic generators used everywhere.

Both generators are real antisymmetric in the occupation basis and conserve
a quantum number, so they block-diagonalize into short tridiagonal chains:

* two-mode squeeze generator  G = A1'A2' - A1 A2   (primes = daggers)
  conserves q = n1 - n2; on the chain |q+k, k> it couples k -> k+1 with
  t_k = sqrt((k+|q|+1)(k+1)).
* beam-splitter generator     K = (a'b - b'a)/2
  conserves s = na + nb; on the chain |k, s-k> it couples k -> k+1 with
  t_k = sqrt((k+1)(s-k))/2.

For a chain matrix A with A[k+1,k] = t_k, A[k,k+1] = -t_k, the Hermitian
matrix iA becomes real symmetric tridiagonal after conjugation with
D = diag(i^k), so each block is solved with numpy.linalg.eigh on its
dense tridiagonal matrix and exp(theta*A) = D V exp(-i*theta*w) V^T D* is
assembled from real spectra.  Each chain builder is cached per (dim,
label), so a chain's spectrum is built the first time it is needed, and
an exponential acts only on the chains its input occupies: every other
chain's rows stay exact zeros.  The truncated generator is exactly
antisymmetric, hence every truncated exponential built here is exactly
unitary (to rounding).
"""

from __future__ import annotations

import functools

import numpy as np


def _spectrum(indices, couplings):
    """(indices, phases, eigs, vecs) of the chain over these flat indices."""
    eigs, vecs = np.linalg.eigh(np.diag(couplings, 1) + np.diag(couplings, -1))
    return indices, np.power(1j, np.arange(len(indices))), eigs, vecs


@functools.lru_cache(maxsize=None)
def _squeeze_chain(dim, q):
    """Chain q = n1 - n2 of G = A1'A2' - A1 A2 over flat indices n1*dim + n2."""
    k = np.arange(dim - abs(q))
    n1, n2 = (k + q, k) if q >= 0 else (k, k - q)
    return _spectrum(n1 * dim + n2, np.sqrt((n1[:-1] + 1.0) * (n2[:-1] + 1.0)))


@functools.lru_cache(maxsize=None)
def _beam_splitter_chain(dim, s):
    """Chain s = na + nb of K = (a'b - b'a)/2 over flat indices na*dim + nb."""
    k = np.arange(max(0, s - (dim - 1)), min(s, dim - 1) + 1)
    return _spectrum(k * dim + (s - k), 0.5 * np.sqrt((k[:-1] + 1.0) * (s - k[:-1])))


@functools.lru_cache(maxsize=None)
def _complete_spectra(dim):
    """Padded stacks (W, w) of the beam-splitter chains s = 0..dim-1.

    These are the chains the per-mode box holds completely.  Block s acts
    on |k, s-k>, k = 0..s, with eigenvectors W[s] = D V and eigenvalues
    w[s]; rows and columns past s are the identity with eigenvalue 0.
    """
    vecs = np.tile(np.eye(dim, dtype=complex), (dim, 1, 1))
    eigs = np.zeros((dim, dim))
    for s in range(dim):
        _, phases, chain_eigs, chain_vecs = _beam_splitter_chain(dim, s)
        vecs[s, :s + 1, :s + 1] = phases[:, None] * chain_vecs
        eigs[s, :s + 1] = chain_eigs
    return vecs, eigs


def beam_splitter_blocks(dim, theta):
    """exp(theta * K) on the complete chains s = 0..dim-1, shape (dim, dim, dim).

    Block s maps the amplitudes x[s, k] of |k, s-k> to ``blocks[s] @ x[s]``
    and is the identity past k = s, so every block is exactly unitary.
    """
    vecs, eigs = _complete_spectra(dim)
    return (vecs * np.exp(-1j * theta * eigs)[:, None, :]) @ vecs.conj().transpose(0, 2, 1)


def apply_exponential(kind, dim, theta, flat):
    """Return exp(theta * generator) applied to two-mode amplitudes ``flat``.

    ``flat`` is indexed by (n1, n2), as a (dim, dim) array or flat over
    n1*dim + n2, with an optional trailing batch axis; the result has its
    shape.  Never materializes the dense exponential, and exponentiates only
    the chains holding a non-zero row of some batch column.
    """
    shape = np.shape(flat)
    vec = np.asarray(flat, dtype=complex).reshape(dim * dim, -1)
    out = np.zeros_like(vec)
    n1, n2 = np.divmod(np.flatnonzero(vec.any(axis=1)), dim)
    # Labels q = n1 - n2 run from 1 - dim, labels s = n1 + n2 from 0.
    chain, low = (_squeeze_chain, 1 - dim) if kind == "squeeze" else (_beam_splitter_chain, 0)
    occupied = np.zeros(2 * dim - 1, dtype=bool)
    occupied[(n1 - n2 if kind == "squeeze" else n1 + n2) - low] = True
    for label in np.flatnonzero(occupied) + low:
        indices, phases, eigs, vecs = chain(dim, int(label))
        x = np.conj(phases)[:, None] * vec[indices]
        y = vecs @ (np.exp(-1j * theta * eigs)[:, None] * (vecs.T @ x))
        out[indices] = phases[:, None] * y
    return out.reshape(shape)
