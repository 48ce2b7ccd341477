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
assembled from real spectra.  Each chain builder returns (indices, phases
D, eigs, vecs) and is cached per (dim, label), so a chain's spectrum is
built the first time it is needed (squeeze chains q and -q share one), and
an exponential acts only on the chains its input occupies: every other
chain's rows stay exact zeros.  The truncated generator is exactly
antisymmetric, hence every truncated exponential built here is exactly
unitary (to rounding).

The same tridiagonal eigensolve gives the Gauss-Hermite rule by Golub-Welsch
(Math. Comp. 23, 221 (1969)): the nodes are the eigenvalues of the Jacobi
matrix, the weights the squared first components of its unit eigenvectors.
"""

from __future__ import annotations

import functools

import numpy as np


def _tridiagonal_eigh(couplings):
    """Spectrum of the zero-diagonal symmetric tridiagonal matrix with these couplings."""
    return np.linalg.eigh(np.diag(couplings, 1) + np.diag(couplings, -1))


@functools.lru_cache(maxsize=None)
def gauss_rule(n):
    """(nodes, weights) of the n-node Gauss rule for the normal density
    e^{-x^2}/sqrt(pi), exact for polynomials of degree at most 2n - 1.  The
    density is symmetric, so its Jacobi matrix has a zero diagonal."""
    nodes, vecs = _tridiagonal_eigh(np.sqrt(np.arange(1.0, n) / 2.0))
    weights = vecs[0] ** 2
    # Cached, so every caller shares these arrays.
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@functools.lru_cache(maxsize=None)
def _squeeze_spectrum(length, q):
    """Spectrum of the squeeze chains +-q of this length: their couplings
    (n1+1)(n2+1) are the same products in swapped order, so one eigh serves both."""
    k = np.arange(1.0, length)
    return _tridiagonal_eigh(np.sqrt((k + q) * k))


@functools.lru_cache(maxsize=None)
def _squeeze_chain(dim, q):
    """Chain q = n1 - n2 of G = A1'A2' - A1 A2 over flat indices n1*dim + n2."""
    k = np.arange(dim - abs(q))
    n1, n2 = (k + q, k) if q >= 0 else (k, k - q)
    return (n1 * dim + n2, np.power(1j, k), *_squeeze_spectrum(len(k), abs(q)))


@functools.lru_cache(maxsize=None)
def _beam_splitter_chain(dim, s):
    """Chain s = na + nb of K = (a'b - b'a)/2 over flat indices na*dim + nb."""
    k = np.arange(max(0, s - (dim - 1)), min(s, dim - 1) + 1)
    return (k * dim + (s - k), np.power(1j, np.arange(k.size)),
            *_tridiagonal_eigh(0.5 * np.sqrt((k[:-1] + 1.0) * (s - k[:-1]))))


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
        # The eigenvectors are real: they act on the float view of the
        # amplitudes, (re, im) interleaved, in real arithmetic.
        x = np.conj(phases)[:, None] * vec[indices]
        y = np.exp(-1j * theta * eigs)[:, None] * (vecs.T @ x.view(float)).view(complex)
        out[indices] = phases[:, None] * (vecs @ y.view(float)).view(complex)
    return out.reshape(shape)
