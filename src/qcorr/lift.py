"""Lift single-particle unitaries to the n-particle sector by its creation operators.

Gamma(V) a+_i Gamma(V)+ = sum_l V_li a+_l gives Gamma(V) one particle level at a
time from Gamma_1 = V: with i the lowest occupied mode of the input occupation
k, and k-i, a-l the occupations less one particle in i, l,
    Gamma_n(V)[a, k] = m_i(k)^(-1/2) sum_{l in a} c_l(a) V[l, i] Gamma_{n-1}(V)[a-l, k-i],
where c_l(a) = <a|a+_l|a-l> is a fermion sign or the boson factor sqrt(m_l(a)):
the Laplace expansion of each entry, a determinant (fermions) or normalized
permanent (bosons) of V, along its first column.  Rows are output occupations,
columns input ones, so Gamma is a homomorphism and Gamma(V) = V for n = 1.
The same creation matrices give the gather table of the one-body operators
a+_i a_j, through which every one-body reduction of a state is taken.
"""
from __future__ import annotations

import numbers
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, InvalidSpec
from .fock import FockBasis, Statistics, creation_matrix, enumerate_basis

# bytes of the largest stacked array of a chunk: lifted gather terms, oracle
# draws, scan points or lockstep descents
_STACK_BYTES = 2**18


def _creations(d: int, n: int, statistics: Statistics) -> np.ndarray:
    """a+_l from the (n-1)- to the n-particle sector for every mode l, shape (d, D_n, D_{n-1})."""
    basis, lower = enumerate_basis(d, n, statistics), enumerate_basis(d, n - 1, statistics)
    return np.array([creation_matrix(l, lower, basis) for l in range(d)])


@lru_cache(maxsize=None)
def _one_body(d: int, n: int, statistics: Statistics) -> tuple[np.ndarray, np.ndarray]:
    """Read-only gather table (P, w) of E_ij = a+_i a_j on the (d, n) sector, each
    of shape (d, d, D_{n-1}): Tr(E_ij C) = sum_b w[i, j, b] C.flat[P[i, j, b]] for
    any D x D matrix C.  E_ij = sum_b a+_i |b><b| a_j has one entry per
    (n-1)-particle occupation b, at row b+i and column b+j, of weight
    c_i(b) c_j(b), zero where a fermion mode of b is already occupied."""
    create = _creations(d, n, statistics) if n else np.zeros((d, 1, 0))  # no state below the vacuum
    row = np.abs(create).argmax(axis=1)  # row b+l of a+_l |b>, or 0 at weight 0
    c = np.take_along_axis(create, row[:, None], axis=1)[:, 0]
    P, w = row * create.shape[1] + row[:, None], c * c[:, None]
    for x in (P, w):
        x.flags.writeable = False
    return P, w


@lru_cache(maxsize=None)
def _level(d: int, n: int, statistics: Statistics) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only tables of the step to n >= 2 particles, slot t < min(n, d) of row
    a holding the t-th distinct mode l of a (weight zero past the last): with
    e = a D + k the flat index of entry (a, k),
    Gamma_n.flat[e] = sum_t W.flat[P[t, e]] Gamma_{n-1}.flat[Q[t, e]] for
    W = w (x) V, w listing the weights c_l(a) m_i(k)^(-1/2)."""
    create = _creations(d, n, statistics).transpose(1, 0, 2)
    size, _, lower = create.shape
    a, l, b = np.nonzero(create)  # row a, mode l and row a-l, by a then l
    t = np.arange(a.size) - np.searchsorted(a, a)
    L, A = np.zeros((2, min(n, d), size), dtype=np.intp)
    c = np.zeros(L.shape)
    L[t, a], A[t, a], c[t, a] = l, b, create[a, l, b]
    # slot 0 of column k is its lowest mode i, with a+_i |k-i> = c[0, k] |k> = sqrt(m_i(k)) |k>
    w, code = np.unique(c[:, :, None] / c[0], return_inverse=True)
    P = ((code.reshape(-1, size, size) * d + L[:, :, None]) * d + L[0]).reshape(len(L), -1)
    Q = (A[:, :, None] * lower + A[0]).reshape(len(L), -1)
    for x in (w, P, Q):
        x.flags.writeable = False
    return w, P, Q


def lift_unitary(V: np.ndarray, basis: FockBasis) -> np.ndarray:
    """Gamma(V): the n-particle image of the d x d unitary V, or of each of a
    stack (..., d, d) of them, by the recursion of the module docstring, one
    level of gathers and elementwise products per particle.  Every V must be
    unitary within 1e-10 (InvalidSpec otherwise): the recursion would lift any
    matrix, and only a unitary's lift is a rotation of the sector.
    """
    V = np.asarray(V, dtype=complex)
    d, lead = basis.d, V.shape[:-2]
    if V.shape[-2:] != (d, d):
        raise DimensionMismatch(f"V has shape {V.shape}, basis has d={d}")
    if not np.abs(V @ V.conj().swapaxes(-1, -2) - np.eye(d)).max(initial=0.0) <= 1e-10:
        raise InvalidSpec("V is not unitary within 1e-10")
    return _lift(V, basis)


def _lift(V: np.ndarray, basis: FockBasis) -> np.ndarray:
    """`lift_unitary` of a complex stack V (..., d, d) with no checks, for V known
    to be unitary.  Each level gathers its terms a block at a time, whole
    members while they fit and blocks of entries of one member past that, so
    that no block of terms exceeds _STACK_BYTES; every entry sums its terms in
    the same order in any block, so a member lifts alike in any stack."""
    d, lead = basis.d, V.shape[:-2]
    m = V.size // (d * d)
    V = V.reshape(m, d, d)
    if basis.n < 2:
        G = V.copy() if basis.n else np.ones((m, 1, 1), dtype=complex)
        return G.reshape(*lead, basis.size, basis.size)
    chunk = max(1, _STACK_BYTES // (16 * min(basis.n, d) * basis.size ** 2))
    G = (_gather(V, basis) if m <= chunk
         else np.concatenate([_gather(V[i:i + chunk], basis) for i in range(0, m, chunk)]))
    return G.reshape(*lead, basis.size, basis.size)


def _gather(V: np.ndarray, basis: FockBasis) -> np.ndarray:
    """Gamma(V) of a stack V (m, d, d) by the recursion, flattened to (m, D^2)."""
    m, d = len(V), basis.d
    G = V.reshape(m, d * d)
    for n in range(2, basis.n + 1):
        w, P, Q = _level(d, n, basis.statistics)
        A = (w[:, None] * V.reshape(m, 1, d * d)).reshape(m, w.size * d * d)
        step, blocks = max(1, _STACK_BYTES // (16 * max(m, 1) * len(P))), []
        for c in range(0, P.shape[1], step):
            # out of place: numpy rounds an in-place product of one complex pair without fused multiply-add
            terms = np.take(A, P[:, c:c + step], axis=1) * np.take(G, Q[:, c:c + step], axis=1)
            block = terms[:, 0]
            for t in range(1, len(P)):  # in a fixed order, so an entry rounds alike in any block
                block = block + terms[:, t]
            blocks.append(block)
        G = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)
    return G


def _haar_stack(d: int, rng: np.random.Generator, m: int) -> np.ndarray:
    """m Haar-distributed d x d unitaries, shape (m, d, d): QR of complex
    Ginibre matrices with the R diagonals phase-fixed (Mezzadri, Notices AMS
    54, 592 (2007)).  Sample k takes the real then the imaginary part of its
    Ginibre matrix from the normal stream, so m draws here equal m draws of
    one sample each."""
    Z = rng.standard_normal((m, 2, d, d))
    Q, R = np.linalg.qr(Z[:, 0] + 1j * Z[:, 1])
    phases = np.diagonal(R, axis1=-2, axis2=-1)
    return Q * (phases / np.abs(phases))[:, None, :]


def haar_random_unitary(d: int, seed) -> np.ndarray:
    """Haar-distributed d x d unitary: QR of a complex Ginibre matrix with the
    R diagonal phase-fixed.  `seed` is a nonnegative integer or a numpy
    Generator; an integer d < 1 or a negative seed raises InvalidSpec."""
    if not (isinstance(d, numbers.Integral) and d >= 1) or (isinstance(seed, numbers.Integral) and seed < 0):
        raise InvalidSpec(f"need an integer d >= 1 and a nonnegative seed, got d={d!r}, seed={seed!r}")
    return _haar_stack(d, np.random.default_rng(seed), 1)[0]
