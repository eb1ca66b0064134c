"""Lift single-particle unitaries and observables to the n-particle sector.

The lift goes through the Lie algebra.  Second quantization gives
Gamma(exp(iH)) = exp(i dGamma(H)) with dGamma(H) = sum_ij H_ij a+_i a_j, so
the lifted unitary on the (anti)symmetric subspace is one D x D Hermitian
exponential of a contraction of H with the sector's hopping tensor
E[i, j] = a+_i a_j.  An arbitrary V enters through a Hermitian logarithm
H = -i log V; every such logarithm gives the same lift.  Rows are indexed by
the output occupation vector, columns by the input one, which makes Gamma a
group homomorphism with Gamma(V) = V on the one-particle sector.  The entries
equal the determinants (fermions) or normalized permanents (bosons) of
submatrices of V, but no such minor is evaluated here.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.linalg import schur

from .errors import DimensionMismatch, InvalidSpec
from .fock import FockBasis, Statistics, creation_matrix, enumerate_basis


@lru_cache(maxsize=None)
def _hopping(d: int, n: int, statistics: Statistics) -> np.ndarray:
    """Hopping tensor E[i, j] = a+_i a_j on the (d, n) sector, shape (d, d, D, D).

    Built once per sector and shared by every caller, hence read-only.
    """
    basis = enumerate_basis(d, n, statistics)
    if n == 0:
        E = np.zeros((d, d, 1, 1), dtype=complex)
    else:
        lower = enumerate_basis(d, n - 1, statistics)
        create = np.array([creation_matrix(i, lower, basis) for i in range(d)])
        # complex, so the contraction with a complex generator needs no cast
        E = np.einsum("iak,jbk->ijab", create, create).astype(complex)
    E.flags.writeable = False
    return E


def _log_unitary(V: np.ndarray) -> np.ndarray:
    """A Hermitian H with exp(iH) = V, from the complex Schur form of V.

    V is normal, so its Schur form is diagonal up to rounding; the phases
    are taken on the principal branch (-pi, pi].
    """
    T, Z = schur(V, output="complex")
    H = (Z * np.angle(np.diag(T))) @ Z.conj().T
    return (H + H.conj().T) / 2


def _log_unitaries(V: np.ndarray) -> np.ndarray:
    """`_log_unitary` of each of a stack (m, d, d) of Haar unitaries, from a
    batched eig.  Their eigenvalues are distinct almost surely, so the
    eigenvectors are well conditioned; a degenerate V needs the Schur form."""
    w, P = np.linalg.eig(V)
    H = (P * np.angle(w)[:, None, :]) @ np.linalg.inv(P)
    return (H + H.conj().swapaxes(1, 2)) / 2


def lift_observable(M: np.ndarray, basis: FockBasis) -> np.ndarray:
    """Second-quantized one-body operator dGamma(M) = sum_ij M_ij a+_i a_j on
    the n-sector; M may be a stack (..., d, d), giving (..., D, D).

    Hermitian for Hermitian M; its eigenvalues are sums of n eigenvalues of M
    (with repetition rules set by the statistics).
    """
    M = np.asarray(M, dtype=complex)
    d = basis.d
    if M.shape[-2:] != (d, d):
        raise DimensionMismatch(f"M has shape {M.shape}, basis has d={d}")
    E = _hopping(d, basis.n, basis.statistics)
    lead = M.shape[:-2]
    return (M.reshape(*lead, d * d) @ E.reshape(d * d, -1)).reshape(*lead, *E.shape[2:])


def lift_generator(H: np.ndarray, basis: FockBasis) -> np.ndarray:
    """Gamma(exp(iH)) = exp(i dGamma(H)) for a Hermitian d x d generator H, or
    for each of a stack (..., d, d) of them."""
    w, U = np.linalg.eigh(lift_observable(H, basis))
    return (U * np.exp(1j * w)[..., None, :]) @ U.conj().swapaxes(-1, -2)


def lift_unitary(V: np.ndarray, basis: FockBasis) -> np.ndarray:
    """Gamma(V): the n-particle image of the d x d unitary V.

    <l|Gamma(V)|k> = det V[l, k] for fermions, per V[l, k] normalized by
    sqrt(prod m_i(l)! prod m_j(k)!) for bosons, submatrices with rows/columns
    repeated by multiplicity; evaluated as exp(i dGamma(-i log V)).  V must
    be unitary within 1e-10 (InvalidSpec otherwise): the logarithm keeps only
    the phases of its eigenvalues, so any other V would lift as a different
    matrix.
    """
    V = np.asarray(V, dtype=complex)
    if V.shape != (basis.d, basis.d):
        raise DimensionMismatch(
            f"V has shape {V.shape}, basis has d={basis.d}"
        )
    if not np.abs(V @ V.conj().T - np.eye(basis.d)).max() <= 1e-10:
        raise InvalidSpec("V is not unitary within 1e-10")
    return lift_generator(_log_unitary(V), basis)


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
    R diagonal phase-fixed.  `seed` is an integer or a numpy Generator."""
    return _haar_stack(d, np.random.default_rng(seed), 1)[0]
