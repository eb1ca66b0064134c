"""Fock bases for n identical particles in d modes, and second-quantized operators.

Basis states are labelled by occupation vectors: sorted tuples of mode indices,
strictly increasing for fermions, non-decreasing for bosons.  All bosonic basis
vectors are unit-normalized (so ``(1, 1)`` and ``(0, 0)`` both have norm 1).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    BasisMismatch,
    InvalidDimension,
    InvalidState,
    UnknownOccupation,
)

# What counts as a density matrix (see check_density_matrix)
HERM_TOL = 1e-12
EIG_TOL = 1e-10
TRACE_TOL = 1e-12


class Statistics(Enum):
    FERMIONIC = "fermionic"
    BOSONIC = "bosonic"


@dataclass(frozen=True)
class FockBasis:
    """Ordered enumeration of all n-particle occupation vectors for d modes."""

    d: int
    n: int
    statistics: Statistics
    states: tuple[tuple[int, ...], ...]
    _index: dict = field(repr=False, compare=False)

    @property
    def size(self) -> int:
        return len(self.states)

    def index_of(self, occ) -> int:
        try:
            return self._index[tuple(occ)]
        except KeyError:
            raise UnknownOccupation(
                f"occupation {tuple(occ)} not in {self.statistics.value} "
                f"d={self.d}, n={self.n} basis"
            ) from None

    def __contains__(self, occ) -> bool:
        return tuple(occ) in self._index


def enumerate_basis(d: int, n: int, statistics: Statistics) -> FockBasis:
    """All occupation vectors in lexicographic order.

    n = 0 is permitted and yields the one-dimensional vacuum sector; the
    operator-algebra tests need it even though physical states use n >= 1.
    """
    if d < 1:
        raise InvalidDimension(f"need at least one mode, got d={d}")
    if n < 0:
        raise InvalidDimension(f"negative particle number n={n}")
    if statistics is Statistics.FERMIONIC and n > d:
        raise InvalidDimension(f"fermionic n={n} exceeds mode count d={d}")
    if statistics is Statistics.FERMIONIC:
        states = tuple(itertools.combinations(range(d), n))
    else:
        states = tuple(itertools.combinations_with_replacement(range(d), n))
    index = {occ: i for i, occ in enumerate(states)}
    return FockBasis(d, n, statistics, states, index)


def creation_matrix(mode: int, from_basis: FockBasis, to_basis: FockBasis) -> np.ndarray:
    """Matrix of the creation operator for `mode`, mapping the n-particle
    sector onto the (n+1)-particle sector.

    Fermionic matrix elements carry the sign (-1)^(number of occupied modes
    strictly below `mode`); bosonic ones the factor sqrt(m_mode + 1).  The
    annihilation operator is the conjugate transpose.
    """
    if from_basis.d != to_basis.d or from_basis.statistics is not to_basis.statistics:
        raise BasisMismatch("bases differ in mode count or statistics")
    if to_basis.n != from_basis.n + 1:
        raise BasisMismatch(
            f"target particle number {to_basis.n} is not {from_basis.n} + 1"
        )
    if not 0 <= mode < from_basis.d:
        raise InvalidDimension(f"mode {mode} outside [0, {from_basis.d})")

    A = np.zeros((to_basis.size, from_basis.size))
    fermionic = from_basis.statistics is Statistics.FERMIONIC
    for col, occ in enumerate(from_basis.states):
        if fermionic:
            if mode in occ:
                continue
            sign = -1.0 if sum(1 for m in occ if m < mode) % 2 else 1.0
            target = tuple(sorted(occ + (mode,)))
            A[to_basis.index_of(target), col] = sign
        else:
            m = occ.count(mode)
            target = tuple(sorted(occ + (mode,)))
            A[to_basis.index_of(target), col] = math.sqrt(m + 1)
    return A


def slater_state(occ, basis: FockBasis) -> np.ndarray:
    """Unit vector for the basis state labelled by `occ` (a single Slater
    determinant or permanent)."""
    v = np.zeros(basis.size, dtype=complex)
    v[basis.index_of(occ)] = 1.0
    return v


def check_density_matrix(rho: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Raise InvalidState unless rho is a density matrix: finite, Hermitian
    within HERM_TOL, unit-trace within TRACE_TOL, no eigenvalue below -EIG_TOL.

    Returns the ascending eigenvalues of (rho + rho+)/2, the spectrum the
    positivity test needs and S(rho) reuses.
    """
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvalidState(f"density matrix must be square, got shape {rho.shape}")
    if dim is not None and rho.shape[0] != dim:
        raise InvalidState(f"expected dimension {dim}, got {rho.shape[0]}")
    _check_hermitian(rho)
    _check_unit_trace(np.trace(rho))
    return _psd_eigenvalues(rho)


def _check_hermitian(rho: np.ndarray) -> None:
    """Raise InvalidState on a non-finite entry (before any arithmetic on it,
    since every comparison with NaN is False) or a Hermiticity defect above
    HERM_TOL."""
    finite = np.isfinite(rho)
    if not finite.all():
        at = tuple(int(i) for i in np.argwhere(~finite)[0])
        raise InvalidState(f"non-finite entry {rho[at]} at {at}")
    herm_defect = np.abs(rho - rho.conj().T).max()
    if herm_defect > HERM_TOL:
        raise InvalidState(f"not Hermitian: defect {herm_defect:.3e} > {HERM_TOL:.0e}")


def _check_unit_trace(tr: complex) -> None:
    if abs(tr - 1.0) > TRACE_TOL:
        raise InvalidState(f"trace {tr} differs from 1 beyond {TRACE_TOL:.0e}")


def _psd_eigenvalues(rho: np.ndarray) -> np.ndarray:
    """Eigenvalues of the Hermitian part of rho; raise InvalidState when one
    lies below -EIG_TOL."""
    evals = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
    if evals.min() < -EIG_TOL:
        raise InvalidState(f"negative eigenvalue {evals.min():.3e} beyond -{EIG_TOL:.0e}")
    return evals
