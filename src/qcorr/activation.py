"""Activation protocol: rotate the system by a single-particle unitary, copy
its Fock index onto a fresh apparatus with a cyclic-shift coupling, and read
off the entanglement of the (maximally correlated) output."""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatch, NotMaxCorrelated
from .fock import FockBasis
from .lift import lift_unitary


@dataclass(frozen=True)
class JointState:
    """System (x) apparatus state; joint index = system * apparatus_dim + apparatus."""

    system_dim: int
    apparatus_dim: int
    matrix: np.ndarray


@dataclass(frozen=True)
class MaxCorrCoefficients:
    """chi[l, l'] = <l| Gamma(V) rho Gamma(V)+ |l'> — the coefficient matrix of
    the protocol output on the (l, l) -> (l', l') pattern."""

    chi: np.ndarray


class Subsystem(Enum):
    SYSTEM = "system"
    APPARATUS = "apparatus"


def coupling_unitary(D: int) -> np.ndarray:
    """Permutation matrix U|s>|j> = |s>|j + s mod D> on the D*D joint space."""
    if D < 1:
        raise DimensionMismatch(f"need D >= 1, got {D}")
    U = np.zeros((D * D, D * D))
    for s in range(D):
        for j in range(D):
            U[s * D + (j + s) % D, s * D + j] = 1.0
    return U


def run_protocol(rho: np.ndarray, V: np.ndarray, basis: FockBasis) -> JointState:
    """U [ (Gamma(V) rho Gamma(V)+) (x) |0><0| ] U+ with the cyclic coupling.

    The apparatus has the same dimension as the system and starts in its first
    basis state.
    """
    rho = np.asarray(rho, dtype=complex)
    D = basis.size
    if rho.shape != (D, D):
        raise DimensionMismatch(f"state shape {rho.shape} vs basis size {D}")
    G = lift_unitary(V, basis)
    rotated = G @ rho @ G.conj().T
    apparatus0 = np.zeros((D, D), dtype=complex)
    apparatus0[0, 0] = 1.0
    U = coupling_unitary(D)
    joint = U @ np.kron(rotated, apparatus0) @ U.T
    return JointState(system_dim=D, apparatus_dim=D, matrix=joint)


def max_corr_coefficients(rho: np.ndarray, V: np.ndarray, basis: FockBasis) -> MaxCorrCoefficients:
    """The rotated system state in the Fock basis — computed directly, without
    running the protocol."""
    rho = np.asarray(rho, dtype=complex)
    D = basis.size
    if rho.shape != (D, D):
        raise DimensionMismatch(f"state shape {rho.shape} vs basis size {D}")
    G = lift_unitary(V, basis)
    return MaxCorrCoefficients(chi=G @ rho @ G.conj().T)


def verify_maximally_correlated(js: JointState, tol: float = 1e-10) -> tuple[bool, float]:
    """True iff every entry off the (l, l) -> (l', l') pattern vanishes within
    tol; also reports the largest off-pattern magnitude."""
    D, DM = js.system_dim, js.apparatus_dim
    if DM != D:
        raise DimensionMismatch("pattern check needs equal system/apparatus dimensions")
    M = js.matrix.reshape(D, DM, D, DM)
    mask = np.ones((D, DM, D, DM), dtype=bool)
    idx = np.arange(D)
    mask[idx[:, None], idx[:, None], idx[None, :], idx[None, :]] = False
    worst = float(np.abs(M[mask]).max()) if mask.any() else 0.0
    return worst <= tol, worst


def partial_trace(js: JointState, keep: Subsystem) -> np.ndarray:
    D, DM = js.system_dim, js.apparatus_dim
    M = js.matrix.reshape(D, DM, D, DM)
    if keep is Subsystem.SYSTEM:
        return np.einsum("ajbj->ab", M)
    return np.einsum("iaib->ab", M)


def entanglement_maxcorr(js: JointState, tol: float = 1e-10) -> float:
    """Entanglement (nats) of a maximally correlated joint state:
    S(reduced system) - S(joint), the closed form valid on the pattern.

    Raises NotMaxCorrelated when the sparsity pattern fails, since the formula
    is only trusted there.
    """
    ok, worst = verify_maximally_correlated(js, tol)
    if not ok:
        raise NotMaxCorrelated(f"off-pattern magnitude {worst:.3e} exceeds {tol:.0e}")
    from .correlations import von_neumann_entropy

    reduced = partial_trace(js, Subsystem.SYSTEM)
    return von_neumann_entropy(reduced) - von_neumann_entropy(js.matrix)
