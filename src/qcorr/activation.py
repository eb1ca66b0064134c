"""Activation protocol: rotate the system by a single-particle unitary, copy
its Fock index onto a fresh apparatus with a cyclic-shift coupling, and read
off the entanglement of the (maximally correlated) output."""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .correlations import shannon_entropy, von_neumann_entropy
from .errors import DimensionMismatch, InvalidDimension, NotMaxCorrelated
from .fock import (
    HERM_TOL,
    FockBasis,
    _check_hermitian,
    _check_unit_trace,
    _psd_eigenvalues,
)
from .lift import lift_unitary

# Largest D^2 x D^2 complex joint matrix run_protocol builds: 16 D^4 bytes,
# so sectors up to D = 90 pass.  The joint is the only array of that size a
# protocol run (run_protocol, verify, entanglement) holds, so this bounds its
# peak memory to about one joint.
MAX_JOINT_BYTES = 2**30


@dataclass(frozen=True)
class JointState:
    """System (x) apparatus state; joint index = system * apparatus_dim + apparatus."""

    system_dim: int
    apparatus_dim: int
    matrix: np.ndarray


class Subsystem(Enum):
    SYSTEM = "system"
    APPARATUS = "apparatus"


def _pattern_index(D: int) -> np.ndarray:
    """Joint indices l*D + l of span{|l, l>}, the support of the pattern."""
    return np.arange(D) * (D + 1)


def run_protocol(rho: np.ndarray, V: np.ndarray, basis: FockBasis) -> JointState:
    """U [ (Gamma(V) rho Gamma(V)+) (x) |0><0| ] U+ with the cyclic coupling.

    The apparatus has the same dimension as the system and starts in its first
    basis state.  U|s>|j> = |s>|j + s mod D> is a permutation, so U K U+ is K
    with its rows and columns relabelled through the shift index
    pi(s*D + j) = s*D + (j + s) mod D: joint[pi(a), pi(b)] = K[a, b].  K is
    nonzero only on the rows and columns s*D, and pi(s*D) = s*D + s, so the
    joint is zero except for the rotated state written on the pattern
    span{|s, s>}; neither K nor any other D^2 x D^2 temporary is formed, and
    peak memory is about one joint.  Raises InvalidDimension, before any lift,
    when the D^2 x D^2 joint matrix would exceed MAX_JOINT_BYTES.
    """
    D = basis.size
    joint_bytes = 16 * D**4
    if joint_bytes > MAX_JOINT_BYTES:
        raise InvalidDimension(
            f"joint state of the D={D} sector needs {joint_bytes / 2**30:.1f} GiB, "
            f"above the {MAX_JOINT_BYTES / 2**30:.0f} GiB limit")
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (D, D):
        raise DimensionMismatch(f"state shape {rho.shape} vs basis size {D}")
    G = lift_unitary(V, basis)
    joint = np.zeros((D * D, D * D), dtype=complex)
    idx = _pattern_index(D)  # pi(s*D) = s*D + s
    joint[idx[:, None], idx[None, :]] = G @ rho @ G.conj().T
    return JointState(system_dim=D, apparatus_dim=D, matrix=joint)


def max_corr_coefficients(rho: np.ndarray, V: np.ndarray, basis: FockBasis) -> np.ndarray:
    """chi[l, l'] = <l| Gamma(V) rho Gamma(V)+ |l'>, the D x D coefficient
    matrix of the protocol output on the (l, l) -> (l', l') pattern: the
    rotated system state in the Fock basis, computed directly, without
    running the protocol."""
    rho = np.asarray(rho, dtype=complex)
    D = basis.size
    if rho.shape != (D, D):
        raise DimensionMismatch(f"state shape {rho.shape} vs basis size {D}")
    G = lift_unitary(V, basis)
    return G @ rho @ G.conj().T


def verify_maximally_correlated(js: JointState, tol: float = 1e-10) -> tuple[bool, float]:
    """True iff every entry off the (l, l) -> (l', l') pattern vanishes within
    tol; also reports the largest off-pattern magnitude (NaN, and not ok,
    when an off-pattern entry is NaN).

    Reads the joint in slabs of D rows, one per system index, so the only
    temporary is D x D^2.
    """
    D, DM = js.system_dim, js.apparatus_dim
    if DM != D:
        raise DimensionMismatch("pattern check needs equal system/apparatus dimensions")
    M = js.matrix
    if M.shape != (D * D, D * D):
        raise DimensionMismatch(f"joint shape {M.shape} vs system dimension {D}")
    idx = _pattern_index(D)
    slab = np.empty((D, D * D))
    slab_worst = np.empty(D)
    for s in range(D):
        np.abs(M[s * D:(s + 1) * D], out=slab)
        slab[s, idx] = 0.0  # joint row s*D + s is the pattern row of this slab
        slab_worst[s] = slab.max()
    worst = float(slab_worst.max())  # propagates NaN, unlike Python's max()
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
    is only trusted there.  Once it holds, the joint is supported on
    span{|l, l>}, so S(joint) is the entropy of its D x D block
    B[l, l'] = joint[l*D + l, l'*D + l'].  Finiteness and Hermiticity are
    those of the whole joint, the trace is that of the whole joint, and
    positivity is checked on B.  No eigendecomposition is larger than D x D,
    and peak memory stays at about the joint itself.
    """
    ok, worst = verify_maximally_correlated(js, tol)
    if not ok:
        raise NotMaxCorrelated(f"off-pattern magnitude {worst:.3e} exceeds {tol:.0e}")
    M = js.matrix
    idx = _pattern_index(js.system_dim)
    block = M[idx[:, None], idx[None, :]]
    # Off the pattern |M_ab - conj M_ba| <= 2 worst.  Below HERM_TOL (with a
    # factor 2 to spare for the rounding of the computed moduli) no such pair
    # can set the Hermiticity defect, so B decides it, with the same value
    # whenever it fails; otherwise check the whole joint.
    _check_hermitian(block if 4 * worst <= HERM_TOL else M)
    _check_unit_trace(np.trace(M))
    reduced = partial_trace(js, Subsystem.SYSTEM)
    return von_neumann_entropy(reduced) - shannon_entropy(_psd_eigenvalues(block))
