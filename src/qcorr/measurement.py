"""Single-particle von Neumann measurements: rank-1 projector families over a
rotated Fock basis, and the induced dephasing channel."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .fock import FockBasis
from .lift import lift_unitary


@dataclass(frozen=True)
class MeasurementFamily:
    """Complete family of D rank-1 projectors Gamma(V)|k><k|Gamma(V)+, one per
    occupation vector, held as its rotation Gamma(V)."""

    rotation: np.ndarray

    @property
    def projectors(self) -> list[np.ndarray]:
        cols = self.rotation.T
        return [np.outer(c, c.conj()) for c in cols]


def build_family(V: np.ndarray, basis: FockBasis) -> MeasurementFamily:
    return MeasurementFamily(lift_unitary(V, basis))


def outcome_probabilities(rho: np.ndarray, fam: MeasurementFamily) -> np.ndarray:
    """Born-rule probabilities p_k = Tr(Pi_k rho) over the family."""
    rho = np.asarray(rho)
    G = fam.rotation
    if rho.shape != G.shape:
        raise DimensionMismatch(f"state shape {rho.shape} vs family dimension {G.shape[0]}")
    # Tr(G|k><k|G+ rho) = (G+ rho G)_kk
    p = _rotated_diagonal(G, rho)
    np.clip(p, 0.0, None, out=p)
    return p


def dephase(rho: np.ndarray, fam: MeasurementFamily) -> np.ndarray:
    """Projective measurement channel sum_k Pi_k rho Pi_k.

    Output commutes with every projector, has the same diagonal as rho in the
    rotated basis, and never lower entropy; a stacked rotation gives a stack.
    """
    rho = np.asarray(rho)
    G = fam.rotation
    if rho.shape != G.shape[-2:]:
        raise DimensionMismatch(f"state shape {rho.shape} vs family dimension {G.shape[-1]}")
    return (G * _rotated_diagonal(G, rho)[..., None, :]) @ G.conj().swapaxes(-1, -2)


def _rotated_diagonal(G: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """diag(G+ rho G), real part, as one matrix product and a row sum."""
    return ((G.conj().swapaxes(-1, -2) @ rho) * G.swapaxes(-1, -2)).sum(axis=-1).real
