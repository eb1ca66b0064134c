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
    """Complete family of D rank-1 projectors Gamma(V)+|k><k|Gamma(V), one per
    occupation vector, held as its rotation Gamma(V): measuring it is rotating
    the state by Gamma(V) and reading off the occupations, so the outcome
    probabilities are diag(Gamma(V) rho Gamma(V)+)."""

    rotation: np.ndarray


def build_family(V: np.ndarray, basis: FockBasis) -> MeasurementFamily:
    return MeasurementFamily(lift_unitary(V, basis))


def dephase(rho: np.ndarray, fam: MeasurementFamily) -> np.ndarray:
    """Projective measurement channel sum_k Pi_k rho Pi_k = G+ diag(G rho G+) G,
    G the family's rotation.

    Output commutes with every projector, has the same diagonal as rho in the
    measured basis, and never lower entropy; a stacked rotation gives a stack.
    """
    rho = np.asarray(rho)
    G = fam.rotation
    if rho.shape != G.shape[-2:]:
        raise DimensionMismatch(f"state shape {rho.shape} vs family dimension {G.shape[-1]}")
    return (G.conj().swapaxes(-1, -2) * _born_probabilities(G, rho)[..., None, :]) @ G


def _born_probabilities(G: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """diag(G rho G+), real part: the outcome probabilities of the family with
    rotation G, or of each of a stack of them, as one matrix product and a row sum."""
    return ((G @ rho) * G.conj()).sum(axis=-1).real
