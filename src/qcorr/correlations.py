"""Quantumness of correlations: minimal entropy disturbance of single-particle
measurements, its geometric (relative-entropy) twin, the zero-quantumness
state family, and the correlation-hierarchy classifier.

All entropies are in nats.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.optimize import minimize

from .errors import DimensionMismatch, InvalidSpec, UnsupportedParticleNumber
from .fock import FockBasis, Statistics, check_density_matrix
from .lift import (
    _hopping,
    haar_random_unitary,
    hermitian_from_parameters,
    lift_generator,
    lift_unitary,
    parameters_from_unitary,
    unitary_from_parameters,
)
from .measurement import build_family, dephase

_EIG_CUT = 1e-12
# classify_report: Q at or below Q_TOL is class P; a condensate-mixture
# defect at or below STRUCTURE_TOL is class C
Q_TOL = 1e-6
STRUCTURE_TOL = 1e-8


def shannon_entropy(p: np.ndarray) -> float:
    """Shannon entropy in nats; entries below 1e-12 contribute zero."""
    p = np.asarray(p, dtype=float)
    p = p[p > _EIG_CUT]
    return float(-(p * np.log(p)).sum()) if p.size else 0.0


def von_neumann_entropy(rho: np.ndarray) -> float:
    """-Tr(rho ln rho) of a density matrix (checked by check_density_matrix);
    eigenvalues below 1e-12 contribute zero."""
    return shannon_entropy(check_density_matrix(rho))


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """S(rho || sigma) = Tr(rho ln rho) - Tr(rho ln sigma), +inf when the
    support of rho leaks outside the support of sigma.  rho must be a
    density matrix."""
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape != sigma.shape:
        raise DimensionMismatch(f"shapes {rho.shape} vs {sigma.shape}")
    s_rho = shannon_entropy(check_density_matrix(rho))
    mu, U = np.linalg.eigh((sigma + sigma.conj().T) / 2)
    weights = np.einsum("ij,jk,ik->i", U.conj().T, rho, U.T).real
    on_kernel = weights[mu <= _EIG_CUT].sum()
    if on_kernel > 1e-10:
        return math.inf
    keep = mu > _EIG_CUT
    cross = -(weights[keep] * np.log(mu[keep])).sum()
    value = cross - s_rho
    if -1e-12 < value < 0.0:
        value = 0.0
    return float(value)


def _outcome_entropy(G: np.ndarray, rho: np.ndarray) -> float:
    """Shannon entropy of the Born distribution diag(G rho G+)."""
    p = np.einsum("ij,jk,ik->i", G, rho, G.conj()).real
    np.clip(p, 0.0, None, out=p)
    return shannon_entropy(p)


def projected_entropy(rho: np.ndarray, V: np.ndarray, basis: FockBasis) -> float:
    """Entropy of the outcome distribution of the single-particle measurement
    whose lifted rotation is Gamma(V): the Shannon entropy of
    diag(Gamma(V) rho Gamma(V)+)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (basis.size, basis.size):
        raise DimensionMismatch(f"state shape {rho.shape} vs basis size {basis.size}")
    return _outcome_entropy(lift_unitary(V, basis), rho)


def one_particle_rdm(rho: np.ndarray, basis: FockBasis) -> np.ndarray:
    """d x d matrix R_ij = Tr(rho a+_i a_j)."""
    R = np.einsum("ijab,ba->ij", _hopping(basis.d, basis.n, basis.statistics), rho)
    return (R + R.conj().T) / 2


@dataclass(frozen=True)
class OptimizerConfig:
    """Multistart derivative-free search over the d^2-parameter generator chart.

    The first start is the natural-orbital basis of the one-particle reduced
    density matrix (which lands exactly on a minimizer for the entire
    zero-quantumness family); remaining starts are Haar random.  Restarting
    stops early once a restart reaches `tol`, since the objective is bounded
    below by zero.
    """

    restarts: int = 20
    max_iterations: int = 2000
    tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1 or self.max_iterations < 1 or self.tol <= 0:
            raise InvalidSpec("restarts, max_iterations and tol must be positive")


@dataclass(frozen=True)
class QuantumnessReport:
    q_value: float
    argmin_v: np.ndarray = field(repr=False)
    restart_values: tuple[float, ...]
    oracle_value: float | None
    converged: bool


def _minimize_over_group(objective, d: int, warm_unitaries, cfg: OptimizerConfig):
    """Shared multistart loop: returns (best value, best V, per-start values).

    Starts from the given warm unitaries (truncated to cfg.restarts), then
    fills the remaining restarts with Haar samples from cfg.seed.
    """
    rng = np.random.default_rng(cfg.seed)
    starts = [parameters_from_unitary(W) for W in warm_unitaries[: cfg.restarts]]
    for _ in range(cfg.restarts - len(starts)):
        starts.append(parameters_from_unitary(haar_random_unitary(d, rng)))

    best_val = math.inf
    best_theta = starts[0]
    values = []
    for theta0 in starts:
        res = minimize(
            objective,
            theta0,
            method="Powell",
            options={"maxiter": cfg.max_iterations, "xtol": 1e-7, "ftol": 1e-10},
        )
        values.append(float(res.fun))
        if res.fun < best_val:
            best_val = float(res.fun)
            best_theta = np.asarray(res.x)
        if best_val <= cfg.tol:
            break
    return best_val, unitary_from_parameters(best_theta, d), tuple(values)


def _converged(values: tuple[float, ...], best: float, tol: float) -> bool:
    if best <= tol or len(values) == 1:
        return True
    ordered = sorted(values)
    return ordered[1] - ordered[0] <= 1e-4


def quantumness(rho: np.ndarray, basis: FockBasis, cfg: OptimizerConfig = OptimizerConfig()) -> QuantumnessReport:
    """Minimize projected_entropy(rho, V) - S(rho) over single-particle
    unitaries V.

    The minimum is the quantumness of correlations: zero exactly on states
    that are convex mixtures of lifted Fock states in a common single-particle
    basis, positive otherwise.  Values in (-1e-9, 0) are clamped to zero.  The
    `converged` flag is false when no second restart confirms the best value
    within 1e-4.
    """
    rho = np.asarray(rho, dtype=complex)
    s_rho = shannon_entropy(check_density_matrix(rho, dim=basis.size))
    d = basis.d

    def objective(theta):
        G = lift_generator(hermitian_from_parameters(theta, d), basis)
        return _outcome_entropy(G, rho) - s_rho

    # R transforms as R -> conj(V) R V^T under rho -> Gamma(V) rho Gamma(V)+,
    # so W^T (not W+) is the rotation that lands on the natural-orbital basis
    W = np.linalg.eigh(one_particle_rdm(rho, basis))[1]
    best, V, values = _minimize_over_group(objective, d, [W.T.copy()], cfg)
    q = best
    if -1e-9 < q < 0.0:
        q = 0.0
    return QuantumnessReport(
        q_value=q,
        argmin_v=V,
        restart_values=values,
        oracle_value=None,
        converged=_converged(values, best, cfg.tol),
    )


def quantumness_oracle(rho: np.ndarray, basis: FockBasis, samples: int, seed) -> float:
    """Best projected_entropy(rho, V) - S(rho) over `samples` Haar-random V.

    A stochastic upper bound on the true quantumness, deterministic per seed;
    converges from above as the sample count grows (slowly — the search space
    has d^2 - d transverse dimensions).
    """
    if samples < 1:
        raise InvalidSpec(f"need at least one sample, got {samples}")
    rho = np.asarray(rho, dtype=complex)
    s_rho = shannon_entropy(check_density_matrix(rho, dim=basis.size))
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    best = math.inf
    for _ in range(samples):
        G = lift_unitary(haar_random_unitary(basis.d, rng), basis)
        best = min(best, _outcome_entropy(G, rho))
    return float(best - s_rho)


def geometric_quantumness(rho: np.ndarray, basis: FockBasis, cfg: OptimizerConfig = OptimizerConfig()) -> float:
    """Minimal relative entropy between rho and its dephased image, minimized
    over measurement families.

    Independent route to the same number as `quantumness`: the objective here
    is S(rho || Delta_V(rho)) computed through eigendecompositions, where
    Delta_V pinches in the basis Gamma(V)+|k>; the pinching identity makes it
    equal projected_entropy(rho, V) - S(rho) at every V.
    """
    rho = np.asarray(rho, dtype=complex)
    check_density_matrix(rho, dim=basis.size)
    d = basis.d

    def objective(theta):
        V = unitary_from_parameters(theta, d)
        fam = build_family(V.conj().T, basis)
        sigma = dephase(rho, fam)
        return relative_entropy(rho, sigma)

    W = np.linalg.eigh(one_particle_rdm(rho, basis))[1]
    best, _, _ = _minimize_over_group(objective, d, [W.T.copy()], cfg)
    if -1e-9 < best < 0.0:
        best = 0.0
    return float(best)


@dataclass(frozen=True)
class ClassicalStateSpec:
    """Recipe for a zero-quantumness state: probabilities over distinct
    occupation vectors, all rotated by one single-particle unitary."""

    probabilities: np.ndarray
    V: np.ndarray
    support: tuple[tuple[int, ...], ...]


def make_classical_state(spec: ClassicalStateSpec, basis: FockBasis) -> np.ndarray:
    """Gamma(V) (sum_k p_k |k><k|) Gamma(V)+ — quantumness zero by construction."""
    p = np.asarray(spec.probabilities, dtype=float)
    support = [tuple(s) for s in spec.support]
    if p.ndim != 1 or len(support) != p.size:
        raise InvalidSpec("probabilities and support must have matching lengths")
    if p.min() < -1e-12 or abs(p.sum() - 1.0) > 1e-9:
        raise InvalidSpec("probabilities must be a simplex point")
    if len(set(support)) != len(support):
        raise InvalidSpec("support entries must be distinct")
    V = np.asarray(spec.V, dtype=complex)
    if V.shape != (basis.d, basis.d):
        raise InvalidSpec(f"V has shape {V.shape}, basis has d={basis.d}")
    if np.abs(V @ V.conj().T - np.eye(basis.d)).max() > 1e-10:
        raise InvalidSpec("V is not unitary within 1e-10")
    diag = np.zeros(basis.size)
    for prob, occ in zip(p, support):
        if occ not in basis:
            raise InvalidSpec(f"occupation {occ} not in basis")
        diag[basis.index_of(occ)] = prob
    G = lift_unitary(V, basis)
    return (G * diag) @ G.conj().T


class Classification(Enum):
    CLASSICAL_ONLY_C = "C"
    NO_QUANTUMNESS_P = "P"
    CORRELATED_Q = "Q"
    UNDECIDED = "U-undecided"


@dataclass(frozen=True)
class ClassificationReport:
    label: Classification
    q_value: float
    slater_rank: int | None
    condensate_defect: float | None


def _condensate_defect(rho: np.ndarray, basis: FockBasis, G: np.ndarray) -> float:
    """Frobenius distance from G+ rho G, G a lifted rotation, to the nearest
    diagonal state supported on all-particles-in-one-mode labels."""
    X = G.conj().T @ rho @ G
    target = np.zeros_like(X)
    for i in range(basis.d):
        occ = (i,) * basis.n
        if occ in basis:
            k = basis.index_of(occ)
            target[k, k] = X[k, k].real
    return float(np.linalg.norm(X - target))


def _is_condensate_mixture(rho: np.ndarray, basis: FockBasis,
                           cfg: OptimizerConfig) -> tuple[bool, float]:
    """Detect rho = Gamma(V) (sum_i p_i |i,i,...,i><...|) Gamma(V)+.

    The natural-orbital basis is the candidate V; when the one-particle
    spectrum is degenerate the candidate basis is ambiguous, so a defect
    minimization over the group decides.
    """
    R = one_particle_rdm(rho, basis)
    evals, W = np.linalg.eigh(R)
    # a condensate mixture over columns of V has R = conj(V) (n diag p) V^T,
    # so the candidate frame is the conjugate of the eigenvector matrix
    cand = W.conj()
    defect = _condensate_defect(rho, basis, lift_unitary(cand, basis))
    if defect <= STRUCTURE_TOL:
        return True, defect
    gaps = np.diff(np.sort(evals))
    if gaps.size and gaps.min() > 1e-8:
        return False, defect  # non-degenerate spectrum: candidate was the only option
    d = basis.d

    def objective(theta):
        G = lift_generator(hermitian_from_parameters(theta, d), basis)
        return _condensate_defect(rho, basis, G)

    best, _, _ = _minimize_over_group(objective, d, [cand], cfg)
    return best <= STRUCTURE_TOL, min(defect, best)


def slater_rank_two_particle(psi: np.ndarray, basis: FockBasis) -> int:
    """Minimal number of elementary two-particle product terms (Slater
    determinants for fermions, permanents for bosons) in a decomposition of a
    pure two-particle state.

    Fermions: half the rank of the antisymmetric coefficient matrix.  Bosons:
    from the singular values of the symmetric coefficient matrix, where an
    exactly degenerate pair merges into a single permanent term (two equal
    condensate amplitudes in rotated modes combine into one product of two
    distinct creation operators).
    """
    if basis.n != 2:
        raise UnsupportedParticleNumber(f"slater rank implemented for n=2, got n={basis.n}")
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (basis.size,):
        raise DimensionMismatch(f"state shape {psi.shape} vs basis size {basis.size}")
    d = basis.d
    w = np.zeros((d, d), dtype=complex)
    if basis.statistics is Statistics.FERMIONIC:
        for amp, (i, j) in zip(psi, basis.states):
            w[i, j] = amp / 2
            w[j, i] = -amp / 2
        sv = np.linalg.svd(w, compute_uv=False)
        count = int((sv > 1e-10 * max(sv[0], 1e-300)).sum())
        return (count + 1) // 2
    for amp, (i, j) in zip(psi, basis.states):
        if i == j:
            w[i, i] = amp / math.sqrt(2)
        else:
            w[i, j] = amp / 2
            w[j, i] = amp / 2
    sv = np.linalg.svd(w, compute_uv=False)
    sv = sv[sv > 1e-10 * max(sv[0], 1e-300)]
    rank = 0
    i = 0
    while i < len(sv):
        if i + 1 < len(sv) and sv[i] - sv[i + 1] <= 1e-8 * sv[0]:
            i += 2  # equal pair: one permanent in merged modes
        else:
            i += 1
        rank += 1
    return rank


def classify_report(rho: np.ndarray, basis: FockBasis,
                    cfg: OptimizerConfig = OptimizerConfig()) -> ClassificationReport:
    """Place a state in the correlation hierarchy.

    C: mixture of single-mode condensates in one rotated basis, within
    STRUCTURE_TOL (bosons only; the fermionic analogue does not exist).
    P: quantumness at most Q_TOL.
    Beyond P, pure states are correlated (their two-particle structure, when
    available, is reported via the slater rank); mixed states are reported as
    undecided because separability is not tested here.
    """
    rho = np.asarray(rho, dtype=complex)
    check_density_matrix(rho, dim=basis.size)

    defect = None
    if basis.statistics is Statistics.BOSONIC:
        is_c, defect = _is_condensate_mixture(rho, basis, cfg)
        if is_c:
            return ClassificationReport(Classification.CLASSICAL_ONLY_C, 0.0, None, defect)

    report = quantumness(rho, basis, cfg)
    rank = None
    purity = float(np.trace(rho @ rho).real)
    if basis.n == 2 and purity > 1.0 - 1e-10:
        psi = np.linalg.eigh(rho)[1][:, -1]
        rank = slater_rank_two_particle(psi, basis)

    if report.q_value <= Q_TOL:
        return ClassificationReport(Classification.NO_QUANTUMNESS_P, report.q_value, rank, defect)
    if purity > 1.0 - 1e-10:
        return ClassificationReport(Classification.CORRELATED_Q, report.q_value, rank, defect)
    return ClassificationReport(Classification.UNDECIDED, report.q_value, rank, defect)


def classify(rho: np.ndarray, basis: FockBasis,
             cfg: OptimizerConfig = OptimizerConfig()) -> Classification:
    return classify_report(rho, basis, cfg).label
