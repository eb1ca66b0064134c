"""Quantumness of correlations: minimal entropy disturbance of single-particle
measurements, its geometric (relative-entropy) twin, the zero-quantumness
state family, and the correlation-hierarchy classifier.

All entropies are in nats.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, InvalidSpec, UnsupportedParticleNumber
from .fock import FockBasis, Statistics, check_density_matrix
from .lift import _hopping, haar_random_unitary, lift_observable, lift_unitary
from .measurement import MeasurementFamily, dephase

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
    return _relative_entropy(rho, sigma, shannon_entropy(check_density_matrix(rho)))


def _relative_entropy(rho: np.ndarray, sigma: np.ndarray, s_rho: float) -> float:
    """Body of `relative_entropy` for a checked rho whose entropy is s_rho."""
    mu, U = np.linalg.eigh((sigma + sigma.conj().T) / 2)
    weights = ((U.conj().T @ rho) * U.T).sum(axis=1).real
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
    p = ((G @ rho) * G.conj()).sum(axis=1).real
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
    """Multistart local search over the single-particle unitary group.

    One restart is DESCENTS_PER_RESTART (four) L-BFGS descents of at most
    `max_iterations` iterations each.  The first descent starts at the
    natural-orbital basis of the one-particle reduced density matrix (which
    lands exactly on a minimizer for the entire zero-quantumness family);
    the others start at Haar-random rotations drawn from `seed`.  Descending
    stops early once a descent reaches `tol`, since every objective searched
    is bounded below by zero.  Otherwise plane rotations around the best
    point are scanned, and the search descends again from any scanned point
    lower by more than `tol`.
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
    restart_values: tuple[float, ...]  # the final value of every descent
    oracle_value: float | None
    converged: bool
    entropy: float  # S(rho), from the spectrum the state check computed


# The local solver is L-BFGS on U(d), re-centred at every step: a step moves
# V -> exp(itX) V, so the lift moves G -> exp(it dGamma(X)) G.  Every
# objective here is unchanged by diagonal X (the torus), so X runs over the
# d^2 - d off-diagonal Hermitian generators, in coordinates x with
# X_ij = x[2k] + i x[2k+1] for the k-th pair i < j, row-major.
DESCENTS_PER_RESTART = 4
_MEMORY = 8
_GRAD_TOL = 1e-9  # a descent stops once every gradient coordinate is below this
_ARMIJO = 1e-4
_HALVINGS = 20
_ROUNDING = 1e-12  # a step predicted to gain less than this fraction of the value
_FIRST_STEP = 0.1  # largest generator entry of a descent's first trial step
_FD_STEP = 1e-5  # central differences for the objectives without a gradient
# The escape scan turns each mode plane i < j by exp(i theta X), X = z E_ij + h.c.,
# at four phases z: with only the unit coordinates (z = 1, i) a two-mode
# superposition whose relative phase sits between them stays trapped.  A
# quarter turn permutes the two modes up to phases, which leaves every
# objective unchanged, so the angles cover (0, pi/2).
_SCAN_PHASES = (1.0, (1 + 1j) / math.sqrt(2), 1j, (-1 + 1j) / math.sqrt(2))
_SCAN_ANGLES = np.pi / 16 * np.arange(1, 8)


@lru_cache(maxsize=None)
def _pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    return np.triu_indices(d, k=1)


def _generator(x: np.ndarray, d: int) -> np.ndarray:
    rows, cols = _pairs(d)
    X = np.zeros((d, d), dtype=complex)
    X[rows, cols] = x[0::2] + 1j * x[1::2]
    X[cols, rows] = X[rows, cols].conj()
    return X


def _curves(X: np.ndarray, basis: FockBasis):
    """The curves t -> (exp(itX) V, exp(it dGamma(X)) G) through points
    (V, G = Gamma(V)).  One eigendecomposition of X and one of dGamma(X)
    serve every point and every t."""
    w, u = np.linalg.eigh(X)
    W, U = np.linalg.eigh(lift_observable(X, basis))

    def through(V, G):
        uV, UG = u.conj().T @ V, U.conj().T @ G
        return lambda t: ((u * np.exp(1j * t * w)) @ uV, (U * np.exp(1j * t * W)) @ UG)

    return through


@lru_cache(maxsize=None)
def _planes(basis: FockBasis) -> tuple:
    """`_curves` of the scan generators, plane by plane and _SCAN_PHASES
    within a plane; every second one is a unit coordinate, in order."""
    m = basis.d * basis.d - basis.d
    planes = []
    for k in range(m // 2):
        for z in _SCAN_PHASES:
            x = np.zeros(m)
            x[2 * k], x[2 * k + 1] = z.real, z.imag
            planes.append(_curves(_generator(x, basis.d), basis))
    return tuple(planes)


def _central_differences(objective, basis: FockBasis):
    def gradient(V, G):
        out = np.empty(basis.d * basis.d - basis.d)
        for k, plane in enumerate(_planes(basis)[::2]):
            at = plane(V, G)
            out[k] = (objective(*at(_FD_STEP)) - objective(*at(-_FD_STEP))) / (2 * _FD_STEP)
        return out

    return gradient


def _two_loop(g: np.ndarray, steps, changes) -> np.ndarray:
    """L-BFGS inverse-Hessian estimate applied to g (two-loop recursion)."""
    q = g.copy()
    alphas = []
    for s, y in zip(reversed(steps), reversed(changes)):
        a = (s @ q) / (y @ s)
        q -= a * y
        alphas.append(a)
    if steps:
        q *= (steps[-1] @ changes[-1]) / (changes[-1] @ changes[-1])
    for s, y, a in zip(steps, changes, reversed(alphas)):
        q += (a - (y @ q) / (y @ s)) * s
    return q


def _descend(objective, gradient, basis: FockBasis, V: np.ndarray, cfg: OptimizerConfig):
    """One L-BFGS descent from V with Armijo backtracking.  Stops when every
    gradient coordinate is below _GRAD_TOL, when the value stops falling (a
    full step is predicted to gain less than _ROUNDING of the value, or no
    step lowers it even along -gradient), or after cfg.max_iterations
    iterations.
    Returns the final V and the objective there at a fresh lift."""
    G = lift_unitary(V, basis)
    value, g = objective(V, G), gradient(V, G)
    steps, changes = deque(maxlen=_MEMORY), deque(maxlen=_MEMORY)
    for _ in range(cfg.max_iterations):
        if np.abs(g).max(initial=0.0) < _GRAD_TOL:
            break
        p = -_two_loop(g, steps, changes)
        slope = g @ p
        if slope >= 0.0:
            steps.clear()
            changes.clear()
            p, slope = -g, -(g @ g)
        t = 1.0 if steps else min(1.0, _FIRST_STEP / np.abs(p).max())
        if -t * slope <= _ROUNDING * abs(value):
            break
        at = _curves(_generator(p, basis.d), basis)(V, G)
        for _ in range(_HALVINGS):
            V_t, G_t = at(t)
            trial = objective(V_t, G_t)
            if trial <= value + _ARMIJO * t * slope:
                break
            t /= 2
        else:
            if not steps:
                break
            steps.clear()  # retry along -gradient
            changes.clear()
            continue
        g_t = gradient(V_t, G_t)
        s, y = t * p, g_t - g
        if s @ y > 0.0:
            steps.append(s)
            changes.append(y)
        V, G, value, g = V_t, G_t, trial, g_t
    return V, objective(V, lift_unitary(V, basis))


def _scan(objective, basis: FockBasis, V: np.ndarray):
    """Lowest objective over the plane rotations of V at _SCAN_PHASES and
    _SCAN_ANGLES, and the rotation attaining it."""
    # The objective ignores the row phases of V, but the scan's generator
    # phases are relative to them: fix them (largest entry of each row real
    # positive) so that every point of V's torus orbit scans the same set.
    lead = V[np.arange(basis.d), np.abs(V).argmax(axis=1)]
    V = V * (lead.conj() / np.abs(lead))[:, None]
    G = lift_unitary(V, basis)
    best, arg = math.inf, V
    for plane in _planes(basis):
        at = plane(V, G)
        for theta in _SCAN_ANGLES:
            V_t, G_t = at(theta)
            value = objective(V_t, G_t)
            if value < best:
                best, arg = value, V_t
    return best, arg


def _minimize_over_group(objective, basis: FockBasis, warm_unitaries, cfg: OptimizerConfig,
                         gradient=None):
    """Shared multistart driver: returns (best value, best V, the value of
    every descent in order).

    objective(V, G) takes a d x d unitary V and its lift G = Gamma(V); it
    must be unchanged by V -> D V for diagonal unitary D, and nonnegative.
    gradient(V, G) returns its derivative coordinates along V -> exp(itX) V;
    without one, central differences along the unit generators stand in.
    Descents start at the warm unitaries, then at Haar samples from
    cfg.seed, DESCENTS_PER_RESTART * cfg.restarts in all, and stop once one
    reaches cfg.tol.  A point where some outcome probability vanishes is a
    local trap for -p log p, so the search then scans plane rotations around
    the best point and descends again from the lowest scanned point while
    it beats the best by more than cfg.tol, at most once per start.
    """
    if gradient is None:
        gradient = _central_differences(objective, basis)
    rng = np.random.default_rng(cfg.seed)
    budget = DESCENTS_PER_RESTART * cfg.restarts
    best, best_v, values = math.inf, None, []

    def descend(V0):
        nonlocal best, best_v
        V, value = _descend(objective, gradient, basis, V0, cfg)
        values.append(value)
        if value < best:
            best, best_v = value, V

    for k in range(budget):
        descend(warm_unitaries[k] if k < len(warm_unitaries)
                else haar_random_unitary(basis.d, rng))
        if best <= cfg.tol:
            break
    for _ in range(budget):
        if best <= cfg.tol:
            break
        scanned, V0 = _scan(objective, basis, best_v)
        if scanned >= best - cfg.tol:
            break
        descend(V0)
    return best, best_v, tuple(values)


def _converged(values: tuple[float, ...], best: float, tol: float) -> bool:
    if best <= tol or len(values) == 1:
        return True
    ordered = sorted(values)
    return ordered[1] - ordered[0] <= 1e-4


def _entropy_gradient(rho: np.ndarray, basis: FockBasis):
    """Derivative coordinates of H(diag G rho G+) along V -> exp(itX) V:
    dH = Re <g, X> with g_ij = Tr(E_ji (-iC)), C_ab = sigma_ab (l_b - l_a),
    sigma = G rho G+, l = log p and E the hopping tensor, returned as the
    coordinates 2 (Re g_ij, Im g_ij) of the pairs i < j.  |sigma_ab|^2 <=
    p_a p_b keeps C bounded as p -> 0, where p is clipped at 1e-300."""
    rows, cols = _pairs(basis.d)
    E = _hopping(basis.d, basis.n, basis.statistics)[cols, rows].reshape(rows.size, -1)

    def gradient(V, G):
        sigma = (G @ rho) @ G.conj().T
        log_p = np.log(np.maximum(sigma.diagonal().real, 1e-300))
        C = sigma * (log_p[None, :] - log_p[:, None])
        g = E @ (-1j * C).T.ravel()
        out = np.empty(2 * rows.size)
        out[0::2], out[1::2] = 2 * g.real, 2 * g.imag
        return out

    return gradient


def quantumness(rho: np.ndarray, basis: FockBasis, cfg: OptimizerConfig = OptimizerConfig()) -> QuantumnessReport:
    """Minimize projected_entropy(rho, V) - S(rho) over single-particle
    unitaries V.

    The minimum is the quantumness of correlations: zero exactly on states
    that are convex mixtures of lifted Fock states in a common single-particle
    basis, positive otherwise.  Values in (-1e-9, 0) are clamped to zero.  The
    `converged` flag is false when no second descent confirms the best value
    within 1e-4.
    """
    rho = np.asarray(rho, dtype=complex)
    return _quantumness(rho, basis, cfg, check_density_matrix(rho, dim=basis.size))


def _quantumness(rho: np.ndarray, basis: FockBasis, cfg: OptimizerConfig,
                 spectrum: np.ndarray) -> QuantumnessReport:
    """Body of `quantumness` for a checked rho with the given spectrum."""
    s_rho = shannon_entropy(spectrum)

    def objective(V, G):
        return _outcome_entropy(G, rho) - s_rho

    # R transforms as R -> conj(V) R V^T under rho -> Gamma(V) rho Gamma(V)+,
    # so W^T (not W+) is the rotation that lands on the natural-orbital basis
    W = np.linalg.eigh(one_particle_rdm(rho, basis))[1]
    best, V, values = _minimize_over_group(objective, basis, [W.T], cfg,
                                           gradient=_entropy_gradient(rho, basis))
    q = best
    if -1e-9 < q < 0.0:
        q = 0.0
    return QuantumnessReport(
        q_value=q,
        argmin_v=V,
        restart_values=values,
        oracle_value=None,
        converged=_converged(values, best, cfg.tol),
        entropy=s_rho,
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
    equal projected_entropy(rho, V) - S(rho) at every V.  It has no gradient
    of its own, so the search takes central differences of its values.
    """
    rho = np.asarray(rho, dtype=complex)
    s_rho = shannon_entropy(check_density_matrix(rho, dim=basis.size))

    def objective(V, G):
        # the family of V+ has the lift Gamma(V+) = G+, so no second lift
        sigma = dephase(rho, MeasurementFamily(V.conj().T, basis, G.conj().T))
        return _relative_entropy(rho, sigma, s_rho)

    W = np.linalg.eigh(one_particle_rdm(rho, basis))[1]
    best, _, _ = _minimize_over_group(objective, basis, [W.T], cfg)
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
    """Squared Frobenius distance from G rho G+, G a lifted rotation, to the
    nearest diagonal state supported on all-particles-in-one-mode labels."""
    X = G @ rho @ G.conj().T
    for i in range(basis.d):
        occ = (i,) * basis.n
        if occ in basis:
            k = basis.index_of(occ)
            X[k, k] -= X[k, k].real
    return float(np.vdot(X, X).real)


def _is_condensate_mixture(rho: np.ndarray, basis: FockBasis,
                           cfg: OptimizerConfig) -> tuple[bool, float]:
    """Detect rho = Gamma(W) (sum_i p_i |i,i,...,i><...|) Gamma(W)+; returns
    the verdict and the Frobenius defect.

    The natural-orbital basis gives the candidate V; when the one-particle
    spectrum is degenerate the candidate basis is ambiguous, so a search
    over the group minimizes the squared defect (the defect itself has a
    kink at its zero).
    """
    R = one_particle_rdm(rho, basis)
    evals, W = np.linalg.eigh(R)
    # as in quantumness, W^T rotates rho into the natural-orbital basis
    V = W.T
    defect = _condensate_defect(rho, basis, lift_unitary(V, basis))
    if defect <= STRUCTURE_TOL ** 2:
        return True, math.sqrt(defect)
    gaps = np.diff(np.sort(evals))
    if gaps.size and gaps.min() > 1e-8:
        # non-degenerate spectrum: the candidate was the only option
        return False, math.sqrt(defect)

    def objective(V, G):
        return _condensate_defect(rho, basis, G)

    best, _, _ = _minimize_over_group(objective, basis, [V], cfg)
    return best <= STRUCTURE_TOL ** 2, math.sqrt(min(defect, best))


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
    spectrum = check_density_matrix(rho, dim=basis.size)

    defect = None
    if basis.statistics is Statistics.BOSONIC:
        is_c, defect = _is_condensate_mixture(rho, basis, cfg)
        if is_c:
            return ClassificationReport(Classification.CLASSICAL_ONLY_C, 0.0, None, defect)

    report = _quantumness(rho, basis, cfg, spectrum)
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
