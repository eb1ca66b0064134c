"""Quantumness of correlations: minimal entropy disturbance of single-particle
measurements, its geometric (relative-entropy) twin, the zero-quantumness
state family, and the correlation-hierarchy classifier.

All entropies are in nats.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .errors import DimensionMismatch, InvalidSpec, UnsupportedParticleNumber
from .fock import FockBasis, Statistics, check_density_matrix
from .lift import _STACK_BYTES, _haar_stack, _lift, _one_body, lift_unitary
from .measurement import MeasurementFamily, _born_probabilities, dephase

_EIG_CUT = 1e-12
# classify_report: Q at or below Q_TOL is class P; a condensate-mixture
# defect at or below STRUCTURE_TOL is class C
Q_TOL = 1e-6
STRUCTURE_TOL = 1e-8


def shannon_entropy(p: np.ndarray) -> float:
    """Shannon entropy in nats, never below +0.0; entries at or below 1e-12 contribute zero."""
    p = np.asarray(p, dtype=float)
    p = p[p > _EIG_CUT]
    return max(0.0, float(-(p * np.log(p)).sum()))


def von_neumann_entropy(rho: np.ndarray) -> float:
    """-Tr(rho ln rho) of a density matrix (checked by check_density_matrix);
    eigenvalues below 1e-12 contribute zero."""
    return shannon_entropy(check_density_matrix(rho))


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """S(rho || sigma) = Tr(rho ln rho) - Tr(rho ln sigma), +inf when the
    support of rho leaks outside the support of sigma.  rho and sigma must
    be density matrices (InvalidState otherwise)."""
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape != sigma.shape:
        raise DimensionMismatch(f"shapes {rho.shape} vs {sigma.shape}")
    s_rho = shannon_entropy(check_density_matrix(rho))
    check_density_matrix(sigma)
    return float(_relative_entropy(rho, sigma, s_rho))


def _relative_entropy(rho: np.ndarray, sigma: np.ndarray, s_rho: float) -> np.ndarray:
    """`relative_entropy` of a checked rho of entropy s_rho; sigma may be a stack."""
    mu, U = np.linalg.eigh((sigma + sigma.conj().swapaxes(-1, -2)) / 2)
    weights = ((U.conj().swapaxes(-1, -2) @ rho) * U.swapaxes(-1, -2)).sum(axis=-1).real
    kernel = mu <= _EIG_CUT
    cross = -(np.where(kernel, 0.0, weights) * np.log(np.where(kernel, 1.0, mu))).sum(axis=-1)
    value = np.where((-1e-12 < cross - s_rho) & (cross < s_rho), 0.0, cross - s_rho)
    return np.where(np.where(kernel, weights, 0.0).sum(axis=-1) > 1e-10, math.inf, value)


def _outcome_entropy(G: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """`shannon_entropy` of diag(G rho G+) for a lifted rotation G or a stack of them."""
    p = _born_probabilities(G, rho)
    p = np.where(p > _EIG_CUT, p, 1.0)  # a cut entry adds 1 log 1 = 0, with no log of 0
    return np.maximum(-(p * np.log(p)).sum(axis=-1), 0.0)


def projected_entropy(rho: np.ndarray, V: np.ndarray, basis: FockBasis) -> float:
    """Entropy of the outcome distribution of the single-particle measurement
    whose lifted rotation is Gamma(V): the Shannon entropy of
    diag(Gamma(V) rho Gamma(V)+)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (basis.size, basis.size):
        raise DimensionMismatch(f"state shape {rho.shape} vs basis size {basis.size}")
    return float(_outcome_entropy(lift_unitary(V, basis), rho))


def one_particle_rdm(rho: np.ndarray, basis: FockBasis) -> np.ndarray:
    """d x d matrix R_ij = Tr(rho a+_i a_j), gathered by the sector's one-body table."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (basis.size, basis.size):
        raise DimensionMismatch(f"state shape {rho.shape} vs basis size {basis.size}")
    P, w = _one_body(basis.d, basis.n, basis.statistics)
    R = (np.take(rho, P) * w).sum(axis=-1)
    return (R + R.conj().T) / 2


def _natural_orbitals(rho: np.ndarray, basis: FockBasis) -> tuple[np.ndarray, np.ndarray]:
    """Ascending occupations of the natural orbitals (the eigenvalues of the
    one-particle reduced density matrix R) and the rotation onto them.

    R transforms as R -> conj(V) R V^T under rho -> Gamma(V) rho Gamma(V)+, so
    for eigenvectors W of R it is W^T (not W+) that lands on the
    natural-orbital basis.
    """
    occupations, W = np.linalg.eigh(one_particle_rdm(rho, basis))
    return occupations, W.T


def _whole(count, least: int) -> bool:
    """An integer (Python or numpy) count of at least `least`."""
    return isinstance(count, numbers.Integral) and count >= least


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
        # written so that a NaN fails it, since every comparison with NaN is False
        if not (_whole(self.restarts, 1) and _whole(self.max_iterations, 1) and _whole(self.seed, 0)
                and 0 < self.tol < math.inf):
            raise InvalidSpec("need integers restarts, max_iterations >= 1 and seed >= 0, and 0 < tol < inf")


@dataclass(frozen=True)
class QuantumnessReport:
    q_value: float
    argmin_v: np.ndarray = field(repr=False)
    restart_values: tuple[float, ...]  # the final value of every descent
    converged: bool
    entropy: float  # S(rho), from the spectrum the state check computed


# The local solver is L-BFGS on U(d), re-centred at every step: a step moves
# V -> exp(itX) V, and the lift G = Gamma(V) follows by the recursion.  Every
# objective here is unchanged by diagonal X (the torus), so X runs over the
# d^2 - d off-diagonal Hermitian generators, in coordinates x with
# X_ij = x[2k] + i x[2k+1] for the k-th pair i < j, row-major.
DESCENTS_PER_RESTART = 4
_WIDTH = 8  # descents in lockstep at most: a start joins as one leaves
_MEMORY = 8
_GRAD_TOL = 1e-9  # a descent stops once every gradient coordinate is below this
_ARMIJO = 1e-4
_HALVINGS = 20
_ROUNDING = 1e-12  # a step predicted to gain less than this fraction of the value
_FIRST_STEP = 0.1  # largest generator entry of a descent's first trial step
# The escape scan turns each mode plane i < j by exp(i theta X), X = z E_ij + h.c.,
# at four phases z: with only the unit coordinates (z = 1, i) a two-mode
# superposition whose relative phase sits between them stays trapped.  A
# quarter turn permutes the two modes up to phases, which leaves every
# objective unchanged, so the angles cover (0, pi/2).
_SCAN_PHASES = (1.0, (1 + 1j) / math.sqrt(2), 1j, (-1 + 1j) / math.sqrt(2))
_SCAN_ANGLES = np.pi / 16 * np.arange(1, 8)
_UPPER = np.triu(np.ones((_MEMORY, _MEMORY)))
_PADS = np.array([np.diag(np.arange(_MEMORY) < _MEMORY - c) for c in range(_MEMORY + 1)], float)


@lru_cache(maxsize=None)
def _pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    return np.triu_indices(d, k=1)


@lru_cache(maxsize=None)
def _units(d: int) -> np.ndarray:
    """Row k: the generator of unit coordinate k, flattened, so that the rows of
    x @ _units(d) are the generators of coordinates x."""
    rows, cols = _pairs(d)
    X, k = np.zeros((rows.size, 2, d, d), dtype=complex), np.arange(rows.size)
    X[k, :, rows, cols], X[k, :, cols, rows] = (1.0, 1j), (1.0, -1j)
    return X.reshape(2 * rows.size, d * d)


def _stack_chunk(basis: FockBasis) -> int:
    """Stack entries of complex max(d, D)^2 matrices within _STACK_BYTES."""
    return max(1, _STACK_BYTES // (16 * max(basis.d, basis.size) ** 2))


@lru_cache(maxsize=None)
def _planes(basis: FockBasis) -> tuple[np.ndarray, ...]:
    """Read-only stacked eigendecompositions X = u diag(w) u+ of the scan
    generators, by plane then phase, and their lifts dGamma(X) = U diag(W) U+:
    U = Gamma(u) by `_lift`, and W, the diagonal of dGamma(diag w), sums w over
    the particles of each occupation."""
    m = basis.d * basis.d - basis.d
    x, k = np.zeros((m // 2, len(_SCAN_PHASES), m)), np.arange(m // 2)
    x[k, :, 2 * k], x[k, :, 2 * k + 1] = np.real(_SCAN_PHASES), np.imag(_SCAN_PHASES)
    w, u = np.linalg.eigh((x.reshape(-1, m) @ _units(basis.d)).reshape(-1, basis.d, basis.d))
    occupied = np.array(basis.states, dtype=np.intp).reshape(basis.size, basis.n)
    out = w, u, np.take(w, occupied, axis=1).sum(axis=-1), _lift(u, basis)
    for a in out:
        a.flags.writeable = False
    return out


def _direction(g: np.ndarray, mem: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The L-BFGS inverse-Hessian estimate (H0 = gamma I) times each row of g (k, n),
    in the compact form of Byrd, Nocedal and Schnabel (Math. Program. 63, 129
    (1994)): Hg = gamma (g - Y z) + S R^-T ((D + gamma Y^T Y) z - gamma Y^T g),
    z = R^-1 S^T g, R = triu(S^T Y).  mem (k, _MEMORY, 2, n) holds a row's `count`
    (step, gradient change) pairs, oldest first, after zero slots (unit R diagonal)."""
    if not count.any():  # H = 1, as the full form gives too
        return g
    pairs = mem.reshape(len(g), 2 * _MEMORY, -1)
    gram, proj = pairs @ pairs.swapaxes(1, 2), pairs @ g[:, :, None]
    SY, YY = gram[:, 0::2, 1::2], gram[:, 1::2, 1::2]
    pad = _PADS[count]  # a row with no pairs gets R = 1 and gamma = 1
    R = SY * _UPPER + pad
    gamma = R[:, -1:, -1:] / (YY[:, -1:, -1:] + pad[:, -1:, -1:])
    R_inv = np.linalg.inv(R)
    z = R_inv @ proj[:, 0::2]
    inner = np.diagonal(SY, axis1=1, axis2=2)[:, :, None] * z + gamma * (YY @ z - proj[:, 1::2])
    coef = np.concatenate((R_inv.swapaxes(1, 2) @ inner, -gamma * z), axis=2)
    return gamma[:, 0] * g + (pairs.swapaxes(1, 2) @ coef.reshape(len(g), -1, 1))[:, :, 0]


def _descend(objective, gradient, basis: FockBasis, V: np.ndarray, cfg: OptimizerConfig,
             width: int = _WIDTH):
    """L-BFGS descents with Armijo backtracking from starts V (m, d, d), in lockstep
    rounds of at most `width`.  The objective and gradient see only the lifts G.
    A round takes one d x d `eigh` of each direction X = u diag(w) u+; every
    trial point of its line, V_t = u exp(itw) u+ V for the full step and each
    halving, is lifted to G_t = Gamma(V_t) by `_lift`, and an accepted row takes
    its (V_t, G_t), so G is Gamma(V) at every point.  A descent stops when every
    gradient coordinate is below _GRAD_TOL, when its value stops falling (a full
    step would gain less than _ROUNDING of it, or _HALVINGS halvings fail even
    along -gradient), or after cfg.max_iterations iterations.  Halvings run in
    batches of 3, 12 and 4 steps, and each descent takes its first accepted one.
    Values only fall, so one at or below cfg.tol drops every later start.
    Returns the final V and values of the starts up to that one (all if none)."""
    m, n = len(V), basis.d * basis.d - basis.d
    out_V, out, closer, joined, live = V.copy(), np.zeros(m), m, 0, None

    def join():  # the next starts join the running descents, a row each, up to `width` rows
        nonlocal live, joined
        k = np.arange(joined, min(joined + width - (live.order.size if live else 0), closer + 1, m))
        G = lift_unitary(V[k], basis)
        rows = dict(order=k, V=V[k], G=G, value=objective(G), g=gradient(G),
                    mem=np.zeros((k.size, _MEMORY, 2, n)), count=np.zeros(k.size, int),
                    iters=np.zeros(k.size, int))
        if live:
            rows = {key: np.concatenate((a, rows[key])) for key, a in vars(live).items()}
        live, joined = SimpleNamespace(**rows), k[-1] + 1

    def leave(mask):
        k = live.order[mask]
        out_V[k], out[k] = live.V[mask], live.value[mask]
        vars(live).update({key: a[~mask] for key, a in vars(live).items()})

    join()
    while live.order.size:
        g = live.g
        p = -_direction(g, live.mem, live.count)
        slope = (g * p).sum(axis=1)
        uphill = slope >= 0.0
        if uphill.any():  # forget the memory and go along -gradient
            live.mem[uphill], live.count[uphill] = 0.0, 0
            p[uphill], slope[uphill] = -g[uphill], -(g[uphill] ** 2).sum(axis=1)
        t = np.where(live.count > 0, 1.0, _FIRST_STEP / np.maximum(np.abs(p).max(axis=1), _FIRST_STEP))
        # a descent at or below tol ends there: drop the later ones
        closer = live.order[live.value <= cfg.tol].min(initial=closer)
        done = ((live.order > closer) | (live.iters >= cfg.max_iterations)
                | (np.abs(g).max(axis=1, initial=0.0) < _GRAD_TOL)
                | (-t * slope <= _ROUNDING * np.abs(live.value)))
        if done.any():
            leave(done)
            p, t, slope = p[~done], t[~done], slope[~done]
        if live.order.size:
            live.iters += 1
            w, u = np.linalg.eigh((p @ _units(basis.d)).reshape(-1, basis.d, basis.d))
            uV = u.conj().swapaxes(1, 2) @ live.V
            V_t = (u * np.exp(1j * t[:, None] * w)[:, None, :]) @ uV
            G_t = _lift(V_t, basis)
            trial = objective(G_t)
            ok, tried = trial <= live.value + _ARMIJO * t * slope, 1
            while tried < _HALVINGS and not ok.all():  # the halvings j of the rows k not yet accepted
                k = np.flatnonzero(~ok) if ok.any() else slice(None)
                j = np.arange(tried, min(4 * tried, _HALVINGS))
                steps = t[k, None] / 2.0 ** j
                V_j = (u[k, None] * np.exp(1j * steps[..., None] * w[k, None])[..., None, :]) @ uV[k, None]
                G_j = _lift(V_j, basis)
                f = objective(G_j)
                hit = f <= live.value[k, None] + _ARMIJO * steps * slope[k, None]
                i = np.flatnonzero(hit.any(axis=1))  # the rows k[i] that accept a halving, at their first
                r, c = np.arange(len(t))[k][i], hit[i].argmax(axis=1)
                V_t[r], G_t[r], trial[r], t[r], ok[r] = V_j[i, c], G_j[i, c], f[i, c], steps[i, c], True
                tried = j[-1] + 1
            if ok.any():
                a = slice(None) if ok.all() else np.flatnonzero(ok)  # a slice gives views
                g_t = gradient(G_t[a])
                s, y = t[a, None] * p[a], g_t - live.g[a]
                live.V[a], live.G[a], live.value[a], live.g[a] = V_t[a], G_t[a], trial[a], g_t
                keep = (s * y).sum(axis=1) > 0.0
                if not keep.all():  # a row stores its pair only when s.y > 0
                    a, s, y = np.flatnonzero(ok)[keep], s[keep], y[keep]
                live.mem[a, :-1], live.mem[a, -1, 0], live.mem[a, -1, 1] = live.mem[a, 1:], s, y
                live.count[a] = np.minimum(live.count[a] + 1, _MEMORY)
            if not ok.all():  # no step lowered the value: retry along -gradient, or stop
                stuck = ~ok & (live.count == 0)
                live.mem[~ok], live.count[~ok] = 0.0, 0
                leave(stuck)
        if live.order.size < width and joined <= min(closer, m - 1):
            join()
    return out_V[:closer + 1], out[:closer + 1]


def _scan(objective, basis: FockBasis, V: np.ndarray):
    """Lowest objective over the plane rotations of V at _SCAN_PHASES and
    _SCAN_ANGLES, evaluated a chunk of points at a time, and its rotation.
    Point (X, theta) is Gamma(exp(i theta X) V) = (U e^{i theta W} U+) Gamma(V)
    from the `_planes` table, so the scan lifts only V."""
    # The objective ignores the row phases of V, but the scan's generator
    # phases are relative to them: fix them (largest entry of each row real
    # positive) so that every point of V's torus orbit scans the same set.
    lead = V[np.arange(basis.d), np.abs(V).argmax(axis=1)]
    V = V * (lead.conj() / np.abs(lead))[:, None]
    w, u, W, U = _planes(basis)
    UG = U.conj().swapaxes(1, 2) @ lift_unitary(V, basis)
    plane, angle = np.divmod(np.arange(len(u) * _SCAN_ANGLES.size), _SCAN_ANGLES.size)
    best, arg, step = math.inf, 0, _stack_chunk(basis)
    for i in range(0, plane.size, step):
        k, turn = plane[i:i + step], 1j * _SCAN_ANGLES[angle[i:i + step], None]
        values = objective((U[k] * np.exp(turn * W[k])[:, None, :]) @ UG[k])
        j = np.argmin(values)
        if values[j] < best:
            best, arg = values[j], i + j
    k, turn = plane[arg], 1j * _SCAN_ANGLES[angle[arg]]
    return best, (u[k] * np.exp(turn * w[k])[None, :]) @ (u[k].conj().T @ V)


def _minimize_over_group(objective, basis: FockBasis, start: np.ndarray, cfg: OptimizerConfig,
                         gradient):
    """Shared multistart driver: returns (best value, best V, the value of
    every descent in order); a best value in (-1e-9, 0] is reported as +0.0.

    objective(G) takes lifts G = Gamma(V), or a stack of them (..., D, D),
    and must be nonnegative; it sees V only through G, so it is unchanged by
    V -> D V for diagonal unitary D.  gradient(G) returns its coordinates
    (..., d^2 - d) along V -> exp(itX) V.
    The starts, `start` then DESCENTS_PER_RESTART * cfg.restarts - 1 Haar
    samples from cfg.seed, descend in one lockstep as wide as _STACK_BYTES
    allows, until one reaches cfg.tol.  Each descent ends where it ends alone,
    so the values are those of a search one start at a time: a `start` that
    reaches cfg.tol is the one descent reported.  A point where some outcome
    probability vanishes is a local trap for -p log p, so the search then scans
    plane rotations around the best point and descends again from the lowest
    scanned point while it beats the best by more than cfg.tol, at most once
    per start.
    """
    budget = DESCENTS_PER_RESTART * cfg.restarts
    if basis.d == 1:  # every V is a phase: no direction to descend along or scan
        V, values, budget = start[None], objective(lift_unitary(start, basis)[None]), 0
    else:
        starts = np.concatenate((start[None], _haar_stack(basis.d, np.random.default_rng(cfg.seed), budget - 1)))
        V, values = _descend(objective, gradient, basis, starts, cfg, min(_WIDTH, _stack_chunk(basis)))
    values = [float(v) for v in values]
    k = int(np.argmin(values))  # the first of equal values
    best, best_v = values[k], V[k]
    for _ in range(budget):
        if best <= cfg.tol:
            break
        scanned, V0 = _scan(objective, basis, best_v)
        if scanned >= best - cfg.tol:
            break
        V1, value = _descend(objective, gradient, basis, V0[None], cfg)
        values.append(float(value[0]))
        if values[-1] < best:
            best, best_v = values[-1], V1[0]
    return _positive_zero(best), best_v, tuple(values)


def _positive_zero(value: float) -> float:
    """A minimum in (-1e-9, 0], which only rounding puts below zero, as +0.0."""
    return 0.0 if -1e-9 < value <= 0.0 else value


def _converged(values: tuple[float, ...], best: float, tol: float) -> bool:
    if best <= tol or len(values) == 1:
        return True
    ordered = sorted(values)
    return ordered[1] - ordered[0] <= 1e-4


# Every objective reaches V through tau = G rho G+, and along V -> exp(itX) V its
# derivative is Tr(dGamma(X) (-iC)) for a D x D matrix C of its own;
# dGamma(X) = sum_ij X_ij a+_i a_j gives coordinate (2k, 2k + 1) of the k-th pair
# i < j as 2 (Re, Im) Tr(a+_j a_i (-iC)).
def _pair_table(basis: FockBasis) -> tuple[np.ndarray, np.ndarray]:
    """The sector's one-body table at (j, i) for the pairs i < j, in coordinate
    order, its weights times -2i."""
    rows, cols = _pairs(basis.d)
    P, w = _one_body(basis.d, basis.n, basis.statistics)
    return P[cols, rows], -2j * w[cols, rows]


def _coordinates(C: np.ndarray, table: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The gradient coordinates (..., d^2 - d) of the matrices C (..., D, D),
    `table` the sector's `_pair_table`."""
    P, w = table
    # a row's terms lie along its own last axis, so it sums them in one order in any stack
    terms = C.reshape(C.shape[:-2] + (-1,)).take(P, axis=-1) * w
    return terms.sum(axis=-1).view(float)


def _entropy_gradient(rho: np.ndarray, basis: FockBasis):
    """Gradient of H(diag G rho G+): C_ab = tau_ab (l_b - l_a), l = log p and
    p = diag tau clipped at 1e-300, where |tau_ab|^2 <= p_a p_b keeps C bounded."""
    table = _pair_table(basis)

    def gradient(G):
        tau = (G @ rho) @ G.conj().swapaxes(-1, -2)
        log_p = np.log(np.maximum(np.diagonal(tau, axis1=-2, axis2=-1).real, 1e-300))
        return _coordinates(tau * (log_p[..., None, :] - log_p[..., :, None]), table)

    return gradient


def _geometric_gradient(rho: np.ndarray, basis: FockBasis):
    """Gradient of S(rho || Delta), Delta = dephase(rho, MeasurementFamily(G)):
    C = [Y, diag p] + [tau, diag Y], p = diag tau and Y = G Dlog_Delta[rho] G+.
    The derivative of the logarithm is taken by Daleckii-Krein in the eigenbasis
    of Delta (Higham, Functions of Matrices, SIAM 2008, ch. 3), whose eigenvalues
    at or below _EIG_CUT get a divided difference of 0, as `_relative_entropy`
    gives them zero weight.  No Shannon entropy of p is formed."""
    table = _pair_table(basis)

    def gradient(G):
        Gh = G.conj().swapaxes(-1, -2)
        tau = (G @ rho) @ Gh
        p = np.diagonal(tau, axis1=-2, axis2=-1).real
        sigma = dephase(rho, MeasurementFamily(G))
        mu, U = np.linalg.eigh((sigma + sigma.conj().swapaxes(-1, -2)) / 2)
        live = mu > _EIG_CUT
        mu = np.where(live, mu, 1.0)
        # (log mu_a - log mu_b) / (mu_a - mu_b) = log1p(x) / (x mu_b), x = mu_a / mu_b - 1
        x = (mu[..., :, None] - mu[..., None, :]) / mu[..., None, :]
        ratio = np.where(x == 0.0, 1.0, np.log1p(x) / np.where(x == 0.0, 1.0, x))
        L = np.where(live[..., :, None] & live[..., None, :], ratio / mu[..., None, :], 0.0)
        del sigma, x, ratio  # the products below are the peak: hold no D x D array they do not read
        Uh = U.conj().swapaxes(-1, -2)
        Y = (G @ U) @ (L * (Uh @ rho @ U)) @ (Uh @ Gh)
        y = np.diagonal(Y, axis1=-2, axis2=-1).real
        C = Y * (p[..., None, :] - p[..., :, None]) + tau * (y[..., None, :] - y[..., :, None])
        return _coordinates(C, table)

    return gradient


def quantumness(rho: np.ndarray, basis: FockBasis, cfg: OptimizerConfig = OptimizerConfig()) -> QuantumnessReport:
    """Minimize projected_entropy(rho, V) - S(rho) over single-particle
    unitaries V.

    The minimum is the quantumness of correlations: zero exactly on states
    that are convex mixtures of lifted Fock states in a common single-particle
    basis, positive otherwise.  Values in (-1e-9, 0] are reported as +0.0.  The
    `converged` flag is false when no second descent confirms the best value
    within 1e-4.
    """
    rho = np.asarray(rho, dtype=complex)
    return _quantumness(rho, basis, cfg, check_density_matrix(rho, dim=basis.size))


def _quantumness(rho: np.ndarray, basis: FockBasis, cfg: OptimizerConfig,
                 spectrum: np.ndarray) -> QuantumnessReport:
    """Body of `quantumness` for a checked rho with the given spectrum."""
    s_rho = shannon_entropy(spectrum)

    def objective(G):
        return _outcome_entropy(G, rho) - s_rho

    best, V, values = _minimize_over_group(objective, basis, _natural_orbitals(rho, basis)[1],
                                           cfg, gradient=_entropy_gradient(rho, basis))
    return QuantumnessReport(
        q_value=best,
        argmin_v=V,
        restart_values=values,
        converged=_converged(values, best, cfg.tol),
        entropy=s_rho,
    )


def quantumness_oracle(rho: np.ndarray, basis: FockBasis, samples: int, seed) -> float:
    """Best projected_entropy(rho, V) - S(rho) over `samples` Haar-random V.

    A stochastic upper bound on the true quantumness, deterministic per seed;
    converges from above as the sample count grows (slowly — the search space
    has d^2 - d transverse dimensions).  Values in (-1e-9, 0] are reported as
    +0.0, as `quantumness` reports them.  The V are those of `samples`
    successive haar_random_unitary(d, seed) calls, in the same order, but
    drawn and lifted a chunk at a time as stacks: each stacked array holds at
    most _STACK_BYTES, whatever the sample count.
    """
    if not _whole(samples, 1):
        raise InvalidSpec(f"need a whole number of samples, at least one, got {samples!r}")
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise InvalidSpec(f"seed must be nonnegative, got {seed}")
    rho = np.asarray(rho, dtype=complex)
    s_rho = shannon_entropy(check_density_matrix(rho, dim=basis.size))
    rng = np.random.default_rng(seed)
    chunk = _stack_chunk(basis)
    best = math.inf
    for start in range(0, samples, chunk):
        V = _haar_stack(basis.d, rng, min(chunk, samples - start))
        best = min(best, _outcome_entropy(lift_unitary(V, basis), rho).min())
    return _positive_zero(float(best - s_rho))


def geometric_quantumness(rho: np.ndarray, basis: FockBasis, cfg: OptimizerConfig = OptimizerConfig()) -> float:
    """Minimal relative entropy between rho and its dephased image, minimized
    over measurement families.

    Independent route to the same number as `quantumness`: the objective here
    is S(rho || Delta_V(rho)) computed through eigendecompositions, where
    Delta_V is `dephase` by the family of V, which pinches in the basis
    Gamma(V)+|k> that projected_entropy measures in; the pinching identity
    makes it equal projected_entropy(rho, V) - S(rho) at every V.  Its gradient
    goes through the derivative of the matrix logarithm at Delta_V(rho), never
    through the outcome entropy.
    """
    rho = np.asarray(rho, dtype=complex)
    s_rho = shannon_entropy(check_density_matrix(rho, dim=basis.size))

    def objective(G):
        return _relative_entropy(rho, dephase(rho, MeasurementFamily(G)), s_rho)

    return _minimize_over_group(objective, basis, _natural_orbitals(rho, basis)[1], cfg,
                                _geometric_gradient(rho, basis))[0]


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
    if p.ndim != 1 or p.size == 0 or len(support) != p.size:
        raise InvalidSpec("probabilities and support must have matching lengths")
    if p.min() < -1e-12 or abs(p.sum() - 1.0) > 1e-9:
        raise InvalidSpec("probabilities must be a simplex point")
    if len(set(support)) != len(support):
        raise InvalidSpec("support entries must be distinct")
    V = np.asarray(spec.V, dtype=complex)
    if V.shape != (basis.d, basis.d):
        raise InvalidSpec(f"V has shape {V.shape}, basis has d={basis.d}")
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


def _condensate_defect(rho: np.ndarray, basis: FockBasis, G: np.ndarray) -> np.ndarray:
    """Squared Frobenius distance from G rho G+, G a lifted rotation or a stack
    of them, to the nearest diagonal state on all-particles-in-one-mode labels."""
    X = G @ rho @ G.conj().swapaxes(-1, -2)
    k = _condensate_labels(basis)
    X[..., k, k] -= X[..., k, k].real
    return (X.view(float) ** 2).sum(axis=(-2, -1))


def _condensate_labels(basis: FockBasis) -> list[int]:
    return [basis.index_of((i,) * basis.n) for i in range(basis.d) if (i,) * basis.n in basis]


def _condensate_gradient(rho: np.ndarray, basis: FockBasis):
    """Gradient of `_condensate_defect`: C_ab = 2 tau_ab (r_b - r_a), r the
    diagonal of tau = G rho G+ on the condensate labels and 0 elsewhere."""
    k, table = _condensate_labels(basis), _pair_table(basis)

    def gradient(G):
        tau = (G @ rho) @ G.conj().swapaxes(-1, -2)
        r = np.zeros(tau.shape[:-1])
        r[..., k] = np.diagonal(tau, axis1=-2, axis2=-1)[..., k].real
        return _coordinates(2 * tau * (r[..., None, :] - r[..., :, None]), table)

    return gradient


def _is_condensate_mixture(rho: np.ndarray, basis: FockBasis,
                           cfg: OptimizerConfig) -> tuple[bool, float]:
    """Detect rho = Gamma(W) (sum_i p_i |i,i,...,i><...|) Gamma(W)+; returns
    the verdict and the Frobenius defect.

    The natural-orbital basis gives the candidate V; when the one-particle
    spectrum is degenerate the candidate basis is ambiguous, so a search
    over the group minimizes the squared defect (the defect itself has a
    kink at its zero).
    """
    evals, V = _natural_orbitals(rho, basis)
    defect = _condensate_defect(rho, basis, lift_unitary(V, basis))
    if defect <= STRUCTURE_TOL ** 2:
        return True, math.sqrt(defect)
    gaps = np.diff(np.sort(evals))
    if gaps.size and gaps.min() > 1e-8:
        # non-degenerate spectrum: the candidate was the only option
        return False, math.sqrt(defect)

    def objective(G):
        return _condensate_defect(rho, basis, G)

    best, _, _ = _minimize_over_group(objective, basis, V, cfg, _condensate_gradient(rho, basis))
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
    pure = (spectrum ** 2).sum() > 1.0 - 1e-10  # purity Tr(rho^2)
    if basis.n == 2 and pure:
        psi = np.linalg.eigh(rho)[1][:, -1]
        rank = slater_rank_two_particle(psi, basis)

    if report.q_value <= Q_TOL:
        return ClassificationReport(Classification.NO_QUANTUMNESS_P, report.q_value, rank, defect)
    if pure:
        return ClassificationReport(Classification.CORRELATED_Q, report.q_value, rank, defect)
    return ClassificationReport(Classification.UNDECIDED, report.q_value, rank, defect)


def classify(rho: np.ndarray, basis: FockBasis,
             cfg: OptimizerConfig = OptimizerConfig()) -> Classification:
    return classify_report(rho, basis, cfg).label
