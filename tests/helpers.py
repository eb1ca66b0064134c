"""Shared test utilities, including an independent tensor-power construction
of the lifted unitary used as the oracle for the lift."""
import itertools
import math

import numpy as np

from qcorr import FockBasis, Statistics


def perm_parity(perm) -> int:
    perm = list(perm)
    par = 1
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            par = -par
    return par


def mult_fact(occ) -> int:
    out = 1
    for _, g in itertools.groupby(occ):
        out *= math.factorial(len(list(g)))
    return out


def symmetrized_isometry(basis: FockBasis) -> np.ndarray:
    """T: n-particle sector -> d^n product space; columns are normalized
    (anti)symmetrized tensors.  Defines the reference lift T+ V^(x)n T."""
    d, n = basis.d, basis.n
    fermionic = basis.statistics is Statistics.FERMIONIC
    T = np.zeros((d**n, basis.size), dtype=complex)
    for b, occ in enumerate(basis.states):
        vec = np.zeros(d**n, dtype=complex)
        for perm in itertools.permutations(range(n)):
            sgn = perm_parity(perm) if fermionic else 1.0
            idx = 0
            for p in perm:
                idx = idx * d + occ[p]
            vec[idx] += sgn
        norm = math.factorial(n) * (1 if fermionic else mult_fact(occ))
        T[:, b] = vec / math.sqrt(norm)
    return T


def tensor_power(V: np.ndarray, n: int) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for _ in range(n):
        out = np.kron(out, V)
    return out


def reference_lift(V: np.ndarray, basis: FockBasis) -> np.ndarray:
    """Independent construction of the lifted unitary: project V^(x)n onto the
    (anti)symmetric subspace."""
    T = symmetrized_isometry(basis)
    return T.conj().T @ tensor_power(V, basis.n) @ T


def coupling_unitary(D: int) -> np.ndarray:
    """The activation coupling U|s>|j> = |s>|j + s mod D> on the D*D joint
    space, built from its definition U = sum_s |s><s| (x) X^s with the cyclic
    shift X|j> = |j + 1 mod D>: the dense referee of the protocol."""
    ket = np.eye(D)
    X = np.roll(ket, 1, axis=0)
    return sum(np.kron(np.outer(ket[s], ket[s]), np.linalg.matrix_power(X, s))
               for s in range(D))


def two_loop(g: np.ndarray, steps, changes) -> np.ndarray:
    """L-BFGS inverse-Hessian estimate applied to g by the two-loop recursion
    (Nocedal and Wright, Numerical Optimization, Algorithm 7.4), H0 = gamma I
    with gamma from the newest pair: the reference of the compact form the
    solver uses.  steps and changes are oldest first."""
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


def random_density(D: int, rng, rank: int | None = None) -> np.ndarray:
    rank = D if rank is None else rank
    G = rng.standard_normal((D, rank)) + 1j * rng.standard_normal((D, rank))
    rho = G @ G.conj().T
    return rho / np.trace(rho).real


def random_pure(D: int, rng) -> np.ndarray:
    v = rng.standard_normal(D) + 1j * rng.standard_normal(D)
    return v / np.linalg.norm(v)


def plus_minus_rotation() -> np.ndarray:
    """The d=2 rotation sending (|0> + i|1>)/sqrt(2) -> |0> and its orthogonal
    partner -> |1>; the optimal basis of the two-boson worked example."""
    s = 1 / math.sqrt(2)
    return np.array([[s, -1j * s], [s, 1j * s]])


def two_fermion_quantumness(psi: np.ndarray, states, d: int) -> float:
    """Closed form for the quantumness of a pure two-fermion state: the
    Shannon entropy (nats) of its Slater weights, the normalized squares of
    the paired singular values of the antisymmetric coefficient matrix
    w[i, j] = -w[j, i] = psi[(i, j)] (Schliemann et al., PRA 64, 022303,
    2001).  That Q equals this number is checked against the optimizer in
    the tests, not proven in this package."""
    w = np.zeros((d, d), dtype=complex)
    for amp, (i, j) in zip(psi, states):
        w[i, j], w[j, i] = amp, -amp
    lam = np.linalg.svd(w, compute_uv=False)[::2] ** 2
    lam = lam[lam > 1e-300] / lam.sum()
    return float(-(lam * np.log(lam)).sum())


def count_eigvalsh(monkeypatch) -> list:
    """Record the shape of every np.linalg.eigvalsh call from now on."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls
