"""Shared test utilities, including an independent tensor-power construction
of the lifted unitary used as the oracle for the lift, and the dense hopping
tensor used as the oracle for one-body reductions."""
import itertools
import math
import warnings

import numpy as np

from qcorr import (FockBasis, InvalidDimension, StateFileError, Statistics,
                   check_density_matrix, creation_matrix, enumerate_basis)
from qcorr.statefile import ParsedState


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


def hopping_tensor(basis: FockBasis) -> np.ndarray:
    """Dense E[i, j] = a+_i a_j on the sector, shape (d, d, D, D), from the
    creation matrices."""
    d, n = basis.d, basis.n
    if n == 0:
        return np.zeros((d, d, 1, 1), dtype=complex)
    lower = enumerate_basis(d, n - 1, basis.statistics)
    create = np.array([creation_matrix(i, lower, basis) for i in range(d)])
    return np.einsum("iak,jbk->ijab", create, create).astype(complex)


def lift_observable(M: np.ndarray, basis: FockBasis) -> np.ndarray:
    """dGamma(M) = sum_ij M_ij a+_i a_j on the sector, for M or a stack
    (..., d, d) of them, giving (..., D, D): the hopping-tensor referee of the
    lift, whose generators it exponentiates, and of the gradient."""
    M = np.asarray(M, dtype=complex)
    E = hopping_tensor(basis)
    lead, d = M.shape[:-2], basis.d
    return (M.reshape(*lead, d * d) @ E.reshape(d * d, -1)).reshape(*lead, *E.shape[2:])


def reference_rdm(rho: np.ndarray, basis: FockBasis) -> np.ndarray:
    """R_ij = Tr(rho E_ij) by the dense hopping tensor, Hermitian part."""
    R = np.einsum("ijab,ba->ij", hopping_tensor(basis), rho)
    return (R + R.conj().T) / 2


def reference_coordinates(C: np.ndarray, basis: FockBasis) -> np.ndarray:
    """2 (Re, Im) Tr(E_ji (-iC)) for each pair i < j, row-major, of C (..., D, D)."""
    rows, cols = np.triu_indices(basis.d, k=1)
    E = hopping_tensor(basis)[cols, rows]
    z = np.einsum("kab,...ba->...k", E, -2j * C)
    return np.stack((z.real, z.imag), axis=-1).reshape(*z.shape[:-1], -1)


def equal_quantumness_forms(rho: np.ndarray, basis: FockBasis, rotations) -> list:
    """rho as given, its complex conjugate, and its image under the reference
    lift of each of `rotations`: states of one quantumness, since Q is a
    minimum over the whole single-particle group and the lift of conj(V) is
    the conjugate of the lift of V."""
    forms = [rho, rho.conj()]
    for W in rotations:
        G = reference_lift(W, basis)
        forms.append(G @ rho @ G.conj().T)
    return forms


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


def hole_image(psi: np.ndarray, states, d: int):
    """Particle-hole image of a fermionic state with amplitudes psi on the
    occupations `states` (tuples of increasing modes): |S> -> sign |S^c>, S^c
    the modes S leaves empty and sign the parity of the permutation that lists
    S and then S^c.  It intertwines the lift of V with det(V) times the lift of
    conj(V), so a state and its image have one quantumness.  Returns the
    image's amplitudes and occupations, in the order of `states`."""
    holes = [tuple(m for m in range(d) if m not in S) for S in states]
    signs = [perm_parity(S + H) for S, H in zip(states, holes)]
    return np.asarray(psi) * signs, holes


def count_calls(monkeypatch, owner, name: str) -> list:
    """Record the shape of the first argument of every `owner.name` call from
    now on."""
    calls = []
    original = getattr(owner, name)

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def count_eigvalsh(monkeypatch) -> list:
    """Record the shape of every np.linalg.eigvalsh call from now on."""
    return count_calls(monkeypatch, np.linalg, "eigvalsh")


def coleman_defect(rho: np.ndarray, basis: FockBasis) -> float:
    """n - Tr R^2 for the one-particle density matrix R_ij = Tr(rho a+_i a_j)
    of a fermion state, taken in first quantization: R = n Tr_{2..n}(T rho T+)
    with T the symmetrized isometry.  Tr R^2 <= n, with equality exactly when
    R is a projector, which for a pure state means a single Slater
    determinant (Coleman, Rev. Mod. Phys. 35, 668 (1963))."""
    d, n = basis.d, basis.n
    T = symmetrized_isometry(basis).reshape(d, d ** (n - 1), basis.size)
    R = n * np.einsum("iab,bc,jac->ij", T, rho, T.conj())
    return float(n - np.vdot(R, R).real)


def _reference_error(message: str, lineno: int, code: str, k: int) -> StateFileError:
    """StateFileError at the k-th token of a line's code."""
    cols, i = [], 0
    for tok in code.split():
        i = code.index(tok, i)
        cols.append(i + 1)
        i += len(tok)
    return StateFileError(message, lineno, cols[k])


def _reference_occupation(token: str, labels: dict, basis: FockBasis,
                          lineno: int, code: str, k: int) -> int:
    if token in labels:
        return labels[token]
    try:
        occ = tuple(int(p) for p in token.split(","))
    except ValueError:
        raise _reference_error(f"occupation {token!r} is not a comma-separated "
                               "list of integers", lineno, code, k) from None
    if len(occ) != basis.n:
        raise _reference_error(f"occupation {token!r} has {len(occ)} modes, "
                               f"expected n={basis.n}", lineno, code, k)
    if any(not 0 <= m < basis.d for m in occ):
        raise _reference_error(f"occupation {token!r} has a mode outside "
                               f"[0, {basis.d})", lineno, code, k)
    if occ not in basis:
        kind = ("strictly increasing" if basis.statistics is Statistics.FERMIONIC
                else "non-decreasing")
        raise _reference_error(f"occupation {token!r} is not in canonical "
                               f"{kind} order", lineno, code, k)
    return basis.index_of(occ)


def _reference_float(token: str, lineno: int, code: str, k: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise _reference_error(f"bad float {token!r}", lineno, code, k) from None
    if not math.isfinite(value):
        raise _reference_error(f"non-finite float {token!r}", lineno, code, k)
    return value


def reference_parse_state_text(text: str) -> ParsedState:
    """The state-file grammar read one line at a time: the referee of
    `parse_state_text`, which reads the body by column.  Each row is checked
    in turn (header key, field count, occupations, RE, IM, duplicate), so the
    first faulty row in file order raises its first fault."""
    header: dict[str, str] = {}
    header_lines: dict[str, int] = {}
    basis = labels = representation = None
    entries = {}  # basis index (pure) or (row, col) index pair (mixed) -> value

    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0]
        tokens = code.split()
        if not tokens:
            continue

        if tokens[0] in ("d", "n", "statistics", "representation", "label"):
            key = tokens[0]
            if basis is not None:
                raise _reference_error(f"header key {key!r} after body began", lineno, code, 0)
            if key in header:
                raise _reference_error(f"duplicate header key {key!r}", lineno, code, 0)
            if len(tokens) < 2:
                raise _reference_error(f"header key {key!r} needs a value", lineno, code, 0)
            if key != "label" and len(tokens) > 2:
                raise _reference_error(f"header key {key!r} takes one value", lineno, code, 2)
            header[key] = code.strip()[len(key):].strip() if key == "label" else tokens[1]
            header_lines[key] = lineno
            continue

        if basis is None:
            missing = [k for k in ("d", "n", "statistics", "representation") if k not in header]
            if missing:
                raise _reference_error(f"body begins before header keys {missing} are set",
                                       lineno, code, 0)
            sizes = {}
            for key in ("d", "n"):
                try:
                    sizes[key] = int(header[key])
                except ValueError:
                    raise StateFileError(f"d and n must be integers, got {key} "
                                         f"{header[key]!r}", header_lines[key]) from None
            if sizes["n"] < 1:
                raise StateFileError(f"need n >= 1, got n={sizes['n']}", header_lines["n"])
            stats = header["statistics"].lower()
            if stats not in ("fermionic", "bosonic"):
                raise StateFileError(f"statistics must be fermionic or bosonic, got {stats!r}",
                                     header_lines["statistics"])
            representation = header["representation"].lower()
            if representation not in ("pure", "mixed"):
                raise StateFileError(f"representation must be pure or mixed, got "
                                     f"{representation!r}", header_lines["representation"])
            try:
                basis = enumerate_basis(sizes["d"], sizes["n"], Statistics(stats))
            except InvalidDimension as e:
                raise StateFileError(str(e), header_lines["d"]) from None
            labels = {",".join(map(str, occ)): i for i, occ in enumerate(basis.states)}

        want = 3 if representation == "pure" else 4
        if len(tokens) != want:
            raise _reference_error(
                f"{representation} row needs {want} fields "
                f"({'occ re im' if want == 3 else 'row-occ col-occ re im'}), got {len(tokens)}",
                lineno, code, 0)
        key = tuple(_reference_occupation(tokens[k], labels, basis, lineno, code, k)
                    for k in range(want - 2))
        re = _reference_float(tokens[want - 2], lineno, code, want - 2)
        im = _reference_float(tokens[want - 1], lineno, code, want - 1)
        if key in entries:
            shown = tuple(basis.states[i] for i in key)
            raise _reference_error(f"duplicate entry for {shown[0] if want == 3 else shown}",
                                   lineno, code, 0)
        entries[key] = complex(re, im)

    if basis is None:
        raise StateFileError("no state entries found", max(list(header_lines.values()) or [1]))

    label = header.get("label")
    if representation == "pure":
        v = np.zeros(basis.size, dtype=complex)
        for (i,), amp in entries.items():
            v[i] = amp
        scale = 1.0
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(v))
        if not math.isfinite(norm):  # |v|^2 overflows: measure v over its largest real or imaginary part
            scale = float(np.abs(v.view(float)).max())
            norm = float(np.linalg.norm(v / scale))
        if norm < 1e-12:
            raise StateFileError("pure state has (near-)zero norm")
        normalized = abs(norm * scale - 1.0) > 1e-12
        if normalized:
            warnings.warn(f"pure state had norm {norm * scale!r}; normalized on parse")
            v = v / scale / norm
        return ParsedState(basis, "pure", label, v, None, normalized)

    rho = np.zeros((basis.size, basis.size), dtype=complex)
    for (i, j), val in entries.items():
        rho[i, j] = val
    check_density_matrix(rho)
    return ParsedState(basis, "mixed", label, None, rho, False)
