"""Workload inputs and the per-op answer check.

A workload is a fixed cycle of op templates. Op ``i`` of a run takes template
``i % len(cycle)`` and draws its state, rotation and optimizer seed from
``numpy.random.default_rng([seed, i])``, so a seed fixes every input while the
mix of op kinds is the same for every seed. The program receives each state
as qcorr state-file text.

Every op is checked against referees that do not depend on the optimizer:
values fixed at generation from the input alone (von Neumann entropy, the
two-fermion closed form, the constructed label, H(V) - S for a given V), and
checks on the returned answer itself (unitarity, re-evaluation of the
objective at the returned rotation).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

# One public function per layer; its __module__ names the module that holds
# the layer, so the benchmark survives a rename of the submodule.
LAYER_ANCHORS = {
    "fock": "enumerate_basis",
    "lift": "lift_unitary",
    "measurement": "build_family",
    "quantumness": "quantumness",
    "activation": "run_protocol",
    "statefile": "parse_state_text",
}

PAIRS_RESTARTS = 2
TRIPLES_RESTARTS = 1
# Powell iterations allowed at D=10: one full-length search there takes
# 2.5-8 s, which would leave fewer than 100 ops in a run.
BUDGET_ITERATIONS = 2
DEFAULT_ITERATIONS = 2000
ORACLE_SAMPLES = 100

# (kind, sector "d,n,B|F", state family, Powell iteration cap)
#
# Per-op cost varies by template far more than by seed, so each cycle puts
# its median and 90th percentile inside a block of like-cost ops rather than
# at a boundary between two; otherwise the percentiles jump between seeds.
_Q42F = ("quantumness", "4,2,F", "pure", DEFAULT_ITERATIONS)
CYCLES = {
    # n=2: the lift is a closed form and the optimizer does the work. 8 ops
    # under 100 ms, then 12 pure (4,2,F) ops (~0.27 s) that hold both
    # percentiles and carry the two-fermion closed-form check.
    "pairs": [
        _Q42F,
        ("quantumness", "2,2,B", "mixed", DEFAULT_ITERATIONS),
        _Q42F,
        ("classify", "2,2,B", "condensate", DEFAULT_ITERATIONS),
        _Q42F,
        ("quantumness", "3,2,F", "pure", DEFAULT_ITERATIONS),
        _Q42F,
        ("quantumness", "3,2,B", "mixed", DEFAULT_ITERATIONS),
        _Q42F,
        ("classify", "3,2,B", "classical", DEFAULT_ITERATIONS),
        _Q42F,
        ("geometric", "2,2,B", "mixed", DEFAULT_ITERATIONS),
        _Q42F,
        ("quantumness", "4,2,F", "classical", DEFAULT_ITERATIONS),
        _Q42F,
        ("classify", "2,2,B", "pure", DEFAULT_ITERATIONS),
        _Q42F,
        _Q42F,
        _Q42F,
        _Q42F,
    ],
    # n>=3: the determinant/permanent lift takes most of each evaluation.
    # 15 D=4 ops (~0.1-0.17 s) hold the median; one D=10 (5,3,F) op; then
    # four ops at ~0.4-0.5 s, (2,4,B) and Powell-capped (3,3,B), hold the
    # 90th percentile.
    "triples": [
        ("quantumness", "2,3,B", "pure", DEFAULT_ITERATIONS),
        ("quantumness", "4,3,F", "mixed", DEFAULT_ITERATIONS),
        ("quantumness", "2,4,B", "pure", DEFAULT_ITERATIONS),
        ("quantumness", "2,3,B", "mixed", DEFAULT_ITERATIONS),
        ("quantumness", "4,3,F", "pure", DEFAULT_ITERATIONS),
        ("quantumness", "3,3,B", "pure", BUDGET_ITERATIONS),
        ("quantumness", "2,3,B", "classical", DEFAULT_ITERATIONS),
        ("quantumness", "4,3,F", "mixed", DEFAULT_ITERATIONS),
        ("quantumness", "2,3,B", "pure", DEFAULT_ITERATIONS),
        ("quantumness", "5,3,F", "mixed", BUDGET_ITERATIONS),
        ("quantumness", "4,3,F", "pure", DEFAULT_ITERATIONS),
        ("quantumness", "2,3,B", "mixed", DEFAULT_ITERATIONS),
        ("quantumness", "2,4,B", "mixed", DEFAULT_ITERATIONS),
        ("quantumness", "4,3,F", "mixed", DEFAULT_ITERATIONS),
        ("quantumness", "2,3,B", "pure", DEFAULT_ITERATIONS),
        ("quantumness", "4,3,F", "pure", DEFAULT_ITERATIONS),
        ("quantumness", "3,3,B", "mixed", BUDGET_ITERATIONS),
        ("quantumness", "2,3,B", "mixed", DEFAULT_ITERATIONS),
        ("quantumness", "4,3,F", "mixed", DEFAULT_ITERATIONS),
        ("quantumness", "4,3,F", "pure", DEFAULT_ITERATIONS),
    ],
    # Fixed rotations, no optimizer. 6 D=10 protocol ops (~3 ms), 7 D=20
    # ones (~40 ms) that hold the median, 4 oracle ops (~0.15 s), 3 D=35
    # protocol ops (~1 s) that hold the 90th percentile.
    "routes": [
        ("protocol", "3,3,B", "pure", 0),
        ("protocol", "6,3,F", "mixed", 0),
        ("oracle", "3,3,B", "mixed", 0),
        ("protocol", "4,4,B", "mixed", 0),
        ("protocol", "3,3,B", "mixed", 0),
        ("protocol", "6,3,F", "pure", 0),
        ("protocol", "6,3,F", "mixed", 0),
        ("oracle", "6,3,F", "pure", 0),
        ("protocol", "3,3,B", "pure", 0),
        ("protocol", "6,3,F", "mixed", 0),
        ("protocol", "4,4,B", "pure", 0),
        ("protocol", "3,3,B", "mixed", 0),
        ("protocol", "6,3,F", "pure", 0),
        ("oracle", "3,3,B", "pure", 0),
        ("protocol", "3,3,B", "pure", 0),
        ("protocol", "6,3,F", "mixed", 0),
        ("protocol", "4,4,B", "mixed", 0),
        ("protocol", "3,3,B", "mixed", 0),
        ("protocol", "6,3,F", "pure", 0),
        ("oracle", "6,3,F", "mixed", 0),
    ],
}


def sectors(workload: str) -> list[str]:
    return sorted({sector for _, sector, _, _ in CYCLES[workload]})


def parse_sector(sector: str) -> tuple[int, int, str]:
    d, n, stat = sector.split(",")
    return int(d), int(n), {"B": "bosonic", "F": "fermionic"}[stat]


def set_up(sectors_used, mods: dict) -> None:
    """The work `setup_s` times after the import: each sector's basis and one
    lift of the identity, which fills any per-sector cache."""
    for sector in sectors_used:
        d, n, stat = parse_sector(sector)
        basis = mods["fock"].enumerate_basis(d, n, mods["fock"].Statistics(stat))
        mods["lift"].lift_unitary(np.eye(d), basis)


def layer_modules() -> dict:
    import qcorr

    return {layer: sys.modules[getattr(qcorr, fn).__module__]
            for layer, fn in LAYER_ANCHORS.items()}


@dataclass(frozen=True)
class Op:
    index: int
    kind: str
    sector: str
    family: str
    text: str
    s_rho: float
    ln_dim: float
    restarts: int = 0
    max_iterations: int = DEFAULT_ITERATIONS
    opt_seed: int = 0
    V: np.ndarray | None = None
    samples: int = 0
    expect_label: str | None = None
    expect_zero: bool = False
    closed_form: float | None = None
    h_minus_s: float | None = None


def entropy_nats(rho: np.ndarray) -> float:
    w = np.linalg.eigvalsh(rho)
    w = w[w > 1e-12]
    return float(-(w * np.log(w)).sum())


def haar_unitary(d: int, rng) -> np.ndarray:
    Z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def two_fermion_closed_form(psi: np.ndarray, states, d: int) -> float:
    """Q of a pure two-fermion state: Shannon entropy of its Slater weights,
    the normalized squares of the paired singular values of the
    antisymmetric coefficient matrix."""
    w = np.zeros((d, d), dtype=complex)
    for amp, (i, j) in zip(psi, states):
        w[i, j], w[j, i] = amp, -amp
    lam = np.linalg.svd(w, compute_uv=False)[::2] ** 2
    lam = lam[lam > 1e-300] / lam.sum()
    return float(-(lam * np.log(lam)).sum())


def state_text(d: int, n: int, stat: str, states, psi=None, rho=None) -> str:
    """qcorr state-file text; floats via repr so the state round-trips."""
    lines = [f"d {d}", f"n {n}", f"statistics {stat}",
             f"representation {'pure' if rho is None else 'mixed'}"]
    label = [",".join(map(str, occ)) for occ in states]
    if rho is None:
        lines += [f"{label[i]} {float(a.real)!r} {float(a.imag)!r}"
                  for i, a in enumerate(psi) if a != 0]
    else:
        lines += [f"{label[i]} {label[j]} {float(rho[i, j].real)!r} {float(rho[i, j].imag)!r}"
                  for i in range(len(states)) for j in range(len(states)) if rho[i, j] != 0]
    return "\n".join(lines) + "\n"


def make_op(workload: str, seed: int, index: int, mods: dict) -> Op:
    """Inputs and answer key of op `index`. Of qcorr it uses only
    `enumerate_basis` for the labels, `make_classical_state` for constructed
    states, and `projected_entropy` for the protocol referee H(V)."""
    cycle = CYCLES[workload]
    kind, sector, family, max_iterations = cycle[index % len(cycle)]
    rng = np.random.default_rng([seed, index])
    d, n, stat = parse_sector(sector)
    qm = mods["quantumness"]
    basis = mods["fock"].enumerate_basis(d, n, mods["fock"].Statistics(stat))
    D = basis.size
    V = haar_unitary(d, rng)

    psi = None
    if family == "pure":
        psi = rng.standard_normal(D) + 1j * rng.standard_normal(D)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
    elif family == "mixed":
        X = rng.standard_normal((D, 3)) + 1j * rng.standard_normal((D, 3))
        rho = X @ X.conj().T
        rho = (rho + rho.conj().T) / 2 / np.trace(rho).real
    else:
        condensates = [occ for occ in basis.states if len(set(occ)) == 1]
        if family == "condensate":
            # equal weights: the one-particle spectrum is degenerate
            support = condensates
            p = np.full(len(support), 1 / len(support))
        else:
            others = [occ for occ in basis.states if occ not in condensates]
            first = others[rng.integers(len(others))]
            rest = [occ for occ in basis.states if occ != first]
            picks = rng.choice(len(rest), size=min(2, len(rest)), replace=False)
            support = [first] + [rest[k] for k in picks]
            p = rng.dirichlet(np.ones(len(support)))
        spec = qm.ClassicalStateSpec(p, V, tuple(support))
        rho = qm.make_classical_state(spec, basis)
        rho = (rho + rho.conj().T) / 2

    s_rho = entropy_nats(rho)
    common = dict(index=index, kind=kind, sector=sector, family=family,
                  text=state_text(d, n, stat, basis.states, psi, None if psi is not None else rho),
                  s_rho=s_rho, ln_dim=math.log(D))
    if kind == "protocol":
        return Op(**common, V=V, h_minus_s=qm.projected_entropy(rho, V, basis) - s_rho)
    if kind == "oracle":
        return Op(**common, samples=ORACLE_SAMPLES, opt_seed=int(rng.integers(2**31)))
    restarts = PAIRS_RESTARTS if workload == "pairs" else TRIPLES_RESTARTS
    closed_form = None
    if family == "pure" and n == 2 and stat == "fermionic":
        closed_form = two_fermion_closed_form(psi, basis.states, d)
    label = None
    if kind == "classify":
        label = {"condensate": "C", "classical": "P", "pure": "Q"}[family]
    return Op(**common, restarts=restarts, max_iterations=max_iterations,
              opt_seed=int(rng.integers(2**31)), expect_label=label,
              expect_zero=family == "classical" or sector == "3,2,F",
              closed_form=closed_form)


def _check_report(op: Op, rho, basis, report, qm) -> list[str]:
    problems = []
    q, V = report.q_value, report.argmin_v
    if q < -1e-9:
        problems.append(f"Q = {q:.3e} < -1e-9")
    if np.abs(V @ V.conj().T - np.eye(V.shape[0])).max() > 1e-10:
        problems.append("argmin_v is not unitary within 1e-10")
    gap = qm.projected_entropy(rho, V, basis) - op.s_rho - q
    if abs(gap) > 1e-9:
        problems.append(f"projected entropy at argmin_v misses Q by {gap:.3e}")
    if op.closed_form is not None and abs(q - op.closed_form) > 1e-6:
        problems.append(f"Q = {q!r} but the two-fermion closed form gives {op.closed_form!r}")
    if op.expect_zero and q > 1e-5:
        problems.append(f"Q = {q:.3e} > 1e-5 on a zero-quantumness input")
    return problems


def run_op(op: Op, mods: dict) -> list[str]:
    """Parse the state text, call the program, check the answer; returns the
    failed checks. Functions are looked up on the modules at call time, so a
    traced run sees its wrappers."""
    qm = mods["quantumness"]
    parsed = mods["statefile"].parse_state_text(op.text)
    rho, basis = parsed.density_matrix(), parsed.basis
    if op.kind == "protocol":
        am = mods["activation"]
        joint = am.run_protocol(rho, op.V, basis)
        ok, worst = am.verify_maximally_correlated(joint)
        if not ok:
            return [f"protocol output off the max-correlated pattern by {worst:.3e}"]
        gap = am.entanglement_maxcorr(joint) - op.h_minus_s
        return [f"E - (H(V) - S) = {gap:.3e}"] if abs(gap) > 1e-10 else []
    if op.kind == "oracle":
        value = qm.quantumness_oracle(rho, basis, op.samples, op.opt_seed)
        if not -1e-9 <= value <= op.ln_dim - op.s_rho + 1e-9:
            return [f"oracle value {value!r} outside [-1e-9, ln D - S]"]
        return []
    cfg = qm.OptimizerConfig(restarts=op.restarts, max_iterations=op.max_iterations,
                             seed=op.opt_seed)
    if op.kind == "classify":
        report = qm.classify_report(rho, basis, cfg)
        problems = [] if report.label.value == op.expect_label else [
            f"label {report.label.value} where the input was built as {op.expect_label}"]
        if report.q_value < -1e-9:
            problems.append(f"Q = {report.q_value:.3e} < -1e-9")
        return problems
    report = qm.quantumness(rho, basis, cfg)
    problems = _check_report(op, rho, basis, report, qm)
    if op.kind == "geometric":
        geometric = qm.geometric_quantumness(rho, basis, cfg)
        if abs(geometric - report.q_value) > 1e-6:
            problems.append(f"geometric {geometric!r} vs Q {report.q_value!r}")
    return problems
