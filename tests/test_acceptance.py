"""End-to-end acceptance checks.

Each test prints one `ACCEPTANCE n: PASS/FAIL` line (bypassing capture) and
then asserts, so a plain `pytest -v` run shows the full scorecard.  Criterion 7
compares the multistart optimizer against a fixed-budget Haar-sampling search
and prints its per-state gap table; see README for why the sampling bound is
loose at d=3.
"""
import json
import math
import subprocess
import sys
import time

import numpy as np

from qcorr import (
    ClassicalStateSpec,
    OptimizerConfig,
    Statistics,
    Subsystem,
    build_family,
    creation_matrix,
    dephase,
    enumerate_basis,
    entanglement_maxcorr,
    geometric_quantumness,
    haar_random_unitary,
    lift_unitary,
    make_classical_state,
    max_corr_coefficients,
    parse_state_text,
    projected_entropy,
    quantumness,
    quantumness_oracle,
    relative_entropy,
    run_protocol,
    slater_rank_two_particle,
    slater_state,
    verify_maximally_correlated,
    von_neumann_entropy,
    write_state_text,
)

from helpers import coupling_unitary, random_density, random_pure

LN2 = math.log(2)

SECTORS = [
    (2, 2, Statistics.FERMIONIC),
    (3, 2, Statistics.FERMIONIC),
    (4, 2, Statistics.FERMIONIC),
    (2, 2, Statistics.BOSONIC),
    (3, 2, Statistics.BOSONIC),
    (2, 3, Statistics.BOSONIC),
]


def _report(capsys, num: int, ok: bool, detail: str, extra: list[str] | None = None):
    with capsys.disabled():
        print()  # pytest progress markers leave the cursor mid-line
        for line in extra or []:
            print(line)
        print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def _pair_state():
    basis = enumerate_basis(2, 2, Statistics.BOSONIC)
    psi = (slater_state((0, 0), basis) + slater_state((1, 1), basis)) / math.sqrt(2)
    return basis, psi


def test_criterion_01_worked_example(capsys):
    basis, psi = _pair_state()
    rho = np.outer(psi, psi.conj())
    t0 = time.perf_counter()
    rep = quantumness(rho, basis, OptimizerConfig(restarts=8, seed=0))
    dt = time.perf_counter() - t0
    out = lift_unitary(rep.argmin_v, basis) @ psi
    overlap = abs(out[basis.index_of((0, 1))])
    ok = rep.q_value <= 1e-6 and overlap >= 1 - 1e-6 and dt < 1.0
    _report(capsys, 1, ok,
            f"pair state: Q = {rep.q_value:.2e}, |<0,1|V psi>| = {overlap:.8f}, "
            f"{dt * 1e3:.0f} ms")


def test_criterion_02_zero_set_soundness(capsys):
    rng = np.random.default_rng(2026)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(100):
        stats = Statistics.FERMIONIC if i % 2 else Statistics.BOSONIC
        d = 2 + i % 3
        basis = enumerate_basis(d, 2, stats)
        k = int(rng.integers(1, min(basis.size, 4) + 1))
        support = tuple(basis.states[j]
                        for j in rng.choice(basis.size, size=k, replace=False))
        xi = make_classical_state(ClassicalStateSpec(
            probabilities=rng.dirichlet(np.ones(k)),
            V=haar_random_unitary(d, rng),
            support=support,
        ), basis)
        q = quantumness(xi, basis, OptimizerConfig(restarts=4, seed=i)).q_value
        worst = max(worst, q)
        assert q <= 1e-5, f"classical state {i} (d={d}, {stats.value}): Q = {q:.3e}"
    dt = time.perf_counter() - t0
    ok = worst <= 1e-5 and dt < 120.0
    _report(capsys, 2, ok,
            f"100 rotated diagonal mixtures: worst Q = {worst:.2e}, {dt:.1f} s")


def _random_pairs(count: int, seed: int):
    rng = np.random.default_rng(seed)
    for i in range(count):
        d, n, stats = SECTORS[i % len(SECTORS)]
        basis = enumerate_basis(d, n, stats)
        if i % 3 == 0:
            psi = random_pure(basis.size, rng)
            rho = np.outer(psi, psi.conj())
        else:
            rho = random_density(basis.size, rng,
                                 rank=int(rng.integers(1, basis.size + 1)))
        yield i, basis, rho, haar_random_unitary(d, rng)


def test_criterion_03_activation_structure(capsys):
    worst_pattern = 0.0
    worst_chi = 0.0
    for i, basis, rho, V in _random_pairs(50, seed=3):
        js = run_protocol(rho, V, basis)
        ok, off = verify_maximally_correlated(js, tol=1e-12)
        assert ok, f"pair {i}: off-pattern magnitude {off:.3e}"
        worst_pattern = max(worst_pattern, off)
        D = basis.size
        joint = js.matrix.reshape(D, D, D, D)
        chi_from_joint = joint[np.arange(D)[:, None], np.arange(D)[:, None],
                               np.arange(D)[None, :], np.arange(D)[None, :]]
        diff = np.abs(chi_from_joint - max_corr_coefficients(rho, V, basis)).max()
        worst_chi = max(worst_chi, diff)
        assert diff <= 1e-12, f"pair {i}: chi mismatch {diff:.3e}"
    ok = worst_pattern < 1e-12 and worst_chi <= 1e-12
    _report(capsys, 3, ok,
            f"50 protocol runs: off-pattern <= {worst_pattern:.1e}, "
            f"chi mismatch <= {worst_chi:.1e}")


def test_criterion_04_entanglement_identity(capsys):
    worst = 0.0
    for i, basis, rho, V in _random_pairs(50, seed=3):
        js = run_protocol(rho, V, basis)
        lhs = entanglement_maxcorr(js)
        rhs = projected_entropy(rho, V, basis) - von_neumann_entropy(rho)
        worst = max(worst, abs(lhs - rhs))
        assert abs(lhs - rhs) <= 1e-10, f"pair {i}: |E - (H - S)| = {abs(lhs - rhs):.3e}"
    _report(capsys, 4, worst <= 1e-10,
            f"50 protocol runs: max |E - (H(V) - S)| = {worst:.1e}")


def test_criterion_05_two_route_equivalence(capsys):
    rng = np.random.default_rng(5)
    worst_route = 0.0
    worst_pinch = 0.0
    for i in range(50):
        d, n, stats = SECTORS[i % len(SECTORS)]
        basis = enumerate_basis(d, n, stats)
        if i % 2:
            psi = random_pure(basis.size, rng)
            rho = np.outer(psi, psi.conj())
        else:
            rho = random_density(basis.size, rng)
        cfg = OptimizerConfig(restarts=3, seed=i)
        q = quantumness(rho, basis, cfg).q_value
        g = geometric_quantumness(rho, basis, cfg)
        worst_route = max(worst_route, abs(q - g))
        assert abs(q - g) <= 1e-6, f"state {i}: routes differ by {abs(q - g):.3e}"
        # dephasing identity at an arbitrary rotation, both sides independent
        V = haar_random_unitary(d, rng)
        sigma = dephase(rho, build_family(V, basis))
        gap = abs(relative_entropy(rho, sigma)
                  - (von_neumann_entropy(sigma) - von_neumann_entropy(rho)))
        worst_pinch = max(worst_pinch, gap)
        assert gap <= 1e-10, f"state {i}: dephasing identity off by {gap:.3e}"
    ok = worst_route <= 1e-6 and worst_pinch <= 1e-10
    _report(capsys, 5, ok,
            f"50 states: max route gap = {worst_route:.1e}, "
            f"max dephasing-identity gap = {worst_pinch:.1e}")


def test_criterion_06_activation_equals_disturbance(capsys):
    rng = np.random.default_rng(6)
    worst = 0.0
    for i in range(20):
        d, n, stats = SECTORS[i % len(SECTORS)]
        basis = enumerate_basis(d, n, stats)
        if i % 2:
            psi = random_pure(basis.size, rng)
            rho = np.outer(psi, psi.conj())
        else:
            rho = random_density(basis.size, rng)
        rep = quantumness(rho, basis, OptimizerConfig(restarts=3, seed=i))
        ent = entanglement_maxcorr(run_protocol(rho, rep.argmin_v, basis))
        worst = max(worst, abs(ent - rep.q_value))
        assert abs(ent - rep.q_value) <= 1e-8, \
            f"state {i}: |E(V*) - Q| = {abs(ent - rep.q_value):.3e}"
    _report(capsys, 6, worst <= 1e-8,
            f"20 states: max |E(V*) - Q| = {worst:.1e}")


def test_criterion_07_optimizer_vs_sampling(capsys):
    rng = np.random.default_rng(7)
    rows = ["  state  sector          purity   optimizer    sampling     gap",
            "  -----  --------------  -------  -----------  -----------  ---------"]
    bound_ok = True
    worst_gap = 0.0
    for i in range(20):
        d = 2 if i < 10 else 3
        stats = Statistics.FERMIONIC if i % 2 else Statistics.BOSONIC
        basis = enumerate_basis(d, 2, stats)
        if i % 3 == 0:
            psi = random_pure(basis.size, rng)
            rho = np.outer(psi, psi.conj())
        else:
            rho = random_density(basis.size, rng)
        purity = float(np.trace(rho @ rho).real)
        q_opt = quantumness(rho, basis, OptimizerConfig(restarts=6, seed=i)).q_value
        q_sam = quantumness_oracle(rho, basis, 10_000, seed=1000 + i)
        gap = q_sam - q_opt
        worst_gap = max(worst_gap, gap)
        if q_opt > q_sam + 1e-9:
            bound_ok = False
        rows.append(f"  {i:5d}  d={d} n=2 {stats.value[:7]:7s}  {purity:7.3f}"
                    f"  {q_opt:11.8f}  {q_sam:11.8f}  {gap:9.2e}")
    rows.append(f"  upper-bound check (optimizer <= sampling + 1e-9): "
                f"{'ok' if bound_ok else 'VIOLATED'}")
    ok = bound_ok and worst_gap <= 1e-2
    _report(capsys, 7, ok,
            f"20 states: max sampling-vs-optimizer gap = {worst_gap:.1e} "
            f"(required <= 1e-2)", extra=rows)


def test_criterion_08_pure_state_characterization(capsys):
    rng = np.random.default_rng(8)
    checked = 0
    for stats in (Statistics.FERMIONIC, Statistics.BOSONIC):
        for i in range(50):
            d = 2 + i % 3 if stats is Statistics.BOSONIC else 3 + i % 2
            basis = enumerate_basis(d, 2, stats)
            if i % 2:
                # elementary product state in a Haar-rotated mode basis
                G = lift_unitary(haar_random_unitary(d, rng), basis)
                psi = G @ slater_state(basis.states[int(rng.integers(basis.size))],
                                       basis)
            else:
                psi = random_pure(basis.size, rng)
            rank = slater_rank_two_particle(psi, basis)
            q = quantumness(np.outer(psi, psi.conj()), basis,
                            OptimizerConfig(restarts=4, seed=100 + i)).q_value
            assert (rank == 1) == (q <= 1e-5), \
                f"{stats.value} state {i} (d={d}): rank={rank} but Q={q:.3e}"
            checked += 1
    _report(capsys, 8, checked == 100,
            "100 pure states: rank-1 and Q <= 1e-5 coincide in every case")


def test_criterion_09_structural_invariants(capsys):
    rng = np.random.default_rng(9)
    worst = {"unitarity": 0.0, "homomorphism": 0.0, "completeness": 0.0,
             "commutation": 0.0}
    for d, n, stats in SECTORS:
        basis = enumerate_basis(d, n, stats)
        V = haar_random_unitary(d, rng)
        W = haar_random_unitary(d, rng)
        G, GW = lift_unitary(V, basis), lift_unitary(W, basis)
        worst["unitarity"] = max(worst["unitarity"], float(np.abs(
            G @ G.conj().T - np.eye(basis.size)).max()))
        worst["homomorphism"] = max(worst["homomorphism"], float(np.abs(
            lift_unitary(V @ W, basis) - G @ GW).max()))
        fam = build_family(V, basis)
        worst["completeness"] = max(worst["completeness"], float(np.abs(
            sum(fam.projectors) - np.eye(basis.size)).max()))
        # a_i a+_j -/+ a+_j a_i = delta_ij on the (n-1)-particle sector,
        # with the second term routed through the (n-2)-particle sector
        lower = enumerate_basis(d, n - 1, stats)
        lowest = enumerate_basis(d, n - 2, stats)
        up = [creation_matrix(i, lower, basis) for i in range(d)]
        dn = [creation_matrix(i, lowest, lower) for i in range(d)]
        sign = 1.0 if stats is Statistics.FERMIONIC else -1.0
        for i in range(d):
            for j in range(d):
                got = up[i].T @ up[j] + sign * (dn[j] @ dn[i].T)
                expect = np.eye(lower.size) if i == j else np.zeros((lower.size,) * 2)
                worst["commutation"] = max(worst["commutation"],
                                           float(np.abs(got - expect).max()))
    tol = {"unitarity": 1e-10, "homomorphism": 1e-9, "completeness": 1e-10,
           "commutation": 1e-12}
    coupling_exact = True
    for D in (1, 2, 3, 6):
        U = coupling_unitary(D)
        coupling_exact &= bool(np.isin(U, (0.0, 1.0)).all())
        coupling_exact &= bool((U.sum(axis=0) == 1).all())
        coupling_exact &= np.array_equal(U @ U.T, np.eye(D * D))
    ok = coupling_exact and all(worst[k] <= tol[k] for k in worst)
    _report(capsys, 9, ok,
            "invariants: " + ", ".join(f"{k} {worst[k]:.1e}" for k in worst)
            + f", coupling permutation exact = {coupling_exact}")


def test_criterion_10_cli_determinism_and_round_trip(capsys, tmp_path):
    basis, psi = _pair_state()
    pfile = tmp_path / "pair.txt"
    pfile.write_text(write_state_text(basis, vector=psi, label="pair"))
    args = [sys.executable, "-m", "qcorr", "quantumness", str(pfile),
            "--restarts", "4", "--seed", "7", "--machine"]
    a = subprocess.run(args, capture_output=True, text=True)
    b = subprocess.run(args, capture_output=True, text=True)
    deterministic = a.returncode == 0 and a.stdout == b.stdout
    assert json.loads(a.stdout)["q_value"] <= 1e-6

    rng = np.random.default_rng(10)
    worst = 0.0
    for d, n, stats in SECTORS:
        sector = enumerate_basis(d, n, stats)
        v = random_pure(sector.size, rng)
        back = parse_state_text(write_state_text(sector, vector=v))
        worst = max(worst, float(np.abs(back.vector - v).max()))
        rho = random_density(sector.size, rng)
        back = parse_state_text(write_state_text(sector, rho=rho))
        worst = max(worst, float(np.abs(back.rho - rho).max()))
    ok = deterministic and worst <= 1e-15
    _report(capsys, 10, ok,
            f"machine output bitwise stable = {deterministic}, "
            f"round-trip error <= {worst:.1e}")
