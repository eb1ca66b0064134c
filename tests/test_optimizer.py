"""The local solver under every minimization: L-BFGS on U(d), re-centred at
each step, with an analytic gradient for each searched objective, an escape
scan out of the -p log p traps, and a frozen regression panel."""
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from qcorr import (
    Classification,
    ClassicalStateSpec,
    OptimizerConfig,
    Statistics,
    classify_report,
    enumerate_basis,
    haar_random_unitary,
    lift_observable,
    lift_unitary,
    make_classical_state,
    projected_entropy,
    quantumness,
    relative_entropy,
)
from qcorr import correlations
from qcorr.measurement import MeasurementFamily, build_family, dephase

from helpers import count_calls, random_density, random_pure, reference_lift, two_loop

B, F = Statistics.BOSONIC, Statistics.FERMIONIC


def _plane_generators(d):
    """Hermitian generators in the solver's coordinate order: for each pair
    i < j, row-major, E_ij + E_ji and then i E_ij - i E_ji."""
    out = []
    for i in range(d):
        for j in range(i + 1, d):
            for z in (1.0, 1j):
                X = np.zeros((d, d), dtype=complex)
                X[i, j], X[j, i] = z, np.conj(z)
                out.append(X)
    return out


GRADIENT_SECTORS = [(2, 2, B), (3, 2, B), (4, 2, F), (5, 2, F),
                    (2, 3, B), (3, 3, B), (5, 3, F), (2, 4, B)]


# each gradient and the objective it is differenced against, as a function of
# (rho, V, basis); the geometric one goes through the dephased state, never
# through the entropy route
GRADIENTS = {
    "entropy": (correlations._entropy_gradient, projected_entropy),
    "geometric": (correlations._geometric_gradient,
                  lambda rho, V, basis: relative_entropy(rho, dephase(rho, build_family(V, basis)))),
    "condensate": (correlations._condensate_gradient,
                   lambda rho, V, basis: correlations._condensate_defect(rho, basis,
                                                                         lift_unitary(V, basis))),
}


@pytest.mark.parametrize("sector", GRADIENT_SECTORS,
                         ids=lambda s: f"{s[0]}-{s[1]}-{s[2].value[0].upper()}")
@pytest.mark.parametrize("name", list(GRADIENTS))
def test_gradient_matches_central_differences(name, sector):
    # one pure and one rank-2 state per sector; the differences are taken
    # along exp(+-ihX) V, built with expm
    make_gradient, f = GRADIENTS[name]
    basis = enumerate_basis(*sector)
    d, h = basis.d, 1e-5
    rng = np.random.default_rng([d, basis.n])
    psi = random_pure(basis.size, rng)
    for rho in (np.outer(psi, psi.conj()), random_density(basis.size, rng, rank=2)):
        V = haar_random_unitary(d, rng)
        grad = make_gradient(rho, basis)(lift_unitary(V, basis))
        diff = [(f(rho, expm(1j * h * X) @ V, basis) - f(rho, expm(-1j * h * X) @ V, basis)) / (2 * h)
                for X in _plane_generators(d)]
        assert np.abs(grad - diff).max() <= 2e-8


def test_geometric_gradient_vanishes_where_the_dephased_state_has_a_kernel():
    # at the natural orbitals of a classical state the dephased state is the
    # state itself, of rank 2 in D = 6; its kernel gets no divided difference,
    # where a clipped logarithm would give a huge or overflowing gradient
    basis = enumerate_basis(4, 2, F)
    W = haar_random_unitary(4, np.random.default_rng(19))
    rho = make_classical_state(ClassicalStateSpec(np.array([0.4, 0.6]), W, ((0, 1), (2, 3))), basis)
    G = lift_unitary(correlations._natural_orbitals(rho, basis)[1], basis)
    grad = correlations._geometric_gradient(rho, basis)(G)
    assert np.all(np.isfinite(grad)) and np.abs(grad).max() <= 1e-12


def test_gradient_vanishes_along_the_torus():
    # diagonal generators leave diag(G rho G+) unchanged, so the search runs
    # over the d^2 - d off-diagonal directions only
    basis = enumerate_basis(4, 2, F)
    rng = np.random.default_rng(3)
    rho = random_density(basis.size, rng)
    V = haar_random_unitary(4, rng)
    H = projected_entropy(rho, V, basis)
    for k in range(4):
        phase = np.ones(4, dtype=complex)
        phase[k] = np.exp(0.3j)
        assert projected_entropy(rho, np.diag(phase) @ V, basis) == pytest.approx(H, abs=1e-14)


def test_rotated_boson_pair_escapes_the_trap():
    # a+_0 a+_2 |0> seen in a Haar-rotated basis: descents stall at ln 2 on
    # two-condensate superpositions, which the plane scan must leave
    basis = enumerate_basis(3, 2, B)
    for k in range(30):
        W = haar_random_unitary(3, np.random.default_rng([16, k]))
        rho = make_classical_state(ClassicalStateSpec(np.array([1.0]), W, ((0, 2),)), basis)
        rep = quantumness(rho, basis, OptimizerConfig(restarts=1, seed=k))
        assert rep.q_value <= 1e-8, f"rotation {k}: Q = {rep.q_value!r}"


def test_equal_weight_condensate_classifies_as_c():
    # the one-particle spectrum is degenerate, so the squared-defect search
    # decides; it must reach STRUCTURE_TOL from every seed
    basis = enumerate_basis(2, 2, B)
    for k in range(24):
        W = haar_random_unitary(2, np.random.default_rng([22, k]))
        rho = make_classical_state(
            ClassicalStateSpec(np.array([0.5, 0.5]), W, ((0, 0), (1, 1))), basis)
        rep = classify_report(rho, basis, OptimizerConfig(restarts=1, seed=k))
        assert rep.label is Classification.CLASSICAL_ONLY_C, f"seed {k}: {rep}"
        assert rep.condensate_defect <= 1e-8


def test_escape_scan_ignores_the_row_phases_of_its_centre():
    # descents of different routes stop at different points of the same
    # torus orbit; the scan must not depend on which one
    basis = enumerate_basis(3, 2, B)
    rng = np.random.default_rng(41)
    rho = random_density(basis.size, rng)
    V = haar_random_unitary(3, rng)
    D = np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, 3)))

    def objective(G):
        return correlations._outcome_entropy(G, rho)

    value, W = correlations._scan(objective, basis, V)
    value_d, W_d = correlations._scan(objective, basis, D @ V)
    assert value_d == pytest.approx(value, abs=1e-13)
    assert objective(lift_unitary(W_d, basis)) == pytest.approx(value, abs=1e-13)


def test_two_routes_agree_where_every_descent_stalls():
    # a (2,2) boson mixture where all eight descents stop at a local minimum
    # 0.2724; the escape scan reaches 0.2306, and both routes must get there
    rng = np.random.default_rng([74, 471])
    basis = enumerate_basis(2, 2, B)
    rng.standard_normal((2, 4))  # the draws of a rotation this state does not use
    X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rho = X @ X.conj().T
    rho = (rho + rho.conj().T) / 2 / np.trace(rho).real
    cfg = OptimizerConfig(restarts=2, seed=int(rng.integers(2**31)))
    rep = quantumness(rho, basis, cfg)
    assert min(rep.restart_values[:8]) > 0.27
    assert rep.q_value == pytest.approx(0.2305536426333, abs=1e-9)
    assert correlations.geometric_quantumness(rho, basis, cfg) == pytest.approx(rep.q_value, abs=1e-9)


# Q from the derivative-free Powell search this solver replaced, at
# restarts=2 and seed k for state k: regression data, not truth.  States 0-3
# of a sector are pure, 4-6 mixed of random rank.
POWELL_Q = {
    (2, 2, B): (0.455538677033, 0.176404916255, 0.108734118707, 0.389025922745,
                0.199556516871, 0.0713261220194, 0.376337189206),
    (3, 2, B): (0.706295742047, 0.583388769996, 0.391143145486, 0.627759840299,
                0.243132304967, 0.232633457538, 0.513138960621),
    (3, 2, F): (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    (4, 2, F): (0.228335950219, 0.19667479027, 0.0225528028032, 0.189532774951,
                0.175040050762, 0.210393919355, 0.229426450766),
    (5, 2, F): (0.324535339661, 0.281735553843, 0.553701762051, 0.607081190794,
                0.30070827247, 0.543757419779, 0.185291409275),
    (2, 3, B): (0.747487791127, 0.568334868679, 0.345211079187, 0.237650955903,
                0.490025687322, 0.289532982005, 0.219494776852),
    (3, 3, B): (1.39217752319, 0.81260585215, 1.30644531677, 1.0276993151,
                0.84245016384, 0.410004409809, 0.634782661551),
    (5, 3, F): (0.357848809083, 0.467138006589, 0.40524985116, 0.458977609904,
                0.417019731038, 0.324769096036, 0.398095987719),
}


def _panel_states(sector):
    basis = enumerate_basis(*sector)
    d, n, stats = sector
    rng = np.random.default_rng([d, n, ord(stats.value[0].upper())])
    for k in range(7):
        if k < 4:
            psi = random_pure(basis.size, rng)
            yield k, basis, np.outer(psi, psi.conj())
        else:
            yield k, basis, random_density(basis.size, rng,
                                           rank=int(rng.integers(1, basis.size + 1)))


@pytest.mark.parametrize("sector", list(POWELL_Q),
                         ids=lambda s: f"{s[0]}-{s[1]}-{s[2].value[0].upper()}")
def test_panel_never_above_powell(sector):
    for k, basis, rho in _panel_states(sector):
        cfg = OptimizerConfig(restarts=2, seed=k)
        rep = quantumness(rho, basis, cfg)
        assert rep.q_value <= POWELL_Q[sector][k] + 1e-8, f"state {k}: Q = {rep.q_value!r}"
        # bookkeeping: the reported Q is the best descent, and re-evaluating
        # the objective at the reported rotation gives it back
        assert rep.q_value == pytest.approx(min(rep.restart_values), abs=1e-9)
        gap = projected_entropy(rho, rep.argmin_v, basis) - rep.entropy - rep.q_value
        assert abs(gap) <= 1e-9
        if rep.q_value > cfg.tol:
            assert len(rep.restart_values) >= correlations.DESCENTS_PER_RESTART * cfg.restarts


def test_compact_direction_matches_the_two_loop_recursion():
    # ragged memories, counts 0 ... 8, padded by zero slots before the pairs
    rng = np.random.default_rng(8)
    M = correlations._MEMORY
    for n in (2, 6, 12, 20):
        count = np.arange(M + 1)
        g, mem = rng.standard_normal((M + 1, n)), np.zeros((M + 1, M, 2, n))
        for row, c in enumerate(count):
            s = rng.standard_normal((c, n))
            y = s + 0.3 * rng.standard_normal((c, n))
            y[(s * y).sum(axis=1) <= 0] *= -1  # the solver stores only pairs with s.y > 0
            mem[row, M - c:, 0], mem[row, M - c:, 1] = s, y
        out = correlations._direction(g, mem, count)
        for row, c in enumerate(count):
            ref = two_loop(g[row], list(mem[row, M - c:, 0]), list(mem[row, M - c:, 1]))
            assert np.abs(out[row] - ref).max() <= 1e-12 * np.abs(ref).max()


def _objectives(rho, basis):
    """The three searched objectives on rho, each with the gradient its
    minimization uses."""
    s_rho = correlations.shannon_entropy(np.linalg.eigvalsh(rho))

    def entropy(G):
        return correlations._outcome_entropy(G, rho) - s_rho

    def geometric(G):
        return correlations._relative_entropy(rho, dephase(rho, MeasurementFamily(G)), s_rho)

    def condensate(G):
        return correlations._condensate_defect(rho, basis, G)

    return {"entropy": (entropy, correlations._entropy_gradient(rho, basis)),
            "geometric": (geometric, correlations._geometric_gradient(rho, basis)),
            "condensate": (condensate, correlations._condensate_gradient(rho, basis))}


LOCKSTEP_SECTORS = [(2, 2, B), (4, 2, F), (3, 3, B), (5, 3, F)]


@pytest.mark.parametrize("width", [correlations._WIDTH, 3])
@pytest.mark.parametrize("max_iterations", [2, 2000])
@pytest.mark.parametrize("sector", LOCKSTEP_SECTORS,
                         ids=lambda s: f"{s[0]}-{s[1]}-{s[2].value[0].upper()}")
def test_lockstep_descents_equal_one_at_a_time(sector, max_iterations, width):
    # more starts than run at once, so some join as others end; each must
    # end exactly where it ends alone, at the full width and at a narrower one,
    # which is what lets the search descend all its starts in one lockstep
    basis = enumerate_basis(*sector)
    rng = np.random.default_rng([sector[0], sector[1], max_iterations])
    rho = random_density(basis.size, rng, rank=2)
    m = correlations._WIDTH + 2
    V = correlations._haar_stack(basis.d, rng, m)
    cfg = OptimizerConfig(max_iterations=max_iterations)
    for name, (objective, gradient) in _objectives(rho, basis).items():
        V_all, values = correlations._descend(objective, gradient, basis, V, cfg, width)
        assert values.shape == (m,) and np.all(values > cfg.tol)
        for k in range(m):
            V_k, value_k = correlations._descend(objective, gradient, basis, V[k:k + 1], cfg)
            assert values[k] == value_k[0], f"{name} start {k}"
            assert np.array_equal(V_all[k], V_k[0]), f"{name} start {k}"


def test_searches_take_no_sector_sized_eigh(monkeypatch):
    # a line moves V by the d x d eigh of its generator and lifts each trial
    # point, and the scan table lifts the d x d eigenvectors of its generators:
    # no search takes a D x D eigh or a lifted generator
    correlations._planes.cache_clear()  # so that the table is built under the count
    basis = enumerate_basis(3, 3, B)
    rng = np.random.default_rng(43)
    rho = random_density(basis.size, rng, rank=2)
    eigh = count_calls(monkeypatch, np.linalg, "eigh")
    scans = count_calls(monkeypatch, correlations, "_scan")
    quantumness(rho, basis, OptimizerConfig(restarts=1))
    condensates = make_classical_state(ClassicalStateSpec(np.array([0.5, 0.5]), haar_random_unitary(3, rng),
                                                          ((0, 0, 0), (1, 1, 1))), basis)
    rep = classify_report(condensates, basis, OptimizerConfig(restarts=1))
    assert scans and rep.label is Classification.CLASSICAL_ONLY_C
    assert eigh and {shape[-1] for shape in eigh} == {basis.d}
    assert not hasattr(correlations, "lift_observable")


@pytest.mark.parametrize("sector", [(3, 2, B), (4, 2, F), (3, 3, B), (6, 3, F), (2, 5, B)],
                         ids=lambda s: f"{s[0]}-{s[1]}-{s[2].value[0].upper()}")
def test_scan_table_lifts_each_plane_rotation(sector):
    # the scan's point U e^{i theta W} U+ for generator X = u diag(w) u+ against
    # the tensor-power lift of u e^{i theta w} u+ and the exponential of the
    # hopping-tensor dGamma(X), neither of which goes through the recursion
    basis = enumerate_basis(*sector)
    d, theta = basis.d, 0.37
    w, u, W, U = correlations._planes(basis)
    X = []
    for i in range(d):
        for j in range(i + 1, d):
            for z in correlations._SCAN_PHASES:
                X.append(np.zeros((d, d), dtype=complex))
                X[-1][i, j], X[-1][j, i] = z, np.conj(z)
    assert len(X) == len(u)
    for g, X_g in enumerate(X):
        point = (U[g] * np.exp(1j * theta * W[g])) @ U[g].conj().T
        assert_allclose(point, reference_lift((u[g] * np.exp(1j * theta * w[g])) @ u[g].conj().T, basis),
                        atol=1e-12, err_msg=f"generator {g}")
        assert_allclose(point, expm(1j * theta * lift_observable(X_g, basis)), atol=1e-12,
                        err_msg=f"generator {g}")


@pytest.mark.parametrize("sector", [(3, 2, B), (4, 2, F), (3, 3, B), (5, 3, F), (4, 4, B)],
                         ids=lambda s: f"{s[0]}-{s[1]}-{s[2].value[0].upper()}")
def test_reported_minimum_is_the_projected_entropy_at_argmin_v(sector):
    # every point of a search is the lift of its V, so Q is the entropy of the
    # lifted argmin_v less S(rho) exactly, not only to rounding
    basis = enumerate_basis(*sector)
    rng = np.random.default_rng([sector[0], sector[1], 31])
    psi = random_pure(basis.size, rng)
    for k, rho in enumerate((np.outer(psi, psi.conj()), random_density(basis.size, rng, rank=2))):
        rep = quantumness(rho, basis, OptimizerConfig(restarts=1, seed=k))
        assert rep.q_value > 1e-9
        assert rep.q_value == projected_entropy(rho, rep.argmin_v, basis) - rep.entropy


@pytest.mark.parametrize("sector,support", [((4, 2, F), ((0, 1), (0, 2), (1, 3))),
                                            ((3, 3, B), ((0, 0, 1), (0, 1, 2), (2, 2, 2))),
                                            ((4, 3, F), ((0, 1, 2), (0, 1, 3), (0, 2, 3)))],
                         ids=["4-2-F", "3-3-B", "4-3-F"])
def test_classical_state_with_distinct_occupations_takes_one_descent(sector, support):
    # the natural-orbital start of a zero-quantumness state with a
    # non-degenerate one-particle spectrum is a minimizer, so it ends the
    # search although the Haar starts join its lockstep
    basis = enumerate_basis(*sector)
    W = haar_random_unitary(basis.d, np.random.default_rng([sector[0], sector[1], 23]))
    spec = ClassicalStateSpec(np.array([0.5, 0.3, 0.2]), W, support)
    rho = make_classical_state(spec, basis)
    assert np.diff(correlations._natural_orbitals(rho, basis)[0]).min() > 1e-3
    rep = quantumness(rho, basis, OptimizerConfig(restarts=5, seed=1))
    assert len(rep.restart_values) == 1 and rep.q_value <= 1e-12 and rep.converged


@pytest.mark.parametrize("sector", [(3, 3, B), (5, 3, F)],
                         ids=lambda s: f"{s[0]}-{s[1]}-{s[2].value[0].upper()}")
def test_search_over_two_stack_chunks(sector, monkeypatch):
    # with two points to a chunk, the search descends its seven Haar starts
    # two at a time and scans in chunks of two points, and reports the same
    basis = enumerate_basis(*sector)
    rho = random_density(basis.size, np.random.default_rng([sector[0], 17]), rank=2)
    cfg = OptimizerConfig(restarts=2, seed=3)
    report = quantumness(rho, basis, cfg)
    monkeypatch.setattr(correlations, "_STACK_BYTES", 2 * 16 * basis.size ** 2)
    assert correlations._stack_chunk(basis) == 2
    chunked = quantumness(rho, basis, cfg)
    assert report.q_value > cfg.tol  # so no start is pruned and the scan runs
    assert len(chunked.restart_values) == len(report.restart_values) >= 4 * cfg.restarts
    assert np.abs(np.subtract(chunked.restart_values, report.restart_values)).max() <= 1e-12


def test_pruning_keeps_the_reported_values():
    # the README pair state: the natural-orbital start and the first Haar
    # start stall at ln 2, the second reaches zero and ends the search; the
    # values are those of a search that descends from one start at a time
    basis = enumerate_basis(2, 2, B)
    psi = np.zeros(3, dtype=complex)
    psi[basis.index_of((0, 0))] = psi[basis.index_of((1, 1))] = 1 / np.sqrt(2)
    rep = quantumness(np.outer(psi, psi.conj()), basis, OptimizerConfig(restarts=20, seed=0))
    assert len(rep.restart_values) == 3
    assert np.abs(np.subtract(rep.restart_values, (0.6931471805599454, 0.6931471805599456,
                                                   6.661338147750938e-16))).max() <= 1e-12
    assert rep.converged and rep.q_value <= 1e-12
