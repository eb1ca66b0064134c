import importlib
import math
import types

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qcorr import (
    Classification,
    ClassicalStateSpec,
    DimensionMismatch,
    InvalidSpec,
    InvalidState,
    OptimizerConfig,
    Statistics,
    UnsupportedParticleNumber,
    build_family,
    classify,
    classify_report,
    dephase,
    entanglement_maxcorr,
    enumerate_basis,
    geometric_quantumness,
    haar_random_unitary,
    lift_unitary,
    make_classical_state,
    one_particle_rdm,
    projected_entropy,
    quantumness,
    quantumness_oracle,
    relative_entropy,
    run_protocol,
    shannon_entropy,
    slater_rank_two_particle,
    slater_state,
    von_neumann_entropy,
)

from qcorr.correlations import _stack_chunk

from helpers import (
    coleman_defect,
    count_eigvalsh,
    equal_quantumness_forms,
    hole_image,
    plus_minus_rotation,
    random_density,
    random_pure,
    two_fermion_quantumness,
)

LN2 = math.log(2)
B, F = Statistics.BOSONIC, Statistics.FERMIONIC


def test_correlations_module_is_importable_by_name():
    # the package re-exports the function `quantumness`, so the module that
    # defines it must not share its name
    mod = importlib.import_module("qcorr.correlations")
    assert isinstance(mod, types.ModuleType)
    assert mod.quantumness is quantumness


def boson22():
    return enumerate_basis(2, 2, Statistics.BOSONIC)


def psi_b(basis):
    return (slater_state((0, 0), basis) + slater_state((1, 1), basis)) / math.sqrt(2)


def fermionic_bell():
    basis = enumerate_basis(4, 2, Statistics.FERMIONIC)
    psi = (slater_state((0, 1), basis) + slater_state((2, 3), basis)) / math.sqrt(2)
    return basis, psi


# ---------- entropies ----------

def test_von_neumann_entropy_basics():
    assert von_neumann_entropy(np.diag([1.0, 0.0, 0.0]).astype(complex)) == 0.0
    assert von_neumann_entropy(np.eye(3) / 3) == pytest.approx(math.log(3), abs=1e-12)
    assert von_neumann_entropy(np.diag([0.5, 0.0, 0.5])) == pytest.approx(LN2, abs=1e-12)


def test_von_neumann_entropy_validates():
    with pytest.raises(InvalidState):
        von_neumann_entropy(np.diag([0.5, 0.6]))


def test_von_neumann_entropy_diagonalizes_once(monkeypatch):
    rho = random_density(6, np.random.default_rng(8))
    calls = count_eigvalsh(monkeypatch)
    von_neumann_entropy(rho)
    assert calls == [(6, 6)]


def test_quantumness_and_oracle_diagonalize_rho_once(monkeypatch):
    # the validity check's spectrum is the one S(rho) is taken from
    basis = enumerate_basis(3, 2, Statistics.BOSONIC)
    rho = random_density(basis.size, np.random.default_rng(9))
    calls = count_eigvalsh(monkeypatch)
    quantumness(rho, basis, OptimizerConfig(restarts=1, max_iterations=1))
    quantumness_oracle(rho, basis, samples=2, seed=0)
    assert calls == [(6, 6), (6, 6)]


@pytest.mark.parametrize("stats", [Statistics.BOSONIC, Statistics.FERMIONIC])
def test_classify_report_diagonalizes_rho_once(monkeypatch, stats):
    # its own check's spectrum is handed on to the quantumness search
    basis = enumerate_basis(3, 2, stats)
    rho = random_density(basis.size, np.random.default_rng(12))
    calls = count_eigvalsh(monkeypatch)
    classify_report(rho, basis, OptimizerConfig(restarts=1, max_iterations=3))
    assert calls == [(basis.size, basis.size)]


def test_shannon_entropy_cut():
    assert shannon_entropy(np.array([1.0, 1e-14, 0.0])) == 0.0


def test_entropies_of_a_point_mass_are_positive_zero():
    pure = np.diag([0.0, 1.0, 0.0]).astype(complex)
    # rounding can put a point mass at 1 + 2**-52, whose -p log p is negative;
    # the one state of a D = 1 sector is a point mass whatever the rotation,
    # and its relative entropy to itself comes out of the eigenvalues as -0.0;
    # the oracle's best draw on I/6 in (4,2,F) rounds to -6.7e-16
    one_state = [(np.eye(1, dtype=complex), enumerate_basis(d, d, Statistics.FERMIONIC)) for d in (2, 3)]
    mixed = np.eye(6, dtype=complex) / 6
    for value in (shannon_entropy([1.0]), shannon_entropy([1 + 2**-52]), von_neumann_entropy(pure),
                  quantumness_oracle(mixed, enumerate_basis(4, 2, Statistics.FERMIONIC), 10, seed=0),
                  *(quantumness(rho, basis, OptimizerConfig(restarts=1)).q_value for rho, basis in one_state),
                  *(geometric_quantumness(rho, basis, OptimizerConfig(restarts=1)) for rho, basis in one_state)):
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


@pytest.mark.parametrize("sector", [(1, 2, Statistics.BOSONIC), (1, 1, Statistics.FERMIONIC)],
                         ids=["1-2-B", "1-1-F"])
def test_one_mode_sectors(sector):
    # with one mode every V is a phase, so no search has a direction to take:
    # each route reports the start, Q = 0
    basis = enumerate_basis(*sector)
    rho = np.eye(1, dtype=complex)
    cfg = OptimizerConfig(restarts=2)
    rep = quantumness(rho, basis, cfg)
    assert rep.q_value == 0.0 and rep.restart_values == (0.0,) and rep.converged
    assert rep.argmin_v.shape == (1, 1) and abs(abs(rep.argmin_v[0, 0]) - 1.0) <= 1e-15
    assert geometric_quantumness(rho, basis, cfg) == 0.0
    assert quantumness_oracle(rho, basis, 10, seed=0) == 0.0
    joint = run_protocol(rho, np.eye(1), basis)
    assert entanglement_maxcorr(joint) == pytest.approx(0.0, abs=1e-12)
    # one boson mode holds a condensate; one fermion in one mode is a Slater state
    expected = Classification.CLASSICAL_ONLY_C if sector[2] is Statistics.BOSONIC \
        else Classification.NO_QUANTUMNESS_P
    assert classify(rho, basis, cfg) is expected


def test_relative_entropy_basics():
    rng = np.random.default_rng(0)
    rho = random_density(4, rng)
    assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    assert relative_entropy(a, b) == math.inf


def test_relative_entropy_validates_first_argument():
    sigma = np.eye(2, dtype=complex) / 2
    with pytest.raises(InvalidState):
        relative_entropy(np.diag([0.5, 0.6]), sigma)
    with pytest.raises(InvalidState):
        relative_entropy(np.diag([1.1, -0.1]), sigma)


def test_relative_entropy_validates_second_argument():
    rho = np.eye(2, dtype=complex) / 2
    with pytest.raises(InvalidState):
        relative_entropy(rho, np.full((2, 2), np.nan))
    with pytest.raises(InvalidState):
        relative_entropy(rho, np.array([[0.5, 0.3], [0.0, 0.5]]))


def test_relative_entropy_pinching_identity():
    # S(rho || dephased rho) = S(dephased) - S(rho), both sides independent
    rng = np.random.default_rng(44)
    basis = enumerate_basis(3, 2, Statistics.BOSONIC)
    rho = random_density(basis.size, rng)
    fam = build_family(haar_random_unitary(3, rng), basis)
    sigma = dephase(rho, fam)
    lhs = relative_entropy(rho, sigma)
    rhs = von_neumann_entropy(sigma) - von_neumann_entropy(rho)
    assert lhs == pytest.approx(rhs, abs=1e-10)


# ---------- projected entropy ----------

def test_projected_entropy_worked_example():
    basis = boson22()
    rho = np.outer(psi_b(basis), psi_b(basis).conj())
    assert projected_entropy(rho, np.eye(2), basis) == pytest.approx(LN2, abs=1e-12)
    assert projected_entropy(rho, plus_minus_rotation(), basis) == pytest.approx(0.0, abs=1e-12)


def test_projected_entropy_diagonal_mixture():
    basis = enumerate_basis(4, 2, Statistics.FERMIONIC)
    p = np.array([0.4, 0.3, 0.2, 0.1, 0.0, 0.0])
    rho = np.diag(p).astype(complex)
    assert projected_entropy(rho, np.eye(4), basis) == pytest.approx(
        shannon_entropy(p), abs=1e-12)


# ---------- optimizer ----------

def test_quantumness_worked_example_is_zero():
    basis = boson22()
    rho = np.outer(psi_b(basis), psi_b(basis).conj())
    rep = quantumness(rho, basis, OptimizerConfig(restarts=8, seed=1))
    assert rep.q_value <= 1e-6
    assert rep.converged
    # the argmin rotation maps the state onto a single permanent
    out = lift_unitary(rep.argmin_v, basis) @ psi_b(basis)
    assert abs(out[basis.index_of((0, 1))]) == pytest.approx(1.0, abs=1e-8)


def test_quantumness_fermionic_bell_value():
    # two-determinant state: the minimal disturbance equals one bit
    basis, psi = fermionic_bell()
    rep = quantumness(np.outer(psi, psi.conj()), basis, OptimizerConfig(restarts=6, seed=2))
    assert rep.q_value == pytest.approx(LN2, abs=1e-6)


def test_quantumness_classical_family_is_zero():
    rng = np.random.default_rng(9)
    for d, stats in [(3, Statistics.BOSONIC), (4, Statistics.FERMIONIC)]:
        basis = enumerate_basis(d, 2, stats)
        k = 3
        support = tuple(basis.states[i] for i in rng.choice(basis.size, k, replace=False))
        spec = ClassicalStateSpec(
            probabilities=rng.dirichlet(np.ones(k)),
            V=haar_random_unitary(d, rng),
            support=support,
        )
        xi = make_classical_state(spec, basis)
        rep = quantumness(xi, basis, OptimizerConfig(restarts=3, seed=5))
        assert rep.q_value <= 1e-6


# (d, n, statistics, rank, restarts) where the searches agree across the forms
# of a state; (3,3,B) needs restarts=20, since at restarts=3 its forms settle
# in different minima
INVARIANCE_CASES = [(4, 2, F, 1, 3), (4, 2, F, 3, 3), (3, 2, B, 1, 3), (3, 2, B, 3, 3),
                    (5, 3, F, 1, 3), (5, 3, F, 3, 3), (6, 3, F, 1, 3), (6, 3, F, 3, 3),
                    (3, 3, B, 1, 20), (3, 3, B, 3, 20)]


@pytest.mark.parametrize("d,n,stats,rank,restarts", INVARIANCE_CASES,
                         ids=[f"{d}-{n}-{s.value[0].upper()}-rank{r}" for d, n, s, r, _ in INVARIANCE_CASES])
def test_quantumness_invariance_under_rotation(d, n, stats, rank, restarts):
    basis = enumerate_basis(d, n, stats)
    rng = np.random.default_rng([90, d, n])
    rho = random_density(basis.size, rng, rank=rank)
    forms = equal_quantumness_forms(rho, basis, [haar_random_unitary(d, rng) for _ in range(2)])
    q = [quantumness(form, basis, OptimizerConfig(restarts=restarts)).q_value for form in forms]
    assert max(q) - min(q) <= 1e-8


def test_quantumness_report_fields():
    basis = boson22()
    rho = np.outer(psi_b(basis), psi_b(basis).conj())
    cfg = OptimizerConfig(restarts=4, seed=0)
    rep = quantumness(rho, basis, cfg)
    assert rep.q_value >= 0.0
    assert len(rep.restart_values) >= 1
    assert rep.q_value == pytest.approx(min(rep.restart_values), abs=1e-9)
    V = rep.argmin_v
    assert_allclose(V @ V.conj().T, np.eye(2), atol=1e-10)


def test_optimizer_config_validation():
    with pytest.raises(InvalidSpec):
        OptimizerConfig(restarts=0)
    with pytest.raises(InvalidSpec):
        OptimizerConfig(tol=0.0)
    with pytest.raises(InvalidSpec):
        OptimizerConfig(tol=float("nan"))
    with pytest.raises(InvalidSpec):
        OptimizerConfig(tol=math.inf)
    with pytest.raises(InvalidSpec):
        OptimizerConfig(seed=-1)
    # the counts are integers: numpy's would do, a float would not
    assert OptimizerConfig(restarts=np.int64(2), max_iterations=np.int32(5), seed=np.uint8(3)).restarts == 2
    for fractional in (dict(restarts=2.5), dict(max_iterations=1.5), dict(seed=1.5)):
        with pytest.raises(InvalidSpec):
            OptimizerConfig(**fractional)


def test_oracle_validation():
    basis = boson22()
    with pytest.raises(InvalidSpec):
        quantumness_oracle(np.eye(3) / 3, basis, 10, seed=-1)
    for samples in (0, 2.5):
        with pytest.raises(InvalidSpec):
            quantumness_oracle(np.eye(3) / 3, basis, samples, seed=0)


# ---------- oracle ----------

def test_oracle_determinism_and_bound():
    basis = boson22()
    rho = np.outer(psi_b(basis), psi_b(basis).conj())
    a = quantumness_oracle(rho, basis, 2000, seed=10)
    b = quantumness_oracle(rho, basis, 2000, seed=10)
    assert a == b
    # true value is 0; a couple thousand samples land inside 0.05 at d=2
    assert 0.0 <= a <= 0.05
    rep = quantumness(rho, basis, OptimizerConfig(restarts=4, seed=1))
    assert a >= rep.q_value - 1e-9


def test_oracle_finds_identity_for_fock_diagonal():
    basis = enumerate_basis(2, 2, Statistics.BOSONIC)
    pure = slater_state((0, 1), basis)
    rho = np.outer(pure, pure.conj())
    # lifted Fock states have zero disturbance in many bases; samples find it fast
    assert quantumness_oracle(rho, basis, 200, seed=3) <= 0.05


ORACLE_SECTORS = [(2, 2, Statistics.FERMIONIC), (2, 2, Statistics.BOSONIC),
                  (3, 2, Statistics.FERMIONIC), (3, 3, Statistics.BOSONIC),
                  (6, 3, Statistics.FERMIONIC), (4, 4, Statistics.BOSONIC)]


@pytest.mark.parametrize("d,n,stats", [
    pytest.param(d, n, stats, id=f"{d}-{n}-{stats.value[0].upper()}")
    for d, n, stats in ORACLE_SECTORS])
def test_oracle_matches_the_per_sample_loop(d, n, stats):
    # referee: one Haar draw and one single-V lift per sample; the best value
    # after k draws is the running minimum of the loop's first k values
    basis = enumerate_basis(d, n, stats)
    rho = random_density(basis.size, np.random.default_rng(31))
    chunk = _stack_chunk(basis)
    rng = np.random.default_rng(5)
    running = np.minimum.accumulate(
        [projected_entropy(rho, haar_random_unitary(d, rng), basis) for _ in range(chunk + 1)]
    ) - von_neumann_entropy(rho)
    for samples in sorted({1, chunk - 1, chunk, chunk + 1} - {0}):
        value = quantumness_oracle(rho, basis, samples, seed=5)
        assert abs(value - running[samples - 1]) <= 1e-12, samples


def test_oracle_advances_a_generator_as_the_loop_does():
    basis = enumerate_basis(3, 2, Statistics.BOSONIC)
    rho = random_density(basis.size, np.random.default_rng(32))
    samples = _stack_chunk(basis) + 1  # a full chunk and a partial one
    oracle_rng, loop_rng = np.random.default_rng(33), np.random.default_rng(33)
    quantumness_oracle(rho, basis, samples, seed=oracle_rng)
    for _ in range(samples):
        haar_random_unitary(3, loop_rng)
    assert oracle_rng.standard_normal() == loop_rng.standard_normal()


# ---------- geometric route ----------

def test_geometric_equals_disturbance_route():
    basis = boson22()
    rho = np.outer(psi_b(basis), psi_b(basis).conj())
    cfg = OptimizerConfig(restarts=4, seed=1)
    q = quantumness(rho, basis, cfg).q_value
    g = geometric_quantumness(rho, basis, cfg)
    assert g == pytest.approx(q, abs=1e-6)

    basis_f, psi = fermionic_bell()
    rho_f = np.outer(psi, psi.conj())
    cfg_f = OptimizerConfig(restarts=5, seed=2)
    q_f = quantumness(rho_f, basis_f, cfg_f).q_value
    g_f = geometric_quantumness(rho_f, basis_f, cfg_f)
    assert g_f == pytest.approx(q_f, abs=1e-6)


def test_geometric_zero_on_classical_states():
    rng = np.random.default_rng(6)
    basis = enumerate_basis(3, 2, Statistics.FERMIONIC)
    spec = ClassicalStateSpec(
        probabilities=np.array([0.6, 0.4]),
        V=haar_random_unitary(3, rng),
        support=((0, 1), (0, 2)),
    )
    xi = make_classical_state(spec, basis)
    assert geometric_quantumness(xi, basis, OptimizerConfig(restarts=3, seed=4)) <= 1e-6


# ---------- classical states ----------

def test_make_classical_state_single_slater():
    basis = enumerate_basis(2, 2, Statistics.FERMIONIC)
    spec = ClassicalStateSpec(np.array([1.0]), np.eye(2), ((0, 1),))
    xi = make_classical_state(spec, basis)
    assert_allclose(xi, [[1.0]], atol=1e-15)


def test_make_classical_state_worked_example():
    basis = boson22()
    # the +/- permanent is the classical state with support {(0,1)} rotated by
    # the inverse of the optimal rotation
    V = plus_minus_rotation().conj().T
    xi = make_classical_state(ClassicalStateSpec(np.array([1.0]), V, ((0, 1),)), basis)
    rho = np.outer(psi_b(basis), psi_b(basis).conj())
    assert_allclose(xi, rho, atol=1e-12)


def test_make_classical_state_validation():
    basis = boson22()
    with pytest.raises(InvalidSpec):
        make_classical_state(ClassicalStateSpec(np.array([0.5, 0.6]), np.eye(2),
                                                ((0, 0), (1, 1))), basis)
    with pytest.raises(InvalidSpec):
        make_classical_state(ClassicalStateSpec(np.array([0.5, 0.5]), np.eye(2),
                                                ((0, 0), (0, 0))), basis)
    with pytest.raises(InvalidSpec):
        make_classical_state(ClassicalStateSpec(np.array([1.0]), 2 * np.eye(2),
                                                ((0, 0),)), basis)
    with pytest.raises(InvalidSpec):
        make_classical_state(ClassicalStateSpec(np.array([1.0]), np.eye(2),
                                                ((0, 2),)), basis)
    with pytest.raises(InvalidSpec):
        make_classical_state(ClassicalStateSpec(np.array([]), np.eye(2), ()), basis)


# ---------- slater rank ----------

def test_slater_rank_fermionic_cases():
    basis = enumerate_basis(4, 2, Statistics.FERMIONIC)
    assert slater_rank_two_particle(slater_state((0, 1), basis), basis) == 1
    _, bell = fermionic_bell()
    assert slater_rank_two_particle(bell, basis) == 2
    # every two-fermion state in d=3 is a single determinant
    basis3 = enumerate_basis(3, 2, Statistics.FERMIONIC)
    rng = np.random.default_rng(15)
    for _ in range(5):
        assert slater_rank_two_particle(random_pure(3, rng), basis3) == 1


def test_slater_rank_bosonic_cases():
    basis = boson22()
    # the worked example is a single permanent despite two nonzero amplitudes
    assert slater_rank_two_particle(psi_b(basis), basis) == 1
    assert slater_rank_two_particle(slater_state((0, 1), basis), basis) == 1
    assert slater_rank_two_particle(slater_state((0, 0), basis), basis) == 1
    # unequal condensate mixture: genuinely rank 2
    psi = (math.sqrt(0.9) * slater_state((0, 0), basis)
           + math.sqrt(0.1) * slater_state((1, 1), basis))
    assert slater_rank_two_particle(psi, basis) == 2


def test_slater_rank_rotation_invariance():
    rng = np.random.default_rng(25)
    basis = boson22()
    V = haar_random_unitary(2, rng)
    G = lift_unitary(V, basis)
    assert slater_rank_two_particle(G @ psi_b(basis), basis) == 1
    basis_f, bell = fermionic_bell()
    Gf = lift_unitary(haar_random_unitary(4, rng), basis_f)
    assert slater_rank_two_particle(Gf @ bell, basis_f) == 2


def test_slater_rank_rejects_other_particle_numbers():
    basis = enumerate_basis(3, 3, Statistics.BOSONIC)
    with pytest.raises(UnsupportedParticleNumber):
        slater_rank_two_particle(slater_state((0, 1, 2), basis), basis)


# ---------- one-particle reduced density matrix ----------

def test_one_particle_rdm_diagonal_mixture():
    basis = enumerate_basis(3, 2, Statistics.FERMIONIC)
    rho = np.diag([0.5, 0.5, 0.0]).astype(complex)  # mix of (0,1) and (0,2)
    R = one_particle_rdm(rho, basis)
    assert_allclose(R, np.diag([1.0, 0.5, 0.5]), atol=1e-12)
    assert np.trace(R).real == pytest.approx(2.0, abs=1e-12)


def test_one_particle_rdm_transforms_covariantly():
    rng = np.random.default_rng(33)
    basis = enumerate_basis(3, 2, Statistics.BOSONIC)
    rho = random_density(basis.size, rng)
    V = haar_random_unitary(3, rng)
    G = lift_unitary(V, basis)
    # with R_ij = Tr(rho a+_i a_j) the law is R -> conj(V) R V^T
    R1 = one_particle_rdm(G @ rho @ G.conj().T, basis)
    R2 = V.conj() @ one_particle_rdm(rho, basis) @ V.T
    assert_allclose(R1, R2, atol=1e-10)


def test_one_particle_rdm_rejects_a_state_of_the_wrong_size():
    basis = enumerate_basis(4, 2, Statistics.FERMIONIC)
    for rho in (np.eye(5) / 5, np.full(6, 1 / 6)):
        with pytest.raises(DimensionMismatch):
            one_particle_rdm(rho, basis)


# ---------- classification ----------

def test_classify_condensate_is_classical():
    basis = boson22()
    rho = np.outer(slater_state((0, 0), basis), slater_state((0, 0), basis).conj())
    assert classify(rho, basis, OptimizerConfig(restarts=3, seed=1)) is \
        Classification.CLASSICAL_ONLY_C


def test_classify_rotated_condensate_mixture_is_classical():
    # equal-weight mixture of condensates in a rotated basis: the one-particle
    # spectrum is degenerate, so the defect minimization has to decide
    basis = boson22()
    V = haar_random_unitary(2, np.random.default_rng(50))
    G = lift_unitary(V, basis)
    rho = 0.5 * np.outer(G[:, 0], G[:, 0].conj()) + 0.5 * np.outer(G[:, 2], G[:, 2].conj())
    rep = classify_report(rho, basis, OptimizerConfig(restarts=6, seed=2))
    assert rep.label is Classification.CLASSICAL_ONLY_C
    assert rep.condensate_defect <= 1e-8


def test_classify_fermionic_slater_is_p_never_c():
    basis = enumerate_basis(3, 2, Statistics.FERMIONIC)
    rho = np.outer(slater_state((0, 2), basis), slater_state((0, 2), basis).conj())
    rep = classify_report(rho, basis, OptimizerConfig(restarts=3, seed=1))
    assert rep.label is Classification.NO_QUANTUMNESS_P
    assert rep.condensate_defect is None  # C test never runs for fermions


def test_classify_permanent_state_is_p_not_c():
    basis = boson22()
    rho = np.outer(psi_b(basis), psi_b(basis).conj())
    assert classify(rho, basis, OptimizerConfig(restarts=4, seed=1)) is \
        Classification.NO_QUANTUMNESS_P


def test_classify_bell_state_is_correlated():
    basis, psi = fermionic_bell()
    rep = classify_report(np.outer(psi, psi.conj()), basis,
                          OptimizerConfig(restarts=5, seed=2))
    assert rep.label is Classification.CORRELATED_Q
    assert rep.slater_rank == 2
    assert rep.q_value > 1e-3


def test_classify_mixed_beyond_p_is_undecided():
    # mixture of permanents in two incompatible bases has quantumness but its
    # separability is not decided here
    basis = boson22()
    rng = np.random.default_rng(60)
    G = lift_unitary(haar_random_unitary(2, rng), basis)
    a = slater_state((0, 1), basis)
    b = G @ slater_state((0, 0), basis)
    rho = 0.5 * np.outer(a, a.conj()) + 0.5 * np.outer(b, b.conj())
    rep = classify_report(rho, basis, OptimizerConfig(restarts=6, seed=3))
    assert rep.label is Classification.UNDECIDED
    assert rep.q_value > 1e-6


def test_classical_states_chain_into_p():
    # every C state is also P: quantumness vanishes on condensate mixtures
    basis = enumerate_basis(3, 2, Statistics.BOSONIC)
    rng = np.random.default_rng(71)
    V = haar_random_unitary(3, rng)
    spec = ClassicalStateSpec(
        probabilities=np.array([0.2, 0.3, 0.5]),
        V=V,
        support=((0, 0), (1, 1), (2, 2)),
    )
    xi = make_classical_state(spec, basis)
    rep = classify_report(xi, basis, OptimizerConfig(restarts=4, seed=4))
    assert rep.label is Classification.CLASSICAL_ONLY_C
    assert quantumness(xi, basis, OptimizerConfig(restarts=3, seed=5)).q_value <= 1e-6


@pytest.mark.parametrize("d,k", [(4, 0), (4, 1), (5, 0), (5, 1), (6, 0), (6, 1)])
def test_pure_two_fermion_quantumness_matches_slater_weights(d, k):
    """Measured agreement, not a proof: on these fixed-seed states the
    optimizer reproduces the Shannon entropy of the Slater weights, and no
    Haar-sampled rotation goes below it."""
    basis = enumerate_basis(d, 2, Statistics.FERMIONIC)
    rng = np.random.default_rng([d, k])
    psi = random_pure(basis.size, rng)
    rho = np.outer(psi, psi.conj())
    closed = two_fermion_quantumness(psi, basis.states, d)
    q = quantumness(rho, basis, OptimizerConfig(restarts=1, seed=k)).q_value
    assert abs(q - closed) <= 1e-8
    sampled = min(projected_entropy(rho, haar_random_unitary(d, rng), basis)
                  for _ in range(200))
    assert sampled >= closed - 1e-12


def test_three_mode_two_fermion_sector_is_classical():
    # particle-hole: (3,2,F) has D = 3 and its lift covers U(3), so every
    # state is diagonal in some rotated Fock basis
    basis = enumerate_basis(3, 2, Statistics.FERMIONIC)
    rng = np.random.default_rng(32)
    for k in range(8):
        rho = random_density(basis.size, rng)
        assert quantumness(rho, basis, OptimizerConfig(restarts=3, seed=k)).q_value <= 1e-8


@pytest.mark.parametrize("d", [4, 5, 6])
def test_one_hole_sectors_are_classical(d):
    # particle-hole: a (d, d-1, F) state is a one-particle state of its hole,
    # which is diagonal in the eigenbasis of its own density matrix
    basis = enumerate_basis(d, d - 1, F)
    rng = np.random.default_rng([d, 101])
    psi = random_pure(basis.size, rng)
    for k, rho in enumerate((np.outer(psi, psi.conj()), random_density(basis.size, rng, rank=3))):
        assert quantumness(rho, basis, OptimizerConfig(restarts=2, seed=k)).q_value <= 1e-12


@pytest.mark.parametrize("d", [5, 6, 7, 8])
def test_two_hole_pure_states_match_their_hole_pair(d):
    # particle-hole: a pure (d, d-2, F) state has the quantumness of its
    # two-fermion hole image, whose closed form is the Slater-weight entropy
    basis = enumerate_basis(d, d - 2, F)
    psi = random_pure(basis.size, np.random.default_rng([d, 102]))
    q = quantumness(np.outer(psi, psi.conj()), basis, OptimizerConfig(restarts=2, seed=d)).q_value
    assert abs(q - two_fermion_quantumness(*hole_image(psi, basis.states, d), d)) <= 1e-9


@pytest.mark.parametrize("d", [5, 6, 7, 8])
def test_two_hole_mixed_states_match_their_hole_images(d):
    # particle-hole for a rank-3 state: relabel rho by hole_image's signed
    # map onto (d, 2, F) and compare two searches
    basis, pairs = enumerate_basis(d, d - 2, F), enumerate_basis(d, 2, F)
    rho = random_density(basis.size, np.random.default_rng([d, 103]), rank=3)
    signs, holes = hole_image(np.ones(basis.size), basis.states, d)
    P = np.zeros((pairs.size, basis.size))
    P[[pairs.index_of(h) for h in holes], np.arange(basis.size)] = signs
    cfg = OptimizerConfig(restarts=2, seed=d)
    q = quantumness(rho, basis, cfg).q_value
    assert abs(q - quantumness(P @ rho @ P.T, pairs, cfg).q_value) <= 1e-8


@pytest.mark.parametrize("d,n", [(5, 3), (6, 3), (7, 4)])
def test_coleman_defect_separates_slater_determinants(d, n):
    # a pure fermion state is one Slater determinant exactly when its
    # one-particle density matrix is a projector; classify agrees on both sides
    basis = enumerate_basis(d, n, F)
    rng = np.random.default_rng([d, n, 104])
    spec = ClassicalStateSpec(np.array([1.0]), haar_random_unitary(d, rng), (basis.states[0],))
    slater = make_classical_state(spec, basis)
    psi = random_pure(basis.size, rng)
    cfg = OptimizerConfig(restarts=1)
    assert coleman_defect(slater, basis) <= 1e-12
    assert classify(slater, basis, cfg) is Classification.NO_QUANTUMNESS_P
    assert coleman_defect(np.outer(psi, psi.conj()), basis) > 1e-2
    assert classify(np.outer(psi, psi.conj()), basis, cfg) is Classification.CORRELATED_Q
