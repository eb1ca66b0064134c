import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from qcorr import (
    DimensionMismatch,
    InvalidSpec,
    Statistics,
    build_family,
    enumerate_basis,
    haar_random_unitary,
    lift_unitary,
    max_corr_coefficients,
    projected_entropy,
    run_protocol,
    slater_state,
)
from qcorr import lift
from qcorr.lift import _haar_stack

from helpers import lift_observable, plus_minus_rotation, random_density, reference_lift

SECTORS = [(2, 2, Statistics.BOSONIC), (3, 2, Statistics.BOSONIC),
           (3, 2, Statistics.FERMIONIC), (4, 2, Statistics.FERMIONIC),
           (3, 3, Statistics.BOSONIC), (4, 3, Statistics.FERMIONIC),
           (2, 4, Statistics.BOSONIC), (6, 3, Statistics.FERMIONIC),
           (4, 4, Statistics.BOSONIC)]


def _with_phases(phases, rng) -> np.ndarray:
    W = haar_random_unitary(len(phases), rng)
    return (W * np.exp(1j * np.asarray(phases))) @ W.conj().T


# V kinds: a generic spectrum, an exactly repeated eigenvalue, an
# eigenvalue at -1, and the scalar -I, whose lift is (-1)^n
V_KINDS = {
    "haar": lambda d, rng: haar_random_unitary(d, rng),
    "degenerate": lambda d, rng: _with_phases([0.7] * (d - 1) + [-2.1], rng),
    "branch_cut": lambda d, rng: _with_phases([math.pi] + list(rng.uniform(-3, 3, d - 1)), rng),
    "minus_identity": lambda d, rng: -np.eye(d, dtype=complex),
}


def test_lift_identity():
    for d, n, stats in SECTORS:
        basis = enumerate_basis(d, n, stats)
        assert_allclose(lift_unitary(np.eye(d), basis), np.eye(basis.size), atol=1e-12)


@pytest.mark.parametrize("d,n,stats,kind", [
    # a Haar draw is the generic case, so its id is the bare sector
    pytest.param(d, n, stats, kind, id=f"{d}-{n}-{stats}" + ("" if kind == "haar" else f"-{kind}"))
    for d, n, stats in SECTORS for kind in V_KINDS
])
def test_lift_matches_tensor_power_construction(d, n, stats, kind):
    rng = np.random.default_rng(100 + d + 10 * n)
    basis = enumerate_basis(d, n, stats)
    V = V_KINDS[kind](d, rng)
    G = lift_unitary(V, basis)
    assert_allclose(G, reference_lift(V, basis), atol=1e-12)
    assert_allclose(G @ G.conj().T, np.eye(basis.size), atol=1e-10)


@pytest.mark.parametrize("d,n,stats", SECTORS)
def test_lift_homomorphism(d, n, stats):
    rng = np.random.default_rng(17)
    basis = enumerate_basis(d, n, stats)
    V = haar_random_unitary(d, rng)
    W = haar_random_unitary(d, rng)
    assert_allclose(lift_unitary(V @ W, basis),
                    lift_unitary(V, basis) @ lift_unitary(W, basis), atol=1e-9)


def test_lift_one_particle_sector_is_identity_map():
    basis = enumerate_basis(3, 1, Statistics.FERMIONIC)
    V = haar_random_unitary(3, np.random.default_rng(3))
    assert_allclose(lift_unitary(V, basis), V, atol=1e-15)


@pytest.mark.parametrize("stats", list(Statistics))
def test_lift_vacuum_sector_is_trivial(stats):
    V = haar_random_unitary(3, np.random.default_rng(4))
    assert_allclose(lift_unitary(V, enumerate_basis(3, 0, stats)), [[1.0]], atol=1e-15)


def test_lift_worked_example_rotation():
    # the +/- rotation turns the two-mode condensate superposition into the
    # single permanent with one particle per mode
    basis = enumerate_basis(2, 2, Statistics.BOSONIC)
    psi = (slater_state((0, 0), basis) + slater_state((1, 1), basis)) / math.sqrt(2)
    out = lift_unitary(plus_minus_rotation(), basis) @ psi
    target = slater_state((0, 1), basis)
    assert abs(abs(np.vdot(target, out)) - 1.0) < 1e-12


def test_lift_dimension_mismatch():
    basis = enumerate_basis(3, 2, Statistics.BOSONIC)
    for V in (np.eye(2), np.array([np.eye(2)] * 3), np.ones(3)):
        with pytest.raises(DimensionMismatch):
            lift_unitary(V, basis)


# every public route from a caller's V to a lift, as f(rho, V, basis)
LIFT_ENTRIES = {
    "lift_unitary": lambda rho, V, basis: lift_unitary(V, basis),
    "build_family": lambda rho, V, basis: build_family(V, basis),
    "projected_entropy": projected_entropy,
    "run_protocol": run_protocol,
    "max_corr_coefficients": max_corr_coefficients,
}


@pytest.mark.parametrize("entry", LIFT_ENTRIES)
def test_lift_rejects_non_unitary_v(entry):
    # the recursion lifts any matrix: diag(1, 2) would lift as a non-unitary
    basis = enumerate_basis(2, 2, Statistics.BOSONIC)
    rho = random_density(basis.size, np.random.default_rng(6))
    # a stack is checked whole: one non-unitary member rejects it
    for V in (np.diag([1.0, 2.0]), np.full((2, 2), np.nan), np.array([np.eye(2), np.diag([1.0, 2.0])])):
        with pytest.raises(InvalidSpec):
            LIFT_ENTRIES[entry](rho, V, basis)


def test_lift_accepts_rounding_off_unitarity():
    basis = enumerate_basis(3, 2, Statistics.BOSONIC)
    V = haar_random_unitary(3, np.random.default_rng(12))
    W = V * (1 + 1e-11)
    assert_allclose(lift_unitary(W, basis), lift_unitary(V, basis), atol=1e-10)


def test_lift_of_a_stack_is_the_stack_of_lifts():
    rng = np.random.default_rng(13)
    for d, n, stats in SECTORS:
        basis = enumerate_basis(d, n, stats)
        A = rng.standard_normal((4, d, d)) + 1j * rng.standard_normal((4, d, d))
        H = (A + A.conj().swapaxes(1, 2)) / 2
        obs = lift_observable(H, basis)
        assert obs.shape == (4, basis.size, basis.size)
        for k in range(4):
            assert_allclose(obs[k], lift_observable(H[k], basis), atol=1e-13)
        # one V of every kind, lifted as one stack
        V = np.array([make(d, rng) for make in V_KINDS.values()])
        lifts = lift_unitary(V, basis)
        assert lifts.shape == (len(V_KINDS), basis.size, basis.size)
        for k in range(len(V_KINDS)):
            assert_allclose(lifts[k], lift_unitary(V[k], basis), atol=1e-12)
            assert_allclose(lifts[k], reference_lift(V[k], basis), atol=1e-12)


@pytest.mark.parametrize("d,n,stats", [(2, 8, Statistics.BOSONIC), (5, 3, Statistics.FERMIONIC),
                                       (5, 4, Statistics.BOSONIC)])
def test_lift_matches_tensor_power_construction_in_larger_sectors(d, n, stats):
    basis = enumerate_basis(d, n, stats)
    V = _haar_stack(d, np.random.default_rng([d, n, 18]), 3)
    reference = np.array([reference_lift(v, basis) for v in V])
    assert_allclose(lift_unitary(V[0], basis), reference[0], atol=1e-12)
    assert_allclose(lift_unitary(V, basis), reference, atol=1e-12)
    assert_allclose(lift_unitary(V.reshape(3, 1, d, d), basis)[:, 0], reference, atol=1e-12)


def test_lift_unitarity_defect_at_dimension_330():
    basis = enumerate_basis(8, 4, Statistics.BOSONIC)
    assert basis.size == 330
    G = lift_unitary(haar_random_unitary(8, np.random.default_rng(19)), basis)
    assert np.abs(G @ G.conj().T - np.eye(basis.size)).max() <= 1e-13


@pytest.mark.parametrize("d,n,stats", [(4, 2, Statistics.FERMIONIC), (3, 3, Statistics.BOSONIC),
                                       (6, 3, Statistics.FERMIONIC), (4, 4, Statistics.BOSONIC)])
def test_stacked_lift_is_bitwise_the_lone_lifts(d, n, stats):
    # each row is rounded by the same elementwise products in the same order in any stack
    basis = enumerate_basis(d, n, stats)
    V = _haar_stack(d, np.random.default_rng([d, n, 20]), 64)
    lone = np.array([lift_unitary(v, basis) for v in V])
    for m in (1, 3, 64):
        assert np.array_equal(lift_unitary(V[:m], basis), lone[:m])


@pytest.mark.parametrize("d,n,stats", [(4, 2, Statistics.FERMIONIC), (3, 3, Statistics.BOSONIC),
                                       (6, 3, Statistics.FERMIONIC), (4, 4, Statistics.BOSONIC)])
def test_lift_in_blocks_is_bitwise_the_whole_lift(d, n, stats, monkeypatch):
    # under a smaller byte cap the stack is gathered two members at a time,
    # and then in blocks of 7 entries of one member; every entry sums the same
    # terms in the same order, so nothing changes
    basis = enumerate_basis(d, n, stats)
    V = _haar_stack(d, np.random.default_rng([d, n, 21]), 5)
    whole = lift_unitary(V, basis)
    slots = min(n, d)
    for cap in (2 * 16 * slots * basis.size ** 2, 7 * 16 * slots):
        monkeypatch.setattr(lift, "_STACK_BYTES", cap)
        assert np.array_equal(lift_unitary(V, basis), whole)
        assert np.array_equal(lift_unitary(V[1], basis), whole[1])


@pytest.mark.parametrize("d,n,stats", [(3, 0, Statistics.BOSONIC), (3, 1, Statistics.FERMIONIC),
                                       (3, 3, Statistics.BOSONIC), (4, 2, Statistics.FERMIONIC)])
def test_lift_of_an_empty_stack_is_empty(d, n, stats):
    basis = enumerate_basis(d, n, stats)
    for lead in ((0,), (2, 0)):
        assert lift_unitary(np.zeros((*lead, d, d)), basis).shape == (*lead, basis.size, basis.size)
        assert lift_observable(np.zeros((*lead, d, d)), basis).shape == (*lead, basis.size, basis.size)


def test_lift_observable_number_operator():
    for d, n, stats in SECTORS[:4]:
        basis = enumerate_basis(d, n, stats)
        assert_allclose(lift_observable(np.eye(d), basis),
                        n * np.eye(basis.size), atol=1e-12)


def test_lift_observable_occupation_counting():
    basis = enumerate_basis(2, 2, Statistics.BOSONIC)
    O = lift_observable(np.diag([0.0, 1.0]), basis)
    assert_allclose(O, np.diag([0.0, 1.0, 2.0]), atol=1e-12)


def test_lift_observable_eigen_structure():
    # eigenvalues of the lifted operator are sums of single-particle
    # eigenvalues; eigenvectors are lifted Fock states of M's eigenbasis
    rng = np.random.default_rng(5)
    d, n = 3, 2
    basis = enumerate_basis(d, n, Statistics.FERMIONIC)
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    M = (A + A.conj().T) / 2
    lam, U = np.linalg.eigh(M)
    O = lift_observable(M, basis)
    assert_allclose(O, O.conj().T, atol=1e-12)
    expected = sorted(lam[i] + lam[j] for i, j in basis.states)
    assert_allclose(np.linalg.eigvalsh(O), expected, atol=1e-10)
    G = lift_unitary(U, basis)
    for occ in basis.states:
        v = G @ slater_state(occ, basis)
        assert_allclose(O @ v, (lam[occ[0]] + lam[occ[1]]) * v, atol=1e-10)


def test_lifted_generator_exponentiates_to_lifted_unitary():
    rng = np.random.default_rng(9)
    for d, n, stats in [(3, 2, Statistics.BOSONIC), (4, 2, Statistics.FERMIONIC)]:
        basis = enumerate_basis(d, n, stats)
        A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        H = (A + A.conj().T) / 2
        lhs = lift_unitary(expm(1j * H), basis)
        rhs = expm(1j * lift_observable(H, basis))
        assert_allclose(lhs, rhs, atol=1e-8)


def test_lift_observable_commutes_with_matching_lift():
    rng = np.random.default_rng(11)
    d, basis = 3, enumerate_basis(3, 2, Statistics.BOSONIC)
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    H = (A + A.conj().T) / 2
    O = lift_observable(H, basis)
    G = lift_unitary(expm(1j * H), basis)
    assert_allclose(O @ G, G @ O, atol=1e-9)


def test_haar_determinism_and_unitarity():
    V1 = haar_random_unitary(3, 42)
    V2 = haar_random_unitary(3, 42)
    assert_allclose(V1, V2, atol=0)
    assert_allclose(V1 @ V1.conj().T, np.eye(3), atol=1e-10)


def test_haar_first_entry_moment():
    rng = np.random.default_rng(314)
    vals = [abs(haar_random_unitary(2, rng)[0, 0]) ** 2 for _ in range(1000)]
    assert abs(np.mean(vals) - 0.5) < 0.05


def test_haar_rejects_bad_dimension_or_seed():
    for d, seed in ((3, -1), (3, np.int64(-2)), (2.0, 0), ("3", 0), (0, 0), (-1, 0)):
        with pytest.raises(InvalidSpec):
            haar_random_unitary(d, seed)
    assert haar_random_unitary(np.int64(2), np.uint8(3)).shape == (2, 2)


@pytest.mark.parametrize("d", [1, 2, 3, 6])
def test_haar_draws_are_the_slices_of_one_stack_draw(d):
    one, stacked = np.random.default_rng(15), np.random.default_rng(15)
    singles = np.array([haar_random_unitary(d, one) for _ in range(7)])
    assert np.array_equal(singles, _haar_stack(d, stacked, 7))
    assert one.bit_generator.state == stacked.bit_generator.state
