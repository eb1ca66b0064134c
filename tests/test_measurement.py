import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qcorr import (
    DimensionMismatch,
    Statistics,
    build_family,
    dephase,
    entanglement_maxcorr,
    enumerate_basis,
    haar_random_unitary,
    lift_unitary,
    projected_entropy,
    run_protocol,
    slater_state,
    von_neumann_entropy,
)

from helpers import plus_minus_rotation, random_density


@pytest.fixture
def boson22():
    return enumerate_basis(2, 2, Statistics.BOSONIC)


def psi_b(basis):
    return (slater_state((0, 0), basis) + slater_state((1, 1), basis)) / math.sqrt(2)


def test_identity_family_projects_onto_fock_states(boson22):
    fam = build_family(np.eye(2), boson22)
    for k in range(3):
        target = np.zeros((3, 3))
        target[k, k] = 1.0
        assert_allclose(dephase(target, fam), target, atol=1e-12)
    # and every coherence between two Fock states is erased
    assert_allclose(dephase(np.ones((3, 3)) / 3, fam), np.eye(3) / 3, atol=1e-12)


def test_family_invariants_random():
    # the channel sum_k Pi_k X Pi_k of a complete family of orthogonal rank-1
    # projectors: unital (sum_k Pi_k = I), idempotent, adjoint-preserving, and
    # of rank D as a linear map on D x D matrices (one dimension per Pi_k)
    rng = np.random.default_rng(21)
    for d, n, stats in [(3, 2, Statistics.BOSONIC), (4, 2, Statistics.FERMIONIC)]:
        basis = enumerate_basis(d, n, stats)
        fam = build_family(haar_random_unitary(d, rng), basis)
        D = basis.size
        assert_allclose(dephase(np.eye(D), fam), np.eye(D), atol=1e-10)
        X = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
        assert_allclose(dephase(X.conj().T, fam), dephase(X, fam).conj().T, atol=1e-10)
        assert_allclose(dephase(dephase(X, fam), fam), dephase(X, fam), atol=1e-10)
        channel = np.array([dephase(E.reshape(D, D), fam).ravel() for E in np.eye(D * D)])
        assert np.linalg.matrix_rank(channel, tol=1e-8) == D


def test_rotated_family_contains_worked_example_projector(boson22):
    fam = build_family(plus_minus_rotation(), boson22)
    # the +/- permanent state is a member of the rotated family, so measuring
    # it there leaves it as it is
    rho = np.outer(psi_b(boson22), psi_b(boson22).conj())
    assert_allclose(dephase(rho, fam), rho, atol=1e-12)


def test_dephase_fixed_point(boson22):
    rho = np.diag([0.2, 0.5, 0.3]).astype(complex)
    fam = build_family(np.eye(2), boson22)
    assert_allclose(dephase(rho, fam), rho, atol=1e-12)


def test_dephase_worked_example_diagonal(boson22):
    rho = np.outer(psi_b(boson22), psi_b(boson22).conj())
    fam = build_family(np.eye(2), boson22)
    assert_allclose(dephase(rho, fam), np.diag([0.5, 0.0, 0.5]), atol=1e-12)


def test_dephase_properties_random():
    rng = np.random.default_rng(8)
    basis = enumerate_basis(3, 2, Statistics.FERMIONIC)
    rho = random_density(basis.size, rng)
    fam = build_family(haar_random_unitary(3, rng), basis)
    out = dephase(rho, fam)
    # trace preserved, PSD, entropy non-decreasing
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(out).min() > -1e-12
    assert von_neumann_entropy(out) >= von_neumann_entropy(rho) - 1e-12
    # idempotent and commuting with every projector: diagonal in the measured basis
    assert_allclose(dephase(out, fam), out, atol=1e-12)
    G = fam.rotation
    measured = G @ out @ G.conj().T
    assert_allclose(measured, np.diag(np.diag(measured)), atol=1e-12)


def test_dephase_of_fock_states_and_of_the_mixed_state(boson22):
    fam = build_family(np.eye(2), boson22)
    pure = slater_state((0, 1), boson22)
    assert_allclose(dephase(np.outer(pure, pure.conj()), fam),
                    np.diag([0, 1, 0]), atol=1e-14)
    assert_allclose(dephase(np.eye(3) / 3, fam),
                    np.eye(3) / 3, atol=1e-14)


def test_dephased_diagonal_is_the_born_distribution():
    rng = np.random.default_rng(31)
    basis = enumerate_basis(3, 2, Statistics.BOSONIC)
    rho = random_density(basis.size, rng)
    V = haar_random_unitary(3, rng)
    # outcome k has probability <k|G rho G+|k>, the diagonal of the
    # dephased state in the measured basis G+|k>
    G = lift_unitary(V, basis)
    p = np.diag(G @ rho @ G.conj().T).real
    assert p.min() >= 0 and p.sum() == pytest.approx(1.0, abs=1e-12)
    diag = np.diag(G @ dephase(rho, build_family(V, basis)) @ G.conj().T).real
    assert_allclose(p, diag, atol=1e-12)


@pytest.mark.parametrize("d,n,stats", [(3, 2, Statistics.BOSONIC), (4, 2, Statistics.FERMIONIC),
                                       (3, 3, Statistics.BOSONIC)], ids=["3-2-B", "4-2-F", "3-3-B"])
def test_family_measures_where_projected_entropy_and_the_protocol_do(d, n, stats):
    # one convention: the family of V, the projected entropy at V and the
    # activation protocol at V all measure in the basis Gamma(V)+|k>
    rng = np.random.default_rng([40, d, n])
    basis = enumerate_basis(d, n, stats)
    for _ in range(3):
        rho = random_density(basis.size, rng)
        V = haar_random_unitary(d, rng)
        dephased = von_neumann_entropy(dephase(rho, build_family(V, basis)))
        projected = projected_entropy(rho, V, basis)
        activated = entanglement_maxcorr(run_protocol(rho, V, basis)) + von_neumann_entropy(rho)
        assert abs(dephased - projected) <= 1e-12
        assert abs(activated - projected) <= 1e-12


def test_dimension_mismatch(boson22):
    fam = build_family(np.eye(2), boson22)
    with pytest.raises(DimensionMismatch):
        dephase(np.eye(4) / 4, fam)
    with pytest.raises(DimensionMismatch):
        build_family(np.eye(3), boson22)
