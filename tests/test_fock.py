import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qcorr import (
    BasisMismatch,
    InvalidDimension,
    InvalidState,
    Statistics,
    UnknownOccupation,
    check_density_matrix,
    creation_matrix,
    enumerate_basis,
    slater_state,
)

from helpers import random_density


def test_bosonic_d2_n2_enumeration():
    basis = enumerate_basis(2, 2, Statistics.BOSONIC)
    assert basis.states == ((0, 0), (0, 1), (1, 1))
    assert basis.size == 3


def test_fermionic_d2_n2_single_state():
    basis = enumerate_basis(2, 2, Statistics.FERMIONIC)
    assert basis.states == ((0, 1),)


def test_fermionic_d4_n2_enumeration():
    basis = enumerate_basis(4, 2, Statistics.FERMIONIC)
    assert basis.size == 6
    assert basis.states == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


@pytest.mark.parametrize("d", range(1, 7))
@pytest.mark.parametrize("n", range(1, 5))
def test_dimension_formulas(d, n):
    if n <= d:
        fb = enumerate_basis(d, n, Statistics.FERMIONIC)
        assert fb.size == math.comb(d, n)
    bb = enumerate_basis(d, n, Statistics.BOSONIC)
    assert bb.size == math.comb(d + n - 1, n)


def test_index_bijection():
    basis = enumerate_basis(4, 3, Statistics.BOSONIC)
    for i, occ in enumerate(basis.states):
        assert basis.index_of(occ) == i
    assert (0, 1, 2) in basis
    assert (2, 1, 0) not in basis  # not canonical order


def test_enumerate_basis_errors():
    with pytest.raises(InvalidDimension):
        enumerate_basis(0, 1, Statistics.BOSONIC)
    with pytest.raises(InvalidDimension):
        enumerate_basis(2, 3, Statistics.FERMIONIC)
    with pytest.raises(InvalidDimension):
        enumerate_basis(2, -1, Statistics.BOSONIC)


def test_vacuum_sector():
    vac = enumerate_basis(3, 0, Statistics.FERMIONIC)
    assert vac.states == ((),)


def test_bosonic_creation_sqrt_factor():
    # a+_0 |(0,0)> = sqrt(3) |(0,0,0)>
    b2 = enumerate_basis(1, 2, Statistics.BOSONIC)
    b3 = enumerate_basis(1, 3, Statistics.BOSONIC)
    A = creation_matrix(0, b2, b3)
    assert_allclose(A, [[math.sqrt(3)]])


def test_fermionic_creation_sign_convention():
    b1 = enumerate_basis(3, 1, Statistics.FERMIONIC)
    b2 = enumerate_basis(3, 2, Statistics.FERMIONIC)
    # one occupied mode below the created one -> sign -1
    A2 = creation_matrix(2, b1, b2)
    assert A2[b2.index_of((0, 2)), b1.index_of((0,))] == -1.0
    # creating below every occupied mode -> sign +1
    A0 = creation_matrix(0, b1, b2)
    assert A0[b2.index_of((0, 2)), b1.index_of((2,))] == 1.0


@pytest.mark.parametrize("statistics", [Statistics.FERMIONIC, Statistics.BOSONIC])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_canonical_commutation_relations(statistics, n):
    d = 3
    if statistics is Statistics.FERMIONIC and n + 1 > d:
        pytest.skip("no such sector")
    below = enumerate_basis(d, n, statistics) if n >= 0 else None
    mid = enumerate_basis(d, n + 1, statistics)
    has_upper = not (statistics is Statistics.FERMIONIC and n + 2 > d)
    upper = enumerate_basis(d, n + 2, statistics) if has_upper else None
    eye = np.eye(mid.size)
    for i in range(d):
        for j in range(d):
            # a_i a+_j on the (n+1)-sector
            ci_up = creation_matrix(i, mid, upper) if has_upper else None
            cj_up = creation_matrix(j, mid, upper) if has_upper else None
            term1 = ci_up.T @ cj_up if has_upper else np.zeros((mid.size, mid.size))
            # a+_j a_i (hmm -- order below) on the same sector
            ci_dn = creation_matrix(i, below, mid)
            cj_dn = creation_matrix(j, below, mid)
            term2 = cj_dn @ ci_dn.T
            if statistics is Statistics.FERMIONIC:
                lhs = term1 + term2  # {a_i, a+_j}
            else:
                lhs = term1 - term2  # [a_i, a+_j]
            assert_allclose(lhs, (1.0 if i == j else 0.0) * eye, atol=1e-12)


def test_slater_state_canonical_vectors():
    basis = enumerate_basis(2, 2, Statistics.BOSONIC)
    assert_allclose(slater_state((0, 0), basis), [1, 0, 0])
    assert_allclose(slater_state((0, 1), basis), [0, 1, 0])
    assert np.linalg.norm(slater_state((1, 1), basis)) == 1.0
    with pytest.raises(UnknownOccupation):
        slater_state((1, 0), basis)


def test_creation_matrix_errors():
    b1 = enumerate_basis(2, 1, Statistics.BOSONIC)
    b2 = enumerate_basis(2, 2, Statistics.BOSONIC)
    f2 = enumerate_basis(2, 1, Statistics.FERMIONIC)
    with pytest.raises(BasisMismatch):
        creation_matrix(0, b2, b1)  # wrong direction
    with pytest.raises(BasisMismatch):
        creation_matrix(0, f2, b2)  # statistics differ
    with pytest.raises(InvalidDimension):
        creation_matrix(5, b1, b2)


def test_check_density_matrix():
    good = np.diag([0.25, 0.75]).astype(complex)
    check_density_matrix(good)
    with pytest.raises(InvalidState):
        check_density_matrix(np.diag([0.5, 0.6]))  # trace
    with pytest.raises(InvalidState):
        check_density_matrix(np.array([[1.0, 0.5], [0.0, 0.0]]))  # hermiticity
    with pytest.raises(InvalidState):
        check_density_matrix(np.diag([1.1, -0.1]))  # negativity


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_check_density_matrix_rejects_non_finite_entries(bad):
    # NaN fails every `defect > tol` comparison, so it must be caught first
    with pytest.raises(InvalidState, match=r"non-finite entry .* at \(0, 0\)"):
        check_density_matrix(np.full((2, 2), bad))
    rho = np.diag([0.5, 0.5]).astype(complex)
    rho[1, 0] = bad
    with pytest.raises(InvalidState, match=r"at \(1, 0\)"):
        check_density_matrix(rho)


def test_check_density_matrix_returns_the_spectrum_it_tests():
    rho = random_density(5, np.random.default_rng(5))
    evals = check_density_matrix(rho, dim=5)
    np.testing.assert_array_equal(evals, np.linalg.eigvalsh((rho + rho.conj().T) / 2))
    assert np.all(np.diff(evals) >= 0)
