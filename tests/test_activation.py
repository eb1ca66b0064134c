import math
import time
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qcorr.activation
from qcorr import (
    InvalidDimension,
    InvalidState,
    JointState,
    NotMaxCorrelated,
    Statistics,
    Subsystem,
    coupling_unitary,
    dephase,
    build_family,
    enumerate_basis,
    entanglement_maxcorr,
    haar_random_unitary,
    lift_unitary,
    max_corr_coefficients,
    partial_trace,
    run_protocol,
    shannon_entropy,
    slater_state,
    verify_maximally_correlated,
    von_neumann_entropy,
)

from helpers import plus_minus_rotation, random_density, random_pure


def psi_b(basis):
    return (slater_state((0, 0), basis) + slater_state((1, 1), basis)) / math.sqrt(2)


def test_coupling_unitary_copies_index():
    U = coupling_unitary(3)
    src = np.zeros(9)
    src[1 * 3 + 0] = 1.0  # |1> (x) |0>
    out = U @ src
    expect = np.zeros(9)
    expect[1 * 3 + 1] = 1.0  # |1> (x) |1>
    assert_allclose(out, expect)


def test_coupling_unitary_d2_is_cnot():
    U = coupling_unitary(2)
    # permutation on joint indices: (0,0),(0,1),(1,0),(1,1) -> (0,0),(0,1),(1,1),(1,0)
    expect = np.array([
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ], dtype=float)
    assert_allclose(U, expect)


@pytest.mark.parametrize("D", [1, 2, 3, 5])
def test_coupling_unitary_permutation_structure(D):
    U = coupling_unitary(D)
    assert np.array_equal(U @ U.T, np.eye(D * D))  # exact permutation
    assert np.array_equal(np.sort(U, axis=0)[-1], np.ones(D * D))
    power = np.linalg.matrix_power(U, D)
    assert np.array_equal(power, np.eye(D * D))


def test_run_protocol_entangles_the_condensate_superposition():
    basis = enumerate_basis(2, 2, Statistics.BOSONIC)
    psi = psi_b(basis)
    js = run_protocol(np.outer(psi, psi.conj()), np.eye(2), basis)
    ok, worst = verify_maximally_correlated(js)
    assert ok and worst < 1e-14
    # joint state is the two-level Bell-like pure state (|0,0'> + |2,2'>)/sqrt2
    joint = np.zeros(9, dtype=complex)
    joint[0 * 3 + 0] = 1 / math.sqrt(2)
    joint[2 * 3 + 2] = 1 / math.sqrt(2)
    assert_allclose(js.matrix, np.outer(joint, joint.conj()), atol=1e-12)
    assert entanglement_maxcorr(js) == pytest.approx(math.log(2), abs=1e-12)
    assert_allclose(partial_trace(js, Subsystem.SYSTEM),
                    np.diag([0.5, 0.0, 0.5]), atol=1e-12)


def test_run_protocol_optimal_rotation_gives_product_output():
    basis = enumerate_basis(2, 2, Statistics.BOSONIC)
    psi = psi_b(basis)
    js = run_protocol(np.outer(psi, psi.conj()), plus_minus_rotation(), basis)
    assert entanglement_maxcorr(js) == pytest.approx(0.0, abs=1e-12)
    # product: system in the one-per-mode permanent, apparatus shifted to |1>
    sys_red = partial_trace(js, Subsystem.SYSTEM)
    app_red = partial_trace(js, Subsystem.APPARATUS)
    assert_allclose(sys_red, np.diag([0, 1.0, 0]), atol=1e-12)
    assert_allclose(app_red, np.diag([0, 1.0, 0]), atol=1e-12)
    assert_allclose(js.matrix, np.kron(sys_red, app_red), atol=1e-12)


def test_diagonal_input_gives_classical_output():
    basis = enumerate_basis(4, 2, Statistics.FERMIONIC)
    rng = np.random.default_rng(12)
    p = rng.dirichlet(np.ones(basis.size))
    js = run_protocol(np.diag(p).astype(complex), np.eye(4), basis)
    expect = np.zeros((36, 36), dtype=complex)
    for k in range(6):
        expect[k * 6 + k, k * 6 + k] = p[k]
    assert_allclose(js.matrix, expect, atol=1e-12)
    assert entanglement_maxcorr(js) == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("d,n,stats", [(2, 2, Statistics.BOSONIC),
                                       (3, 2, Statistics.FERMIONIC),
                                       (3, 2, Statistics.BOSONIC)])
def test_protocol_structure_random_inputs(d, n, stats):
    rng = np.random.default_rng(d * 31 + n)
    basis = enumerate_basis(d, n, stats)
    D = basis.size
    for _ in range(3):
        rho = random_density(D, rng)
        V = haar_random_unitary(d, rng)
        js = run_protocol(rho, V, basis)
        ok, worst = verify_maximally_correlated(js, tol=1e-12)
        assert ok, worst
        # reconstruction from the coefficient matrix
        chi = max_corr_coefficients(rho, V, basis).chi
        rebuilt = np.zeros((D * D, D * D), dtype=complex)
        for l in range(D):
            for lp in range(D):
                rebuilt[l * D + l, lp * D + lp] = chi[l, lp]
        assert_allclose(js.matrix, rebuilt, atol=1e-12)
        # purity and joint entropy are those of the input
        assert np.trace(js.matrix @ js.matrix).real == pytest.approx(
            np.trace(rho @ rho).real, abs=1e-12)
        assert von_neumann_entropy(js.matrix) == pytest.approx(
            von_neumann_entropy(rho), abs=1e-10)
        # system branch reproduces the measurement statistics
        reduced = partial_trace(js, Subsystem.SYSTEM)
        fam = build_family(np.eye(d), basis)
        G_chi = dephase(chi, fam)
        assert_allclose(reduced, G_chi, atol=1e-12)


def test_max_corr_coefficients_identity_and_worked_example():
    basis = enumerate_basis(2, 2, Statistics.BOSONIC)
    rng = np.random.default_rng(2)
    rho = random_density(3, rng)
    assert_allclose(max_corr_coefficients(rho, np.eye(2), basis).chi, rho, atol=1e-14)
    psi = psi_b(basis)
    chi = max_corr_coefficients(np.outer(psi, psi.conj()), np.eye(2), basis).chi
    expect = np.zeros((3, 3), dtype=complex)
    expect[0, 0] = expect[0, 2] = expect[2, 0] = expect[2, 2] = 0.5
    assert_allclose(chi, expect, atol=1e-14)


def test_verify_rejects_off_pattern_states():
    # product with a coherent (non-diagonal) apparatus state
    sigma = np.array([[0.5, 0.4], [0.4, 0.5]], dtype=complex)
    rho = np.diag([0.3, 0.7]).astype(complex)
    js = JointState(2, 2, np.kron(rho, sigma))
    ok, worst = verify_maximally_correlated(js)
    # largest off-pattern entry: rho_11 * sigma_00 at joint index (1,0),(1,0)
    assert not ok and worst == pytest.approx(0.7 * 0.5)
    with pytest.raises(NotMaxCorrelated):
        entanglement_maxcorr(js)


def test_hand_built_pattern_state_passes():
    basis = enumerate_basis(2, 2, Statistics.BOSONIC)
    psi = psi_b(basis)
    chi = max_corr_coefficients(np.outer(psi, psi.conj()), np.eye(2), basis).chi
    D = 3
    M = np.zeros((9, 9), dtype=complex)
    for l in range(D):
        for lp in range(D):
            M[l * D + l, lp * D + lp] = chi[l, lp]
    ok, worst = verify_maximally_correlated(JointState(3, 3, M))
    assert ok and worst == 0.0


def test_partial_trace_product_input():
    rho = np.array([[0.25, 0.1], [0.1, 0.75]], dtype=complex)
    app = np.zeros((2, 2), dtype=complex)
    app[0, 0] = 1.0
    js = JointState(2, 2, np.kron(rho, app))
    assert_allclose(partial_trace(js, Subsystem.SYSTEM), rho, atol=1e-15)
    assert_allclose(partial_trace(js, Subsystem.APPARATUS), app, atol=1e-15)


def test_entanglement_of_maximally_correlated_pure_pair():
    # (|0,0> + |2,2>)/sqrt2 on a 3x3 joint space
    joint = np.zeros(9, dtype=complex)
    joint[0] = joint[8] = 1 / math.sqrt(2)
    js = JointState(3, 3, np.outer(joint, joint.conj()))
    assert entanglement_maxcorr(js) == pytest.approx(math.log(2), abs=1e-12)


# The protocol runs as an index relabelling and takes S(joint) from a D x D
# block; these tests pin both to the dense construction they replace.
PIN_SECTORS = [(1, 1, Statistics.BOSONIC), (2, 2, Statistics.BOSONIC),
               (3, 2, Statistics.FERMIONIC), (6, 3, Statistics.FERMIONIC),
               (4, 4, Statistics.BOSONIC)]


def _pin_input(d, n, stats, kind):
    rng = np.random.default_rng([d, n, kind == "pure"])
    basis = enumerate_basis(d, n, stats)
    if kind == "pure":
        psi = random_pure(basis.size, rng)
        rho = np.outer(psi, psi.conj())
    else:
        rho = random_density(basis.size, rng, rank=min(3, basis.size))
    return basis, rho, haar_random_unitary(d, rng)


def _dense_protocol(rho, V, basis):
    """U [ G rho G+ (x) |0><0| ] U^T with U the explicit permutation matrix."""
    D = basis.size
    G = lift_unitary(V, basis)
    apparatus0 = np.zeros((D, D), dtype=complex)
    apparatus0[0, 0] = 1.0
    U = coupling_unitary(D)
    return U @ np.kron(G @ rho @ G.conj().T, apparatus0) @ U.T


def _mask_worst(js):
    """Largest off-pattern magnitude, gathered through a D^4 boolean mask."""
    D = js.system_dim
    M = js.matrix.reshape(D, D, D, D)
    mask = np.ones((D, D, D, D), dtype=bool)
    idx = np.arange(D)
    mask[idx[:, None], idx[:, None], idx[None, :], idx[None, :]] = False
    return float(np.abs(M[mask]).max()) if mask.any() else 0.0


@pytest.mark.parametrize("kind", ["pure", "mixed"])
@pytest.mark.parametrize("d,n,stats", PIN_SECTORS)
def test_protocol_matches_dense_construction(d, n, stats, kind):
    basis, rho, V = _pin_input(d, n, stats, kind)
    js = run_protocol(rho, V, basis)
    assert np.array_equal(js.matrix, _dense_protocol(rho, V, basis))
    ok, worst = verify_maximally_correlated(js)
    assert ok and worst == _mask_worst(js)
    full_route = (von_neumann_entropy(partial_trace(js, Subsystem.SYSTEM))
                  - von_neumann_entropy(js.matrix))
    assert abs(entanglement_maxcorr(js) - full_route) <= 1e-12


@pytest.mark.parametrize("d,n,stats", PIN_SECTORS[1:4])
def test_verify_matches_mask_on_perturbed_joint(d, n, stats):
    basis, rho, V = _pin_input(d, n, stats, "mixed")
    js = run_protocol(rho, V, basis)
    rng = np.random.default_rng(d * 10 + n)
    M = js.matrix.copy()
    hits = rng.integers(M.shape[0], size=(2, 12))
    M[hits[0], hits[1]] += 1e-9 * (rng.standard_normal(12) + 1j * rng.standard_normal(12))
    perturbed = JointState(js.system_dim, js.apparatus_dim, M)
    ok, worst = verify_maximally_correlated(perturbed)
    assert worst == _mask_worst(perturbed) > 1e-10 and not ok
    assert verify_maximally_correlated(perturbed, tol=1e-6) == (True, worst)


def test_run_protocol_rejects_oversized_joint_before_lifting(monkeypatch):
    basis = enumerate_basis(6, 4, Statistics.BOSONIC)
    assert basis.size == 126  # joint would be 16 * 126**4 bytes, about 3.7 GiB

    def no_lift(*_):
        raise AssertionError("lifted before the size guard")

    monkeypatch.setattr(qcorr.activation, "lift_unitary", no_lift)
    start = time.perf_counter()
    with pytest.raises(InvalidDimension, match="D=126"):
        run_protocol(np.eye(126) / 126, np.eye(6), basis)
    assert time.perf_counter() - start < 1.0
    # the limit admits every sector up to D = 90
    assert 16 * 90**4 <= qcorr.activation.MAX_JOINT_BYTES < 16 * 91**4


def test_protocol_peak_memory_is_about_one_joint():
    basis, rho, V = _pin_input(4, 4, Statistics.BOSONIC, "mixed")
    joint_bytes = 16 * basis.size**4
    assert basis.size == 35
    run_protocol(rho, V, basis)  # warm the per-sector caches
    tracemalloc.start()
    try:
        js = run_protocol(rho, V, basis)
        verify_maximally_correlated(js)
        entanglement_maxcorr(js)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * joint_bytes, peak / joint_bytes


def _full_check_entanglement(js, tol=1e-10):
    """entanglement_maxcorr with every check on the whole joint, as dense
    arrays.  Returns (value, None) or (None, error)."""
    worst = _mask_worst(js)
    if not worst <= tol:
        return None, NotMaxCorrelated(f"off-pattern magnitude {worst:.3e} exceeds {tol:.0e}")
    M = js.matrix
    defect = np.abs(M - M.conj().T).max()
    if defect > 1e-12:
        return None, InvalidState(f"not Hermitian: defect {defect:.3e} > 1e-12")
    tr = np.trace(M)
    if abs(tr - 1.0) > 1e-12:
        return None, InvalidState(f"trace {tr} differs from 1 beyond 1e-12")
    idx = np.arange(js.system_dim) * (js.system_dim + 1)
    B = M[np.ix_(idx, idx)]
    return (von_neumann_entropy(partial_trace(js, Subsystem.SYSTEM))
            - shannon_entropy(np.linalg.eigvalsh((B + B.conj().T) / 2))), None


def _perturb(M, D, case, rng):
    """Edits of a protocol output that land on either side of each check."""
    idx = np.arange(D) * (D + 1)
    a, b = idx[0], idx[1]          # a pattern pair
    u, v = a + 1, b + 2            # an off-pattern pair, u != v
    if case == "pattern non-Hermitian":
        M[a, b] += 1e-9j
    elif case == "pattern Hermitian noise":
        M[a, b] += 3e-13
        M[b, a] += 3e-13
    elif case == "off-pattern antisymmetric 1e-11":
        M[u, v] += 1e-11
        M[v, u] -= 1e-11
    elif case == "off-pattern antisymmetric 2e-13":
        M[u, v] += 2e-13
        M[v, u] -= 2e-13
    elif case == "off-pattern Hermitian 5e-11":
        M[u, v] += 5e-11j
        M[v, u] -= 5e-11j
    elif case == "off-pattern above tol":
        M[u, v] += 2e-10
    elif case == "trace of the block":
        M[a, a] += 5e-12
    elif case == "trace off the pattern":
        # up to 20 diagonal entries of 2e-13 each (6 at D = 3): each below
        # HERM_TOL / 4, together beyond TRACE_TOL, which the block's trace misses
        off_diag = np.setdiff1d(np.arange(D * D), idx)[:20]
        M[off_diag, off_diag] += 2e-13
    elif case == "random Hermitian noise 1e-14":
        E = 1e-14 * (rng.standard_normal(M.shape) + 1j * rng.standard_normal(M.shape))
        M += (E + E.conj().T) / 2
    return M


PERTURBATIONS = ["none", "pattern non-Hermitian", "pattern Hermitian noise",
                 "off-pattern antisymmetric 1e-11", "off-pattern antisymmetric 2e-13",
                 "off-pattern Hermitian 5e-11", "off-pattern above tol",
                 "trace of the block", "trace off the pattern",
                 "random Hermitian noise 1e-14"]


@pytest.mark.parametrize("case", PERTURBATIONS)
@pytest.mark.parametrize("d,n,stats", PIN_SECTORS[2:])
def test_entanglement_matches_the_full_joint_checks(d, n, stats, case):
    basis, rho, V = _pin_input(d, n, stats, "mixed")
    D = basis.size
    js = run_protocol(rho, V, basis)
    M = _perturb(js.matrix.copy(), D, case, np.random.default_rng([d, n]))
    perturbed = JointState(D, D, M)
    expected, error = _full_check_entanglement(perturbed)
    if error is None:
        assert entanglement_maxcorr(perturbed) == expected
    else:
        with pytest.raises(type(error)) as exc:
            entanglement_maxcorr(perturbed)
        assert str(exc.value) == str(error)


def test_nan_off_the_pattern_fails_verification():
    basis, rho, V = _pin_input(3, 2, Statistics.FERMIONIC, "mixed")
    js = run_protocol(rho, V, basis)
    for row, col in [(1, 0), (0, 1), (8, 5)]:  # off-pattern, in different slabs
        M = js.matrix.copy()
        M[row, col] = np.nan
        ok, worst = verify_maximally_correlated(JointState(3, 3, M))
        assert not ok and math.isnan(worst)
        with pytest.raises(NotMaxCorrelated, match="nan"):
            entanglement_maxcorr(JointState(3, 3, M))


def test_non_finite_pattern_entry_is_an_invalid_state():
    # the pattern check ignores pattern entries; the density-matrix check
    # then rejects a non-finite one instead of taking its entropy
    basis, rho, V = _pin_input(3, 2, Statistics.FERMIONIC, "mixed")
    M = run_protocol(rho, V, basis).matrix.copy()
    M[4, 8] = np.nan
    assert verify_maximally_correlated(JointState(3, 3, M)) == (True, 0.0)
    with pytest.raises(InvalidState, match=r"non-finite entry .* at \(1, 2\)"):
        entanglement_maxcorr(JointState(3, 3, M))
