import json
import math
import subprocess
import sys

import numpy as np
import pytest

from qcorr import Statistics, enumerate_basis, shannon_entropy, write_state_file
from qcorr.cli import main

from helpers import count_eigvalsh, random_density

LN2 = math.log(2)

PSI_B = """\
d 2
n 2
statistics bosonic
representation pure
label two-mode pair
0,0 0.7071067811865476 0.0
1,1 0.7071067811865476 0.0
"""

BELL = """\
d 4
n 2
statistics fermionic
representation pure
0,1 0.7071067811865476 0.0
2,3 0.7071067811865476 0.0
"""


def run_cli(*argv, **kw):
    return subprocess.run([sys.executable, "-m", "qcorr", *argv],
                          capture_output=True, text=True, **kw)


@pytest.fixture()
def psi_b_file(tmp_path):
    p = tmp_path / "pair.txt"
    p.write_text(PSI_B)
    return str(p)


def test_basis_listing():
    r = run_cli("basis", "--d", "3", "--n", "2", "--fermionic")
    assert r.returncode == 0
    assert r.stdout.splitlines() == ["0 : 0,1", "1 : 0,2", "2 : 1,2"]

    r = run_cli("basis", "--d", "2", "--n", "2", "--bosonic", "--machine")
    doc = json.loads(r.stdout)
    assert doc["size"] == 3
    assert doc["states"] == [[0, 0], [0, 1], [1, 1]]


def test_basis_requires_statistics():
    r = run_cli("basis", "--d", "2", "--n", "2")
    assert r.returncode == 2  # argparse usage error


def test_basis_invalid_dimension_exit_code():
    r = run_cli("basis", "--d", "2", "--n", "3", "--fermionic")
    assert r.returncode == 2
    assert "error:" in r.stderr


def test_activate_oversized_sector_exit_code(tmp_path):
    p = tmp_path / "big.txt"
    p.write_text("d 6\nn 4\nstatistics bosonic\nrepresentation pure\n0,0,0,0 1.0 0.0\n")
    r = run_cli("activate", str(p))
    assert r.returncode == 2
    assert "error:" in r.stderr and "D=126" in r.stderr and "GiB limit" in r.stderr


def test_quantumness_on_worked_example(psi_b_file):
    r = run_cli("quantumness", psi_b_file, "--restarts", "6", "--machine")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["q_value"] <= 1e-6
    assert doc["converged"] is True
    assert doc["label"] == "two-mode pair"
    V = np.array(doc["argmin_v"]["real"]) + 1j * np.array(doc["argmin_v"]["imag"])
    assert np.abs(V @ V.conj().T - np.eye(2)).max() < 1e-8
    # human report goes to stderr under --machine
    assert "quantumness Q" in r.stderr


def test_fock_state_entropy_is_positive_zero(tmp_path):
    p = tmp_path / "fock.txt"
    p.write_text("d 2\nn 2\nstatistics bosonic\nrepresentation pure\n0,1 1.0 0.0\n")
    r = run_cli("quantumness", str(p), "--restarts", "1", "--machine")
    assert r.returncode == 0, r.stderr
    assert math.copysign(1.0, json.loads(r.stdout)["entropy"]) == 1.0
    assert "S(rho) = 0.000000000000 nats" in r.stderr


def test_pair_state_entropy_is_positive_zero(psi_b_file):
    # the spectrum of the README pair state tops out at 1 + 2**-52
    r = run_cli("quantumness", psi_b_file, "--restarts", "1", "--machine")
    assert r.returncode == 0, r.stderr
    assert math.copysign(1.0, json.loads(r.stdout)["entropy"]) == 1.0
    assert "S(rho) = 0.000000000000 nats" in r.stderr


def test_quantumness_deterministic_per_seed(psi_b_file, tmp_path):
    args = ("quantumness", psi_b_file, "--restarts", "4", "--seed", "11", "--machine")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.stdout == b.stdout  # bitwise identical JSON
    # a state that never reaches tol runs all its Haar restarts, so the
    # per-restart trace must move when the seed does
    bell = tmp_path / "bell.txt"
    bell.write_text(BELL)
    r1 = run_cli("quantumness", str(bell), "--restarts", "2", "--seed", "11", "--machine")
    r2 = run_cli("quantumness", str(bell), "--restarts", "2", "--seed", "12", "--machine")
    v1 = json.loads(r1.stdout)["restart_values"]
    v2 = json.loads(r2.stdout)["restart_values"]
    assert v1 != v2


def test_quantumness_oracle_flag(psi_b_file):
    r = run_cli("quantumness", psi_b_file, "--restarts", "3",
                "--oracle-samples", "300", "--machine")
    doc = json.loads(r.stdout)
    assert doc["oracle_samples"] == 300
    assert doc["oracle_value"] >= doc["q_value"] - 1e-9


def test_activate_identity_rotation(psi_b_file):
    r = run_cli("activate", psi_b_file, "--machine")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["v_source"] == "identity"
    assert doc["maximally_correlated"] is True
    assert doc["entanglement"] == pytest.approx(LN2, abs=1e-10)


def test_activate_optimal_rotation(psi_b_file):
    r = run_cli("activate", psi_b_file, "--v-optimal", "--restarts", "6", "--machine")
    doc = json.loads(r.stdout)
    assert doc["v_source"] == "optimizer"
    assert doc["entanglement"] == pytest.approx(0.0, abs=1e-6)


def test_activate_v_from_file(psi_b_file, tmp_path):
    # rows of the rotation that turns the pair state into b+ b- |vac>
    s = 1 / math.sqrt(2)
    vfile = tmp_path / "v.txt"
    vfile.write_text(f"{s} 0.0 0.0 {-s}\n{s} 0.0 0.0 {s}\n")
    r = run_cli("activate", psi_b_file, "--v-matrix", str(vfile), "--machine")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["v_source"] == "file"
    assert doc["entanglement"] == pytest.approx(0.0, abs=1e-10)


def test_activate_rejects_nonunitary_v(psi_b_file, tmp_path):
    vfile = tmp_path / "v.txt"
    vfile.write_text("1.0 0.0 0.0 0.0\n0.0 0.0 0.5 0.0\n")
    r = run_cli("activate", psi_b_file, "--v-matrix", str(vfile))
    assert r.returncode == 3
    assert "unitary" in r.stderr


def test_classify_labels(tmp_path, psi_b_file):
    r = run_cli("classify", psi_b_file, "--restarts", "4")
    assert r.returncode == 0
    assert "class: P" in r.stdout

    bell = tmp_path / "bell.txt"
    bell.write_text(BELL)
    r = run_cli("classify", str(bell), "--restarts", "5", "--machine")
    doc = json.loads(r.stdout)
    assert doc["class"] == "Q"
    assert doc["slater_rank"] == 2

    cond = tmp_path / "cond.txt"
    cond.write_text("d 2\nn 2\nstatistics bosonic\nrepresentation pure\n0,0 1.0 0.0\n")
    r = run_cli("classify", str(cond), "--restarts", "4")
    assert "class: C" in r.stdout


def test_malformed_state_file_exit_2(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("d 2\nn 2\nstatistics bosonic\nrepresentation pure\n1,0 1.0 0.0\n")
    r = run_cli("quantumness", str(p))
    assert r.returncode == 2
    assert "line 5" in r.stderr


@pytest.mark.parametrize("command", ["quantumness", "activate", "classify"])
def test_non_finite_amplitude_exit_2(tmp_path, command):
    p = tmp_path / "nan.txt"
    p.write_text("d 2\nn 1\nstatistics fermionic\nrepresentation pure\n"
                 "0 nan 0.0\n1 1.0 0.0\n")
    r = run_cli(command, str(p))
    assert r.returncode == 2
    assert "line 5" in r.stderr and "non-finite" in r.stderr
    assert "Traceback" not in r.stderr


def test_activate_rejects_non_finite_v_exit_2(psi_b_file, tmp_path):
    vfile = tmp_path / "v.txt"
    vfile.write_text("1.0 0.0 0.0 0.0\n0.0 0.0 inf 0.0\n")
    r = run_cli("activate", psi_b_file, "--v-matrix", str(vfile))
    assert r.returncode == 2
    assert "non-finite" in r.stderr


def test_invalid_option_exit_2(psi_b_file):
    r = run_cli("quantumness", psi_b_file, "--restarts", "0")
    assert r.returncode == 2
    assert "restarts" in r.stderr


def test_nan_tol_exit_2(psi_b_file):
    r = run_cli("quantumness", psi_b_file, "--tol", "nan", "--machine")
    assert r.returncode == 2
    assert "tol" in r.stderr and r.stdout == ""


def test_infinite_tol_and_negative_seed_exit_2(psi_b_file):
    for argv in (("--tol", "inf", "--machine"), ("--seed", "-1"),
                 ("--seed", "-1", "--oracle-samples", "10")):
        r = run_cli("quantumness", psi_b_file, *argv)
        assert r.returncode == 2
        assert ("tol" if "--tol" in argv else "seed") in r.stderr and r.stdout == ""
        assert "Traceback" not in r.stderr


def test_missing_file_exit_2():
    r = run_cli("quantumness", "/nonexistent/state.txt")
    assert r.returncode == 2


def test_invalid_density_matrix_exit_3(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("d 2\nn 1\nstatistics fermionic\nrepresentation mixed\n"
                 "0 0 0.9 0.0\n1 1 0.3 0.0\n")
    r = run_cli("classify", str(p))
    assert r.returncode == 3


def test_unnormalized_warning_on_stderr(tmp_path):
    p = tmp_path / "u.txt"
    p.write_text("d 2\nn 1\nstatistics fermionic\nrepresentation pure\n0 2.0 0.0\n")
    r = run_cli("quantumness", str(p), "--restarts", "2")
    assert r.returncode == 0
    assert "warning:" in r.stderr


def test_round_trip_through_writer(tmp_path):
    rng = np.random.default_rng(3)
    basis = enumerate_basis(3, 2, Statistics.BOSONIC)
    v = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    v /= np.linalg.norm(v)
    p = tmp_path / "rt.txt"
    write_state_file(p, basis, vector=v, label="round trip")
    r = run_cli("quantumness", str(p), "--restarts", "2", "--machine")
    assert r.returncode == 0
    assert json.loads(r.stdout)["label"] == "round trip"


def test_quantumness_report_takes_entropy_from_the_search(monkeypatch, tmp_path, capsys):
    # a mixed file is diagonalized by the parser's check and by quantumness;
    # the report line reuses that S(rho) instead of a third eigvalsh
    basis = enumerate_basis(3, 2, Statistics.BOSONIC)
    rho = random_density(basis.size, np.random.default_rng(13))
    path = tmp_path / "mixed.txt"
    write_state_file(path, basis, rho=rho)
    calls = count_eigvalsh(monkeypatch)
    assert main(["quantumness", str(path), "--restarts", "1"]) == 0
    assert calls == [(6, 6), (6, 6)]
    out = capsys.readouterr().out
    assert f"entropy S(rho) = {shannon_entropy(np.linalg.eigvalsh(rho)):.12f} nats" in out
    # one restart is four descents, each listed
    assert "descent 3:" in out
