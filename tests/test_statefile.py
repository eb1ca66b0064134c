import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qcorr import (
    InvalidState,
    StateFileError,
    Statistics,
    enumerate_basis,
    parse_state_file,
    parse_state_text,
    write_state_file,
    write_state_text,
)

from helpers import random_density

S2 = 1 / math.sqrt(2)

PURE_TEXT = """\
# two bosons in two modes
d 2
n 2
statistics bosonic
representation pure
label worked example

0,0 0.7071067811865476 0.0
1,1 0.7071067811865476 0.0
"""


def test_parse_pure_state():
    st = parse_state_text(PURE_TEXT)
    assert st.representation == "pure"
    assert st.label == "worked example"
    assert st.basis.d == 2 and st.basis.n == 2
    assert st.basis.statistics is Statistics.BOSONIC
    assert not st.normalized_on_parse
    assert_allclose(st.vector, [S2, 0.0, S2], atol=1e-15)
    rho = st.density_matrix()
    assert rho.shape == (3, 3)
    assert rho[0, 2] == pytest.approx(0.5, abs=1e-15)


def test_parse_mixed_state():
    text = """\
d 3
n 2
statistics fermionic
representation mixed
0,1 0,1 0.5 0.0
0,2 0,2 0.25 0.0
1,2 1,2 0.25 0.0
0,1 0,2 0.1 0.05
0,2 0,1 0.1 -0.05
"""
    st = parse_state_text(text)
    assert st.representation == "mixed"
    assert st.label is None
    assert st.vector is None
    rho = st.density_matrix()
    assert rho[0, 1] == pytest.approx(0.1 + 0.05j)
    assert np.trace(rho).real == pytest.approx(1.0)


def test_header_order_and_comments_flexible():
    text = "\n".join([
        "label   spaced   out",
        "representation pure",
        "statistics fermionic   # trailing comment",
        "n 2",
        "d 2",
        "",
        "0,1 1.0 0.0  # amplitude",
    ]) + "\n"
    st = parse_state_text(text)
    assert st.label == "spaced   out"
    assert st.vector[0] == pytest.approx(1.0)


def test_unnormalized_pure_warns_and_normalizes():
    text = "d 2\nn 1\nstatistics fermionic\nrepresentation pure\n0 3.0 0.0\n1 4.0 0.0\n"
    with pytest.warns(UserWarning, match="normalized"):
        st = parse_state_text(text)
    assert st.normalized_on_parse
    assert_allclose(st.vector, [0.6, 0.8], atol=1e-15)


def test_zero_norm_pure_rejected():
    text = "d 2\nn 1\nstatistics fermionic\nrepresentation pure\n0 0.0 0.0\n"
    with pytest.raises(StateFileError, match="zero norm"):
        parse_state_text(text)


def test_empty_file_rejected():
    with pytest.raises(StateFileError, match="no state entries"):
        parse_state_text("d 2\nn 1\nstatistics bosonic\nrepresentation pure\n")


def test_error_positions():
    # non-canonical occupation order: line 5, first token
    text = "d 3\nn 2\nstatistics fermionic\nrepresentation pure\n1,0 1.0 0.0\n"
    with pytest.raises(StateFileError) as exc:
        parse_state_text(text)
    assert exc.value.line == 5
    assert exc.value.column == 1
    assert "canonical" in str(exc.value)

    # bad float in the third field of an indented row
    text = "d 3\nn 2\nstatistics fermionic\nrepresentation pure\n  0,1 1.0 oops\n"
    with pytest.raises(StateFileError) as exc:
        parse_state_text(text)
    assert exc.value.line == 5
    assert exc.value.column == 11
    assert "oops" in str(exc.value)

    # a header value that is not an integer: the line of its own key
    for header, line, bad in (("d 3\nn x", 2, "n 'x'"), ("n 2\nd 3.5", 2, "d '3.5'"),
                              ("d y\nn x", 1, "d 'y'")):
        text = header + "\nstatistics fermionic\nrepresentation pure\n0,1 1.0 0.0\n"
        with pytest.raises(StateFileError, match=f"must be integers, got {bad}") as exc:
            parse_state_text(text)
        assert exc.value.line == line


@pytest.mark.parametrize("token", ["nan", "inf", "-Infinity", "NaN"])
@pytest.mark.parametrize("representation,row,column", [("pure", "0 1.0 {}", 7),
                                                       ("mixed", "0 0 {} 0.0", 5)])
def test_non_finite_floats_rejected_with_position(token, representation, row, column):
    text = (f"d 2\nn 1\nstatistics fermionic\nrepresentation {representation}\n"
            + row.format(token) + "\n")
    with pytest.raises(StateFileError, match="non-finite") as exc:
        parse_state_text(text)
    assert (exc.value.line, exc.value.column) == (5, column)


def test_fermionic_double_occupation_rejected():
    text = "d 3\nn 2\nstatistics fermionic\nrepresentation pure\n1,1 1.0 0.0\n"
    with pytest.raises(StateFileError, match="strictly increasing"):
        parse_state_text(text)


def test_mode_out_of_range_rejected():
    text = "d 2\nn 2\nstatistics bosonic\nrepresentation pure\n0,5 1.0 0.0\n"
    with pytest.raises(StateFileError, match="outside"):
        parse_state_text(text)


def test_wrong_field_count():
    text = "d 2\nn 1\nstatistics bosonic\nrepresentation pure\n0 1.0\n"
    with pytest.raises(StateFileError, match="3 fields"):
        parse_state_text(text)
    text = "d 2\nn 1\nstatistics bosonic\nrepresentation mixed\n0 0 1.0\n"
    with pytest.raises(StateFileError, match="4 fields"):
        parse_state_text(text)


def test_header_errors():
    with pytest.raises(StateFileError, match="duplicate header"):
        parse_state_text("d 2\nd 3\n")
    with pytest.raises(StateFileError, match="needs a value"):
        parse_state_text("d\n")
    with pytest.raises(StateFileError, match="before header"):
        parse_state_text("d 2\nn 1\nstatistics bosonic\n0 1.0 0.0\n")
    with pytest.raises(StateFileError, match="after body"):
        parse_state_text("d 2\nn 1\nstatistics bosonic\nrepresentation pure\n"
                         "0 1.0 0.0\nlabel late\n")
    with pytest.raises(StateFileError, match="fermionic or bosonic"):
        parse_state_text("d 2\nn 1\nstatistics anyonic\nrepresentation pure\n0 1.0 0.0\n")
    with pytest.raises(StateFileError, match="pure or mixed"):
        parse_state_text("d 2\nn 1\nstatistics bosonic\nrepresentation classical\n0 1.0 0.0\n")
    with pytest.raises(StateFileError, match="integers"):
        parse_state_text("d two\nn 1\nstatistics bosonic\nrepresentation pure\n0 1.0 0.0\n")


def test_duplicate_entry_rejected():
    text = "d 2\nn 1\nstatistics bosonic\nrepresentation pure\n0 1.0 0.0\n0 0.5 0.0\n"
    with pytest.raises(StateFileError, match="duplicate entry"):
        parse_state_text(text)


def test_mixed_must_be_density_matrix():
    # Hermitian but not unit trace
    text = "d 2\nn 1\nstatistics fermionic\nrepresentation mixed\n0 0 0.5 0.0\n1 1 0.4 0.0\n"
    with pytest.raises(InvalidState):
        parse_state_text(text)
    # not Hermitian
    text = "d 2\nn 1\nstatistics fermionic\nrepresentation mixed\n0 0 0.5 0.0\n1 1 0.5 0.0\n0 1 0.2 0.0\n"
    with pytest.raises(InvalidState):
        parse_state_text(text)


def test_pure_round_trip_is_exact():
    rng = np.random.default_rng(7)
    basis = enumerate_basis(3, 2, Statistics.BOSONIC)
    v = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    v /= np.linalg.norm(v)
    st = parse_state_text(write_state_text(basis, vector=v, label="rt"))
    assert st.label == "rt"
    assert np.array_equal(st.vector, v)  # bitwise: repr() floats round-trip


def test_mixed_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(8)
    basis = enumerate_basis(3, 2, Statistics.FERMIONIC)
    rho = random_density(basis.size, rng)
    p = tmp_path / "state.txt"
    write_state_file(p, basis, rho=rho)
    st = parse_state_file(p)
    assert st.representation == "mixed"
    assert np.abs(st.rho - rho).max() <= 1e-15


def test_write_requires_exactly_one_body():
    basis = enumerate_basis(2, 1, Statistics.FERMIONIC)
    with pytest.raises(ValueError):
        write_state_text(basis)
    with pytest.raises(ValueError):
        write_state_text(basis, vector=np.array([1.0, 0.0]),
                         rho=np.eye(2, dtype=complex) / 2)
