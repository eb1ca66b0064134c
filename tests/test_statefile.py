import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qcorr import (
    InvalidState,
    QcorrError,
    StateFileError,
    Statistics,
    enumerate_basis,
    parse_state_file,
    parse_state_text,
    write_state_file,
    write_state_text,
)

from qcorr import statefile

from helpers import random_density, reference_parse_state_text

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


def test_huge_pure_amplitudes_normalize_to_a_unit_vector():
    # |v|^2 overflows for these finite amplitudes, so the parser measures them scaled
    text = "d 2\nn 1\nstatistics bosonic\nrepresentation pure\n0 1e200 0.0\n1 1e200 0.0\n"
    with pytest.warns(UserWarning, match=r"norm 1\.414\d*e\+200; normalized") as record:
        st = parse_state_text(text)
    assert [w.category for w in record] == [UserWarning]
    assert st.normalized_on_parse
    assert_allclose(st.vector, [2 ** -0.5, 2 ** -0.5], rtol=1e-15)


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
    # a rank-3 (4,4,B) state whose diagonal has -0.0 imaginary parts, which
    # the parser must keep
    big = enumerate_basis(4, 4, Statistics.BOSONIC)
    sigma = random_density(big.size, rng, rank=3)
    sigma.imag[np.diag_indices(big.size)] = -0.0
    for basis, rho in ((basis, rho), (big, sigma)):
        p = tmp_path / "state.txt"
        write_state_file(p, basis, rho=rho)
        st = parse_state_file(p)
        assert st.representation == "mixed"
        assert st.rho.tobytes() == rho.tobytes()
    assert np.signbit(st.rho.diagonal().imag).all()


def test_write_requires_exactly_one_body():
    basis = enumerate_basis(2, 1, Statistics.FERMIONIC)
    with pytest.raises(ValueError):
        write_state_text(basis)
    with pytest.raises(ValueError):
        write_state_text(basis, vector=np.array([1.0, 0.0]),
                         rho=np.eye(2, dtype=complex) / 2)


def test_header_values_take_one_token():
    text = "d 2 7\nn 1 junk\nstatistics bosonic extra\nrepresentation pure\n0 1.0 0.0\n"
    with pytest.raises(StateFileError, match="'d' takes one value") as exc:
        parse_state_text(text)
    assert (exc.value.line, exc.value.column) == (1, 5)
    for line, column in (("n 1 junk", 5), ("statistics bosonic  extra", 21),
                         ("representation\tpure x", 21)):
        header = ["d 2", "n 1", "statistics bosonic", "representation pure"]
        key = line.split()[0]
        header = [line if h.split()[0] == key else h for h in header]
        with pytest.raises(StateFileError, match=f"{key!r} takes one value") as exc:
            parse_state_text("\n".join(header) + "\n0 1.0 0.0\n")
        assert (exc.value.line, exc.value.column) == (header.index(line) + 1, column)
    st = parse_state_text("label two  words\nd 2\nn 1\nstatistics bosonic\n"
                          "representation pure\n0 1.0 0.0\n")
    assert st.label == "two  words"


_SECTORS = [(2, 2, "bosonic"), (4, 2, "fermionic"), (3, 3, "bosonic"),
            (6, 3, "fermionic"), (4, 4, "bosonic")]
_FLOATS = ["0x10", "nan", "inf", "-inf", "1e999", "1_0", "+.5", "-0.0", "5e-324", "1e-400",
           "0.5.1", "", "1e", "NaN", "+Infinity", "\u0661.5", "1e200", "-1.7e308", "\0", "1\0"]


def _state_lines(rng, basis, pure: bool) -> list:
    """Header and body rows of a random state on a random support."""
    D = basis.size
    k = D if rng.random() < 0.15 else int(rng.integers(1, min(D, 6) + 1))
    support = sorted(rng.choice(D, size=k, replace=False))
    labels = [",".join(map(str, basis.states[i])) for i in support]
    head = [f"d {basis.d}", f"n {basis.n}", f"statistics {basis.statistics.value}",
            f"representation {'pure' if pure else 'mixed'}"]
    if rng.random() < 0.3:
        head.append("label  a random\tstate")
    order = rng.permutation(len(head))
    head = [head[i] for i in order]
    if pure:
        psi = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        psi /= np.linalg.norm(psi)
        scale = rng.choice([1.0, 1.0, 1.0, 2.0, 0.0])
        body = [f"{a} {float(x.real * scale)!r} {float(x.imag * scale)!r}"
                for a, x in zip(labels, psi)]
    else:
        X = rng.standard_normal((k, 2)) + 1j * rng.standard_normal((k, 2))
        rho = X @ X.conj().T
        rho /= np.trace(rho).real
        body = [f"{a} {b} {float(rho[i, j].real)!r} {float(rho[i, j].imag)!r}"
                for i, a in enumerate(labels) for j, b in enumerate(labels)]
        if rng.random() < 0.2:  # signed zeros on the diagonal
            body = [row.replace(" 0.0", " -0.0") if row.split()[0] == row.split()[1] else row
                    for row in body]
    rng.shuffle(body)
    return head + body, len(head)


def _mutate(rng, lines: list, n_head: int, basis) -> list:
    """One random edit of the kinds a hand-written state file may carry."""
    lines = list(lines)
    body = range(n_head, len(lines))
    pick = int(rng.choice(body))
    tokens = lines[pick].split()
    kind = int(rng.integers(15))
    if kind == 0:  # comment line or trailing comment
        if rng.random() < 0.5:
            lines.insert(int(rng.integers(len(lines) + 1)), "# a comment 1,0 nan")
        else:
            lines[pick] += rng.choice(["  # amplitude", "#x", "\t# d 2"])
    elif kind == 1:  # blank or whitespace-only line
        lines.insert(int(rng.integers(len(lines) + 1)), rng.choice(["", "   ", "\t", "\f"]))
    elif kind == 2:  # tabs and runs of spaces between fields, indentation
        lines[pick] = rng.choice(["\t", "  ", " \t "]).join(tokens)
        lines[pick] = rng.choice(["", " ", "\t"]) + lines[pick]
    elif kind == 3:  # other spellings of an occupation
        j = int(rng.integers(max(len(tokens) - 2, 1)))
        try:
            occ = [int(m) for m in tokens[j].split(",")]
        except (ValueError, IndexError):  # an earlier edit already broke the row
            return lines
        tokens[j] = rng.choice([
            ",".join(f"0{m}" for m in occ), ",".join(map(str, occ[::-1])),
            ",".join(map(str, occ[:-1] + [basis.d])), ",".join(map(str, occ + [0])),
            ",".join(map(str, occ[:-1] + [-1])), "a,b", tokens[j] + ","])
        lines[pick] = " ".join(tokens)
    elif kind == 4:  # a duplicate row, with the same or another value
        row = lines[pick] if rng.random() < 0.5 else " ".join(tokens[:-2] + ["0.25", "0.0"])
        lines.insert(int(rng.integers(n_head, len(lines) + 1)), row)
    elif kind == 5:  # a header key after the body began
        key = rng.choice(["label late", "d 2", "representation pure", "n", "statistics x y"])
        lines.insert(int(rng.integers(n_head + 1, len(lines) + 1)), key)
    elif kind == 6:  # a missing header key
        del lines[int(rng.integers(n_head))]
    elif kind == 7:  # a field dropped or added
        if rng.random() < 0.5 and tokens:
            del tokens[int(rng.integers(len(tokens)))]
        else:
            tokens.insert(int(rng.integers(len(tokens) + 1)), rng.choice(["0.0", "\0"]))
        lines[pick] = " ".join(tokens)
    elif kind in (8, 9, 14):  # float spellings
        if len(tokens) < 2:
            return lines
        tokens[-1 - int(rng.integers(2))] = rng.choice(_FLOATS)
        lines[pick] = " ".join(tokens)
    elif kind == 10:  # header values: extra tokens, repeats, bad values
        j = int(rng.integers(n_head))
        if not lines[j].split():
            return lines
        lines[j] = rng.choice([lines[j] + " extra", lines[j].split()[0], lines[j]])
        if rng.random() < 0.3:
            lines.insert(j, rng.choice(["n 0", "d x", "statistics anyonic", "d 1"]))
    elif kind == 11:  # zero amplitudes everywhere
        lines[n_head:] = [" ".join(row.split()[:-2] + ["0.0", "-0.0"]) for row in lines[n_head:]]
    elif kind == 12:  # line breaks other than "\n" inside a row
        lines[pick] = lines[pick].replace(" ", rng.choice(["\r", "\v", "\x1c"]), 1)
    elif kind == 13:  # the header alone, or nothing at all
        lines = lines[:n_head] if rng.random() < 0.5 else []
    return lines


def _outcome(text: str, parse):
    """What parsing `text` gives, in a form that compares bit for bit: the
    state's fields with its arrays as bytes, or the error's type, message,
    line and column; and the warnings raised on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            st = parse(text)
        except QcorrError as e:
            result = (type(e), str(e), getattr(e, "line", None), getattr(e, "column", None))
        else:
            result = (st.basis, st.representation, st.label, st.normalized_on_parse) + tuple(
                None if a is None else (a.dtype, a.shape, a.tobytes()) for a in (st.vector, st.rho))
    return result, [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("pure", [True, False], ids=["pure", "mixed"])
@pytest.mark.parametrize("sector", _SECTORS, ids=lambda s: f"{s[0]}-{s[1]}-{s[2][0].upper()}")
def test_parser_matches_line_by_line_reference(sector, pure, monkeypatch):
    """The column reader against the line-by-line reference on 210 random,
    mostly damaged texts per sector and representation: equal states bit for
    bit, equal warnings, and equal errors down to line and column.  Each text
    is read whole and again in blocks of a few lines."""
    d, n, stat = sector
    basis = enumerate_basis(d, n, Statistics(stat))
    rng = np.random.default_rng([31, d, n, pure])
    for trial in range(210):
        lines, n_head = _state_lines(rng, basis, pure)
        for _ in range(int(rng.choice([0, 1, 1, 2, 3]))):
            if lines[n_head:]:
                lines = _mutate(rng, lines, n_head, basis)
        text = rng.choice(["\n", "\r\n", "\r"]).join(lines) + rng.choice(["\n", ""])
        want = _outcome(text, reference_parse_state_text)
        assert _outcome(text, parse_state_text) == want, text
        with monkeypatch.context() as m:
            m.setattr(statefile, "_STACK_BYTES", 256)
            assert _outcome(text, parse_state_text) == want, text


_HEAD = "d 3\nn 2\nstatistics fermionic\nrepresentation {}\n"


@pytest.mark.parametrize("text", [
    _HEAD.format("pure") + "0,1 1.0 0.0 \0\n0,2 0.5 0.0\n",  # a NUL token as a fourth field
    _HEAD.format("pure") + "0,1 \0 1.0 0.0\n",
    _HEAD.format("pure") + "0,1 1.0\0 0.0\n\0\n",
    _HEAD.format("mixed") + "0,1 0,1 1.0 \0\0\n\0 \0\0 \0\n",
    _HEAD.format("pure") + "0,1 1.0 0.0\n\n\n0,2 0.0 1.0\n  \n",
    _HEAD.format("pure") + "0,1 1.0 0.0\r\n0,2 1.0 0.0 # d 3\r\n1,2\t1e200\t0.0\n",
    _HEAD.format("mixed") + "0,1 0,1 0.5 0.0\n1,2 1,2 0.5 -0.0\n0,1 0,1 0.5 0.0 0.0\n",
], ids=range(7))
def test_parser_matches_reference_on_edge_texts(text):
    assert _outcome(text, parse_state_text) == _outcome(text, reference_parse_state_text)
