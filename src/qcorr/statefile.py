"""Text state files: a hand-writable, diffable format for pure and mixed states.

Grammar (one entry per line; blank lines and `#` comments ignored):

    header    := "d" INT | "n" INT | "statistics" ("fermionic"|"bosonic")
               | "representation" ("pure"|"mixed") | "label" TEXT
    pure row  := OCC RE IM
    mixed row := OCC OCC RE IM
    OCC       := comma-separated mode indices in canonical (sorted) order
    RE, IM    := a Python float literal (what `float()` accepts), finite

All header keys except `label` are required, appear once and must precede
the body.  Each takes exactly one value; `label` keeps the rest of its line.
Amplitudes are written as two floats (real, imaginary part); `nan` and `inf`
are rejected, and each entry may be given once.  Pure bodies list only
nonzero amplitudes; unnormalized pure states are normalized with a warning.
Mixed bodies must describe a Hermitian, PSD, unit-trace matrix and list both
triangles (D^2 rows when the matrix is dense).

The header is read line by line, the body by column.  An error names the
line and column of the first faulty row in file order, and of that row's
faults the first in the order header key, field count, row occupation,
column occupation, RE, IM, duplicate.
"""
from __future__ import annotations

import bisect
import itertools
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidDimension, StateFileError
from .fock import FockBasis, Statistics, check_density_matrix, enumerate_basis
from .lift import _STACK_BYTES

_HEADER_KEYS = frozenset({"d", "n", "statistics", "representation", "label"})


@dataclass
class ParsedState:
    basis: FockBasis
    representation: str
    label: str | None
    vector: np.ndarray | None
    rho: np.ndarray | None
    normalized_on_parse: bool = False

    def density_matrix(self) -> np.ndarray:
        if self.rho is not None:
            return self.rho
        return np.outer(self.vector, self.vector.conj())


def _parse_occupation(token: str, basis: FockBasis, lineno: int, code: str, k: int):
    parts = token.split(",")
    try:
        occ = tuple(int(p) for p in parts)
    except ValueError:
        raise _error_at(f"occupation {token!r} is not a comma-separated "
                        "list of integers", lineno, code, k) from None
    if len(occ) != basis.n:
        raise _error_at(f"occupation {token!r} has {len(occ)} modes, "
                        f"expected n={basis.n}", lineno, code, k)
    if any(not 0 <= m < basis.d for m in occ):
        raise _error_at(f"occupation {token!r} has a mode outside "
                        f"[0, {basis.d})", lineno, code, k)
    if occ not in basis:
        kind = ("strictly increasing" if basis.statistics is Statistics.FERMIONIC
                else "non-decreasing")
        raise _error_at(f"occupation {token!r} is not in canonical "
                        f"{kind} order", lineno, code, k)
    return occ


def _parse_float(token: str, lineno: int, code: str, k: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise _error_at(f"bad float {token!r}", lineno, code, k) from None
    if not math.isfinite(value):
        raise _error_at(f"non-finite float {token!r}", lineno, code, k)
    return value


def _token_columns(raw: str):
    cols = []
    i = 0
    for tok in raw.split():
        i = raw.index(tok, i)
        cols.append(i + 1)
        i += len(tok)
    return cols


def _error_at(message: str, lineno: int, code: str, k: int) -> StateFileError:
    """Error positioned at the k-th token of the line's code (the part before
    any `#`); the column is worked out only here, on the error path."""
    return StateFileError(message, lineno, _token_columns(code)[k])


def parse_state_file(path) -> ParsedState:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_state_text(fh.read())


def parse_state_text(text: str) -> ParsedState:
    lines = text.splitlines()
    header: dict[str, str] = {}
    header_lines: dict[str, int] = {}
    for start, raw in enumerate(lines):
        code = raw.split("#", 1)[0]
        tokens = code.split()
        if not tokens:
            continue
        key = tokens[0]
        if key not in _HEADER_KEYS:
            break
        lineno = start + 1
        if key in header:
            raise _error_at(f"duplicate header key {key!r}", lineno, code, 0)
        if len(tokens) < 2:
            raise _error_at(f"header key {key!r} needs a value", lineno, code, 0)
        if key == "label":
            # labels keep their internal spacing so they round-trip verbatim
            header[key] = code.strip()[len(key):].strip()
        elif len(tokens) > 2:
            raise _error_at(f"header key {key!r} takes one value", lineno, code, 2)
        else:
            header[key] = tokens[1]
        header_lines[key] = lineno
    else:
        raise StateFileError("no state entries found", max(
            list(header_lines.values()) or [1]))

    basis, labels, representation = _sector_from_header(header, header_lines, start + 1, code)
    index, values = _read_body(text, lines, start, basis, labels, representation == "pure")
    label = header.get("label")
    if representation == "pure":
        v = np.zeros(basis.size, dtype=complex)
        v[index] = values
        scale = 1.0
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(v))
        if not math.isfinite(norm):  # |v|^2 overflows: measure v over its largest real or imaginary part
            scale = float(np.abs(v.view(float)).max())
            norm = float(np.linalg.norm(v / scale))
        if norm < 1e-12:
            raise StateFileError("pure state has (near-)zero norm")
        normalized = abs(norm * scale - 1.0) > 1e-12
        if normalized:
            warnings.warn(f"pure state had norm {norm * scale!r}; normalized on parse")
            v = v / scale / norm
        return ParsedState(basis, "pure", label, v, None, normalized)

    rho = np.zeros(basis.size ** 2, dtype=complex)
    rho[index] = values
    rho = rho.reshape(basis.size, basis.size)
    check_density_matrix(rho)  # raises InvalidState on violation
    return ParsedState(basis, "mixed", label, None, rho, False)


def _sector_from_header(header: dict, header_lines: dict, lineno: int, code: str):
    """Basis, labels and representation of a header that the body row at
    `lineno` ends; a missing key is reported at that row, a bad value at its
    key."""
    missing = [k for k in ("d", "n", "statistics", "representation") if k not in header]
    if missing:
        raise _error_at(f"body begins before header keys {missing} are set",
                        lineno, code, 0)
    sizes = {}
    for key in ("d", "n"):
        try:
            sizes[key] = int(header[key])
        except ValueError:
            raise StateFileError(f"d and n must be integers, got {key} {header[key]!r}",
                                 header_lines[key]) from None
    d, n = sizes["d"], sizes["n"]
    if n < 1:
        raise StateFileError(f"need n >= 1, got n={n}", header_lines["n"])
    stats = header["statistics"].lower()
    if stats not in ("fermionic", "bosonic"):
        raise StateFileError(f"statistics must be fermionic or bosonic, got {stats!r}",
                             header_lines["statistics"])
    representation = header["representation"].lower()
    if representation not in ("pure", "mixed"):
        raise StateFileError(f"representation must be pure or mixed, got "
                             f"{representation!r}", header_lines["representation"])
    try:
        basis, labels = _sector(d, n, Statistics(stats))
    except InvalidDimension as e:
        raise StateFileError(str(e), header_lines["d"]) from None
    return basis, labels, representation


@lru_cache(maxsize=None)
def _sector(d: int, n: int, statistics: Statistics) -> tuple[FockBasis, dict]:
    """The sector's basis and the basis index of each canonical occupation
    label ("0,1,1"); built once per sector and shared by every caller, hence
    read-only."""
    basis = enumerate_basis(d, n, statistics)
    label = ",".join(["%d"] * n)
    return basis, dict(zip(map(label.__mod__, basis.states), itertools.count()))


def _read_body(text: str, lines: list, start: int, basis: FockBasis, labels: dict,
               pure: bool):
    """Flat indices (into the vector, or the row-major matrix) and complex
    values of the body, lines[start:] of `text`, read column by column in
    blocks of about _STACK_BYTES of text, which bound the tokens held at once.

    The error raised is the one a row-by-row reader meets first: the earliest
    offending row, and of its faults the first in the order header key, field
    count, row occupation, column occupation, RE, IM, duplicate."""
    index = np.empty(len(lines) - start, np.intp)
    values = np.empty(len(lines) - start, complex)
    firsts, locators = [], []  # first entry and entry locator of each block
    size, error = 0, None
    step, comments = max(1, _STACK_BYTES * len(lines) // len(text)), "#" in text
    # closes each line in the token list; no token can equal a string that
    # the text does not contain
    mark = "\0"
    while mark in text:
        mark *= 2
    for lo in range(start, len(lines), step):
        occupations, parts, where, error = _read_block(
            lines[lo:lo + step], lo + 1, basis, labels, pure, comments, mark)
        end = size + len(parts[1])
        index[size:end] = (occupations[0] if pure
                           else occupations[0] * basis.size + occupations[1])
        values.real[size:end], values.imag[size:end] = parts
        firsts.append(size)
        locators.append(where)
        size = end
        if error is not None:
            break

    index = index[:size]
    if np.count_nonzero(np.bincount(index) > 1):
        order = np.argsort(index, kind="stable")
        k = int(order[1:][index[order[1:]] == index[order[:-1]]].min())
        b = bisect.bisect_right(firsts, k) - 1
        i, j = divmod(int(index[k]), basis.size)
        shown = basis.states[j] if pure else (basis.states[i], basis.states[j])
        error = _error_at(f"duplicate entry for {shown}", *locators[b](k - firsts[b]), 0)
    if error is not None:
        raise error
    return index, values[:size]


def _read_block(block: list, first_lineno: int, basis: FockBasis, labels: dict,
                pure: bool, comments: bool, mark: str):
    """Columns of the entries in `block` (occupation indices, then RE and IM),
    cut before the first faulty row; also a function giving the line number
    and code of the k-th entry, and the fault's error (None if none).  The
    lines lose their `#` comments first when the text has any (`comments`);
    `mark` is a string found nowhere in the text.

    Each check runs over a whole column and finds its first failing row; the
    checks after it look only at the rows before that one."""
    want = 3 if pure else 4
    if comments:
        block = [raw.split("#", 1)[0] for raw in block]
    # the tokens of every line, each line closed by `mark`, which no token is
    end = f" {mark} "
    flat = (end.join(block) + end).split()
    stride = want + 1
    if len(flat) == stride * len(block) and flat[want::stride].count(mark) == len(block):
        rows = range(len(block))  # every line is a row of `want` fields
        heads, widths = flat[::stride], None
    else:
        ends = np.flatnonzero(np.fromiter(map(mark.__eq__, flat), bool, len(flat)))
        sizes = np.diff(ends, prepend=-1) - 1  # tokens on each line
        rows = np.flatnonzero(sizes).tolist()  # the non-blank lines
        starts = (ends - sizes)[rows].tolist()  # where each row's tokens begin
        heads = list(map(flat.__getitem__, starts))
        widths = sizes[rows].tolist()
    limit, error = len(rows), None

    def where(k):
        """Line number and code of the k-th row."""
        return first_lineno + rows[k], block[rows[k]]

    def fail(k, message, j):
        nonlocal limit, error
        limit, error = k, _error_at(message, *where(k), j)

    if not _HEADER_KEYS.isdisjoint(heads):
        k = min(map(heads.index, _HEADER_KEYS.intersection(heads)))
        fail(k, f"header key {heads[k]!r} after body began", 0)
    if widths is not None:
        if widths[:limit].count(want) != limit:
            k = next(k for k, width in enumerate(widths) if width != want)
            fail(k, f"{'pure' if pure else 'mixed'} row needs {want} fields "
                    f"({'occ re im' if pure else 'row-occ col-occ re im'}), got {widths[k]}", 0)
        # the rows before `limit` have `want` fields each: drop the line ends
        flat = list(filter(mark.__ne__, flat[:starts[limit] if limit < len(rows) else len(flat)]))
        stride = want

    occupations = []
    for j in range(want - 2):
        tokens = flat[j:stride * limit:stride]
        try:
            column = np.fromiter(map(labels.__getitem__, tokens), np.intp, len(tokens))
        except KeyError:  # spellings other than the label
            column = np.fromiter(map(labels.get, tokens, itertools.repeat(-1)), np.intp,
                                 len(tokens))
            for k in np.flatnonzero(column < 0).tolist():
                try:
                    occ = _parse_occupation(tokens[k], basis, *where(k), j)
                except StateFileError as e:
                    limit, error = k, e
                    break
                column[k] = basis.index_of(occ)
        occupations.append(column)

    parts = []
    for j in range(want - 2, want):
        tokens = flat[j:stride * limit:stride]
        try:
            part = np.fromiter(map(float, tokens), float, len(tokens))
        except ValueError:
            floats = []
            for token in tokens:
                try:
                    floats.append(float(token))
                except ValueError:
                    fail(len(floats), f"bad float {token!r}", j)
                    break
            part = np.array(floats, float)
        finite = np.isfinite(part)
        if np.count_nonzero(finite) < len(finite):
            k = int(np.argmin(finite))
            fail(k, f"non-finite float {tokens[k]!r}", j)
        parts.append(part)
    return ([column[:limit] for column in occupations], [part[:limit] for part in parts],
            where, error)


def _fmt(x: float) -> str:
    return repr(float(x))


def write_state_text(basis: FockBasis, vector: np.ndarray | None = None,
                     rho: np.ndarray | None = None, label: str | None = None) -> str:
    """Serialize a state losslessly (floats via repr, which round-trips)."""
    if (vector is None) == (rho is None):
        raise ValueError("provide exactly one of vector or rho")
    lines = [f"d {basis.d}", f"n {basis.n}", f"statistics {basis.statistics.value}"]
    lines.append(f"representation {'pure' if rho is None else 'mixed'}")
    if label is not None:
        lines.append(f"label {label}")
    if vector is not None:
        for i, occ in enumerate(basis.states):
            amp = complex(vector[i])
            if amp != 0:
                lines.append(f"{','.join(map(str, occ))} {_fmt(amp.real)} {_fmt(amp.imag)}")
    else:
        for i, row in enumerate(basis.states):
            for j, col in enumerate(basis.states):
                val = complex(rho[i, j])
                if val != 0:
                    lines.append(f"{','.join(map(str, row))} {','.join(map(str, col))} "
                                 f"{_fmt(val.real)} {_fmt(val.imag)}")
    return "\n".join(lines) + "\n"


def write_state_file(path, basis: FockBasis, vector: np.ndarray | None = None,
                     rho: np.ndarray | None = None, label: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_state_text(basis, vector, rho, label))
