"""Text state files: a hand-writable, diffable format for pure and mixed states.

Grammar (one entry per line; blank lines and `#` comments ignored):

    header    := "d" INT | "n" INT | "statistics" ("fermionic"|"bosonic")
               | "representation" ("pure"|"mixed") | "label" TEXT
    pure row  := OCC RE IM
    mixed row := OCC OCC RE IM
    OCC       := comma-separated mode indices in canonical (sorted) order

All header keys except `label` are required and must precede the body.
Amplitudes are written as two floats (real, imaginary part).  Pure bodies
list only nonzero amplitudes; unnormalized pure states are normalized with a
warning.  Mixed bodies must describe a Hermitian, PSD, unit-trace matrix
(write both triangles).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimension, StateFileError
from .fock import FockBasis, Statistics, check_density_matrix, enumerate_basis

_HEADER_KEYS = ("d", "n", "statistics", "representation", "label")


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


def _occupation_index(token: str, labels: dict, basis: FockBasis,
                      lineno: int, code: str, k: int) -> int:
    """Basis index of an occupation token: canonical labels ("0,1,1") come
    from `labels`; any other spelling goes through `_parse_occupation`."""
    index = labels.get(token)
    if index is None:
        index = basis.index_of(_parse_occupation(token, basis, lineno, code, k))
    return index


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
    header: dict[str, str] = {}
    header_lines: dict[str, int] = {}
    basis = None
    labels = None
    representation = None
    entries = {}  # basis index (pure) or (row, col) index pair (mixed) -> value
    body_started = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0]
        tokens = code.split()
        if not tokens:
            continue

        if tokens[0] in _HEADER_KEYS:
            key = tokens[0]
            if body_started:
                raise _error_at(f"header key {key!r} after body began", lineno, code, 0)
            if key in header:
                raise _error_at(f"duplicate header key {key!r}", lineno, code, 0)
            if len(tokens) < 2:
                raise _error_at(f"header key {key!r} needs a value", lineno, code, 0)
            # labels keep their internal spacing so they round-trip verbatim
            header[key] = code.strip()[len(key):].strip() if key == "label" else tokens[1]
            header_lines[key] = lineno
            continue

        # body row
        if not body_started:
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
                basis = enumerate_basis(d, n, Statistics(stats))
            except InvalidDimension as e:
                raise StateFileError(str(e), header_lines["d"]) from None
            labels = {",".join(map(str, occ)): i for i, occ in enumerate(basis.states)}
            body_started = True

        want = 3 if representation == "pure" else 4
        if len(tokens) != want:
            raise _error_at(
                f"{representation} row needs {want} fields "
                f"({'occ re im' if want == 3 else 'row-occ col-occ re im'}), got {len(tokens)}",
                lineno, code, 0)
        if representation == "pure":
            key = _occupation_index(tokens[0], labels, basis, lineno, code, 0)
        else:
            key = (_occupation_index(tokens[0], labels, basis, lineno, code, 0),
                   _occupation_index(tokens[1], labels, basis, lineno, code, 1))
        re = _parse_float(tokens[want - 2], lineno, code, want - 2)
        im = _parse_float(tokens[want - 1], lineno, code, want - 1)
        if key in entries:
            shown = (basis.states[key] if representation == "pure"
                     else tuple(basis.states[i] for i in key))
            raise _error_at(f"duplicate entry for {shown}", lineno, code, 0)
        entries[key] = complex(re, im)

    if not body_started:
        raise StateFileError("no state entries found", max(
            list(header_lines.values()) or [1]))

    label = header.get("label")
    if representation == "pure":
        v = np.zeros(basis.size, dtype=complex)
        for i, amp in entries.items():
            v[i] = amp
        norm = float(np.linalg.norm(v))
        if norm < 1e-12:
            raise StateFileError("pure state has (near-)zero norm")
        normalized = abs(norm - 1.0) > 1e-12
        if normalized:
            warnings.warn(f"pure state had norm {norm!r}; normalized on parse")
            v = v / norm
        return ParsedState(basis, "pure", label, v, None, normalized)

    rho = np.zeros((basis.size, basis.size), dtype=complex)
    for (i, j), val in entries.items():
        rho[i, j] = val
    check_density_matrix(rho)  # raises InvalidState on violation
    return ParsedState(basis, "mixed", label, None, rho, False)


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
