"""Command-line front end: basis listings, quantumness reports, activation
protocol runs, and hierarchy classification over text state files.

Exit codes: 0 success, 2 parse/usage errors, 3 numerical invariant violations.
With --machine, a single JSON document goes to stdout and the human report to
stderr; all reported numbers are fully determined by --seed.
"""
from __future__ import annotations

import argparse
import json
import sys
import warnings

import numpy as np

from .activation import (
    Subsystem,
    entanglement_maxcorr,
    max_corr_coefficients,
    partial_trace,
    run_protocol,
    verify_maximally_correlated,
)
from .correlations import (
    DESCENTS_PER_RESTART,
    OptimizerConfig,
    classify_report,
    quantumness,
    quantumness_oracle,
)
from .errors import (
    DimensionMismatch,
    InvalidDimension,
    InvalidSpec,
    InvalidState,
    NotMaxCorrelated,
    StateFileError,
    UnknownOccupation,
)
from .fock import Statistics, enumerate_basis
from .statefile import _parse_float, parse_state_file


def _statistics_from_flags(args) -> Statistics:
    return Statistics.FERMIONIC if args.fermionic else Statistics.BOSONIC


def _occ_str(occ) -> str:
    return ",".join(map(str, occ))


def _matrix_json(M: np.ndarray):
    return {
        "real": [[float(x.real) for x in row] for row in M],
        "imag": [[float(x.imag) for x in row] for row in M],
    }


def _emit(args, machine_doc: dict, human_lines: list[str]) -> None:
    if args.machine:
        json.dump(machine_doc, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        print("\n".join(human_lines), file=sys.stderr)
    else:
        print("\n".join(human_lines))


def _config_from_args(args) -> OptimizerConfig:
    return OptimizerConfig(restarts=args.restarts, seed=args.seed, tol=args.tol)


def _load_state(args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        state = parse_state_file(args.statefile)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return state


def _matrix_lines(M: np.ndarray, indent: str = "  ") -> list[str]:
    out = []
    for row in M:
        cells = " ".join(f"{x.real:+.6f}{x.imag:+.6f}j" for x in row)
        out.append(indent + cells)
    return out


def cmd_basis(args) -> int:
    basis = enumerate_basis(args.d, args.n, _statistics_from_flags(args))
    human = [f"{i} : {_occ_str(occ)}" for i, occ in enumerate(basis.states)]
    doc = {
        "command": "basis",
        "d": basis.d,
        "n": basis.n,
        "statistics": basis.statistics.value,
        "size": basis.size,
        "states": [list(occ) for occ in basis.states],
    }
    _emit(args, doc, human)
    return 0


def cmd_quantumness(args) -> int:
    state = _load_state(args)
    basis = state.basis
    rho = state.density_matrix()
    cfg = _config_from_args(args)
    report = quantumness(rho, basis, cfg)
    oracle = None
    if args.oracle_samples:
        oracle = quantumness_oracle(rho, basis, args.oracle_samples, args.seed)

    human = []
    if state.label:
        human.append(f"state: {state.label}")
    human.append(f"entropy S(rho) = {report.entropy:.12f} nats")
    human.append(f"quantumness Q = {report.q_value:.12f} nats"
                 + ("" if report.converged else "   [descents disagree]"))
    human.append(f"per-descent values ({DESCENTS_PER_RESTART} descents per restart, "
                 "then any escape descents):")
    for k, v in enumerate(report.restart_values):
        human.append(f"  descent {k}: {v:.12f}")
    if oracle is not None:
        human.append(f"oracle bound ({args.oracle_samples} Haar samples): {oracle:.12f}")
    human.append("argmin V:")
    human.extend(_matrix_lines(report.argmin_v))

    doc = {
        "command": "quantumness",
        "label": state.label,
        "seed": args.seed,
        "restarts": args.restarts,
        "tol": args.tol,
        "q_value": report.q_value,
        "converged": report.converged,
        "restart_values": list(report.restart_values),
        "entropy": report.entropy,
        "argmin_v": _matrix_json(report.argmin_v),
        "oracle_samples": args.oracle_samples or None,
        "oracle_value": oracle,
    }
    _emit(args, doc, human)
    return 0


def _read_v_matrix(path, d: int) -> np.ndarray:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            code = raw.split("#", 1)[0]
            vals = code.split()
            if not vals:
                continue
            if len(vals) != 2 * d:
                raise StateFileError(
                    f"V row needs {2 * d} floats (re im pairs), got {len(vals)}", lineno)
            nums = [_parse_float(v, lineno, code, k) for k, v in enumerate(vals)]
            rows.append([complex(nums[2 * k], nums[2 * k + 1]) for k in range(d)])
    if len(rows) != d:
        raise StateFileError(f"V needs {d} rows, got {len(rows)}")
    V = np.array(rows)
    if np.abs(V @ V.conj().T - np.eye(d)).max() > 1e-10:
        raise InvalidState("supplied V is not unitary within 1e-10")
    return V


def cmd_activate(args) -> int:
    state = _load_state(args)
    basis = state.basis
    rho = state.density_matrix()
    if args.v_matrix:
        V = _read_v_matrix(args.v_matrix, basis.d)
        v_source = "file"
    elif args.v_optimal:
        V = quantumness(rho, basis, _config_from_args(args)).argmin_v
        v_source = "optimizer"
    else:
        V = np.eye(basis.d, dtype=complex)
        v_source = "identity"

    js = run_protocol(rho, V, basis)
    ok, worst = verify_maximally_correlated(js)
    ent = entanglement_maxcorr(js)
    chi = max_corr_coefficients(rho, V, basis)
    sys_spec = np.linalg.eigvalsh(partial_trace(js, Subsystem.SYSTEM))
    app_spec = np.linalg.eigvalsh(partial_trace(js, Subsystem.APPARATUS))

    human = []
    if state.label:
        human.append(f"state: {state.label}")
    human.append(f"V source: {v_source}")
    human.append(f"maximally correlated: {ok} (largest off-pattern entry {worst:.3e})")
    human.append(f"entanglement E = {ent:.12f} nats")
    human.append("reduced system spectrum:    "
                 + " ".join(f"{x:.6f}" for x in sys_spec[::-1]))
    human.append("reduced apparatus spectrum: "
                 + " ".join(f"{x:.6f}" for x in app_spec[::-1]))
    human.append("chi (rotated state in the Fock basis):")
    human.extend(_matrix_lines(chi))

    doc = {
        "command": "activate",
        "label": state.label,
        "v_source": v_source,
        "maximally_correlated": bool(ok),
        "max_off_pattern": worst,
        "entanglement": ent,
        "system_spectrum": [float(x) for x in sys_spec],
        "apparatus_spectrum": [float(x) for x in app_spec],
        "chi": _matrix_json(chi),
    }
    _emit(args, doc, human)
    return 0


def cmd_classify(args) -> int:
    state = _load_state(args)
    rho = state.density_matrix()
    report = classify_report(rho, state.basis, _config_from_args(args))

    human = []
    if state.label:
        human.append(f"state: {state.label}")
    human.append(f"class: {report.label.value}")
    human.append(f"evidence: Q = {report.q_value:.12f}")
    if report.slater_rank is not None:
        human.append(f"evidence: slater rank = {report.slater_rank}")
    if report.condensate_defect is not None:
        human.append(f"evidence: condensate-mixture defect = {report.condensate_defect:.3e}")

    doc = {
        "command": "classify",
        "label": state.label,
        "class": report.label.value,
        "q_value": report.q_value,
        "slater_rank": report.slater_rank,
        "condensate_defect": report.condensate_defect,
    }
    _emit(args, doc, human)
    return 0


def _add_statistics_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--fermionic", action="store_true")
    g.add_argument("--bosonic", action="store_true")


def _add_optimizer_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--restarts", type=int, default=20,
                   help="multistart count for the unitary-group search; each restart "
                        f"is {DESCENTS_PER_RESTART} local descents (default 20)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed fixing every random draw (default 0)")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="convergence tolerance on Q (default 1e-8)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcorr",
        description="Quantumness of correlations for identical particles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", help="list a Fock basis with its indices")
    p.add_argument("--d", type=int, required=True, help="mode count")
    p.add_argument("--n", type=int, required=True, help="particle count")
    _add_statistics_flags(p)
    p.add_argument("--machine", action="store_true", help="JSON to stdout")
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("quantumness", help="minimize measurement disturbance over V")
    p.add_argument("statefile")
    _add_optimizer_flags(p)
    p.add_argument("--oracle-samples", type=int, default=0,
                   help="also report a Haar-sampling upper bound from this many draws")
    p.add_argument("--machine", action="store_true", help="JSON to stdout")
    p.set_defaults(func=cmd_quantumness)

    p = sub.add_parser("activate", help="run the system-apparatus activation protocol")
    p.add_argument("statefile")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--v-matrix", help="file with d rows of d (re im) pairs")
    g.add_argument("--v-optimal", action="store_true",
                   help="use the quantumness argmin as the rotation")
    _add_optimizer_flags(p)
    p.add_argument("--machine", action="store_true", help="JSON to stdout")
    p.set_defaults(func=cmd_activate)

    p = sub.add_parser("classify", help="place a state in the correlation hierarchy")
    p.add_argument("statefile")
    _add_optimizer_flags(p)
    p.add_argument("--machine", action="store_true", help="JSON to stdout")
    p.set_defaults(func=cmd_classify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (StateFileError, InvalidDimension, UnknownOccupation, InvalidSpec, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (InvalidState, NotMaxCorrelated, DimensionMismatch) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
