"""Spans around the calls each qcorr module makes into the others.

`patched` replaces module attributes (``lift_unitary`` as seen from
``quantumness``, ``measurement`` and ``activation``; ``minimize`` as seen
from ``quantumness``; ...) with timing wrappers and restores the originals
on exit. Leaf calls (chart, lift, entropy, ...) run up to 10^5 times a run,
so they are aggregated as they close; coarser spans (ops, searches,
restarts, protocol steps) are also kept whole for the trace file.
"""
from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter

# module attribute -> span name
WRAPPED = {
    "lift_unitary": "lift",
    "hermitian_from_parameters": "chart",
    "parameters_from_unitary": "inverse_chart",
    "haar_random_unitary": "haar",
    "_minimize_over_group": "search",
    "minimize": "restart",
    "shannon_entropy": "shannon",
    "von_neumann_entropy": "vn",
    "relative_entropy": "relent",
    "one_particle_rdm": "rdm",
    "quantumness": "quantumness",
    "geometric_quantumness": "geometric",
    "classify_report": "classify",
    "quantumness_oracle": "oracle",
    "build_family": "family",
    "dephase": "dephase",
    "run_protocol": "protocol",
    "verify_maximally_correlated": "verify",
    "entanglement_maxcorr": "entanglement",
    "check_density_matrix": "check",
    "enumerate_basis": "basis",
    "parse_state_text": "parse",
}
KEPT = {"op", "parse", "quantumness", "geometric", "classify", "search", "restart",
        "oracle", "protocol", "verify", "entanglement"}
USEFUL_TOL = 1e-8


class Tracer:
    """Span stack plus per-(sector, span) totals: [calls, busy s, self s].

    Busy time counts a span only when no span of the same name encloses it;
    self time is a span's duration minus the durations of its direct
    children.
    """

    def __init__(self):
        self.totals: dict[tuple[str, str], list] = {}
        self.spans: list[tuple] = []      # (id, name, start, end, parent id, op index)
        self.restarts: list[tuple] = []   # (sector, nfev, nit, final value, seconds)
        self.searches: list[tuple] = []   # (sector, planned, run, useful)
        self.oracle_samples = 0
        self.joint_bytes = 0
        self.sector = None
        self.op_index = None
        self._stack: list[list] = []
        self._open: dict[str, int] = {}
        self._next_id = 0
        self._search_values: list[list[float]] = []

    def _enter(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0, self._next_id])
        self._next_id += 1
        self._open[name] = self._open.get(name, 0) + 1

    def _exit(self) -> float:
        end = perf_counter()
        name, start, child, span_id = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        self._open[name] -= 1
        row = self.totals.get((self.sector, name))
        if row is None:
            row = self.totals[(self.sector, name)] = [0, 0.0, 0.0]
        row[0] += 1
        row[2] += dur - child
        if not self._open[name]:
            row[1] += dur
        if name in KEPT:
            self.spans.append((span_id, name, start, end,
                               parent[3] if parent else None, self.op_index))
        return dur

    @contextmanager
    def op(self, op):
        self.sector, self.op_index = op.sector, op.index
        self._enter("op")
        try:
            yield
        finally:
            self._exit()

    def wrap(self, name: str, fn):
        after = {"restart": self._after_restart, "protocol": self._after_protocol,
                 "oracle": self._after_oracle}.get(name)
        search = name == "search"

        def traced(*args, **kwargs):
            if search:
                self._search_values.append([])
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = self._exit()
                if search:
                    self._close_search(args, kwargs)
            if after is not None:
                after(args, kwargs, result, dur)
            return result

        traced.__wrapped__ = fn
        return traced

    def _close_search(self, args, kwargs):
        # _minimize_over_group(objective, d, warm_unitaries, cfg)
        cfg = kwargs.get("cfg", args[3] if len(args) > 3 else None)
        values = self._search_values.pop()
        best = min(values, default=0.0)
        self.searches.append((self.sector, getattr(cfg, "restarts", len(values)), len(values),
                              sum(v <= best + USEFUL_TOL for v in values)))

    def _after_restart(self, args, kwargs, result, dur):
        value = float(result.fun)
        self.restarts.append((self.sector, int(result.nfev), int(getattr(result, "nit", 0)),
                              value, dur))
        if self._search_values:
            self._search_values[-1].append(value)

    def _after_protocol(self, args, kwargs, result, dur):
        self.joint_bytes += 16 * result.system_dim ** 2 * result.apparatus_dim ** 2

    def _after_oracle(self, args, kwargs, result, dur):
        self.oracle_samples += int(kwargs.get("samples", args[2] if len(args) > 2 else 0))


@contextmanager
def patched(tracer: Tracer, modules):
    """Wrap every WRAPPED attribute of `modules`; originals come back on exit,
    also when the body raises."""
    saved = []
    try:
        for mod in modules:
            for attr, name in WRAPPED.items():
                fn = mod.__dict__.get(attr)
                if callable(fn):
                    saved.append((mod, attr, fn))
                    setattr(mod, attr, tracer.wrap(name, fn))
        yield tracer
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a traced run, as {name: (value, unit)}."""
    def total(name, col, sector=None):
        return sum(row[col] for (sec, span), row in tracer.totals.items()
                   if span == name and sector in (None, sec))

    def calls(name, sector=None):
        return total(name, 0, sector)

    def busy_ms(name, sector=None):
        return 1e3 * total(name, 1, sector)

    def us_per_call(name, sector=None):
        n = calls(name, sector)
        return 1e3 * busy_ms(name, sector) / n if n else 0.0

    restarts, searches = tracer.restarts, tracer.searches
    run = sum(s[2] for s in searches)
    op_ms = busy_ms("op")
    return {
        "lift.calls": (calls("lift"), "count"),
        "lift.busy_ms": (busy_ms("lift"), "ms"),
        "lift.us_per_call": (us_per_call("lift"), "us"),
        "lift.op_share": (busy_ms("lift") / op_ms if op_ms else 0.0, "ratio"),
        "lift.us_per_call.3-3-B": (us_per_call("lift", "3,3,B"), "us"),
        "lift.us_per_call.4-4-B": (us_per_call("lift", "4,4,B"), "us"),
        "lift.chart_calls": (calls("chart"), "count"),
        "lift.chart_busy_ms": (busy_ms("chart"), "ms"),
        "lift.inverse_chart_busy_ms": (busy_ms("inverse_chart"), "ms"),
        "lift.haar_busy_ms": (busy_ms("haar"), "ms"),
        "quantumness.restarts": (len(restarts), "count"),
        "quantumness.evals": (sum(r[1] for r in restarts), "count"),
        "quantumness.evals_per_restart_p50": (_median([r[1] for r in restarts]), "count"),
        "quantumness.evals_per_restart_p50.4-2-F":
            (_median([r[1] for r in restarts if r[0] == "4,2,F"]), "count"),
        "quantumness.restart_ms_p50": (1e3 * _median([r[4] for r in restarts]), "ms"),
        "quantumness.optimizer_busy_ms": (busy_ms("restart"), "ms"),
        "quantumness.objective_self_ms": (1e3 * total("restart", 2), "ms"),
        "quantumness.useful_restart_ratio":
            (sum(s[3] for s in searches) / run if run else 0.0, "ratio"),
        "quantumness.early_stops": (sum(s[2] < s[1] for s in searches), "count"),
        "quantumness.shannon_calls": (calls("shannon"), "count"),
        "quantumness.shannon_busy_ms": (busy_ms("shannon"), "ms"),
        "quantumness.vn_busy_ms": (busy_ms("vn"), "ms"),
        "quantumness.relent_busy_ms": (busy_ms("relent"), "ms"),
        "quantumness.rdm_busy_ms": (busy_ms("rdm"), "ms"),
        "quantumness.oracle_samples": (tracer.oracle_samples, "count"),
        "quantumness.oracle_busy_ms": (busy_ms("oracle"), "ms"),
        "measurement.family_busy_ms": (busy_ms("family"), "ms"),
        "measurement.dephase_busy_ms": (busy_ms("dephase"), "ms"),
        "activation.protocol_busy_ms": (busy_ms("protocol"), "ms"),
        "activation.verify_busy_ms": (busy_ms("verify"), "ms"),
        "activation.entanglement_busy_ms": (busy_ms("entanglement"), "ms"),
        "activation.joint_bytes": (tracer.joint_bytes, "bytes"),
        "fock.check_busy_ms": (busy_ms("check"), "ms"),
        "fock.basis_busy_ms": (busy_ms("basis"), "ms"),
        "statefile.parse_busy_ms": (busy_ms("parse"), "ms"),
    }


def sector_table(tracer: Tracer) -> list[str]:
    """One line per sector: lift cost and optimizer effort, the rows the
    ROADMAP baseline quotes."""
    lines = ["sector   lift calls  lift us/call  restarts  evals/restart p50  restart ms p50"]
    for sector in sorted({sec for sec, _ in tracer.totals}):
        lift = tracer.totals.get((sector, "lift"), [0, 0.0, 0.0])
        rs = [r for r in tracer.restarts if r[0] == sector]
        us = 1e6 * lift[1] / lift[0] if lift[0] else 0.0
        lines.append(f"{sector:8} {lift[0]:10d}  {us:12.1f}  {len(rs):8d}  "
                     f"{_median([r[1] for r in rs]):17.0f}  {1e3 * _median([r[4] for r in rs]):14.2f}")
    return lines
