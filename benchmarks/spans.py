"""Span tracing of sysrisk's public functions, installed from outside the library.

Each traced function is rebound in every ``sysrisk`` module namespace that
holds it, so calls made inside the library (``solve_two_state`` calling
``psi_two_state`` calling ``binorm_cdf``) are recorded too.  Spans live in
memory as ``[name, start, end, parent, op, extra]`` lists; ``extra`` holds
counts read from the call's arguments or result (iterations, scenarios,
method tag).  Spans are recorded only while an operation is open, so the
untimed correctness checks leave no trace.
"""
from __future__ import annotations

import functools
import gzip
import json
import statistics
import sys
import time
from collections import defaultdict

# (defining module, attribute, extra-extractor name) for every traced callable
TRACED = (
    ("core", "clearing_vector", None),
    ("core", "EisenbergNoe.per_scenario", "scenarios"),
    ("closed_forms", "rho_ag", None),
    ("closed_forms", "rho_deterministic", None),
    ("closed_forms", "rho_constrained", None),
    ("gaussian_det", "optimal_deterministic", None),
    ("gaussian_scen", "binorm_cdf", None),
    ("gaussian_scen", "psi_two_state", None),
    ("gaussian_scen", "solve_two_state", "two_state"),
    ("finite_alloc", "solve_grouped", None),
    ("finite_alloc", "group_sweep", "sweep"),
    ("ou_network", "heterogeneous_covariance", None),
    ("ou_network", "simulate_paths", "path_steps"),
    ("ou_network", "central_clearing_moments", None),
    ("oracle", "numeric_rho", "method"),
    ("cli", "main", None),
)

# method tags numeric_rho returns in diagnostics["method"], plus "raised" for a
# call that returned none because it raised
NUMERIC_RHO_METHODS = (
    "exact-worst-case",
    "exact-worst-case-clearing",
    "exact-linear",
    "newton-exponential",
    "penalty",
    "raised",
)


def _extra(kind, args, kwargs, out):
    if kind == "scenarios":
        return int(args[1].shape[1])
    if kind == "two_state":
        return (int(out.iterations), float(out.residual), bool(out.converged))
    if kind == "sweep":
        blocks = [block for entry in out for block in entry.partition]
        return (len(blocks), len(set(blocks)))
    if kind == "path_steps":
        paths = kwargs.get("paths", args[2] if len(args) > 2 else None)
        steps = kwargs.get("steps", args[3] if len(args) > 3 else None)
        return int(paths) * int(steps)
    if kind == "method":
        diag = out.diagnostics
        return (diag.get("method", "unknown"), diag.get("iterations"))
    return None


class Tracer:
    """In-memory span recorder plus the rebinding that feeds it."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: int | None = None
        self._bindings: list[tuple[object, str, object, object]] = []
        self._build_bindings()

    # -- installation -------------------------------------------------------

    def _build_bindings(self):
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "sysrisk" or name.startswith("sysrisk.")
        }
        for mod_name, attr, kind in TRACED:
            owner = sys.modules[f"sysrisk.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._bindings.append(
                    (cls, meth, orig, self._wrap(f"{mod_name}.{attr}", orig, kind))
                )
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(f"{mod_name}.{attr}", orig, kind)
            for mod in modules.values():
                for key, value in vars(mod).items():
                    if value is orig:
                        self._bindings.append((mod, key, orig, wrapped))

    def bound_names(self) -> list[str]:
        """Every rebound ``module.attribute``, for the self-test."""
        return sorted(
            f"{getattr(target, '__name__', target)}.{key}"
            for target, key, _, _ in self._bindings
        )

    def install(self):
        for target, key, _, wrapped in self._bindings:
            setattr(target, key, wrapped)

    def uninstall(self):
        for target, key, orig, _ in self._bindings:
            setattr(target, key, orig)

    def _wrap(self, name, fn, kind):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            rec = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.op, None]
            tracer.spans.append(rec)
            tracer._stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                rec[1] = t0
                tracer._stack.pop()
            if kind is not None:
                rec[5] = _extra(kind, args, kwargs, out)
            return out

        return traced

    # -- operations ---------------------------------------------------------

    def open(self, op_id: int, name: str):
        """Start an operation: a root span that layer spans hang under."""
        self.op = op_id
        idx = len(self.spans)
        self.spans.append([f"op:{name}", time.perf_counter(), 0.0, -1, op_id, None])
        self._stack = [idx]

    def close(self):
        self.spans[self._stack[0]][2] = time.perf_counter()
        self._stack = []
        self.op = None

    def dump(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write('["name","start","end","parent","op","extra"]\n')
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def layer_metrics(spans: list[list], failed_by_layer: dict[str, int]) -> dict[str, float]:
    """Per-layer counts and times from a finished span list."""
    child_time = defaultdict(float)
    for rec in spans:
        if rec[3] >= 0:
            child_time[rec[3]] += rec[2] - rec[1]
    calls = defaultdict(int)
    busy = defaultdict(float)
    self_s = defaultdict(float)
    durations = defaultdict(list)
    extras = defaultdict(list)
    op_total = 0.0
    op_covered = 0.0
    for idx, rec in enumerate(spans):
        name, dur = rec[0], rec[2] - rec[1]
        if name.startswith("op:"):
            op_total += dur
            op_covered += child_time[idx]
            continue
        if name == "oracle.numeric_rho":
            name = f"oracle.numeric_rho.{rec[5][0] if rec[5] else 'raised'}"
        calls[name] += 1
        busy[name] += dur
        self_s[name] += dur - child_time[idx]
        durations[name].append(dur)
        if rec[5] is not None:
            extras[name].append(rec[5])

    def p50_ms(name):
        return 1e3 * statistics.median(durations[name]) if durations[name] else 0.0

    m: dict[str, float] = {}
    b = "gaussian_scen.binorm_cdf"
    m[f"{b}.calls"] = calls[b]
    m[f"{b}.self_s"] = self_s[b]
    m[f"{b}.us_per_call"] = 1e6 * self_s[b] / calls[b] if calls[b] else 0.0
    p = "gaussian_scen.psi_two_state"
    m[f"{p}.calls"] = calls[p]
    m[f"{p}.self_s"] = self_s[p]
    s = "gaussian_scen.solve_two_state"
    ts = extras[s]
    m[f"{s}.calls"] = calls[s]
    m[f"{s}.busy_s"] = busy[s]
    m[f"{s}.self_s"] = self_s[s]
    m[f"{s}.p50_ms"] = p50_ms(s)
    m[f"{s}.iterations_mean"] = statistics.fmean(e[0] for e in ts) if ts else 0.0
    m[f"{s}.residual_max"] = max((e[1] for e in ts), default=0.0)
    m[f"{s}.failed"] = failed_by_layer.get(s, 0)
    d = "gaussian_det.optimal_deterministic"
    m[f"{d}.calls"] = calls[d]
    m[f"{d}.busy_s"] = busy[d]
    for method in NUMERIC_RHO_METHODS:
        o = f"oracle.numeric_rho.{method}"
        m[f"{o}.calls"] = calls[o]
        m[f"{o}.busy_s"] = busy[o]
        m[f"{o}.p50_ms"] = p50_ms(o)
        m[f"{o}.failed"] = failed_by_layer.get(o, 0)
    newton = [e[1] for e in extras["oracle.numeric_rho.newton-exponential"]]
    m["oracle.numeric_rho.newton-exponential.iterations_mean"] = (
        statistics.fmean(newton) if newton else 0.0
    )
    g = "finite_alloc.solve_grouped"
    m[f"{g}.calls"] = calls[g]
    m[f"{g}.self_s"] = self_s[g]
    w = "finite_alloc.group_sweep"
    block_solves = sum(e[0] for e in extras[w])
    distinct = sum(e[1] for e in extras[w])
    m[f"{w}.busy_s"] = busy[w]
    m[f"{w}.block_solves"] = block_solves
    m[f"{w}.distinct_blocks"] = distinct
    m[f"{w}.useful_ratio"] = distinct / block_solves if block_solves else 0.0
    closed = [f"closed_forms.{f}" for f in ("rho_ag", "rho_deterministic", "rho_constrained")]
    m["closed_forms.calls"] = sum(calls[c] for c in closed)
    m["closed_forms.busy_s"] = sum(busy[c] for c in closed)
    h = "ou_network.heterogeneous_covariance"
    m[f"{h}.calls"] = calls[h]
    m[f"{h}.busy_s"] = busy[h]
    m[f"{h}.p50_ms"] = p50_ms(h)
    sp = "ou_network.simulate_paths"
    m[f"{sp}.busy_s"] = busy[sp]
    m[f"{sp}.path_steps_per_s"] = sum(extras[sp]) / busy[sp] if busy[sp] else 0.0
    m["ou_network.central_clearing_moments.busy_s"] = busy["ou_network.central_clearing_moments"]
    c = "core.clearing_vector"
    m[f"{c}.calls"] = calls[c]
    m[f"{c}.self_s"] = self_s[c]
    e = "core.EisenbergNoe.per_scenario"
    m[f"{e}.busy_s"] = busy[e]
    m[f"{e}.scenarios"] = sum(extras[e])
    m["cli.main.calls"] = calls["cli.main"]
    m["cli.main.self_s"] = self_s["cli.main"]
    m["trace.unattributed_frac"] = 1.0 - op_covered / op_total if op_total else 0.0
    return m
