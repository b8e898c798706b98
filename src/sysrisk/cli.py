"""Command-line front end.

One command, flag-driven:

    sysrisk --solver gaussian-det --input model.json --gamma 0.7 --out out.csv
    sysrisk --table 4 --out table4.csv
    sysrisk --solver gaussian-scen --input model.json --sweep correlation:-0.8:0.8:0.4

Output is always CSV (comma delimiter, '.' decimal, LF line endings, UTF-8,
header row first, values at 6 significant digits, fields containing the
delimiter double-quoted) so runs are byte-for-byte reproducible.  Table presets recompute the stored reference tables from
scratch and mark each cell ``ok`` or ``recheck`` depending on whether the
recomputation agrees with the stored reference value; the reference numbers
are rounded prints and a handful are known to disagree with their own source
data, so ``recheck`` flags are expected on those cells.

Exit codes: 0 success, 1 configuration error, 2 infeasible problem,
3 solver non-convergence.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from .closed_forms import rho_ag, rho_constrained, rho_deterministic
from .core import (
    DEFAULT_ES_LEVEL,
    ConvergenceError,
    EisenbergNoe,
    ExpectationFloor,
    ExpectedShortfall,
    ExponentialLoss,
    GainLossWeighted,
    GaussianSystem,
    InfeasibleError,
    RiskVector,
    ScenarioSpace,
    ShortfallSum,
    Sum,
    WorstCase,
    expected_shortfall,
)
from .finite_alloc import solve_grouped
from .gaussian_det import optimal_deterministic
from .gaussian_scen import solve_two_state, solve_two_state_batch
from .ou_network import NetworkModel, heterogeneous_covariance, simulate_paths
from .oracle import (
    Deterministic,
    FloorConstrained,
    FullyFlexible,
    Grouped,
    TwoStateParametric,
    numeric_rho,
)


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # argparse would exit(2); 2 means infeasible here
        raise ConfigError(message)


def fmt(value) -> str:
    """6 significant digits, plain decimal point."""
    if isinstance(value, str):
        return value
    if value is None:
        return ""
    f = float(value)
    if math.isnan(f):
        return "nan"
    return f"{f:.6g}"


def write_csv(rows: list[list], header: list[str], out_path: str | None) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([fmt(cell) for cell in row] for row in rows)
    text = buf.getvalue()
    if out_path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output file: {exc}")


def load_input(path: str) -> dict:
    if path is None:
        raise ConfigError("--input is required for this solver")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read input file: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"input is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("input JSON must be an object")
    return data


# A runner reads its input with data[key]; main reports a missing key, and the
# TypeError or ValueError of a malformed value, as a configuration error.

def _risk_vector(data: dict) -> RiskVector:
    space = ScenarioSpace(np.asarray(data["probabilities"], dtype=float))
    return RiskVector(space, np.asarray(data["positions"], dtype=float))


def _gaussian_system(data: dict) -> GaussianSystem:
    return GaussianSystem(
        np.asarray(data["mu"], dtype=float), np.asarray(data["cov"], dtype=float)
    )


def _gamma(data: dict, args) -> float:
    gamma = args.gamma if args.gamma is not None else data.get("gamma")
    if gamma is None:
        raise ConfigError("gamma must be given (flag or input key)")
    return float(gamma)


def _indexed(quantity: str, values) -> list[list]:
    return [[quantity, str(i), v] for i, v in enumerate(values)]


def _floors(values) -> np.ndarray:
    """Per-institution floors; null means unbounded below."""
    return np.array([-np.inf if f is None else float(f) for f in values])


# ---------------------------------------------------------------------------
# solver runners: each returns (quantity, key, value) rows
# ---------------------------------------------------------------------------

def run_gaussian_det(data: dict, args) -> list[list]:
    sol = optimal_deterministic(_gaussian_system(data), _gamma(data, args), data.get("d"))
    rows = _indexed("m", sol.m)
    rows += [["rho", "", sol.rho], ["r_star", "", sol.r_star],
             ["residual", "", sol.residual]]
    return rows


def _two_state_problem(data: dict, args) -> tuple:
    return (_gaussian_system(data), _gamma(data, args), data.get("d"),
            float(data.get("trigger", 0.0)))


def _two_state_rows(sol) -> list[list]:
    rows = _indexed("m", sol.m) + _indexed("alpha", sol.alpha)
    rows += [["rho", "", sol.rho], ["lambda", "", sol.lam],
             ["residual", "", sol.residual], ["iterations", "", float(sol.iterations)]]
    return rows


def run_gaussian_scen(data: dict, args) -> list[list]:
    return _two_state_rows(solve_two_state(*_two_state_problem(data, args)))


def _solve_in_order(points, prepare) -> list:
    """Two-state solutions of ``points``, solved as one batch.

    ``prepare(point)`` returns the point's (system, gamma, d, trigger).  The
    first point that fails, in order, raises its error, as a loop that
    prepared and solved one point at a time would: no point after a failed
    preparation is prepared.
    """
    problems, failure = [], None
    try:
        for point in points:
            problems.append(prepare(point))
    except (ConfigError, KeyError, TypeError, ValueError) as exc:   # what main reports
        failure = exc
    solutions = solve_two_state_batch(problems)
    for sol in solutions:
        if isinstance(sol, Exception):
            raise sol
    if failure is not None:
        raise failure
    return solutions


def run_worst_case(data: dict, args) -> list[list]:
    x = _risk_vector(data)
    d = data.get("d")
    rho_after = rho_ag(x, WorstCase(), d)
    rho_det, m_hat = rho_deterministic(x, d)
    rows = [["rho_ag", "", rho_after], ["rho_deterministic", "", rho_det]]
    rows += _indexed("m_hat", m_hat)
    if "floors" in data:
        rho_con, _ = rho_constrained(x, _floors(data["floors"]), d)
        rows.append(["rho_constrained", "", rho_con])
    return rows


def run_es(data: dict, args) -> list[list]:
    x = _risk_vector(data)
    level, d = args.level, data.get("d")
    z = ShortfallSum(np.zeros(x.n) if d is None else d).per_scenario(x.positions)
    return [
        ["es_aggregate", "", expected_shortfall(z, x.space.probabilities, level)],
        ["rho_ag", "", rho_ag(x, ExpectedShortfall(level), d)],
        ["level", "", level],
    ]


def run_finite(data: dict, args) -> list[list]:
    x = _risk_vector(data)
    alphas = np.asarray(data["alphas"], dtype=float)
    sol = solve_grouped(x, alphas, _gamma(data, args), data["partition"])
    rows = [
        ["group_constant", "{" + ",".join(str(i) for i in block) + "}", c]
        for block, c in zip(sol.partition, sol.group_constants)
    ]
    rows += _indexed("expected_allocation", sol.expected_allocation)
    rows += [["rho", "", sol.rho], ["lambda", "", sol.lam]]
    return rows


def run_ou(data: dict, args) -> list[list]:
    model = NetworkModel(
        np.asarray(data["rates"], dtype=float),
        np.asarray(data["sigma"], dtype=float),
        np.asarray(data["rho_common"], dtype=float),
        np.asarray(data["x0"], dtype=float),
    )
    t = float(data["t"])
    system = heterogeneous_covariance(model, t)
    rows = _indexed("mean", system.mu)
    rows += [
        ["cov", f"{i}:{j}", system.cov[i, j]]
        for i in range(model.n)
        for j in range(i, model.n)
    ]
    if "paths" in data and "steps" in data:
        sample = simulate_paths(
            model, t, int(data["paths"]), int(data["steps"]), args.seed
        )
        rows += _indexed("mc_mean", sample.mean) + _indexed("mc_var", np.diag(sample.cov))
        rows += _indexed("mc_se_var", sample.se_var)
    return rows


def _parse_aggregation(spec: dict):
    kind = spec.get("type")
    if kind == "sum":
        return Sum()
    if kind == "shortfall-sum":
        return ShortfallSum(np.asarray(spec["d"], dtype=float))
    if kind == "exponential":
        return ExponentialLoss(np.asarray(spec["alpha"], dtype=float))
    if kind == "gain-loss":
        return GainLossWeighted(
            np.asarray(spec["alpha"], dtype=float),
            np.asarray(spec["beta"], dtype=float),
            np.asarray(spec["v"], dtype=float),
        )
    if kind == "eisenberg-noe":
        return EisenbergNoe(np.asarray(spec["pi"], dtype=float))
    raise ConfigError(f"unknown aggregation type {kind!r}")


def _parse_class(spec: dict):
    kind = spec.get("type")
    if kind == "deterministic":
        return Deterministic()
    if kind == "fully-flexible":
        return FullyFlexible()
    if kind == "floor-constrained":
        return FloorConstrained(_floors(spec["floors"]))
    if kind == "grouped":
        return Grouped(tuple(tuple(b) for b in spec["partition"]))
    if kind == "two-state":
        return TwoStateParametric(np.asarray(spec["indicator"], dtype=float))
    raise ConfigError(f"unknown allocation class {kind!r}")


def _parse_acceptance(spec: dict, level: float):
    kind = spec.get("type")
    if kind == "expectation-floor":
        return ExpectationFloor(float(spec["b"]))
    if kind == "worst-case":
        return WorstCase()
    if kind == "expected-shortfall":
        return ExpectedShortfall(float(spec.get("level", level)))
    raise ConfigError(f"unknown acceptance type {kind!r}")


def run_oracle(data: dict, args) -> list[list]:
    x = _risk_vector(data)
    cls = _parse_class(data["class"])
    lam = _parse_aggregation(data["aggregation"])
    crit = _parse_acceptance(data["acceptance"], args.level)
    result = numeric_rho(x, cls, lam, crit)
    rows = [["rho", "", result.rho],
            ["method", "", result.diagnostics.get("method", "")]]
    if result.allocation is not None:
        rows += [
            ["allocation", f"{i}:{j}", result.allocation[i, j]]
            for i in range(x.n)
            for j in range(x.m)
        ]
    return rows


RUNNERS = {
    "gaussian-det": run_gaussian_det,
    "gaussian-scen": run_gaussian_scen,
    "worst-case": run_worst_case,
    "es": run_es,
    "finite": run_finite,
    "ou": run_ou,
    "oracle": run_oracle,
}


# ---------------------------------------------------------------------------
# table presets
# ---------------------------------------------------------------------------

GAUSS_TABLE_TOL = 5e-3    # |computed - reference| <= tol * max(1, |reference|)
FINITE_TABLE_TOL = 0.05   # reference cells are two-decimal prints


def _flag(computed: float, reference: float, tol: float, relative: bool) -> str:
    limit = tol * max(1.0, abs(reference)) if relative else tol
    return "ok" if abs(computed - reference) <= limit else "recheck"


_GAUSS_QUANTITIES = ("m1_det", "m2_det", "rho_det", "m1", "m2", "alpha", "rho")


def _gauss_table(cases) -> tuple[list[str], list[list]]:
    """Tables 1-3: two banks, gamma 0.7, trigger 2.  Each case is
    (label, cov12, sigma2, reference cells in _GAUSS_QUANTITIES order); the
    cases' two-state solves run as one batch, and each solution carries the
    deterministic optimum it started from."""

    def prepare(case):
        _, cov12, sigma2, _ = case
        system = GaussianSystem(np.zeros(2), np.array([[1.0, cov12], [cov12, sigma2**2]]))
        return system, 0.7, None, 2.0

    rows = []
    for (label, _, _, refs), scen in zip(cases, _solve_in_order(cases, prepare)):
        det = scen.deterministic
        distress = scen.distress_allocation   # the reference tables quote this state
        computed = (det.m[0], det.m[1], det.rho, distress[0], distress[1],
                    scen.transfer_size, scen.rho)
        rows += [
            [label, q, c, ref, _flag(c, ref, GAUSS_TABLE_TOL, True)]
            for q, c, ref in zip(_GAUSS_QUANTITIES, computed, refs)
        ]
    return ["case", "quantity", "computed", "reference", "flag"], rows


def table_1() -> tuple[list[str], list[list]]:
    det_ref = (0.5772, 1.7316, 2.3088)
    return _gauss_table([
        (f"corr={corr:g}", corr * 3.0, 3.0, det_ref + random_ref)
        for corr, random_ref in (
            (-0.8, (0.1597, 1.7230, 2.8704, 1.8827)),
            (-0.5, (0.2908, 1.7776, 2.3161, 2.0683)),
            (0.0, (0.4490, 1.7796, 1.7208, 2.2286)),
            (0.5, (0.5463, 1.7461, 1.3389, 2.2924)),
            (0.8, (0.5737, 1.7314, 0.7905, 2.3053)),
        )
    ])


def table_2() -> tuple[list[str], list[list]]:
    return _gauss_table([
        (f"sigma2={sigma2:g}", -0.5 * sigma2, sigma2, refs)
        for sigma2, refs in (
            (1.0, (0.1008, 0.1031, 0.2039, 0.1008, 0.1031, 0.0002, 0.2039)),
            (5.0, (0.8168, 4.0816, 4.8984, 0.3167, 4.1295, 3.5987, 4.4462)),
            (10.0, (1.1417, 11.3964, 12.5381, 0.4631, 11.4333, 6.9909, 11.8963)),
        )
    ])


def table_3() -> tuple[list[str], list[list]]:
    det_ref = (0.3486, 0.6313, 0.9799)
    return _gauss_table([
        (f"cov={cov:g}", cov, math.sqrt(3.28), det_ref + random_ref)
        for cov, random_ref in (
            (-0.8, (0.2671, 0.6347, 2.1413, 0.9018)),
            (-0.32, (0.2799, 0.6577, 1.1161, 0.9376)),
            (0.0, (0.3062, 0.6530, 0.8416, 0.9592)),
            (0.32, (0.3271, 0.6414, 0.6813, 0.9685)),
            (0.8, (0.3436, 0.6294, 0.6597, 0.9750)),
        )
    ])


def _finite_example() -> tuple[RiskVector, np.ndarray, float]:
    space = ScenarioSpace(np.array([0.64, 0.16, 0.16, 0.04]))
    positions = np.array(
        [
            [100.0, -50.0, 100.0, -50.0],
            [50.0, -25.0, 50.0, -25.0],
            [-25.0, 50.0, -25.0, 50.0],
            [50.0, 50.0, -25.0, -25.0],
        ]
    )
    return RiskVector(space, positions), np.full(4, 0.3), 50.0


def table_4() -> tuple[list[str], list[list]]:
    x, alphas, gamma = _finite_example()
    sol = solve_grouped(x, alphas, gamma, [(0,), (1,), (2,), (3,)])
    refs = {"Y1": 36.18, "Y2": 15.82, "Y3": 15.82, "Y4": 11.20, "total": 79.02}
    computed = {f"Y{i+1}": sol.group_constants[i] for i in range(4)}
    computed["total"] = sol.rho
    rows = [
        ["r=3", q, computed[q], refs[q], _flag(computed[q], refs[q], FINITE_TABLE_TOL, False)]
        for q in refs
    ]
    return ["case", "quantity", "computed", "reference", "flag"], rows


# printed reference cells of the pair-grouping table; a few disagree with the
# recomputation because the source rounded from already-inconsistent values
_TABLE5_REFS = {
    (0, 1): {
        "Y1@w1": 11.27, "Y1@w2": 36.23, "Y1@w3": 11.27, "Y1@w4": 36.23,
        "Y2@w1": 48.73, "Y2@w2": 11.23, "Y2@w3": 48.73, "Y2@w4": 11.23,
        "E[Y1]": 6.23, "E[Y2]": 41.23, "pair_total": 47.46,
        "Y3": 15.82, "Y4": 11.20, "total": 74.48,
    },
    (0, 2): {
        "Y1@w1": -76.29, "Y1@w2": 36.21, "Y1@w3": -76.29, "Y1@w4": 36.21,
        "Y3@w1": 48.71, "Y3@w2": -63.79, "Y3@w3": 48.71, "Y3@w4": -63.79,
        "E[Y1]": -53.79, "E[Y3]": 26.21, "pair_total": -27.58,
        "Y2": 15.82, "Y4": 11.20, "total": -0.56,
    },
    (0, 3): {
        "Y1@w1": -6.64, "Y1@w2": 68.36, "Y1@w3": -44.14, "Y1@w4": 30.86,
        "Y4@w1": 43.36, "Y4@w2": -31.64, "Y4@w3": 80.86, "Y4@w4": 5.86,
        "E[Y1]": 0.86, "E[Y4]": 35.86, "pair_total": 36.72,
        "Y2": 15.82, "Y3": 15.82, "total": 68.36,
    },
    (1, 2): {
        "Y2@w1": -58.97, "Y2@w2": 16.03, "Y2@w3": -58.97, "Y2@w4": 16.03,
        "Y3@w1": 16.03, "Y3@w2": -58.97, "Y3@w3": 16.03, "Y3@w4": -58.97,
        "E[Y2]": -43.97, "E[Y3]": 1.03, "pair_total": -42.94,
        "Y1": 36.18, "Y4": 11.20, "total": 4.44,
    },
    (1, 3): {
        "Y2@w1": 5.86, "Y2@w2": 43.36, "Y2@w3": -31.64, "Y2@w4": 5.86,
        "Y4@w1": 5.85, "Y4@w2": -31.65, "Y4@w3": 43.35, "Y4@w4": 5.85,
        "E[Y2]": 5.86, "E[Y4]": 5.85, "pair_total": 11.71,
        "Y1": 36.18, "Y3": 15.82, "total": 63.71,
    },
    (2, 3): {
        "Y3@w1": 47.98, "Y3@w2": 10.48, "Y3@w3": 10.48, "Y3@w4": -27.02,
        "Y4@w1": -27.02, "Y4@w2": 10.48, "Y4@w3": 10.48, "Y4@w4": 47.98,
        "E[Y3]": 32.98, "E[Y4]": -12.02, "pair_total": 20.96,
        "Y1": 36.18, "Y2": 15.82, "total": 72.96,
    },
}


def table_5() -> tuple[list[str], list[list]]:
    x, alphas, gamma = _finite_example()
    rows = []
    for pair, refs in _TABLE5_REFS.items():
        part = [pair] + [(k,) for k in range(4) if k not in pair]
        sol = solve_grouped(x, alphas, gamma, part)
        by_block = dict(zip(sol.partition, sol.group_constants))
        computed: dict[str, float] = {}
        for member in pair:
            for j in range(4):
                computed[f"Y{member+1}@w{j+1}"] = sol.allocation[member, j]
            computed[f"E[Y{member+1}]"] = sol.expected_allocation[member]
        computed["pair_total"] = by_block[tuple(sorted(pair))]
        for k in range(4):
            if k not in pair:
                computed[f"Y{k+1}"] = by_block[(k,)]
        computed["total"] = sol.rho
        label = "{" + ",".join(str(i + 1) for i in pair) + "}"
        rows += [
            [label, q, computed[q], refs[q],
             _flag(computed[q], refs[q], FINITE_TABLE_TOL, False)]
            for q in refs
        ]
    return ["case", "quantity", "computed", "reference", "flag"], rows


def table_6() -> tuple[list[str], list[list]]:
    x, alphas, gamma = _finite_example()
    cases: list[tuple[str, list[tuple[int, ...]], float]] = [
        ("r=0", [(0, 1, 2, 3)], -26.36),
        ("r=2 {1,3}", [(0, 2), (1,), (3,)], -0.56),
        ("r=2 {2,3}", [(1, 2), (0,), (3,)], 4.44),
        ("r=2 {2,4}", [(1, 3), (0,), (2,)], 63.71),
        ("r=2 {1,4}", [(0, 3), (1,), (2,)], 68.36),
        ("r=2 {3,4}", [(2, 3), (0,), (1,)], 72.96),
        ("r=2 {1,2}", [(0, 1), (2,), (3,)], 74.48),
        ("r=3", [(0,), (1,), (2,), (3,)], 79.02),
    ]
    solved = [
        (label, solve_grouped(x, alphas, gamma, part).rho, ref)
        for label, part, ref in cases
    ]
    solved.sort(key=lambda item: item[1])
    rows = [
        [label, "rho", rho, ref, _flag(rho, ref, FINITE_TABLE_TOL, False)]
        for label, rho, ref in solved
    ]
    return ["case", "quantity", "computed", "reference", "flag"], rows


TABLES = {1: table_1, 2: table_2, 3: table_3, 4: table_4, 5: table_5, 6: table_6}


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

SWEEPABLE = {
    "gaussian-det": ("gamma",),
    "gaussian-scen": ("gamma", "trigger", "correlation"),
    "finite": ("gamma",),
    "ou": ("t",),
}


def parse_sweep(spec: str) -> tuple[str, np.ndarray]:
    parts = spec.split(":")
    if len(parts) != 4:
        raise ConfigError("--sweep expects param:lo:hi:step")
    name, lo, hi, step = parts[0], *map(float, parts[1:])
    if step <= 0.0 or hi < lo:
        raise ConfigError("empty sweep range")
    span = (hi - lo) / step
    if not math.isfinite(span):
        raise ConfigError("sweep range has no finite number of steps")
    return name, lo + step * np.arange(int(math.floor(span + 1e-9)) + 1)


def apply_sweep_value(data: dict, name: str, value: float) -> dict:
    if name in ("gamma", "trigger", "t"):
        return dict(data, **{name: value})
    if name == "correlation":
        cov = np.asarray(data["cov"], dtype=float).copy()
        if cov.shape != (2, 2):
            raise ConfigError("correlation sweep needs a 2x2 covariance")
        sig = math.sqrt(cov[0, 0] * cov[1, 1])
        cov[0, 1] = cov[1, 0] = value * sig
        return dict(data, cov=cov.tolist())
    raise ConfigError(f"cannot sweep parameter {name!r}")


def run_sweep(solver: str, data: dict, args) -> tuple[list[str], list[list]]:
    name, values = parse_sweep(args.sweep)
    if solver not in SWEEPABLE or name not in SWEEPABLE[solver]:
        allowed = ", ".join(SWEEPABLE.get(solver, ()))
        raise ConfigError(
            f"solver {solver} cannot sweep {name!r} (allowed: {allowed or 'none'})"
        )
    if name == "gamma":   # the sweep value must win over a --gamma flag
        args = argparse.Namespace(**dict(vars(args), gamma=None))

    def point(value) -> dict:
        return apply_sweep_value(data, name, float(value))

    if solver == "gaussian-scen":   # every point's solve in one batch
        solutions = _solve_in_order(values, lambda v: _two_state_problem(point(v), args))
        per_value = [_two_state_rows(sol) for sol in solutions]
    else:
        per_value = [RUNNERS[solver](point(value), args) for value in values]
    rows = [[value] + row for value, point_rows in zip(values, per_value) for row in point_rows]
    return [name, "quantity", "key", "value"], rows


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="sysrisk", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--solver", choices=list(RUNNERS))
    parser.add_argument("--table", type=int, choices=sorted(TABLES))
    parser.add_argument("--input", help="path to a JSON model description")
    parser.add_argument("--sweep", help="param:lo:hi:step")
    parser.add_argument("--gamma", type=float, help="acceptance budget > 0")
    parser.add_argument("--level", type=float, default=DEFAULT_ES_LEVEL,
                        help=f"expected-shortfall tail level (default {DEFAULT_ES_LEVEL:g})")
    parser.add_argument("--seed", type=int, default=0, help="simulation seed")
    parser.add_argument("--out", help="output CSV path (default: stdout)")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if (args.table is None) == (args.solver is None):
            raise ConfigError("exactly one of --table or --solver is required")
        if args.table is not None:
            if args.sweep:
                raise ConfigError("--sweep does not combine with --table")
            header, rows = TABLES[args.table]()
        else:
            data = load_input(args.input)
            if args.sweep:
                header, rows = run_sweep(args.solver, data, args)
            else:
                header, rows = ["quantity", "key", "value"], RUNNERS[args.solver](data, args)
        write_csv(rows, header, args.out)
        return 0
    except (ConfigError, KeyError, TypeError, ValueError) as exc:
        msg = f"missing input key: {exc}" if isinstance(exc, KeyError) else exc
        print(f"sysrisk: configuration error: {msg}", file=sys.stderr)
        return 1
    except InfeasibleError as exc:
        print(f"sysrisk: infeasible: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"sysrisk: did not converge: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
