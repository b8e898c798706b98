"""Command-line front end: table presets, JSON-driven solver runs, sweeps,
exit codes, and byte-level reproducibility."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sysrisk
from sysrisk import gaussian_scen
from sysrisk.cli import RUNNERS, TABLES, apply_sweep_value, build_parser, fmt, main, parse_sweep

# ---------------------------------------------------------------------------
# helpers


def run_cli(tmp_path, *argv):
    out = tmp_path / "out.csv"
    code = main([*argv, "--out", str(out)])
    rows = []
    if out.exists():
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
    return code, rows


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


TWO_BANK = {
    "mu": [0.0, 0.0],
    "cov": [[1.0, -1.5], [-1.5, 9.0]],
    "gamma": 0.7,
    "trigger": 2.0,
}


def value_of(rows, quantity, key=""):
    """Single value from a (quantity, key, value) solver run."""
    hits = [r for r in rows[1:] if r[0] == quantity and r[1] == key]
    assert len(hits) == 1, f"{quantity}/{key}: {hits}"
    return hits[0][2]


# ---------------------------------------------------------------------------
# table presets and their agreement flags


def _recheck_set(table):
    _, rows = TABLES[table]()
    return {(r[0], r[1]) for r in rows if r[4] == "recheck"}


def test_table_1_flags():
    assert _recheck_set(1) == {
        ("corr=0", "alpha"),
        ("corr=0.5", "alpha"),
        ("corr=0.8", "alpha"),
    }


def test_table_2_flags():
    # the equal-marginal block reproduces fully; the printed transfer sizes
    # of the wider blocks do not match their own allocations
    assert _recheck_set(2) == {("sigma2=5", "alpha"), ("sigma2=10", "alpha")}


def test_table_3_flags():
    flagged = _recheck_set(3)
    assert len(flagged) == 13
    # every quoted transfer except the zero-covariance row disagrees
    assert {("cov=-0.8", "alpha"), ("cov=0.8", "alpha")} <= flagged
    assert ("cov=0", "rho") not in flagged


def test_table_4_flags():
    assert _recheck_set(4) == {("r=3", "Y2"), ("r=3", "total")}


def test_table_5_flags():
    flagged = _recheck_set(5)
    assert len(flagged) == 20
    # one pair block is printed with swapped/shifted member columns and
    # trips on every cell of its own rows
    assert sum(case == "{2,3}" for case, _ in flagged) == 12
    assert ("{1,3}", "pair_total") not in flagged


def test_table_6_sorted_and_flagged(tmp_path):
    code, rows = run_cli(tmp_path, "--table", "6")
    assert code == 0
    assert rows[0] == ["case", "quantity", "computed", "reference", "flag"]
    costs = [float(r[2]) for r in rows[1:]]
    assert costs == sorted(costs)
    assert [r[0] for r in rows[1:]][0] == "r=0"
    flagged = {r[0] for r in rows[1:] if r[4] == "recheck"}
    assert flagged == {"r=2 {1,3}", "r=2 {2,3}", "r=2 {1,4}", "r=2 {3,4}", "r=3"}


def test_tables_rerun_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["--table", "1", "--out", str(a)]) == 0
    assert main(["--table", "1", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()


# ---------------------------------------------------------------------------
# solver runs from JSON input


def test_gaussian_det_run(tmp_path):
    src = write_json(tmp_path, "model.json", TWO_BANK)
    code, rows = run_cli(tmp_path, "--solver", "gaussian-det", "--input", src)
    assert code == 0
    assert float(value_of(rows, "rho")) == pytest.approx(2.308980317, abs=1e-6)
    assert float(value_of(rows, "m", "0")) == pytest.approx(0.577245079, abs=1e-6)
    assert float(value_of(rows, "r_star")) == pytest.approx(-0.577245079, abs=1e-6)


def test_gamma_flag_overrides_input(tmp_path):
    src = write_json(tmp_path, "model.json", TWO_BANK)
    _, base = run_cli(tmp_path, "--solver", "gaussian-det", "--input", src)
    _, tighter = run_cli(
        tmp_path, "--solver", "gaussian-det", "--input", src, "--gamma", "0.3"
    )
    assert float(value_of(tighter, "rho")) > float(value_of(base, "rho"))


def test_gaussian_scen_run(tmp_path):
    payload = dict(TWO_BANK, cov=[[1.0, -0.5 * 5.0], [-0.5 * 5.0, 25.0]])
    src = write_json(tmp_path, "model.json", payload)
    code, rows = run_cli(tmp_path, "--solver", "gaussian-scen", "--input", src)
    assert code == 0
    m = np.array([float(value_of(rows, "m", "0")), float(value_of(rows, "m", "1"))])
    a = np.array(
        [float(value_of(rows, "alpha", "0")), float(value_of(rows, "alpha", "1"))]
    )
    assert float(value_of(rows, "rho")) == pytest.approx(4.449031955, abs=1e-5)
    np.testing.assert_allclose(m + a, [0.317527337, 4.131504618], atol=1e-5)


def test_gaussian_scen_missed_tolerance_exits_3(tmp_path, monkeypatch):
    monkeypatch.setattr(gaussian_scen, "NEWTON_MAX_ITER", 1)   # this input needs 4
    src = write_json(tmp_path, "model.json", TWO_BANK)
    code, rows = run_cli(tmp_path, "--solver", "gaussian-scen", "--input", src)
    assert code == 3
    assert rows == []


def test_finite_run(tmp_path):
    src = write_json(
        tmp_path,
        "finite.json",
        {
            "probabilities": [0.64, 0.16, 0.16, 0.04],
            "positions": [
                [100.0, -50.0, 100.0, -50.0],
                [50.0, -25.0, 50.0, -25.0],
                [-25.0, 50.0, -25.0, 50.0],
                [50.0, 50.0, -25.0, -25.0],
            ],
            "alphas": [0.3, 0.3, 0.3, 0.3],
            "gamma": 50.0,
            "partition": [[0, 2], [1], [3]],
        },
    )
    code, rows = run_cli(tmp_path, "--solver", "finite", "--input", src)
    assert code == 0
    # six significant digits in the CSV
    assert float(value_of(rows, "group_constant", "{0,2}")) == pytest.approx(
        -27.567430193, abs=1e-4
    )
    assert float(value_of(rows, "rho")) == pytest.approx(-5.135207233, abs=1e-5)
    assert float(value_of(rows, "lambda")) == pytest.approx(4.0 / 15.0, abs=1e-6)


def test_worst_case_run_with_floors(tmp_path):
    src = write_json(
        tmp_path,
        "wc.json",
        {
            "probabilities": [0.5, 0.3, 0.2],
            "positions": [[4.0, -2.0, 1.0], [-1.0, 3.0, -0.5]],
            "floors": [0.0, None],
        },
    )
    code, rows = run_cli(tmp_path, "--solver", "worst-case", "--input", src)
    assert code == 0
    assert float(value_of(rows, "rho_ag")) == pytest.approx(2.0, abs=1e-9)
    assert float(value_of(rows, "rho_deterministic")) == pytest.approx(3.0, abs=1e-9)
    con = float(value_of(rows, "rho_constrained"))
    assert con <= 2.0 + 1e-9


def test_es_run(tmp_path):
    src = write_json(
        tmp_path,
        "es.json",
        {
            "probabilities": [0.04, 0.96],
            "positions": [[-10.0, 5.0], [2.0, 1.0]],
        },
    )
    code, rows = run_cli(tmp_path, "--solver", "es", "--input", src, "--level", "0.05")
    assert code == 0
    # aggregated shortfall outcome is (-10, 0); the worst 5% window mixes
    # the loss scenario (mass .04) with a sliver of the safe one
    expect = (0.04 * 10.0 + 0.01 * 0.0) / 0.05
    assert float(value_of(rows, "es_aggregate")) == pytest.approx(expect, abs=1e-9)


def test_ou_run_exact_and_mc(tmp_path):
    rates = (0.9 / 3 * (np.ones((3, 3)) - np.eye(3))).tolist()
    base = {
        "rates": rates,
        "sigma": [1.0, 1.0, 1.0],
        "rho_common": [0.4, 0.4, 0.4],
        "x0": [0.0, 0.0, 0.0],
        "t": 1.0,
    }
    src = write_json(tmp_path, "ou.json", base)
    code, rows = run_cli(tmp_path, "--solver", "ou", "--input", src)
    assert code == 0
    assert not [r for r in rows[1:] if r[0].startswith("mc_")]

    src2 = write_json(tmp_path, "ou_mc.json", dict(base, paths=4000, steps=60))
    code, rows = run_cli(tmp_path, "--solver", "ou", "--input", src2, "--seed", "5")
    assert code == 0
    exact = float(value_of(rows, "cov", "0:0"))
    mc = float(value_of(rows, "mc_var", "0"))
    se = float(value_of(rows, "mc_se_var", "0"))
    assert abs(mc - exact) < 4.0 * se


def test_oracle_run(tmp_path):
    src = write_json(
        tmp_path,
        "oracle.json",
        {
            "probabilities": [0.5, 0.3, 0.2],
            "positions": [[4.0, -2.0, 1.0], [-1.0, 3.0, -0.5]],
            "class": {"type": "fully-flexible"},
            "aggregation": {"type": "sum"},
            "acceptance": {"type": "expectation-floor", "b": -4.0},
        },
    )
    code, rows = run_cli(tmp_path, "--solver", "oracle", "--input", src)
    assert code == 0
    assert value_of(rows, "method") == "exact-linear"
    # b - E[sum X] with E[sum X] = 0.5*3 + 0.3*1 + 0.2*0.5
    assert float(value_of(rows, "rho")) == pytest.approx(-4.0 - 1.9, abs=1e-9)


def test_oracle_refuses_nonconcave_gain_loss(tmp_path):
    src = write_json(
        tmp_path,
        "oracle.json",
        {
            "probabilities": [0.5, 0.5],
            "positions": [[1.0, -4.0], [2.0, -3.0]],
            "class": {"type": "deterministic"},
            "aggregation": {"type": "gain-loss", "alpha": [2, 2], "beta": [1, 1], "v": [0, 1]},
            "acceptance": {"type": "worst-case"},
        },
    )
    assert main(["--solver", "oracle", "--input", src]) == 1


def test_oracle_unbounded_gain_loss_is_a_configuration_error(tmp_path, capsys):
    src = write_json(
        tmp_path,
        "oracle.json",
        {
            "probabilities": [0.5, 0.5],
            "positions": [[1.0, -4.0], [2.0, -3.0]],
            "class": {"type": "deterministic"},
            "aggregation": {"type": "gain-loss", "alpha": [1, 2], "beta": [0.5, 1.5], "v": [0, 0]},
            "acceptance": {"type": "expectation-floor", "b": -1.0},
        },
    )
    assert main(["--solver", "oracle", "--input", src]) == 1
    assert "rho is -inf" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweeps


def test_gamma_sweep_monotone(tmp_path):
    src = write_json(tmp_path, "model.json", TWO_BANK)
    code, rows = run_cli(
        tmp_path,
        "--solver", "gaussian-det", "--input", src, "--sweep", "gamma:0.3:0.7:0.2",
    )
    assert code == 0
    assert rows[0] == ["gamma", "quantity", "key", "value"]
    rho_by_gamma = {
        float(r[0]): float(r[3]) for r in rows[1:] if r[1] == "rho"
    }
    assert sorted(rho_by_gamma) == [0.3, 0.5, 0.7]
    vals = [rho_by_gamma[g] for g in sorted(rho_by_gamma)]
    assert vals == sorted(vals, reverse=True)  # bigger budget, cheaper


def test_correlation_sweep_trend(tmp_path):
    src = write_json(tmp_path, "model.json", dict(TWO_BANK, cov=[[1.0, 0.0], [0.0, 9.0]]))
    code, rows = run_cli(
        tmp_path,
        "--solver", "gaussian-scen", "--input", src,
        "--sweep", "correlation:-0.8:0.8:0.4",
    )
    assert code == 0
    rho = {float(r[0]): float(r[3]) for r in rows[1:] if r[1] == "rho"}
    assert len(rho) == 5
    vals = [rho[c] for c in sorted(rho)]
    assert vals == sorted(vals)  # diversification helps most when negative


README_OU = {
    "rates": [[0, 0.55, 0.55], [0.55, 0, 0.55], [0.55, 0.55, 0]],
    "sigma": [1, 1, 1], "rho_common": [0.4, 0.4, 0.4],
    "x0": [0, 0, 0], "t": 1.0, "paths": 20000, "steps": 250,
}


def test_sweep_thread_count_does_not_change_bytes(tmp_path):
    """BLAS reads its thread count once, at start-up, so each run is a fresh
    interpreter: a gaussian-scen trigger sweep, and the README ou input with
    paths, whose Euler steps are two BLAS products each."""
    runs = [
        ["--solver", "gaussian-scen", "--input", write_json(tmp_path, "scen.json", TWO_BANK),
         "--sweep", "trigger:0:4:1"],
        ["--solver", "ou", "--input", write_json(tmp_path, "ou.json", README_OU)],
    ]
    src = str(Path(sysrisk.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for argv in runs:
        stdout = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=path,
                       OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-m", "sysrisk.cli", *argv],
                                  capture_output=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            stdout.append(proc.stdout)
        assert stdout[0] == stdout[1]


def _per_value_loop(tmp_path, capsys, payload, spec):
    """(stdout, stderr, exit code) of solving a gaussian-scen sweep one value
    at a time: each value's input written out and run alone, stopping at the
    first value that fails."""
    name, values = parse_sweep(spec)
    lines = [f"{name},quantity,key,value"]
    for i, value in enumerate(values):
        src = write_json(tmp_path, f"point{i}.json", apply_sweep_value(payload, name, float(value)))
        code = main(["--solver", "gaussian-scen", "--input", src])
        out, err = capsys.readouterr()
        if code != 0:
            return "", err, code
        lines += [f"{fmt(value)},{line}" for line in out.splitlines()[1:]]
    return "\n".join(lines) + "\n", "", 0


SWEEP_MODEL = dict(TWO_BANK, cov=[[1.0, 0.0], [0.0, 9.0]])


@pytest.mark.parametrize(
    "payload,spec,code",
    [
        (TWO_BANK, "gamma:-0.5:1:0.5", 1),             # the first point is rejected
        (SWEEP_MODEL, "correlation:0.55:1.35:0.1", 1),  # |corr| > 1 at 1.05
        (SWEEP_MODEL, "correlation:0.5:1.3:0.1", 3),   # corr 1 stalls before 1.1 is rejected
        (SWEEP_MODEL, "correlation:-0.9:0.9:0.05", 0),
        (TWO_BANK, "gamma:0.1:1.9:0.05", 0),
        (TWO_BANK, "trigger:-3:6:0.25", 0),
    ],
    ids=["gamma-below-zero", "corr-above-one", "corr-one-stalls", "corr", "gamma", "trigger"],
)
def test_batched_sweep_prints_what_a_per_value_loop_prints(tmp_path, capsys, payload, spec, code):
    """The sweep solves all its points as one batch, yet its output, its
    error message and its exit code are those of solving the values in
    order and stopping at the first that fails."""
    src = write_json(tmp_path, "model.json", payload)
    got_code = main(["--solver", "gaussian-scen", "--input", src, "--sweep", spec])
    out, err = capsys.readouterr()
    assert (out, err, got_code) == _per_value_loop(tmp_path, capsys, payload, spec)
    assert got_code == code


def test_parse_sweep_grid():
    name, values = parse_sweep("gamma:0.1:0.5:0.1")
    assert name == "gamma"
    np.testing.assert_allclose(values, [0.1, 0.2, 0.3, 0.4, 0.5], atol=1e-12)


# ---------------------------------------------------------------------------
# exit codes


def test_exit_requires_exactly_one_mode(tmp_path):
    assert main(["--out", str(tmp_path / "x.csv")]) == 1
    assert main(["--table", "1", "--solver", "es", "--out", str(tmp_path / "x.csv")]) == 1


def test_exit_missing_input(tmp_path):
    assert main(["--solver", "gaussian-det", "--out", str(tmp_path / "x.csv")]) == 1


def test_exit_unreadable_and_malformed_input(tmp_path):
    assert main(["--solver", "es", "--input", str(tmp_path / "nope.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--solver", "es", "--input", str(bad)]) == 1
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    assert main(["--solver", "es", "--input", str(listy)]) == 1



def test_unwritable_output_is_a_configuration_error(tmp_path, capsys):
    out = tmp_path / "missing-dir" / "x.csv"
    assert main(["--table", "4", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("sysrisk: configuration error: cannot write output file:")
    assert not out.exists()

ORACLE_INPUT = {
    "probabilities": [0.5, 0.5],
    "positions": [[1.0, -4.0], [2.0, -3.0]],
    "class": {"type": "deterministic"},
    "aggregation": {"type": "sum"},
}
FINITE_INPUT = {
    "probabilities": [0.5, 0.5],
    "positions": [[1.0, -4.0], [2.0, -3.0]],
    "alphas": [0.3, 0.3],
    "gamma": 5.0,
}
OU_INPUT = {
    "rates": [[0, 0.5], [0.5, 0]],
    "sigma": [1, 1],
    "rho_common": [0.4, 0.4],
    "x0": [0, 0],
}


@pytest.mark.parametrize(
    "solver,payload,extra",
    [
        ("oracle", dict(ORACLE_INPUT, acceptance={"type": "expectation-floor", "b": None}), []),
        ("ou", dict(OU_INPUT, t=None), []),
        ("finite", dict(FINITE_INPUT, partition=5), []),
        ("finite", {"probabilities": [1.0], "positions": [[1.0]], "alphas": [0.3],
                    "partition": [[0]]}, []),
        ("gaussian-scen", {"mu": [0.0, 0.0], "gamma": 0.7}, ["--sweep", "correlation:0:0.5:0.5"]),
        # one path once ended in a ZeroDivisionError traceback from its standard errors
        ("ou", dict(OU_INPUT, t=1.0, paths=1, steps=5), []),
    ],
    ids=["null-b", "null-t", "int-partition", "missing-gamma", "correlation-sweep-without-cov",
         "one-path"],
)
def test_malformed_input_is_a_configuration_error(tmp_path, capsys, solver, payload, extra):
    src = write_json(tmp_path, "model.json", payload)
    assert main(["--solver", solver, "--input", src, *extra]) == 1
    assert capsys.readouterr().err.startswith("sysrisk: configuration error:")


EXPONENTIAL = {"type": "exponential", "alpha": [0.5, 0.5]}
WORST_CASE_INPUT = {"probabilities": [0.5, 0.3, 0.2], "positions": [[4, -2, 1], [-1, 3, -0.5]]}


def _floor(b):
    return {"type": "expectation-floor", "b": b}


SHORTFALL = {"type": "shortfall-sum", "d": [0, 0]}
NAN_FLOORS = {"class": {"type": "floor-constrained", "floors": [math.nan, 0.0]}}


NON_FINITE_INPUTS = {
    "nan-floor-exponential": ("oracle", dict(ORACLE_INPUT, aggregation=EXPONENTIAL,
                                             acceptance=_floor(math.nan)), []),
    "nan-floor-sum": ("oracle", dict(ORACLE_INPUT, acceptance=_floor(math.nan)), []),
    "minus-inf-floor-exponential": ("oracle", dict(ORACLE_INPUT, aggregation=EXPONENTIAL,
                                                   acceptance=_floor(-math.inf)), []),
    "nan-d-gaussian-det": ("gaussian-det", dict(TWO_BANK, d=[math.nan, 0.0]), []),
    "nan-d-gaussian-scen": ("gaussian-scen", dict(TWO_BANK, d=[math.nan, 0.0]), []),
    "nan-d-worst-case": ("worst-case", dict(WORST_CASE_INPUT, d=[math.nan, 0.0]), []),
    "nan-trigger": ("gaussian-scen", dict(TWO_BANK, trigger=math.nan), []),
    "nan-gamma-finite": ("finite", dict(FINITE_INPUT, partition=[[0, 1]]), ["--gamma", "nan"]),
    "inf-gamma-finite": ("finite", dict(FINITE_INPUT, partition=[[0, 1]]), ["--gamma", "inf"]),
    "sweep-to-inf": ("gaussian-scen", TWO_BANK, ["--sweep", "gamma:0.1:inf:1"]),
    "sweep-overflowing-count": ("gaussian-scen", TWO_BANK, ["--sweep", "gamma:0.1:1e300:1e-300"]),
    "nan-floors-worst-case": ("worst-case", dict(WORST_CASE_INPUT, floors=[math.nan, 0.0]), []),
    "nan-floors-shortfall-sum-worst-case": ("oracle", dict(
        ORACLE_INPUT, aggregation=SHORTFALL, acceptance={"type": "worst-case"}, **NAN_FLOORS), []),
    "nan-floors-sum-worst-case": ("oracle", dict(
        ORACLE_INPUT, acceptance={"type": "worst-case"}, **NAN_FLOORS), []),
    "nan-floors-es-lp": ("oracle", dict(
        ORACLE_INPUT, aggregation=SHORTFALL, acceptance={"type": "expected-shortfall"},
        **NAN_FLOORS), []),
    "nan-alpha-finite": ("finite", dict(FINITE_INPUT, alphas=[math.nan, 0.3], partition=[[0, 1]]), []),
    "inf-alpha-finite": ("finite", dict(FINITE_INPUT, alphas=[math.inf, 0.3], partition=[[0, 1]]), []),
    "nan-gamma-gaussian-det": ("gaussian-det", TWO_BANK, ["--gamma", "nan"]),
    "inf-gamma-gaussian-det": ("gaussian-det", TWO_BANK, ["--gamma", "inf"]),
    "nan-gamma-gaussian-scen": ("gaussian-scen", TWO_BANK, ["--gamma", "nan"]),
    "inf-gamma-gaussian-scen": ("gaussian-scen", TWO_BANK, ["--gamma", "inf"]),
    "unknown-aggregation": ("oracle", dict(ORACLE_INPUT, aggregation={"type": "max"},
                                           acceptance={"type": "worst-case"}), []),
    "unknown-class": ("oracle", dict(ORACLE_INPUT, acceptance={"type": "worst-case"},
                                     **{"class": {"type": "bespoke"}}), []),
    "unknown-acceptance": ("oracle", dict(ORACLE_INPUT, acceptance={"type": "value-at-risk"}), []),
    "correlation-sweep-3x3": ("gaussian-scen", {"mu": [0, 0, 0], "cov": np.eye(3).tolist(),
                                                "gamma": 0.7}, ["--sweep", "correlation:0:0.5:0.5"]),
}


@pytest.mark.parametrize("case", NON_FINITE_INPUTS)
def test_non_finite_input_is_a_configuration_error(tmp_path, capsys, case):
    """One configuration-error line and no output.  The non-finite inputs
    once printed nan or -inf cells, read a NaN floor as no floor, stalled
    (exit 3) or ended in an OverflowError traceback; the unknown type names
    and the 3 x 3 correlation sweep are the rest of main's exit-1 paths."""
    solver, payload, extra = NON_FINITE_INPUTS[case]
    src = write_json(tmp_path, "model.json", payload)
    code, rows = run_cli(tmp_path, "--solver", solver, "--input", src, *extra)
    err = capsys.readouterr().err
    assert code == 1 and rows == []
    assert len(err.splitlines()) == 1
    assert err.startswith("sysrisk: configuration error:")
    assert "Traceback" not in err


def test_solver_choices_are_the_runners():
    solver = next(a for a in build_parser()._actions if a.dest == "solver")
    assert solver.choices == list(RUNNERS)


ORACLE_MISFITS = {     # the README oracle positions: N = 2, M = 2
    "short-indicator": {"type": "two-state", "indicator": [1]},
    "short-floors": {"type": "floor-constrained", "floors": [0]},
    "partial-partition": {"type": "grouped", "partition": [[0]]},
}
ORACLE_BRANCHES = {
    "worst-case-shortfall-sum": ({"type": "shortfall-sum", "d": [0, 0]}, {"type": "worst-case"}),
    "worst-case-sum": ({"type": "sum"}, {"type": "worst-case"}),
    "floor-sum": ({"type": "sum"}, {"type": "expectation-floor", "b": -1.0}),
    "lp": ({"type": "shortfall-sum", "d": [0, 0]}, {"type": "expectation-floor", "b": -1.0}),
}


@pytest.mark.parametrize("branch", ORACLE_BRANCHES)
@pytest.mark.parametrize("misfit", ORACLE_MISFITS)
def test_oracle_class_that_does_not_fit_exits_1(tmp_path, capsys, misfit, branch):
    aggregation, acceptance = ORACLE_BRANCHES[branch]
    src = write_json(tmp_path, "model.json", dict(
        ORACLE_INPUT, aggregation=aggregation, acceptance=acceptance,
        **{"class": ORACLE_MISFITS[misfit]}))
    code, rows = run_cli(tmp_path, "--solver", "oracle", "--input", src)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("sysrisk: configuration error:")
    assert "Traceback" not in err
    assert rows == [] and not (tmp_path / "out.csv").exists()


def test_exponential_loss_under_worst_case_exits_2(tmp_path, capsys):
    src = write_json(tmp_path, "model.json", dict(
        ORACLE_INPUT, aggregation=EXPONENTIAL, acceptance={"type": "worst-case"}))
    code, rows = run_cli(tmp_path, "--solver", "oracle", "--input", src)
    err = capsys.readouterr().err
    assert code == 2 and rows == []
    assert err.startswith("sysrisk: infeasible:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("acceptance,method", [
    ({"type": "worst-case"}, "exact-worst-case-clearing"),
    ({"type": "expected-shortfall", "level": 0.5}, "lp"),
])
def test_oracle_eisenberg_noe_branches(tmp_path, acceptance, method):
    """Every scenario must clear with no loss: both branches top each
    institution up to zero, so rho is the worst column total of -X, 7."""
    src = write_json(tmp_path, "model.json", dict(
        ORACLE_INPUT, aggregation={"type": "eisenberg-noe", "pi": [[0, 0.5], [0.3, 0]]},
        acceptance=acceptance, **{"class": {"type": "fully-flexible"}}))
    code, rows = run_cli(tmp_path, "--solver", "oracle", "--input", src)
    assert code == 0
    assert value_of(rows, "method") == method
    assert float(value_of(rows, "rho")) == pytest.approx(7.0, abs=1e-9)


def test_large_budget_takes_cash_out(tmp_path):
    # gamma 2 is above sum(sigma) / sqrt(2 pi) ~ 1.596, so R > 0
    src = write_json(tmp_path, "model.json", dict(TWO_BANK, gamma=2.0))
    code, rows = run_cli(tmp_path, "--solver", "gaussian-det", "--input", src)
    assert code == 0
    assert float(value_of(rows, "r_star")) > 0.0


def test_exit_bad_sweeps(tmp_path):
    src = write_json(tmp_path, "model.json", TWO_BANK)
    base = ["--solver", "gaussian-det", "--input", src]
    assert main([*base, "--sweep", "gamma:1:0:1"]) == 1         # hi < lo
    assert main([*base, "--sweep", "gamma:0:1"]) == 1           # wrong arity
    assert main([*base, "--sweep", "trigger:0:1:1"]) == 1       # not sweepable here
    assert main(["--table", "1", "--sweep", "gamma:0:1:1"]) == 1


# ---------------------------------------------------------------------------
# formatting


def test_fmt_six_significant_digits():
    assert fmt(2.3089803167) == "2.30898"
    assert fmt(-27.567430193) == "-27.5674"
    assert fmt("label") == "label"
    assert fmt(None) == ""
    assert fmt(float("nan")) == "nan"
