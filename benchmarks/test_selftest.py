"""Self-test of the benchmark at reduced size.

    python -m pytest -q benchmarks/test_selftest.py

Runs every workload for one cycle in both modes and checks that every metric
named in BENCHMARK.json comes out with its unit, that the correctness checks
reject a perturbed answer, that the input generator is byte-stable for a
fixed seed, and that traced counts repeat exactly.
"""
from __future__ import annotations

import copy
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload, trace, seed=5):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--min-ops", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = _run(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want


def test_missing_metric_prints_no_result(capsys):
    import run

    tally = run.Tally()
    tally.attempted = 1
    metrics = {m["name"]: 1.0 for m in SPEC["end_to_end"]}
    assert run.emit(True, tally, metrics, 0) == 0
    assert json.loads(capsys.readouterr().out)["metrics"]["setup_s"] == {"value": 1.0, "unit": "s"}
    del metrics["setup_s"]
    assert run.emit(True, tally, metrics, 0) == 1
    out = capsys.readouterr()
    assert out.out == "" and "setup_s" in out.err


def test_traced_counts_repeat_exactly():
    first, second = _run("finite-oracle", 1), _run("finite-oracle", 1)
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    counts += ["failed_frac", "finite_alloc.group_sweep.useful_ratio"]
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def _ops(workload, seed, tmp_path, cycle=0):
    return wl.cycle_ops(workload, seed, cycle, wl.Context(tmp_path))


def test_check_rejects_perturbed_grouped_rho(tmp_path):
    grouped = next(op for op in _ops("finite-oracle", 5, tmp_path)
                   if op.name == "finite_alloc.solve_grouped")
    assert grouped.check(grouped.call()) == []
    newton = wl.probe_ops("finite-oracle")[0]
    assert newton.name == "numeric_rho.newton-grouped"
    result = newton.call()
    assert result.diagnostics["converged"]
    perturbed = copy.copy(result)
    perturbed.rho = result.rho - 1e-3
    assert newton.check(perturbed)
    assert not wl.known_defect(perturbed, None, newton.check(perturbed))


def test_check_rejects_perturbed_two_state_answer(tmp_path):
    op = _ops("gaussian", 5, tmp_path)[0]
    scen, det = op.call()
    assert op.check((scen, det)) == []
    bad = copy.copy(scen)
    bad.m = scen.m - 1e-3
    assert op.check((bad, det))


def test_two_state_rho_above_deterministic_is_rejected(tmp_path):
    op = _ops("gaussian", 5, tmp_path)[0]
    scen, det = op.call()
    assert op.check((scen, det)) == []
    far = copy.copy(scen)
    far.rho = det.rho + 1e-3
    reasons = op.check((far, det))
    assert any(wl.ABOVE_DETERMINISTIC in r for r in reasons)
    assert not wl.known_defect((far, det), None, reasons)


def test_unacceptable_allocation_is_known_only_on_unverified_branches(tmp_path):
    answers = {}
    for op in _ops("finite-oracle", 5, tmp_path)[:9] + wl.probe_ops("finite-oracle")[:2]:
        answers[op.name] = op, op.call()
    for name, known in (("numeric_rho.exact-flexible", False),
                        ("numeric_rho.newton-flexible", True)):
        op, result = answers[name]
        bad = copy.copy(result)
        bad.allocation = bad.allocation - 1.0
        reasons = op.check(bad)
        assert reasons and all(wl.ACCEPTABILITY in r for r in reasons), reasons
        assert wl.known_defect(bad, None, reasons) is known, name


def test_check_rejects_perturbed_covariance(tmp_path):
    op = next(o for o in _ops("network", 5, tmp_path) if o.name.endswith("covariance.n3"))
    system = op.call()
    assert op.check(system) == []
    system.cov = system.cov * (1.0 + 1e-6)
    assert op.check(system)


def _digest(workload, seed, tmp_path) -> str:
    h = hashlib.sha256()
    ops = _ops(workload, seed, tmp_path, 0) + _ops(workload, seed, tmp_path, 1)
    for op in ops + wl.probe_ops(workload):
        h.update(op.name.encode())
        for key in sorted(op.inputs):
            value = op.inputs[key]
            h.update(key.encode())
            if isinstance(value, str):
                h.update(value.encode())
            else:
                h.update(np.ascontiguousarray(value, dtype=float).tobytes())
    return h.hexdigest()


def test_probe_is_the_same_for_every_seed():
    ops = wl.probe_ops("finite-oracle")
    assert len(ops) == 2 * wl.CRITERION6_INSTANCES + len(wl.PENALTY_CASES)
    assert len(wl.probe_ops("gaussian")) == len(wl.GRID_FAILING) + len(wl.JITTERED_FAILING)
    assert wl.probe_ops("network") == []
    assert all(op.probe for op in ops)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_generator_is_byte_stable(workload, tmp_path):
    first = _digest(workload, 7, tmp_path)
    assert first == _digest(workload, 7, tmp_path)
    assert first != _digest(workload, 8, tmp_path)
    code = (
        f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(BENCH)!r}]; "
        f"from pathlib import Path; import test_selftest as t; "
        f"print(t._digest({workload!r}, 7, Path({str(tmp_path)!r})))"
    )
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == first


def test_tracer_rebinds_every_by_name_import():
    tracer = Tracer()
    names = set(tracer.bound_names())
    for expected in (
        "sysrisk.gaussian_det.optimal_deterministic",
        "sysrisk.gaussian_scen.optimal_deterministic",
        "sysrisk.cli.optimal_deterministic",
        "sysrisk.finite_alloc.solve_grouped",
        "sysrisk.cli.solve_grouped",
        "sysrisk.core.clearing_vector",
        "sysrisk.gaussian_scen.binorm_cdf",
        "sysrisk.oracle.numeric_rho",
        "sysrisk.cli.numeric_rho",
        "sysrisk.numeric_rho",
    ):
        assert expected in names
    import sysrisk.gaussian_scen as gs

    original = gs.binorm_cdf
    tracer.install()
    try:
        assert gs.binorm_cdf is not original
    finally:
        tracer.uninstall()
    assert gs.binorm_cdf is original
