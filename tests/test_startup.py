"""Start-up cost: importing sysrisk loads no scipy submodule.

The library calls scipy through qualified names (``scipy.special.ndtr``), so
each submodule loads the first time a solver reads it.  Inside pytest the
test modules have already imported scipy, which would hide a broken first
use, so the check runs in a fresh interpreter.
"""
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import sysrisk
from sysrisk import (
    ExpectationFloor,
    FullyFlexible,
    GaussianSystem,
    RiskVector,
    ScenarioSpace,
    ShortfallSum,
    binorm_cdf,
    central_clearing_moments,
    numeric_rho,
    optimal_deterministic,
    solve_grouped,
)

LAZY = ("scipy.special", "scipy.optimize", "scipy.linalg", "scipy.sparse")

FRESH = f"""
import json, sys
import sysrisk, sysrisk.cli
loaded = [name for name in {LAZY!r} if name in sys.modules]
import test_startup
print(json.dumps({{"loaded": loaded, "calls": test_startup.first_calls()}}))
"""


def _plain(value):
    """value with dataclasses as dicts and arrays as lists, so repr rounds nothing."""
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    return value


def first_calls() -> dict[str, str]:
    """One call per lazily loaded scipy name, keyed by the names it reads."""
    x = RiskVector(ScenarioSpace(np.array([0.5, 0.3, 0.2])),
                   np.array([[4.0, -2.0, 1.0], [-1.0, 3.0, -0.5]]))
    system = GaussianSystem(np.zeros(2), np.array([[1.0, 0.5], [0.5, 4.0]]))
    results = {
        "logsumexp": solve_grouped(x, np.full(2, 0.3), 1.0, [[0, 1]]),
        "ndtr erfcx": optimal_deterministic(system, 0.7),
        "ndtr log_ndtr": binorm_cdf(0.3, -0.2, 0.5),
        "expm": central_clearing_moments(0.5, 1.0, 0.5, 0.2, 0.1, 10, 1.0),
        "sparse linprog": numeric_rho(x, FullyFlexible(), ShortfallSum(np.zeros(2)),
                                      ExpectationFloor(-0.5)),
    }
    assert results["sparse linprog"].diagnostics["method"] == "lp"
    return {name: repr(_plain(out)) for name, out in results.items()}


def test_gaussian_cli_loads_no_scipy_optimize(tmp_path):
    """The Gaussian solvers find their roots by Newton's method, so a fresh
    ``sysrisk --table 1`` loads scipy.special and nothing of scipy.optimize."""
    code = ("import sys, sysrisk.cli; "
            f"assert sysrisk.cli.main(['--table', '1', '--out', {str(tmp_path / 't1.csv')!r}]) == 0; "
            f"print([name for name in {LAZY!r} if name in sys.modules])")
    paths = [str(Path(sysrisk.__file__).parents[1])]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.replace("'", '"')) == ["scipy.special"]


def test_import_loads_no_scipy_submodule_and_first_use_matches():
    paths = [str(Path(sysrisk.__file__).parents[1]), str(Path(__file__).parent)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    proc = subprocess.run(
        [sys.executable, "-c", FRESH], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
    )
    assert proc.returncode == 0, proc.stderr
    fresh = json.loads(proc.stdout)
    assert fresh["loaded"] == []
    assert fresh["calls"] == first_calls()
