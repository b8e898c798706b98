"""Independent reference for the clearing vector, shared by the test modules.

Solves y = (x + pi y)^+ for one scenario by active-set pivoting that both
grows and shrinks the set, one ``np.linalg.solve`` per round.  It shares no
code with ``sysrisk.core.clearing_vector``.
"""

import numpy as np


def active_set_clearing(pi, x, max_rounds=64):
    """Direct solve of y = (x + pi y)^+ by active-set pivoting."""
    n = len(x)
    active = x > 0.0
    for _ in range(max_rounds):
        y = np.zeros(n)
        idx = np.flatnonzero(active)
        if idx.size:
            a = np.eye(idx.size) - pi[np.ix_(idx, idx)]
            y[idx] = np.linalg.solve(a, x[idx])
        pressure = x + pi @ y
        grown = (~active) & (pressure > 1e-14)
        shrunk = active & (y < -1e-14)
        if not grown.any() and not shrunk.any():
            return np.maximum(y, 0.0)
        active = (active | grown) & ~shrunk
    raise RuntimeError("active-set clearing did not settle")
