"""Optimal capital allocations for exponential loss on finite scenario spaces.

Institutions are partitioned into groups.  Within a group the allocation may
depend on the scenario; only the group's total is scenario-constant.  With the
aggregation Lambda(x) = -sum_k exp(-alpha_k x_k) and the acceptance constraint
E[-Lambda(X + Y)] <= gamma, every group has a closed-form optimum.

Writing beta_g = sum_{k in g} 1/alpha_k, beta_N = sum_all 1/alpha_k and r(g)
for the group's reference institution (lowest index), the group constant is

    c_g = -beta_g * log( gamma / (alpha_r beta_N d_g) ),
    d_g = E[ exp( -(1/beta_g) ( sum_{k in g} X_k
                                + sum_{k in g} (1/alpha_k) log(alpha_r/alpha_k) ) ) ],

the reference member's scenario allocation is

    y_r(w) = (1/(alpha_r beta_g)) ( c_g + sum_{k in g} X_k(w)
                                   + sum_{k in g} (1/alpha_k) log(alpha_r/alpha_k) )
             - X_r(w),

and the remaining members follow from pairwise proportionality of marginal
exponential losses,

    y_k(w) = (1/alpha_k) ( alpha_r X_r(w) - alpha_k X_k(w) - log(alpha_r/alpha_k)
                           + alpha_r y_r(w) ).

A singleton group reduces to the scenario-independent allocation
y_k = -(1/alpha_k) log(gamma / (alpha_k beta_N K_k)) with K_k = E[exp(-alpha_k X_k)];
the same code path handles it.  The budget multiplier is lambda = beta_N/gamma
regardless of the partition, and every group consumes the budget share
gamma * beta_g / beta_N.

All expectations of exponentials run in log space (logsumexp), so positions of
order +-1e4 with alpha of order 1 do not overflow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np
from scipy.special import logsumexp

from .core import RiskVector, rank_by_expectation

# Enumeration is refused beyond this.  A sweep keeps all Bell(n) entries: on a
# 2-vCPU Xeon, n = 9 gives 21,147 entries in about 0.4 s (14 MiB peak) and
# n = 10 gives 115,975 in about 2 s (78 MiB peak).
MAX_SWEEP_INSTITUTIONS = 10

Partition = tuple[tuple[int, ...], ...]


def normalize_partition(partition: Sequence[Sequence[int]], n: int) -> Partition:
    """Sorted, validated partition of range(n): each index exactly once."""
    blocks = []
    seen: set[int] = set()
    for block in partition:
        idx = tuple(sorted(int(i) for i in block))
        if not idx:
            raise ValueError("empty group in partition")
        for i in idx:
            if not 0 <= i < n:
                raise ValueError(f"institution index {i} out of range")
            if i in seen:
                raise ValueError(f"institution {i} appears in two groups")
            seen.add(i)
        blocks.append(idx)
    if len(seen) != n:
        raise ValueError("partition must cover every institution")
    return tuple(sorted(blocks))


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """All set partitions of range(n), by restricted-growth strings."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MAX_SWEEP_INSTITUTIONS:
        raise ValueError(f"partition enumeration capped at n = {MAX_SWEEP_INSTITUTIONS}")
    rgs = [0] * n

    def emit() -> Partition:
        k = max(rgs) + 1
        blocks: list[list[int]] = [[] for _ in range(k)]
        for i, g in enumerate(rgs):
            blocks[g].append(i)
        return tuple(tuple(b) for b in blocks)

    # iterate restricted-growth strings in lexicographic order
    while True:
        yield emit()
        i = n - 1
        while i > 0 and rgs[i] > max(rgs[:i]):
            rgs[i] = 0
            i -= 1
        if i == 0:
            return
        rgs[i] += 1


@dataclass(eq=False)
class GroupedSolution:
    partition: Partition
    group_constants: np.ndarray    # c_g per group, aligned with partition
    allocation: np.ndarray         # N x M optimal allocation
    rho: float                     # sum of group constants
    lam: float                     # budget multiplier beta_N / gamma
    gamma: float
    expected_allocation: np.ndarray  # E[Y_k] per institution


def solve_grouped(
    x: RiskVector, alphas, gamma: float, partition: Sequence[Sequence[int]]
) -> GroupedSolution:
    """Closed-form optimal allocation for a given grouping of institutions."""
    alphas, log_p, beta_n = _validated(x, alphas, gamma)
    part = normalize_partition(partition, x.n)
    allocation = np.empty_like(x.positions)
    constants = np.empty(len(part))
    for g_index, group in enumerate(part):
        members = np.array(group)
        ref = int(members[0])
        c_g, a_ref, beta_g, skew, group_sum = _block(x, alphas, log_p, beta_n, gamma, members)
        constants[g_index] = c_g
        y_ref = (c_g + group_sum + skew) / (a_ref * beta_g) - x.positions[ref]
        allocation[ref] = y_ref
        for k in members[1:]:
            a_k = alphas[k]
            allocation[k] = (
                a_ref * x.positions[ref]
                - a_k * x.positions[k]
                - math.log(a_ref / a_k)
                + a_ref * y_ref
            ) / a_k
    return GroupedSolution(
        partition=part,
        group_constants=constants,
        allocation=allocation,
        rho=float(constants.sum()),
        lam=beta_n / gamma,
        gamma=gamma,
        expected_allocation=allocation @ x.space.probabilities,
    )


def _validated(x: RiskVector, alphas, gamma: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Checked alphas, log scenario probabilities and beta_N."""
    alphas = np.asarray(alphas, dtype=float)
    if alphas.shape != (x.n,):
        raise ValueError("alphas must have one entry per institution")
    if np.any(alphas <= 0.0):
        raise ValueError("alphas must be strictly positive")
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    return alphas, np.log(x.space.probabilities), float((1.0 / alphas).sum())


def _block(x, alphas, log_p, beta_n, gamma, members):
    """(c_g, alpha_r, beta_g, skew, sum_{k in g} X_k) of one group; members sorted."""
    a = alphas[members]
    a_ref = alphas[members[0]]
    beta_g = float((1.0 / a).sum())
    skew = float(((1.0 / a) * np.log(a_ref / a)).sum())
    group_sum = x.positions[members].sum(axis=0)
    log_dg = float(logsumexp(log_p - (group_sum + skew) / beta_g))
    c_g = -beta_g * (math.log(gamma / (a_ref * beta_n)) - log_dg)
    return c_g, a_ref, beta_g, skew, group_sum


def rank_institutions(solution: GroupedSolution) -> tuple[int, ...]:
    """Institutions by decreasing expected allocation; ties to the lower index."""
    return rank_by_expectation(solution.expected_allocation)


@dataclass(eq=False)
class SweepEntry:
    partition: Partition
    rho: float
    group_constants: np.ndarray

    def label(self) -> str:
        return "".join(
            "{" + ",".join(str(i + 1) for i in block) + "}" for block in self.partition
        )


def group_sweep(x: RiskVector, alphas, gamma: float) -> list[SweepEntry]:
    """Price every partition of the institutions, cheapest total first.

    A group's constant depends only on its members, gamma and beta_N, so each
    of the 2^n - 1 blocks is solved once and each of the Bell(n) partitions
    costs one sum of its blocks' constants.  Every entry equals what
    ``solve_grouped`` returns for that partition.

    Coarser partitions always come out cheaper (merging groups only enlarges
    the admissible set), so the first entry is the single pooled group and the
    last is all-singletons.  Ties are ordered by the partition itself.
    """
    alphas, log_p, beta_n = _validated(x, alphas, gamma)
    block_constants: dict[tuple[int, ...], float] = {}
    entries = []
    for p in enumerate_partitions(x.n):
        for group in p:
            if group not in block_constants:
                c_g = _block(x, alphas, log_p, beta_n, gamma, np.array(group))[0]
                block_constants[group] = c_g
        consts = np.array([block_constants[group] for group in p])
        entries.append(SweepEntry(p, float(consts.sum()), consts))
    entries.sort(key=lambda e: (e.rho, e.partition))
    return entries


def pair_partitions(n: int) -> list[Partition]:
    """Partitions consisting of one pair plus singletons (ring-fence all but two)."""
    out = []
    for i, j in combinations(range(n), 2):
        blocks = [(i, j)] + [(k,) for k in range(n) if k not in (i, j)]
        out.append(normalize_partition(blocks, n))
    return out
