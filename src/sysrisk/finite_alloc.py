"""Optimal capital allocations for exponential loss on finite scenario spaces.

Institutions are partitioned into groups.  Within a group the allocation may
depend on the scenario; only the group's total is scenario-constant.  With the
aggregation Lambda(x) = -sum_k exp(-alpha_k x_k) and the acceptance constraint
E[-Lambda(X + Y)] <= gamma, every group has a closed-form optimum.

It is Borch's linear risk-sharing rule (Econometrica 30, 1962): scenario by
scenario, every member's marginal loss alpha_k exp(-alpha_k (X_k + Y_k)) takes
one common value mu_g(w).  With beta_g = sum_{k in g} 1/alpha_k,
ell_g = sum_{k in g} log(alpha_k)/alpha_k, S_g = sum_{k in g} X_k and
beta_N = sum_all 1/alpha_k,

    c_g      = ell_g + beta_g ( log E[exp(-S_g/beta_g)] - log(gamma/beta_N) ),
    log mu_g = (ell_g - S_g - c_g) / beta_g,
    Y_k      = -X_k - (log mu_g - log alpha_k) / alpha_k,

so the group's total allocation is the constant c_g.  A singleton gives the
scenario-independent y_k = (1/alpha_k) log(alpha_k beta_N K_k / gamma) with
K_k = E[exp(-alpha_k X_k)].  The budget multiplier is lambda = beta_N/gamma
regardless of the partition, and every institution consumes the budget share
gamma (1/alpha_k) / beta_N.

All expectations of exponentials run in log space (a log-sum-exp shifted by
its largest term, in numpy), so positions of order +-1e4 with alpha of order 1
do not overflow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .core import RiskVector, budget, exponential_coefficients

# Enumeration is refused beyond this.  A sweep keeps all Bell(n) entries: on a
# 2-vCPU Xeon, n = 9 gives 21,147 entries in about 0.13 s (9 MiB tracemalloc
# peak) and n = 10 gives 115,975 in about 0.95 s (55 MiB peak).
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
    """All set partitions of range(n), in lexicographic restricted-growth order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MAX_SWEEP_INSTITUTIONS:
        raise ValueError(f"partition enumeration capped at n = {MAX_SWEEP_INSTITUTIONS}")

    def place(i: int, blocks: Partition) -> Iterator[Partition]:
        # institution i joins each existing block in turn, then opens a new one
        if i == n:
            yield blocks
            return
        for g in range(len(blocks)):
            yield from place(i + 1, blocks[:g] + (blocks[g] + (i,),) + blocks[g + 1:])
        yield from place(i + 1, blocks + ((i,),))

    yield from place(1, ((0,),))


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
    alphas, log_p, beta_n, gamma = _validated(x, alphas, gamma)
    part = normalize_partition(partition, x.n)
    log_mu = np.empty_like(x.positions)
    constants = np.empty(len(part))
    for g_index, group in enumerate(part):
        constants[g_index], log_mu[list(group)] = _block(
            x, alphas, log_p, beta_n, gamma, group
        )
    allocation = -x.positions - (log_mu - np.log(alphas)[:, None]) / alphas[:, None]
    return GroupedSolution(
        partition=part,
        group_constants=constants,
        allocation=allocation,
        rho=float(constants.sum()),
        lam=beta_n / gamma,
        gamma=gamma,
        expected_allocation=allocation @ x.space.probabilities,
    )


def _validated(x: RiskVector, alphas, gamma: float) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Checked alphas, log scenario probabilities, beta_N and checked gamma (``core.budget``)."""
    alphas = exponential_coefficients(alphas)
    if alphas.shape != (x.n,):
        raise ValueError("alphas must have one entry per institution")
    return alphas, np.log(x.space.probabilities), float((1.0 / alphas).sum()), budget(gamma)


def _block(x, alphas, log_p, beta_n, gamma, group):
    """(c_g, log mu_g) of one group: its constant and common log marginal loss."""
    members = list(group)
    a = alphas[members]
    beta_g = float((1.0 / a).sum())
    ell_g = float((np.log(a) / a).sum())
    group_sum = x.positions[members].sum(axis=0)
    c_g = ell_g + beta_g * (_logsumexp(log_p - group_sum / beta_g) - math.log(gamma / beta_n))
    return c_g, (ell_g - group_sum - c_g) / beta_g


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) of a finite 1-D array, shifted by its maximum.

    The count entries equal to the maximum leave the sum and return as
    log(count).  This is scipy.special.logsumexp's arithmetic (scipy 1.17)
    step for step, so the result has its bits: the maximal terms are zeroed in
    place, not dropped, since dropping them regroups numpy's pairwise sum, and
    log1p is numpy's, not math's, which differs in the last bit.
    """
    a_max = a.max()
    top = a == a_max
    count = np.count_nonzero(top)
    terms = np.exp(a - a_max)
    terms[top] = 0.0
    return float(np.log1p(terms.sum() / count) + np.log(count) + a_max)


@dataclass(eq=False)
class SweepEntry:
    partition: Partition
    rho: float
    group_constants: np.ndarray


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
    alphas, log_p, beta_n, gamma = _validated(x, alphas, gamma)
    block_constants: dict[tuple[int, ...], float] = {}
    entries = []
    for p in enumerate_partitions(x.n):
        for group in p:
            if group not in block_constants:
                block_constants[group] = _block(x, alphas, log_p, beta_n, gamma, group)[0]
        consts = np.array([block_constants[group] for group in p])
        entries.append(SweepEntry(p, float(consts.sum()), consts))
    entries.sort(key=lambda e: (e.rho, e.partition))
    return entries
