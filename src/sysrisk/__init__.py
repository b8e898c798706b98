"""Systemic risk measures for multi-institution systems.

Computes the minimal capital that makes a network of interdependent
positions acceptable, where capital may be injected before the outcome is
known (deterministic allocations) or contingent on the realized scenario
subject to a fixed overall budget.  Closed forms cover Gaussian systems,
worst-case and expected-shortfall acceptance, and exponential loss on
finite scenario spaces; a slow independent oracle re-derives every closed
form numerically, and an Ornstein-Uhlenbeck network engine produces the
Gaussian inputs from interbank lending dynamics.
"""
from .closed_forms import (
    expected_shortfall,
    rho_ag,
    rho_constrained,
    rho_deterministic,
)
from .core import (
    ConvergenceError,
    EisenbergNoe,
    ExpectationFloor,
    ExpectedShortfall,
    ExponentialLoss,
    GainLossWeighted,
    GaussianSystem,
    InfeasibleError,
    RiskResult,
    RiskVector,
    ScenarioSpace,
    ShortfallSum,
    Sum,
    WorstCase,
    aggregate,
    aggregate_scenarios,
    allocation_price,
    clearing_vector,
    is_acceptable,
    rank_by_expected_allocation,
    spectral_radius,
)
from .finite_alloc import (
    GroupedSolution,
    enumerate_partitions,
    group_sweep,
    solve_grouped,
)
from .gaussian_det import (
    DeterministicSolution,
    optimal_deterministic,
    solve_r,
)
from .gaussian_scen import (
    TwoStateSolution,
    binorm_cdf,
    psi_two_state,
    solve_two_state,
    solve_two_state_batch,
)
from .ou_network import (
    NetworkModel,
    central_clearing_moments,
    heterogeneous_covariance,
    homogeneous_variance,
    simulate_paths,
    three_bank_example,
)
from .oracle import (
    Deterministic,
    FloorConstrained,
    FullyFlexible,
    Grouped,
    ThetaMap,
    TwoStateParametric,
    check_structural_properties,
    check_sum_reduction,
    numeric_rho,
    numeric_rho_family,
    sample_instance,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "Deterministic",
    "DeterministicSolution",
    "EisenbergNoe",
    "ExpectationFloor",
    "ExpectedShortfall",
    "ExponentialLoss",
    "FloorConstrained",
    "FullyFlexible",
    "GainLossWeighted",
    "GaussianSystem",
    "Grouped",
    "GroupedSolution",
    "InfeasibleError",
    "NetworkModel",
    "RiskResult",
    "RiskVector",
    "ScenarioSpace",
    "ShortfallSum",
    "Sum",
    "ThetaMap",
    "TwoStateParametric",
    "TwoStateSolution",
    "WorstCase",
    "aggregate",
    "aggregate_scenarios",
    "allocation_price",
    "binorm_cdf",
    "central_clearing_moments",
    "check_structural_properties",
    "check_sum_reduction",
    "clearing_vector",
    "enumerate_partitions",
    "expected_shortfall",
    "group_sweep",
    "heterogeneous_covariance",
    "homogeneous_variance",
    "is_acceptable",
    "numeric_rho",
    "numeric_rho_family",
    "optimal_deterministic",
    "psi_two_state",
    "rank_by_expected_allocation",
    "rho_ag",
    "rho_constrained",
    "rho_deterministic",
    "sample_instance",
    "simulate_paths",
    "solve_grouped",
    "solve_r",
    "solve_two_state",
    "solve_two_state_batch",
    "spectral_radius",
    "three_bank_example",
]
