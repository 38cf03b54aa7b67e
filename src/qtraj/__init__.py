"""Stochastic unraveling of Lindblad dynamics on truncated Fock spaces.

A block-batched trajectory integrator for the linear and normalized
stochastic Schrodinger equations, deterministic counter-based noise, sparse
master/Heisenberg reference solvers, ensemble estimation with
block-invariant reductions, regularity and dissipativity diagnostics, and
stationary-state estimation.
"""

from .ensemble import (
    AggregateFaultError,
    EnsembleDensity,
    ObservableEstimate,
    TrajectoryBatch,
    observable_mean,
    point_sampler,
    reconstruct_density,
    run_ensemble,
    weighted_equivalence_check,
)
from .hilbert import (
    DensityMatrix,
    FockSpace,
    ModelSpec,
    Op,
    build_fock_ops,
    build_kerr_oscillator,
    build_monitored_oscillator,
    build_thermal_oscillator,
    coherent_state,
    fock_state,
    gksl_consistency_check,
    heisenberg_apply,
    lindbladian_apply,
    random_model,
    thermal_state,
)
from .noise import CoarsenedNoise, NoiseStream
from .oracle import (
    duality_check,
    minimal_semigroup_picard,
    semigroup_check,
    solve_heisenberg,
    solve_master,
    spectral_gap,
    vectorize_heisenberg,
    vectorize_lindbladian,
)
from .regularity import (
    CRegularDecomposition,
    check_dissipativity,
    kerr_regularity_predicate,
    kerr_stationary_predicate,
    mixture_sampler,
    regularity_trace,
    sample_c_regular,
    verify_trace_identity,
)
from .sde import TimeGrid, propagate
from .stationary import estimate_stationary, finite_time_drift, stationary_residual

__version__ = "0.1.0"

__all__ = [
    "AggregateFaultError",
    "CRegularDecomposition",
    "CoarsenedNoise",
    "DensityMatrix",
    "EnsembleDensity",
    "FockSpace",
    "ModelSpec",
    "NoiseStream",
    "ObservableEstimate",
    "Op",
    "TimeGrid",
    "TrajectoryBatch",
    "build_fock_ops",
    "build_kerr_oscillator",
    "build_monitored_oscillator",
    "build_thermal_oscillator",
    "check_dissipativity",
    "coherent_state",
    "duality_check",
    "estimate_stationary",
    "finite_time_drift",
    "fock_state",
    "gksl_consistency_check",
    "heisenberg_apply",
    "kerr_regularity_predicate",
    "kerr_stationary_predicate",
    "lindbladian_apply",
    "minimal_semigroup_picard",
    "mixture_sampler",
    "observable_mean",
    "point_sampler",
    "propagate",
    "random_model",
    "reconstruct_density",
    "regularity_trace",
    "run_ensemble",
    "sample_c_regular",
    "semigroup_check",
    "solve_heisenberg",
    "solve_master",
    "spectral_gap",
    "stationary_residual",
    "thermal_state",
    "vectorize_heisenberg",
    "vectorize_lindbladian",
    "verify_trace_identity",
    "weighted_equivalence_check",
]
