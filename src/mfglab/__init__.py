"""Numerical laboratory for first-order mean field games on the circle."""

from .characteristics import (
    DriftField,
    FlowMap,
    drift_field,
    flow_lipschitz_constant,
    forward_flow,
)
from .coupling import CouplingFunctional, monotonicity_defect
from .errors import ConfigError, MFGLabError
from .explicit_solution import ExplicitInstance, hjb_residual, transport_residual
from .hamiltonians import (
    Mechanical,
    Potential,
    QuadraticDrift,
)
from .lax_oleinik import (
    HopfLaxStepper,
    alpha_function,
    critical_value,
    weak_kam_solution,
)
from .measures import (
    CircleMeasure,
    invariant_density,
    pushforward,
    wasserstein1,
)
from .mfg import (
    MFGSolution,
    PeriodicRegime,
    PeriodicSolution,
    lipschitz_c_experiment,
    long_time_convergence_experiment,
    periodic_regime,
    periodic_solution,
    solve_finite_horizon,
)

__all__ = [
    "CircleMeasure",
    "ConfigError",
    "CouplingFunctional",
    "DriftField",
    "ExplicitInstance",
    "FlowMap",
    "HopfLaxStepper",
    "Mechanical",
    "MFGLabError",
    "MFGSolution",
    "PeriodicRegime",
    "PeriodicSolution",
    "Potential",
    "QuadraticDrift",
    "alpha_function",
    "critical_value",
    "drift_field",
    "flow_lipschitz_constant",
    "forward_flow",
    "hjb_residual",
    "invariant_density",
    "lipschitz_c_experiment",
    "long_time_convergence_experiment",
    "monotonicity_defect",
    "periodic_regime",
    "periodic_solution",
    "pushforward",
    "solve_finite_horizon",
    "transport_residual",
    "wasserstein1",
    "weak_kam_solution",
]
