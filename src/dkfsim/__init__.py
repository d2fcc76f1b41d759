"""Delay-aware distributed Kalman filtering for linear time-varying systems.

Per-sensor information filters feed a fusion estimator through delayed
channels; two subset-selection algorithms (a greedy threshold sweep and a
stability-criterion check) pick which sensors to fuse. The hot recursions run
in numpy, batched across nodes and subsets (dkfsim._kernels).
"""

from ._kernels import backend_name
from .config import ExperimentConfig, load_config
from .dkf import (
    DkfEngine,
    NodeFilterState,
    Scenario,
    kf_covariance_form,
    node_init,
    node_measurement_update,
    node_time_update,
)
from .harness import MonteCarloSummary, derive_seed, export_csv, monte_carlo, run_experiment
from .model import (
    LtvSystem,
    Trajectory,
    builtin_system,
    is_effectively_singular,
    simulate,
    transition_matrix,
)
from .observability import StructuralMatrix, is_structurally_observable, structure_of
from .sensing import (
    DelaySpec,
    SensorNetwork,
    SensorNode,
    delay_steps,
    resolve_delays,
    sample_network,
)
from .selection import (
    SelectionReport,
    greedy_select,
    max_deviation,
    mse,
    settling_index,
    stability_select,
)
from .stability import StabilityParams, beta_hat, gamma_hat, i_tilde, psi

__version__ = "0.1.0"

__all__ = [
    "DelaySpec", "DkfEngine", "ExperimentConfig", "LtvSystem", "MonteCarloSummary",
    "NodeFilterState", "Scenario", "SelectionReport", "SensorNetwork", "SensorNode",
    "StabilityParams", "StructuralMatrix", "Trajectory", "backend_name", "beta_hat",
    "builtin_system", "delay_steps", "derive_seed", "export_csv", "gamma_hat",
    "greedy_select", "i_tilde", "is_effectively_singular", "is_structurally_observable",
    "kf_covariance_form", "load_config", "max_deviation", "monte_carlo", "mse", "node_init",
    "node_measurement_update", "node_time_update", "psi", "resolve_delays", "run_experiment",
    "sample_network", "settling_index", "simulate", "stability_select", "structure_of",
    "transition_matrix",
]
