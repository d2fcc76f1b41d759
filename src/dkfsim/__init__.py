"""Delay-aware distributed Kalman filtering for linear time-varying systems.

Per-sensor information filters feed a fusion estimator through delayed
channels; two subset-selection algorithms (a greedy threshold sweep and a
stability-criterion check) pick which sensors to fuse. The hot recursions run
in numpy, batched across nodes and subsets (dkfsim._kernels).
"""

from ._kernels import backend_name
from .config import ExperimentConfig, load_config
from .dkf import (
    DelayedReport,
    DkfEngine,
    FusedEstimate,
    NodeFilterState,
    Scenario,
    fuse,
    kf_covariance_form,
    node_init,
    node_measurement_update,
    node_time_update,
    observer_gain,
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
    measure,
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
from .stability import StabilityParams, beta_hat, check_bound, gamma_hat, i_tilde, psi

__version__ = "0.1.0"

__all__ = [
    "DelayedReport", "DelaySpec", "DkfEngine", "ExperimentConfig", "FusedEstimate",
    "LtvSystem", "MonteCarloSummary", "NodeFilterState", "Scenario",
    "SelectionReport", "SensorNetwork", "SensorNode", "StabilityParams", "StructuralMatrix",
    "Trajectory", "backend_name", "beta_hat",
    "builtin_system", "check_bound", "delay_steps", "derive_seed", "export_csv",
    "fuse", "gamma_hat", "greedy_select", "i_tilde", "is_effectively_singular",
    "is_structurally_observable", "kf_covariance_form", "load_config",
    "max_deviation", "measure", "monte_carlo", "mse", "node_init",
    "node_measurement_update", "node_time_update", "observer_gain", "psi",
    "resolve_delays", "run_experiment", "sample_network",
    "settling_index", "simulate", "stability_select", "structure_of",
    "transition_matrix",
]
