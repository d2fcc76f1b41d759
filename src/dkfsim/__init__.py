"""Delay-aware distributed Kalman filtering for linear time-varying systems.

Per-sensor information filters feed a fusion estimator through delayed
channels; two subset-selection algorithms (a greedy threshold sweep and a
stability-criterion check) pick which sensors to fuse. The hot recursions run
in numpy, batched across nodes and subsets (dkfsim._kernels).
"""

from ._kernels import backend_name
from .config import ExperimentConfig, load_config
from .dkf import DkfEngine, Scenario
from .harness import MonteCarloSummary, derive_seed, export_csv, monte_carlo, run_experiment
from .model import (
    LtvSystem,
    builtin_system,
    is_effectively_singular,
    simulate,
    transition_matrix,
)
from .observability import StructuralMatrix, is_structurally_observable, structure_of
from .sensing import DelaySpec, SensorNetwork, SensorNode, resolve_delays, sample_network
from .selection import (
    SelectionReport,
    greedy_select,
    max_deviation,
    mse,
    settling_index,
    stability_select,
)
from .stability import StabilityParams

__version__ = "0.1.0"

__all__ = [
    "DelaySpec", "DkfEngine", "ExperimentConfig", "LtvSystem", "MonteCarloSummary",
    "Scenario", "SelectionReport", "SensorNetwork", "SensorNode", "StabilityParams",
    "StructuralMatrix", "backend_name", "builtin_system", "derive_seed", "export_csv",
    "greedy_select", "is_effectively_singular", "is_structurally_observable", "load_config",
    "max_deviation", "monte_carlo", "mse", "resolve_delays", "run_experiment",
    "sample_network", "settling_index", "simulate", "stability_select", "structure_of",
    "transition_matrix",
]
