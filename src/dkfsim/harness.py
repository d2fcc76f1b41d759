"""Experiment driver: deterministic seeding, end-to-end pipelines per selection
mode, the Monte Carlo loop, and CSV export.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .dkf import DkfEngine
from .errors import ConfigError
from .model import LtvSystem, builtin_system, load_matrix_table
from .sensing import SensorNetwork, load_network, resolve_delays, sample_network
from .selection import (
    SelectionReport,
    greedy_select,
    max_deviation,
    mse,
    mse_raw,
    settling_index,
    stability_select,
    sweep_masks,
)
from .stability import compute_params

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Seeding
# ---------------------------------------------------------------------------


def derive_seed(base_seed: int, run_index: int) -> np.random.SeedSequence:
    """Stable per-run seed: SeedSequence(entropy=base_seed, spawn_key=(run_index,))."""
    return np.random.SeedSequence(entropy=base_seed, spawn_key=(run_index,))


def make_rng(base_seed: int, run_index: int = 0) -> np.random.Generator:
    return np.random.default_rng(derive_seed(base_seed, run_index))


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


# str.format spec of each column dtype kind: bool as 1/0, integers in decimal,
# floats at full double precision (17 significant digits)
_FORMATS = {"b": "{:d}", "i": "{:d}", "u": "{:d}", "f": "{:.17g}"}


def export_csv(table, path) -> Path:
    """Write a structured array as RFC-4180-style CSV: a header row of its
    field names, CRLF line ends, '.' decimals; each column is formatted once,
    by its dtype kind (bool, integer or float)."""
    path = Path(path)
    names = table.dtype.names
    text = [map(_FORMATS[table.dtype[c].kind].format, table[c].tolist()) for c in names]
    lines = [",".join(names), *map(",".join, zip(*text))]
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
    return path


def _table(**columns) -> np.recarray:
    """A record array with one field per keyword, in keyword order."""
    return np.rec.fromarrays(list(columns.values()), names=list(columns))


def _trace_table(truth, xhat, info_hist) -> np.recarray:
    """The run trace: k, x_true_1..m, x_hat_1..m, trace_info."""
    m = truth.shape[1]
    return _table(
        k=np.arange(truth.shape[0]),
        **{f"x_true_{j + 1}": truth[:, j] for j in range(m)},
        **{f"x_hat_{j + 1}": xhat[:, j] for j in range(m)},
        trace_info=np.trace(info_hist, axis1=1, axis2=2),
    )


# ---------------------------------------------------------------------------
# Pipeline pieces
# ---------------------------------------------------------------------------


def make_system(cfg: ExperimentConfig) -> LtvSystem:
    if cfg.transition == "builtin":
        return builtin_system(q_scale=cfg.q_scale, ts=cfg.ts, x0=cfg.x0)
    table = load_matrix_table(cfg.transition.split(":", 1)[1])
    return LtvSystem(
        state_dim=cfg.state_dim,
        transition=table,
        process_noise_cov=cfg.q_scale * np.eye(cfg.state_dim),
        initial_state=np.asarray(cfg.x0, dtype=float),
        sample_time=cfg.ts,
    )


def make_network(cfg: ExperimentConfig, rng: np.random.Generator) -> SensorNetwork:
    if cfg.network_file:
        return load_network(cfg.network_file, state_dim=cfg.state_dim)
    return sample_network(
        cfg.n_sensors,
        cfg.variance_range,
        cfg.delay_range,
        rng,
        state_dim=cfg.state_dim,
        jitter_std=cfg.jitter_std,
    )


def _metrics_report(engine: DkfEngine, subset, xhat, settle: int) -> SelectionReport:
    return SelectionReport(
        nodes=frozenset(int(i) for i in subset),
        mse=mse(xhat, engine.truth, settle),
        md=max_deviation(xhat, engine.truth),
        mse_raw=mse_raw(xhat, engine.truth, settle),
    )


# the report of a selection that ran no estimator: no nodes, NaN metrics
_NOT_RUN = SelectionReport(nodes=frozenset(), mse=float("nan"), md=float("nan"))


@dataclass
class ExperimentResult:
    """Reports per executed mode plus every file written."""

    reports: dict = field(default_factory=dict)
    files: list = field(default_factory=list)
    selected_nodes: dict = field(default_factory=dict)

    def report(self, mode: str) -> SelectionReport:
        return self.reports[mode]


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> ExperimentResult:
    """Execute the configured pipeline end-to-end; deterministic per seed."""
    cfg.validate()
    out = Path(out_dir if out_dir is not None else cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    rng = make_rng(cfg.seed)
    sys_ = make_system(cfg)
    network = make_network(cfg, rng)
    network = resolve_delays(network, rng)
    engine = DkfEngine(sys_, network, cfg.horizon, rng)
    settle = settling_index(engine.truth, cfg.band)  # the first step every MSE counts
    result = ExperimentResult()

    modes = ("fixed-subset", "greedy", "stability") if cfg.mode == "all" else (cfg.mode,)

    if "fixed-subset" in modes:
        subset = cfg.subset_ids(network)
        info_hist, _, xhat, _ = engine.fused_run(subset)
        result.reports["fixed-subset"] = _metrics_report(engine, subset, xhat, settle)
        result.selected_nodes["fixed-subset"] = sorted(subset)
        result.files.append(export_csv(_trace_table(engine.truth, xhat, info_hist),
                                       out / "trace_fixed.csv"))

    if "greedy" in modes:
        report = greedy_select(
            engine, cfg.iterations,
            r_max=cfg.variance_range[1], tau_max=cfg.delay_range[1], settle=settle,
        )
        result.files.append(export_csv(report, out / "greedy_report.csv"))
        if np.isnan(report.mse).all():
            raise ConfigError("no greedy iteration produced a non-empty subset")
        best = report[np.nanargmin(report.mse)]  # the first of tied minima
        nodes = (np.flatnonzero(sweep_masks(network, best.r0, best.tau0)) + 1).tolist()
        result.reports["greedy"] = SelectionReport(
            nodes=frozenset(nodes), mse=best.mse, md=best.md, mse_raw=best.mse_raw,
            iteration=int(best.iteration), thresholds=(float(best.r0), float(best.tau0)),
        )
        result.selected_nodes["greedy"] = nodes
        info_hist, _, xhat, _ = engine.fused_run(nodes)
        result.files.append(export_csv(_trace_table(engine.truth, xhat, info_hist),
                                       out / "trace_greedy_best.csv"))

    if "stability" in modes:
        params = compute_params(
            engine.scenario,
            k_bar=cfg.k_bar, alpha=cfg.alpha, beta_hat_override=cfg.beta_hat_override,
        )
        selected, report = stability_select(engine.scenario, params)
        result.files.append(export_csv(report, out / "stability_report.csv"))
        result.selected_nodes["stability"] = sorted(selected)
        if selected:
            info_hist, _, xhat, _ = engine.fused_run(sorted(selected))
            result.reports["stability"] = _metrics_report(engine, selected, xhat, settle)
            result.files.append(export_csv(_trace_table(engine.truth, xhat, info_hist),
                                           out / "trace_stability.csv"))
        else:
            log.warning("stability selection returned no nodes")
            result.reports["stability"] = _NOT_RUN
    return result


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


@dataclass
class MonteCarloSummary:
    """Per-run metrics and their means/variances (population variance)."""

    mse_values: list
    md_values: list
    node_counts: list
    failed_runs: list

    @property
    def runs(self) -> int:
        return len(self.mse_values) + len(self.failed_runs)

    def stats(self) -> dict:
        def mean_var(values):
            if not values:
                return float("nan"), float("nan")
            arr = np.asarray(values, dtype=float)
            return float(arr.mean()), float(arr.var())

        mse_mean, mse_var = mean_var(self.mse_values)
        md_mean, md_var = mean_var(self.md_values)
        n_mean, n_var = mean_var(self.node_counts)
        return {
            "mse_mean": mse_mean,
            "mse_var": mse_var,
            "md_mean": md_mean,
            "md_var": md_var,
            "nodes_mean": n_mean,
            "nodes_var": n_var,
        }


def monte_carlo(cfg: ExperimentConfig, runs: int | None = None, out_dir=None) -> MonteCarloSummary:
    """Repeat run_experiment with per-run derived seeds and aggregate the metrics.

    Failed runs are recorded and skipped in the aggregates; callers decide the
    exit status. Writes montecarlo_runs.csv and montecarlo_summary.csv.
    """
    cfg.validate()
    runs = cfg.runs if runs is None else runs
    if runs < 1:
        raise ConfigError("runs must be >= 1", keys=("runs",))
    out = Path(out_dir if out_dir is not None else cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    mode = cfg.mode if cfg.mode != "all" else "stability"
    table = np.recarray(runs, dtype=[("run", np.int64), ("seed", np.int64), ("failed", bool),
                                     ("n_selected", np.int64), ("mse", float), ("md", float)])
    summary = MonteCarloSummary([], [], [], [])
    for idx in range(runs):
        run_cfg = replace(cfg, mode=mode, seed=int(derive_seed(cfg.seed, idx).generate_state(1)[0]))
        try:
            rep = run_experiment(run_cfg, out_dir=out / f"run_{idx:03d}").report(mode)
        except (ConfigError, ArithmeticError, np.linalg.LinAlgError) as exc:
            log.warning("monte carlo run %d failed: %s", idx, exc)
            rep = _NOT_RUN
        if rep.ran:
            summary.mse_values.append(rep.mse)
            summary.md_values.append(rep.md)
            summary.node_counts.append(rep.n_selected)
        else:
            summary.failed_runs.append(idx)
        table[idx] = (idx, run_cfg.seed, not rep.ran, rep.n_selected, rep.mse, rep.md)
    export_csv(table, out / "montecarlo_runs.csv")
    export_csv(_table(**{k: [v] for k, v in summary.stats().items()}),
               out / "montecarlo_summary.csv")
    return summary
