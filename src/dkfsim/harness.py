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
    best_report,
    greedy_select,
    max_deviation,
    mse,
    mse_raw,
    settling_index,
    stability_select,
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


_FORMATS = {
    bool: lambda v: "1" if v else "0",
    int: lambda v: str(int(v)),
    float: lambda v: f"{float(v):.17g}",
    str: str,
}


def _kind(t) -> type:
    """The CSV format a value of type t takes: bool, int, float or str."""
    if issubclass(t, (bool, np.bool_)):
        return bool
    if issubclass(t, (int, np.integer)):
        return int
    if issubclass(t, (float, np.floating)):
        return float
    return str


def _format_column(values) -> list:
    """Text of one CSV column; a column of one kind picks its format once."""
    kinds = {_kind(t) for t in set(map(type, values))}
    if len(kinds) == 1:
        return list(map(_FORMATS[kinds.pop()], values))
    return [_FORMATS[_kind(type(v))](v) for v in values]


def export_csv(records, path, columns=None) -> Path:
    """Write dict records as RFC-4180-style CSV: header row, CRLF, '.' decimals,
    floats at full double precision (17 significant digits)."""
    path = Path(path)
    if columns is None:
        if not records:
            raise ConfigError("export_csv needs explicit columns for an empty record list")
        columns = list(records[0].keys())
    text = [_format_column([rec[c] for rec in records]) for c in columns]
    lines = [",".join(columns), *map(",".join, zip(*text))]
    path.write_text("\r\n".join(lines) + "\r\n", encoding="utf-8")
    return path


def trace_records(truth_states, xhat, info_hist):
    """Rows for the run trace CSV: k, x_true_*, x_hat_*, trace_info."""
    m = truth_states.shape[1]
    records = []
    traces = np.trace(info_hist, axis1=1, axis2=2)
    for k in range(truth_states.shape[0]):
        rec = {"k": k}
        for j in range(m):
            rec[f"x_true_{j + 1}"] = truth_states[k, j]
        for j in range(m):
            rec[f"x_hat_{j + 1}"] = xhat[k, j]
        rec["trace_info"] = traces[k]
        records.append(rec)
    return records


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


def _metrics_report(engine: DkfEngine, subset, xhat, band: float) -> SelectionReport:
    settle = settling_index(engine.truth, band)
    return SelectionReport(
        nodes=frozenset(int(i) for i in subset),
        mse=mse(xhat, engine.truth, settle),
        md=max_deviation(xhat, engine.truth),
        mse_raw=mse_raw(xhat, engine.truth, settle),
    )


def _write_trace(engine: DkfEngine, info_hist, xhat, path: Path):
    return export_csv(trace_records(engine.truth.states, xhat, info_hist), path)


def greedy_records(reports) -> list:
    return [
        {
            "iteration": r.iteration,
            "r0": r.thresholds[0],
            "tau0": r.thresholds[1],
            "n_selected": r.n_selected,
            "mse": r.mse,
            "md": r.md,
            "mse_raw": r.mse_raw,
        }
        for r in reports
    ]


def stability_records(rows) -> list:
    return [
        {
            "node_id": r.node_id,
            "selected": r.selected,
            "ct_exp": r.ct_exp,
            "ct_act": r.ct_act,
            "delay_s": r.delay_s,
            "variance": r.variance,
        }
        for r in rows
    ]


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
    result = ExperimentResult()

    modes = ("fixed-subset", "greedy", "stability") if cfg.mode == "all" else (cfg.mode,)

    if "fixed-subset" in modes:
        subset = cfg.subset_ids(network)
        info_hist, _, xhat, _ = engine.fused_run(subset)
        result.reports["fixed-subset"] = _metrics_report(engine, subset, xhat, cfg.band)
        result.selected_nodes["fixed-subset"] = sorted(subset)
        result.files.append(_write_trace(engine, info_hist, xhat, out / "trace_fixed.csv"))

    if "greedy" in modes:
        reports = greedy_select(
            engine, cfg.iterations,
            r_max=cfg.variance_range[1], tau_max=cfg.delay_range[1], band=cfg.band,
        )
        result.files.append(export_csv(greedy_records(reports), out / "greedy_report.csv"))
        best = best_report(reports)
        if best is None:
            raise ConfigError("no greedy iteration produced a non-empty subset")
        result.reports["greedy"] = best
        result.selected_nodes["greedy"] = sorted(best.nodes)
        info_hist, _, xhat, _ = engine.fused_run(sorted(best.nodes))
        result.files.append(_write_trace(engine, info_hist, xhat, out / "trace_greedy_best.csv"))

    if "stability" in modes:
        params = compute_params(
            engine.scenario,
            k_bar=cfg.k_bar, alpha=cfg.alpha, beta_hat_override=cfg.beta_hat_override,
        )
        selected, rows = stability_select(engine.scenario, params)
        result.files.append(export_csv(stability_records(rows), out / "stability_report.csv"))
        result.selected_nodes["stability"] = sorted(selected)
        if selected:
            info_hist, _, xhat, _ = engine.fused_run(sorted(selected))
            result.reports["stability"] = _metrics_report(engine, selected, xhat, cfg.band)
            result.files.append(_write_trace(engine, info_hist, xhat, out / "trace_stability.csv"))
        else:
            log.warning("stability selection returned no nodes")
            result.reports["stability"] = SelectionReport(
                nodes=frozenset(), mse=float("nan"), md=float("nan")
            )
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
    run_records = []
    summary = MonteCarloSummary([], [], [], [])
    for idx in range(runs):
        run_cfg = replace(cfg, mode=mode, seed=int(derive_seed(cfg.seed, idx).generate_state(1)[0]))
        rec = {"run": idx, "seed": run_cfg.seed, "failed": False,
               "n_selected": 0, "mse": float("nan"), "md": float("nan")}
        try:
            res = run_experiment(run_cfg, out_dir=out / f"run_{idx:03d}")
            rep = res.report(mode)
            rec.update(n_selected=rep.n_selected, mse=rep.mse, md=rep.md)
            if rep.ran:
                summary.mse_values.append(rep.mse)
                summary.md_values.append(rep.md)
                summary.node_counts.append(rep.n_selected)
            else:
                rec["failed"] = True
                summary.failed_runs.append(idx)
        except (ConfigError, ArithmeticError, np.linalg.LinAlgError) as exc:
            log.warning("monte carlo run %d failed: %s", idx, exc)
            rec["failed"] = True
            summary.failed_runs.append(idx)
        run_records.append(rec)
    export_csv(run_records, out / "montecarlo_runs.csv",
               columns=["run", "seed", "failed", "n_selected", "mse", "md"])
    export_csv([summary.stats()], out / "montecarlo_summary.csv")
    return summary
