"""Experiment driver: deterministic seeding, end-to-end pipelines per selection
mode, the Monte Carlo loop, and CSV export.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import MODES, ExperimentConfig
from .dkf import DkfEngine
from .errors import ConfigError
from .model import LtvSystem, builtin_system, load_matrix_table
from .sensing import SensorNetwork, load_network, resolve_delays, sample_network
from .selection import greedy_select, greedy_sweep, scores, settling_index, stability_select
from .stability import compute_params

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Seeding
# ---------------------------------------------------------------------------


def derive_seed(base_seed: int, run_index: int) -> np.random.SeedSequence:
    """Stable per-run seed: SeedSequence(entropy=base_seed, spawn_key=(run_index,))."""
    return np.random.SeedSequence(entropy=base_seed, spawn_key=(run_index,))


def make_rng(base_seed: int) -> np.random.Generator:
    return np.random.default_rng(derive_seed(base_seed, 0))


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


# printf conversion of each column dtype kind: bool as 1/0, integers in
# decimal, floats at full double precision (17 significant digits), strings
# as they are
_FORMATS = {"b": "%d", "i": "%d", "u": "%d", "f": "%.17g", "U": "%s"}
_NEEDS_QUOTES = frozenset(',"\r\n')  # what an unquoted CSV field cannot hold


def export_csv(table, path) -> Path:
    """Write a structured array as RFC-4180-style CSV, making its directory if
    needed: a header row of its field names, CRLF line ends, '.' decimals; each
    row is one % template of its columns' conversions, chosen by dtype kind
    (bool, integer, float or string). No field is quoted, so a string holding a
    comma, a double quote, CR or LF raises ValueError naming its field."""
    path = Path(path)
    names = table.dtype.names
    for c in names:
        if table.dtype[c].kind == "U" and any(_NEEDS_QUOTES.intersection(v)
                                              for v in table[c].tolist()):
            raise ValueError(f"field {c!r} holds a string with a comma, quote, CR or LF, "
                             "which export_csv does not quote")
    row = ",".join(_FORMATS[table.dtype[c].kind] for c in names)
    lines = [",".join(names), *map(row.__mod__, table.tolist())]
    path.parent.mkdir(parents=True, exist_ok=True)
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


# one record per selection mode that ran: its subset size and metrics. A mode
# that selected nothing holds n_selected 0 and NaN metrics; iteration, r0 and
# tau0 name greedy's best sweep record (0 and NaN elsewhere).
# The mode field fits the longest mode name, so no name is stored truncated
OUTCOME = np.dtype([
    ("mode", f"U{max(map(len, MODES))}"), ("n_selected", np.int64), ("mse", float), ("md", float),
    ("mse_raw", float), ("iteration", np.int64), ("r0", float), ("tau0", float),
])


@dataclass
class ExperimentResult:
    """One OUTCOME record per executed mode, the selected ids per mode, and
    every file written."""

    outcomes: np.recarray
    selected_nodes: dict
    files: list

    def report(self, mode: str) -> np.record:
        return {rec.mode: rec for rec in self.outcomes}[mode]


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> ExperimentResult:
    """Execute the configured pipeline end-to-end; deterministic per seed."""
    cfg.validate()
    out = Path(out_dir if out_dir is not None else cfg.out)
    rng = make_rng(cfg.seed)
    sys_ = make_system(cfg)
    network = make_network(cfg, rng)
    network = resolve_delays(network, rng)
    engine = DkfEngine(sys_, network, cfg.horizon, rng)
    settle = settling_index(engine.truth, cfg.band)  # the first step every MSE counts
    outcomes, selected_nodes, files = [], {}, []
    for mode in ("fixed-subset", "greedy", "stability") if cfg.mode == "all" else (cfg.mode,):
        # each mode gives its sorted ids and trace name and writes its own report
        if mode == "fixed-subset":
            ids, name = sorted(set(cfg.subset_ids(network))), "trace_fixed.csv"
        elif mode == "greedy":
            sweep = greedy_sweep(engine, cfg.iterations,
                                 r_max=cfg.variance_range[1], tau_max=cfg.delay_range[1])
            report = greedy_select(sweep, engine.truth, settle)
            files.append(export_csv(report, out / "greedy_report.csv"))
            # the first of tied minima, an empty record's NaN counted as +inf:
            # a sweep that ran nothing gives its first record, which is empty
            best = np.where(np.isnan(report.mse), np.inf, report.mse).argmin()
            ids = (np.flatnonzero(sweep.masks[best]) + 1).tolist()
            name = "trace_greedy_best.csv"
        else:
            params = compute_params(k_bar=cfg.k_bar, alpha=cfg.alpha)
            selected, report = stability_select(engine, params)
            files.append(export_csv(report, out / "stability_report.csv"))
            ids, name = sorted(selected), "trace_stability.csv"
        selected_nodes[mode] = ids
        if not ids:  # validate refuses an empty fixed subset
            log.warning("%s selection returned no nodes", mode)
            outcomes.append((mode, 0, np.nan, np.nan, np.nan, 0, np.nan, np.nan))
            continue
        if mode == "greedy":  # the best record's own run, which its metrics score
            info_hist, xhat = sweep.run(best)
            rec = report[best]
            outcomes.append((mode, rec.n_selected, rec.mse, rec.md, rec.mse_raw,
                             rec.iteration, rec.r0, rec.tau0))
        else:
            info_hist, _, xhat, _ = engine.fused_run(network.mask(ids))
            outcomes.append((mode, len(ids), *scores(xhat, engine.truth, settle),
                             0, np.nan, np.nan))
        files.append(export_csv(_trace_table(engine.truth, xhat, info_hist), out / name))
    return ExperimentResult(np.rec.fromrecords(outcomes, dtype=OUTCOME), selected_nodes, files)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


# one record per Monte Carlo run: the columns of montecarlo_runs.csv. A run
# fails when it raises a numeric error or its selection comes back empty; it
# then holds n_selected 0 and NaN metrics
MC_RUN = np.dtype([("run", np.int64), ("seed", np.int64), ("failed", bool),
                   ("n_selected", np.int64), ("mse", float), ("md", float)])


@dataclass
class MonteCarloSummary:
    """The per-run MC_RUN table and the means/variances (population variance)
    of its runs that did not fail."""

    table: np.recarray

    @property
    def runs(self) -> int:
        return len(self.table)

    @property
    def failed_runs(self) -> list:
        return self.table.run[self.table.failed].tolist()

    def stats(self) -> dict:
        ok = self.table[~self.table.failed]
        stats = {}
        for key, column in (("mse", "mse"), ("md", "md"), ("nodes", "n_selected")):
            values = ok[column].astype(float)
            mean, var = (values.mean(), values.var()) if values.size else (np.nan, np.nan)
            stats[f"{key}_mean"], stats[f"{key}_var"] = float(mean), float(var)
        return stats


def monte_carlo(cfg: ExperimentConfig, runs: int | None = None, out_dir=None) -> MonteCarloSummary:
    """Repeat run_experiment with per-run derived seeds and aggregate the metrics.

    A run fails on a numeric error or an empty selection and is recorded and
    skipped in the aggregates; a ConfigError, which no draw decides, raises
    from the first run. Writes montecarlo_runs.csv and montecarlo_summary.csv.
    """
    mode = cfg.mode if cfg.mode != "all" else "stability"
    cfg.validate(mode)
    runs = cfg.runs if runs is None else runs
    if runs < 1:
        raise ConfigError("runs must be >= 1", keys=("runs",))
    out = Path(out_dir if out_dir is not None else cfg.out)
    summary = MonteCarloSummary(np.recarray(runs, dtype=MC_RUN))
    for idx in range(runs):
        run_cfg = replace(cfg, mode=mode, seed=int(derive_seed(cfg.seed, idx).generate_state(1)[0]))
        try:
            rep = run_experiment(run_cfg, out_dir=out / f"run_{idx:03d}").report(mode)
            row = (rep.n_selected, rep.mse, rep.md)
        except (ArithmeticError, np.linalg.LinAlgError) as exc:
            log.warning("monte carlo run %d failed: %s", idx, exc)
            row = (0, np.nan, np.nan)
        summary.table[idx] = (idx, run_cfg.seed, np.isnan(row[1]), *row)
    export_csv(summary.table, out / "montecarlo_runs.csv")
    export_csv(_table(**{k: [v] for k, v in summary.stats().items()}),
               out / "montecarlo_summary.csv")
    return summary
