"""The benchmark's workloads: set-up, one experiment unit, and the outcome the
reference check compares.

Each workload has a pool of POOL experiment inputs, all derived from fixed
seeds so that their outputs could be recorded once (see record.py). The
workload seed picks the order in which a run visits the pool.

- greedy: configs/benchmark.cfg in mode greedy (2000 nodes, N=200, m=2,
  100 iterations, no jitter). Nearly all time is the 100 fused runs; the
  per-node stability machinery is never touched.
- stability-mc: criterion 8, the stability mode with jitter_std =
  sqrt(2 ts), through harness.monte_carlo (MC_RUNS runs per unit). Jitter
  makes resolve_delays rebuild all 2000 nodes.
- stability-m5: a 5-state plant from a generated transition table, 2000
  single-row sensors, stability mode, no jitter: the generic-m regime of the
  stability layer, where beta_hat_batch and i_tilde_matrices weigh most.

Import this module after metrics.pin_blas(): it imports numpy and dkfsim
from the checkout's src/.
"""

from __future__ import annotations

import csv
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import dkfsim  # noqa: E402
from dkfsim import harness  # noqa: E402
from dkfsim.config import load_config  # noqa: E402

from metrics import BLAS_VARS  # noqa: E402

NAMES = ("greedy", "stability-mc", "stability-m5")
POOL = 12
MC_RUNS = 2
M5_STATES = 5
CONFIG = ROOT / "configs" / "benchmark.cfg"
WORK = ROOT / ".perfbench"
REFERENCE = Path(__file__).resolve().parent / "reference"


@dataclass
class Workload:
    name: str
    configs: list  # one ExperimentConfig per pool entry
    out_dir: Path

    def run(self, entry: int):
        """Run pool entry `entry`; returns (seconds in the program, one outcome
        dict per experiment). Only the harness call is timed."""
        cfg = self.configs[entry]
        shutil.rmtree(self.out_dir, ignore_errors=True)  # no stale file can pass the check
        t0 = time.perf_counter()
        if self.name == "stability-mc":
            harness.monte_carlo(cfg, runs=MC_RUNS, out_dir=self.out_dir)
            seconds = time.perf_counter() - t0
            return seconds, _mc_outcomes(self.out_dir)
        result = harness.run_experiment(cfg, out_dir=self.out_dir)
        seconds = time.perf_counter() - t0
        rep = result.report(cfg.mode)
        out = {"selected": id_mask(result.selected_nodes[cfg.mode]), "mse": rep.mse, "md": rep.md}
        if cfg.mode == "greedy":
            out["rows"] = _csv_rows(self.out_dir / "greedy_report.csv")
        return seconds, [out]


def setup(name: str) -> Workload:
    """Load the config and make the workload's input files."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}")
    base = load_config(CONFIG)
    work = WORK / name
    if name == "greedy":
        configs = [replace(base, mode="greedy", jitter_std=0.0, seed=i) for i in range(POOL)]
    elif name == "stability-mc":
        configs = [replace(base, mode="stability", jitter_std=math.sqrt(2 * base.ts), seed=i)
                   for i in range(POOL)]
    else:
        (work / "inputs").mkdir(parents=True, exist_ok=True)
        configs = []
        for i in range(POOL):
            table = work / "inputs" / f"transition_{i:02d}.txt"
            write_table(table, m5_transitions(i, base.horizon))
            configs.append(replace(
                base, mode="stability", jitter_std=0.0, seed=i, state_dim=M5_STATES,
                x0=(1.0,) * M5_STATES, transition=f"table:{table}",
            ))
    return Workload(name, configs, work / "out")


def m5_transitions(entry: int, n_steps: int) -> list:
    """n_steps matrices 0.9 randn / sqrt(5) with |det| > 0.05: trajectories stay
    finite and the stability selection admits nodes."""
    rng = np.random.default_rng([M5_STATES, entry])
    mats = []
    while len(mats) < n_steps:
        a = 0.9 * rng.standard_normal((M5_STATES, M5_STATES)) / math.sqrt(M5_STATES)
        if abs(np.linalg.det(a)) > 0.05:
            mats.append(a)
    return mats


def write_table(path: Path, mats):
    blocks = ("\n".join(" ".join(f"{v:.17g}" for v in row) for row in a) for a in mats)
    path.write_text("\n\n".join(blocks) + "\n", encoding="utf-8")


def id_mask(ids) -> str:
    """Node ids 1..n as a hex bit mask (bit i-1 set for id i)."""
    return format(sum(1 << (int(i) - 1) for i in ids), "x")


def _csv_rows(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return [[_number(v) for v in row] for row in rows[1:]]


def _number(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def _mc_outcomes(out_dir: Path) -> list:
    """Per run: failed flag, metrics from montecarlo_runs.csv, admitted ids."""
    with open(out_dir / "montecarlo_runs.csv", newline="", encoding="utf-8") as fh:
        runs = list(csv.DictReader(fh))
    outcomes = []
    for row in runs:
        failed = row["failed"] == "1"
        ids = [] if failed else _admitted(out_dir / f"run_{int(row['run']):03d}")
        outcomes.append({
            "failed": failed, "selected": id_mask(ids),
            "mse": float(row["mse"]), "md": float(row["md"]),
        })
    return outcomes


def _admitted(run_dir: Path) -> list:
    with open(run_dir / "stability_report.csv", newline="", encoding="utf-8") as fh:
        return [r["node_id"] for r in csv.DictReader(fh) if r["selected"] == "1"]


def stamp(seed=None) -> dict:
    """Environment a result was taken in; results from different backends do not compare."""
    commit = "unknown"  # the benchmark's checkout need not be a git repository
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "backend": dkfsim.backend_name(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "seed": seed,
        "commit": commit,
    }
