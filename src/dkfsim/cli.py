"""Command-line interface: one subcommand per COMMANDS entry.

Exit codes: 0 success, 1 validation error, 2 I/O error, 3 numeric failure,
64 usage error (a flag or argument the subcommand does not take).
"""

from __future__ import annotations

import argparse
import logging
import sys

import numpy as np

from .config import _FIELD_TYPES, ExperimentConfig, load_config
from .errors import ConfigError, NumericError
from .harness import make_rng, make_network, make_system, monte_carlo, run_experiment
from .observability import is_structurally_observable, union_structure

log = logging.getLogger("dkfsim")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_NUMERIC = 3
EXIT_USAGE = 64  # sysexits.h EX_USAGE; argparse's own 2 would read as EXIT_IO

# each flag past --config overrides the config key of its name
FLAG_HELP = {
    "seed": "base RNG seed (overrides config)",
    "horizon": "number of filter steps N (overrides config)",
    "out": "output directory (overrides config)",
    "runs": "Monte Carlo run count (overrides config)",
    "iterations": "threshold sweep length",
}

# subcommand: its help, the flags it takes past --config, --seed and --horizon
# (which every subcommand takes), and, for one run_experiment, the mode it runs
# and the label of that mode's outcome line
COMMANDS = {
    "simulate": ("run the DKF over a fixed subset (default: all nodes) and write the trace",
                 ("out",), "fixed-subset", "fixed subset"),
    "select-greedy": ("run the greedy threshold sweep and report per-iteration metrics",
                      ("out", "iterations"), "greedy", "best subset"),
    "select-stability": ("run the stability-criterion selection and report per-node outcomes",
                         ("out",), "stability", "stability subset"),
    "montecarlo": ("repeat the configured experiment over derived seeds and aggregate",
                   ("out", "runs"), None, None),
    "observability-check": ("print the structural-observability verdict and certificate",
                            (), None, None),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dkfsim",
        description="Delay-aware distributed Kalman filtering and sensor subset selection",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (descr, flags, _, _) in COMMANDS.items():
        p = sub.add_parser(name, help=descr)
        p.add_argument("--config", help="path to a key = value config file")
        for key in ("seed", "horizon", *flags):
            p.add_argument(f"--{key}", type=_FIELD_TYPES[key], help=FLAG_HELP[key])
    return parser


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    for key in FLAG_HELP:  # a subcommand registers only the flags it takes
        if getattr(args, key, None) is not None:
            setattr(cfg, key, getattr(args, key))
    return cfg


def _cmd_run(cfg, command):
    """One run_experiment in the subcommand's mode, and its outcome."""
    _, _, cfg.mode, label = COMMANDS[command]
    result = run_experiment(cfg)
    report = result.report(cfg.mode)
    if cfg.mode == "greedy" and report.n_selected:
        print(f"best iteration: {report.iteration} (R0={report.r0:.6g}, tau0={report.tau0:.6g})")
    if report.n_selected:
        print(f"{label}: {report.n_selected} nodes, MSE={report.mse:.6g}, MD={report.md:.6g}")
    else:
        print(f"{cfg.mode} selection returned no nodes")
    for path in result.files:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_montecarlo(cfg):
    summary = monte_carlo(cfg)
    stats = summary.stats()
    print(f"runs: {summary.runs} ({len(summary.failed_runs)} failed)")
    for key, value in stats.items():
        print(f"{key}: {value:.6g}")
    return EXIT_NUMERIC if summary.failed_runs else EXIT_OK


def _cmd_observability(cfg):
    cfg.validate(mode=None)  # reads the plant, the network and the horizon only
    sys_ = make_system(cfg)
    rng = make_rng(cfg.seed)
    network = make_network(cfg, rng)
    a_bar = union_structure(sys_, cfg.horizon)
    h_bar = np.eye(network.state_dim, dtype=bool)[network.state]  # one basis row per node
    observable, certificate = is_structurally_observable(a_bar, h_bar)
    print(certificate)
    return EXIT_OK


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        cfg = _load(args)
        if args.command == "montecarlo":
            return _cmd_montecarlo(cfg)
        if args.command == "observability-check":
            return _cmd_observability(cfg)
        return _cmd_run(cfg, args.command)
    except ConfigError as exc:
        log.error("invalid configuration: %s", exc)
        return EXIT_CONFIG
    except OSError as exc:
        log.error("I/O failure: %s", exc)
        return EXIT_IO
    except (NumericError, np.linalg.LinAlgError) as exc:
        log.error("numeric failure: %s", exc)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
