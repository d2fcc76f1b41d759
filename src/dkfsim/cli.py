"""Command-line interface.

Subcommands: simulate, select-greedy, select-stability, montecarlo,
observability-check. Exit codes: 0 success, 1 validation error, 2 I/O error,
3 numeric failure, 64 usage error (a flag or argument the subcommand does not
take).
"""

from __future__ import annotations

import argparse
import logging
import sys

import numpy as np

from .config import ExperimentConfig, load_config
from .errors import ConfigError, NumericError
from .harness import make_rng, make_network, make_system, monte_carlo, run_experiment
from .observability import is_structurally_observable, structure_of, union_structure

log = logging.getLogger("dkfsim")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_NUMERIC = 3
EXIT_USAGE = 64  # sysexits.h EX_USAGE; argparse's own 2 would read as EXIT_IO


def _add_common(parser):
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--seed", type=int, help="base RNG seed (overrides config)")
    parser.add_argument("--horizon", type=int, help="number of filter steps N (overrides config)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dkfsim",
        description="Delay-aware distributed Kalman filtering and sensor subset selection",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, descr in (
        ("simulate", "run the DKF over a fixed subset (default: all nodes) and write the trace"),
        ("select-greedy", "run the greedy threshold sweep and report per-iteration metrics"),
        ("select-stability", "run the stability-criterion selection and report per-node outcomes"),
        ("montecarlo", "repeat the configured experiment over derived seeds and aggregate"),
        ("observability-check", "print the structural-observability verdict and certificate"),
    ):
        p = sub.add_parser(name, help=descr)
        _add_common(p)
        if name != "observability-check":
            p.add_argument("--out", help="output directory (overrides config)")
        if name == "montecarlo":
            p.add_argument("--runs", type=int, help="Monte Carlo run count (overrides config)")
        if name == "select-greedy":
            p.add_argument("--iterations", type=int, help="threshold sweep length")
    return parser


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    if args.horizon is not None:
        cfg.horizon = args.horizon
    for flag in ("out", "runs", "iterations"):  # registered only where they apply
        if getattr(args, flag, None) is not None:
            setattr(cfg, flag, getattr(args, flag))
    return cfg


def _print_report(label, report):
    print(f"{label}: {report.n_selected} nodes, MSE={report.mse:.6g}, MD={report.md:.6g}")


def _cmd_simulate(cfg):
    cfg.mode = "fixed-subset"
    result = run_experiment(cfg)
    _print_report("fixed subset", result.report("fixed-subset"))
    for path in result.files:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_greedy(cfg):
    cfg.mode = "greedy"
    result = run_experiment(cfg)
    best = result.report("greedy")
    print(f"best iteration: {best.iteration} (R0={best.thresholds[0]:.6g}, "
          f"tau0={best.thresholds[1]:.6g})")
    _print_report("best subset", best)
    for path in result.files:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_stability(cfg):
    cfg.mode = "stability"
    result = run_experiment(cfg)
    report = result.report("stability")
    if report.ran:
        _print_report("stability subset", report)
    else:
        print("stability selection returned no nodes")
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
    cfg.validate()
    sys_ = make_system(cfg)
    rng = make_rng(cfg.seed)
    network = make_network(cfg, rng)
    a_bar = union_structure(sys_, cfg.horizon)
    h_bars = [structure_of(network.h[i, :q]) for i, q in enumerate(network.rows)]
    observable, certificate = is_structurally_observable(a_bar, h_bars)
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
        handler = {
            "simulate": _cmd_simulate,
            "select-greedy": _cmd_greedy,
            "select-stability": _cmd_stability,
            "montecarlo": _cmd_montecarlo,
            "observability-check": _cmd_observability,
        }[args.command]
        return handler(cfg)
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
