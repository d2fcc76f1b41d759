#!/usr/bin/env python3
"""Benchmark the compiled kernel backend against the pure-numpy fallback.

Times the two hot kernels on benchmark-scenario shapes (2000 nodes, 200-500
steps) plus full stability and greedy experiments, and prints a comparison
table. The fused
recursion is timed as a greedy sweep runs it: CHAINS chains, in one batched
numpy call, against one compiled single-chain call per chain. The m = 2
closed-form node histories, which every backend runs for two-state plants,
are timed next to both generic kernels.

Usage: python benchmarks/backend_bench.py [--nodes N] [--steps K] [--repeat R]
"""

import argparse
import tempfile
import time
from dataclasses import replace

import numpy as np

from dkfsim import _kernels
from dkfsim._kernels import _pure
from dkfsim.config import ExperimentConfig
from dkfsim.harness import run_experiment
from dkfsim.model import builtin_system, robust_inverse, transition_sequence

CHAINS = 100  # subsets in one greedy sweep (benchmark.cfg iterations)


def timeit(fn, repeat):
    best = np.inf
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=2000)
    parser.add_argument("--steps", type=int, default=500)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    backends = {"python": _pure}
    if _kernels._core is not None:
        backends["compiled"] = _kernels._core
    else:
        print("compiled backend not built; benchmarking pure python only")

    sys_ = builtin_system()
    rng = np.random.default_rng(0)
    a_inv = np.ascontiguousarray(
        [robust_inverse(a)[0] for a in transition_sequence(sys_, args.steps)]
    )
    q_inv = np.linalg.inv(sys_.process_noise_cov)
    rows = rng.integers(0, 2, args.nodes)
    l_all = np.zeros((args.nodes, 2, 2))
    l_all[np.arange(args.nodes), rows, rows] = 1.0 / np.maximum(
        rng.uniform(0.0, 0.5, args.nodes), 1e-6
    )
    info0 = np.zeros_like(l_all)
    # chain b sums a shrinking share of the nodes, like a greedy sweep
    counts = np.linspace(args.nodes, 1, CHAINS).astype(int)
    info_inc = np.stack([
        np.broadcast_to(l_all[:c].sum(axis=0), (args.steps + 1, 2, 2)) for c in counts
    ])
    iv_inc = rng.standard_normal((CHAINS, args.steps + 1, 2))
    prior = (np.zeros((2, 2)), np.zeros(2))

    def fused(mod):
        if mod is _pure:
            return lambda: _pure.fused_info_recursion(a_inv, q_inv, info_inc, iv_inc, *prior)
        return lambda: [mod.fused_info_recursion(a_inv, q_inv, info_inc[b], iv_inc[b], *prior)
                        for b in range(CHAINS)]

    print(f"{args.nodes} nodes, {args.steps} steps, {CHAINS} fused chains, "
          f"best of {args.repeat}\n")
    print(f"{'kernel':<28} {'python':>12} {'compiled':>12} {'speedup':>9}")
    results = {}
    for name, mod in backends.items():
        results[name] = {
            "node_info_histories": timeit(
                lambda: mod.node_info_histories(a_inv, q_inv, l_all, info0), args.repeat
            ),
            "fused_info_recursion": timeit(fused(mod), args.repeat),
        }
    for kernel in ("node_info_histories", "fused_info_recursion"):
        py = results["python"][kernel]
        if "compiled" in results:
            cy = results["compiled"][kernel]
            print(f"{kernel:<28} {py * 1e3:>10.1f}ms {cy * 1e3:>10.1f}ms {py / cy:>8.1f}x")
        else:
            print(f"{kernel:<28} {py * 1e3:>10.1f}ms {'-':>12} {'-':>9}")

    closed = timeit(
        lambda: _pure.node_info_histories_2x2(a_inv, q_inv, l_all, info0), args.repeat
    )
    versus = ", ".join(f"{results[name]['node_info_histories'] / closed:.1f}x faster than {name}"
                       for name in results)
    print(f"{'node_info_histories_2x2':<28} {closed * 1e3:>10.1f}ms  ({versus})")

    # end-to-end: every backend runs the m = 2 closed form, so for this
    # two-state plant the backend moves nothing; the greedy sweep always runs
    # the batched numpy recursion
    print()
    cfg = ExperimentConfig(seed=0, n_sensors=args.nodes, horizon=min(args.steps, 200))
    previous = _kernels.get_backend()
    try:
        with tempfile.TemporaryDirectory() as out:
            for name in backends:
                _kernels.use_backend(name)
                t = timeit(lambda: run_experiment(replace(cfg, mode="stability"), out), 1)
                print(f"stability experiment ({name:<8}) {t:8.2f}s")
            t = timeit(lambda: run_experiment(replace(cfg, mode="greedy"), out), 1)
            print(f"greedy experiment    (any)      {t:8.2f}s")
    finally:
        _kernels._active = previous

if __name__ == "__main__":
    main()
