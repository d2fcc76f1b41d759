#!/usr/bin/env python3
"""dkfsim benchmark: one workload, end-to-end metrics or a traced per-layer pass.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload greedy --seed 1 --seconds 30 --trace 0

Workloads: greedy, stability-mc, stability-m5 (see workloads.py). The run
goes through the public API (harness.run_experiment / harness.monte_carlo),
single-process, with BLAS pinned to one thread. Every experiment's outputs
are checked against perfbench/reference/<workload>.json to 1e-12 relative;
an exception, a failed Monte Carlo run or a mismatch counts as a failure.

--trace 0 reports the end-to-end metrics:
  run_s        median time of one experiment (one run_experiment call; for
               stability-mc one Monte Carlo run, monte_carlo wall time over
               its run count)
  setup_s      median over fresh processes of import dkfsim + config + input
               files, up to the first experiment
  peak_rss_mb  peak resident memory of this process (getrusage)
Both times are wall times scaled to a nominal machine speed by a calibration
kernel timed next to each measurement (speed.py); the wall medians are
printed too.
--trace 1 runs each pool entry untraced and traced, in alternating order,
and reports the per-layer metrics of spans.LAYER_METRICS, the traced run_s
and the tracing overhead (median of traced minus untraced per entry).

The last line of stdout is one JSON object with correct, attempted, failed
and metrics. The full result, with its environment stamp, is written to
.perfbench/results/, and the spans of a traced pass next to it.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from metrics import failed_frac, mismatches, pin_blas, tail_percentile  # noqa: E402

SETUP_PROBES = 7
END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def probe_setup(workload: str) -> tuple:
    """(set-up seconds, calibration kernel seconds) of one fresh process (setup_probe.py)."""
    out = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload],
                         capture_output=True, text=True, timeout=120, check=True)
    setup_s, kernel_s = (float(v) for v in out.stdout.split()[-2:])
    return setup_s, kernel_s


def run_unit(wl, entry: int, expected: list):
    """Run one pool entry; returns (seconds per experiment, experiments, failed, problems)."""
    t0 = time.perf_counter()
    try:
        seconds, outcomes = wl.run(entry)
    except Exception:  # a failing experiment is counted, and the run goes on
        traceback.print_exc()
        seconds, outcomes = time.perf_counter() - t0, None
    n = len(expected)
    if outcomes is None:
        return seconds / n, n, n, [f"entry {entry}: exception"]
    if len(outcomes) != n:
        return seconds / n, n, n, [f"entry {entry}: {len(outcomes)} experiments, expected {n}"]
    failed, problems = 0, []
    for i, (ref, got) in enumerate(zip(expected, outcomes)):
        bad = mismatches(ref, got)
        if got.get("failed"):
            problems.append(f"entry {entry} run {i}: Monte Carlo run failed")
        elif bad:
            problems.append(f"entry {entry} experiment {i}: reference mismatch at {', '.join(bad[:5])}")
        failed += bool(got.get("failed") or bad)
    return seconds / n, n, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=("greedy", "stability-mc", "stability-m5"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dkfsim" / "__init__.py").is_file() \
            or not (ROOT / "configs" / "benchmark.cfg").is_file():
        print(f"perfbench: no dkfsim sources under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2

    pin_blas()
    setup_samples = [] if args.trace else [probe_setup(args.workload) for _ in range(SETUP_PROBES)]
    import spans
    import speed
    import workloads

    wl = workloads.setup(args.workload)
    reference = json.loads((workloads.REFERENCE / f"{args.workload}.json").read_text())
    expected = reference["entries"]
    order = list(range(workloads.POOL))
    random.Random(args.seed).shuffle(order)

    events = spans.LogEvents()
    tracer = spans.Tracer() if args.trace else None
    times, traced_times, unit_seconds, problems = [], [], [], []
    scaled_times, kernels = [], []
    attempted = failed = 0
    start = time.perf_counter()
    with events.attached():
        passes = (False, True) if tracer is not None else (False,)
        if tracer is None:
            speed.kernel_seconds()  # warm-up
            kernels.append(speed.kernel_seconds())
        j = 0
        while True:
            entry = order[j % workloads.POOL]
            t_unit = time.perf_counter()
            # alternate which pass runs first, so warm-up does not bias the overhead
            for traced in passes if j % 2 == 0 else passes[::-1]:
                if traced:
                    settle_before = events.settle_fallbacks
                    with tracer.installed():
                        per_exp, n, bad, why = run_unit(wl, entry, expected[entry])
                    tracer.count("selection.settle_fallbacks",
                                 events.settle_fallbacks - settle_before)
                    traced_times.append(per_exp)
                else:
                    per_exp, n, bad, why = run_unit(wl, entry, expected[entry])
                    times.append(per_exp)
                attempted, failed, problems = attempted + n, failed + bad, problems + why
            if tracer is None:
                # scale by the kernel timed just before and just after the experiment
                kernels.append(speed.kernel_seconds())
                scaled_times.append(speed.scaled(times[-1], (kernels[-2] + kernels[-1]) / 2))
            unit_seconds.append(time.perf_counter() - t_unit)
            j += 1
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(unit_seconds) > args.seconds:
                break

    env = workloads.stamp(args.seed)
    frac = failed_frac(failed, attempted)
    wall_run_s = statistics.median(times)
    lines = [
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        + "  ".join(f"{k} {v}" for k, v in env.items() if k not in ("seed", "blas_threads"))
        + f"  blas_threads {env['blas_threads']['OPENBLAS_NUM_THREADS']}",
        f"reference recorded on backend {reference['stamp']['backend']} "
        f"at commit {reference['stamp']['commit']}",
    ]
    lines += [f"FAILED {p}" for p in problems[:20]]
    lines += [f"monte carlo failure: {m}" for m in events.mc_failures[:20]]
    lines.append(f"failed_frac {frac:.6g} ratio ({failed} of {attempted} experiments)")

    if args.trace:
        missing = spans.missing_sites(tracer, args.workload)
        layer = spans.layer_metrics(tracer, missing)
        layer["trace.run_s"] = statistics.median(traced_times)
        # paired by pool entry, so input-to-input variation cancels
        layer["trace.overhead_s"] = statistics.median(
            t - u for t, u in zip(traced_times, times))
        units = {name: unit for name, (unit, _, _) in spans.LAYER_METRICS.items()}
        units.update({"trace.run_s": "s", "trace.overhead_s": "s"})
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
        lines.append(f"wall run_s {wall_run_s:.6g} s untraced, {layer['trace.run_s']:.6g} s "
                     f"traced (medians of {len(times)} samples each)")
        lines.append(f"tracing overhead {layer['trace.overhead_s']:.6g} s per experiment")
        lines.append("span coverage: " + ("ok" if not missing
                                          else "MISSING " + ", ".join(missing)))
        lines += [f"  {k} {'missing' if v['value'] is None else format(v['value'], '.6g')} "
                  f"{v['unit']}" for k, v in metrics.items()]
    else:
        missing = []
        setup_scaled = [speed.scaled(s, k) for s, k in setup_samples]
        values = {
            "run_s": statistics.median(scaled_times),
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        tail = tail_percentile(scaled_times)
        tail_text = (f"p{tail[0]} {tail[1]:.6g} s" if tail
                     else "no percentile has 10 samples beyond it")
        lines += [
            f"run_s {values['run_s']:.6g} s  (speed-scaled median of {len(times)} experiments; "
            f"{tail_text}; wall median {wall_run_s:.6g} s)",
            f"setup_s {values['setup_s']:.6g} s  (speed-scaled median of {len(setup_samples)} "
            f"fresh processes; wall median {statistics.median(s for s, _ in setup_samples):.6g} s)",
            f"peak_rss_mb {values['peak_rss_mb']:.6g} MB",
            f"calibration kernel median {statistics.median(kernels):.6g} s "
            f"(nominal {speed.NOMINAL_S} s)",
        ]

    out_dir = workloads.WORK / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload, "trace": args.trace, "stamp": env, "metrics": metrics,
        "attempted": attempted, "failed": failed, "failed_frac": frac, "problems": problems,
        "missing_sites": missing, "mc_failures": events.mc_failures,
        "wall_run_s_samples": times, "scaled_run_s_samples": scaled_times,
        "traced_wall_run_s_samples": traced_times, "kernel_s_samples": kernels,
        "setup_s_and_kernel_s_samples": setup_samples,
    }, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(out_dir / f"{stem}-spans.json")

    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
