"""Per-layer tracing of dkfsim from outside the program.

`Tracer.installed()` swaps the module attributes the program calls through
(for example `dkfsim._kernels.node_info_histories`, the copy of
`beta_hat_batch` that `dkfsim.selection` imports by name, and the methods of
`DkfEngine`) for wrappers, and puts the originals back on exit. A wrapped
call either records a span (name, start, end, parent span, experiment id) or
only bumps a call counter; hooks read fallback counts and sizes from the
arguments and results. Spans stay in memory and are written out at the end.

Nothing in src/ is edited. A refactor that moves a call site away from a
wrapped attribute shows up as a site with zero calls (`missing_sites`).
"""

from __future__ import annotations

import json
import logging
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

SETTLE_FALLBACK_PREFIX = "trajectory never settles"
MC_FAILURE_PREFIX = "monte carlo run"


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    experiment: int | None
    start: float
    end: float = float("nan")


class Tracer:
    """Spans, call counts and event counts of one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.experiments = 0
        self._stack: list[Span] = []
        self._experiment = None

    def begin(self, name: str, experiment: bool = False) -> Span:
        """Open a span; experiment=True starts a new experiment id for it and its children."""
        if experiment:
            self._experiment = self.experiments
            self.experiments += 1
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self._experiment, self.clock())
        self.spans.append(span)
        self._stack.append(span)
        self.calls[name] = self.calls.get(name, 0) + 1
        return span

    def end(self, span: Span, experiment: bool = False):
        span.end = self.clock()
        self._stack.pop()
        if experiment:
            self._experiment = None

    def count(self, name: str, value=1):
        self.counts[name] = self.counts.get(name, 0) + value

    def called(self, name: str):
        self.calls[name] = self.calls.get(name, 0) + 1

    @contextmanager
    def installed(self):
        """Wrap every site of _sites() for the duration of the block."""
        originals = []
        try:
            for owner, attr, name, kind, hook in _sites():
                original = getattr(owner, attr)
                originals.append((owner, attr, original))
                setattr(owner, attr, _wrap(self, original, name, kind, hook))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def write(self, path):
        Path(path).write_text(json.dumps([asdict(s) for s in self.spans]), encoding="utf-8")


def _wrap(tracer: Tracer, fn, name: str, kind: str, hook):
    if kind == "count":
        def counted(*args, **kwargs):
            tracer.called(name)
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(tracer, args, result)
            return result
        return counted

    experiment = kind == "experiment"

    def spanned(*args, **kwargs):
        span = tracer.begin(name, experiment)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span, experiment)
        if hook is not None:
            hook(tracer, args, result)
        return result
    return spanned


# ---------------------------------------------------------------------------
# Hooks: counts read from arguments and results
# ---------------------------------------------------------------------------


def _nodes(tracer, args, network):
    tracer.count("sensing.nodes", len(network))


def _engine(tracer, args, _):
    tracer.count("dkf.a_pinv_steps", len(args[0].a_pinv_steps))


def _fused_run(tracer, args, result):
    tracer.count("dkf.fused_pinv_steps", int(result[3].sum()))


def _node_histories(tracer, args, hist):
    a_inv_seq, _, l_all = args[:3]
    tracer.count("kernels.node_info_histories.node_steps", l_all.shape[0] * a_inv_seq.shape[0])
    tracer.count("kernels.node_info_histories.bytes_out", hist.nbytes)


def _fused_recursion(tracer, args, _):
    tracer.count("kernels.fused_info_recursion.steps", args[0].shape[0])


def _noise_terms(tracer, args, terms):
    tracer.count("stability.beta_hat_batch.terms", len(terms))


def _admission(tracer, args, result):
    selected, rows = result if isinstance(result, tuple) else (result, [])
    tracer.count("selection.admitted", len(selected))
    tracer.count("selection.applicable", sum(1 for r in rows if r.ct_exp > 0))


def _greedy(tracer, args, reports):
    tracer.count("selection.greedy.iterations", len(reports))
    tracer.count("selection.greedy.evaluated", sum(1 for r in reports if r.n_selected > 0))


def _export(tracer, args, path):
    tracer.count("harness.export_csv.bytes", Path(path).stat().st_size)


def _monte_carlo(tracer, args, summary):
    tracer.count("harness.monte_carlo.failed_runs", len(summary.failed_runs))


def _sites():
    """(owner, attribute, site name, kind, hook) for every wrapped call site.

    kind is "span", "experiment" (a span that opens a new experiment id) or
    "count" (calls only, for functions called thousands of times).
    """
    from dkfsim import _kernels, dkf, harness, model, selection, stability

    sites = [
        (harness, "run_experiment", "harness.run_experiment", "experiment", None),
        (harness, "monte_carlo", "harness.monte_carlo", "span", _monte_carlo),
        (harness, "export_csv", "harness.export_csv", "span", _export),
        (harness, "sample_network", "sensing.sample_network", "span", _nodes),
        (harness, "resolve_delays", "sensing.resolve_delays", "span", None),
        (dkf.DkfEngine, "__init__", "dkf.engine", "span", _engine),
        (dkf.DkfEngine, "fused_run", "dkf.fused_run", "span", _fused_run),
        (dkf, "recover_estimates", "dkf.recover_estimates", "span", None),
        (_kernels, "node_info_histories", "kernels.node_info_histories", "span", _node_histories),
        (_kernels, "fused_info_recursion", "kernels.fused_info_recursion", "span", _fused_recursion),
        (harness, "compute_params", "stability.compute_params", "span", None),
        (selection, "beta_hat_batch", "stability.beta_hat_batch", "span", None),
        (stability, "_distinct_noise_terms", "stability.noise_terms", "count", _noise_terms),
        (selection, "i_tilde_matrices", "stability.i_tilde_matrices", "span", None),
        (harness, "stability_select", "selection.stability_select", "span", _admission),
        (harness, "greedy_select", "selection.greedy_select", "span", _greedy),
    ]
    # functions each module imported by name: count calls at every copy
    sites += [(mod, "robust_inverse", "model.robust_inverse", "count", None)
              for mod in (model, dkf, selection, stability)]
    sites += [(mod, "transition_matrix", "model.transition_matrix", "count", None)
              for mod in (model, dkf, stability)]
    return sites


# Sites each workload's path reaches at the parent commit of the benchmark.
COMMON_SITES = (
    "harness.run_experiment", "harness.export_csv", "sensing.sample_network",
    "sensing.resolve_delays", "dkf.engine", "dkf.fused_run", "dkf.recover_estimates",
    "kernels.fused_info_recursion", "model.robust_inverse", "model.transition_matrix",
)
STABILITY_SITES = (
    "kernels.node_info_histories", "stability.compute_params", "stability.beta_hat_batch",
    "stability.noise_terms", "stability.i_tilde_matrices", "selection.stability_select",
)
EXPECTED_SITES = {
    "greedy": COMMON_SITES + ("selection.greedy_select",),
    "stability-mc": COMMON_SITES + STABILITY_SITES + ("harness.monte_carlo",),
    "stability-m5": COMMON_SITES + STABILITY_SITES,
}


def missing_sites(tracer: Tracer, workload: str) -> list:
    """Expected sites that recorded no call: a moved call site, not a 0 s layer."""
    return [s for s in EXPECTED_SITES[workload] if tracer.calls.get(s, 0) == 0]


# ---------------------------------------------------------------------------
# Self time and per-layer metrics
# ---------------------------------------------------------------------------


def self_times(spans) -> dict:
    """Span id -> its duration minus the part of its interval its children cover."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


class _Totals:
    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.n = max(tracer.experiments, 1)
        self.total: dict = {}
        self.self_total: dict = {}
        own = self_times(tracer.spans)
        for s in tracer.spans:
            self.total[s.name] = self.total.get(s.name, 0.0) + (s.end - s.start)
            self.self_total[s.name] = self.self_total.get(s.name, 0.0) + own[s.id]

    def count(self, name):
        return self.tracer.counts.get(name, 0)


def _time(site):
    return site, lambda t: t.total.get(site, 0.0) / t.n


def _self(site):
    return site, lambda t: t.self_total.get(site, 0.0) / t.n


def _calls(site):
    return site, lambda t: t.tracer.calls.get(site, 0) / t.n


def _count(site, name):
    return site, lambda t: t.count(name) / t.n


def _ratio(site, num, den):
    return site, lambda t: t.count(num) / t.count(den) if t.count(den) else 0.0


# metric -> (unit, site it needs, value per experiment). Times are seconds per
# experiment, counts are per experiment, ratios are over the whole pass.
LAYER_METRICS = {
    "sensing.sample_network.s": ("s", *_time("sensing.sample_network")),
    "sensing.nodes": ("count", *_count("sensing.sample_network", "sensing.nodes")),
    "sensing.resolve_delays.s": ("s", *_time("sensing.resolve_delays")),
    "model.robust_inverse.calls": ("count", *_calls("model.robust_inverse")),
    "model.transition_matrix.calls": ("count", *_calls("model.transition_matrix")),
    "dkf.engine.s": ("s", *_time("dkf.engine")),
    "dkf.fused_run.s": ("s", *_time("dkf.fused_run")),
    "dkf.fused_run.calls": ("count", *_calls("dkf.fused_run")),
    "dkf.recover_estimates.s": ("s", *_time("dkf.recover_estimates")),
    "dkf.fused_pinv_steps": ("count", *_count("dkf.fused_run", "dkf.fused_pinv_steps")),
    "dkf.a_pinv_steps": ("count", *_count("dkf.engine", "dkf.a_pinv_steps")),
    "kernels.node_info_histories.s": ("s", *_time("kernels.node_info_histories")),
    "kernels.node_info_histories.node_steps": (
        "count", *_count("kernels.node_info_histories", "kernels.node_info_histories.node_steps")),
    "kernels.node_info_histories.bytes_out": (
        "bytes", *_count("kernels.node_info_histories", "kernels.node_info_histories.bytes_out")),
    "kernels.fused_info_recursion.s": ("s", *_time("kernels.fused_info_recursion")),
    "kernels.fused_info_recursion.calls": ("count", *_calls("kernels.fused_info_recursion")),
    "kernels.fused_info_recursion.steps": (
        "count", *_count("kernels.fused_info_recursion", "kernels.fused_info_recursion.steps")),
    "stability.compute_params.s": ("s", *_time("stability.compute_params")),
    "stability.beta_hat_batch.s": ("s", *_time("stability.beta_hat_batch")),
    "stability.beta_hat_batch.terms": (
        "count", *_count("stability.noise_terms", "stability.beta_hat_batch.terms")),
    "stability.i_tilde_matrices.s": ("s", *_time("stability.i_tilde_matrices")),
    "selection.stability_select.s": ("s", *_time("selection.stability_select")),
    "selection.stability_select.self_s": ("s", *_self("selection.stability_select")),
    "selection.admitted": ("count", *_count("selection.stability_select", "selection.admitted")),
    "selection.applicable": (
        "count", *_count("selection.stability_select", "selection.applicable")),
    "selection.admit_ratio": (
        "ratio", *_ratio("selection.stability_select", "selection.admitted", "selection.applicable")),
    "selection.greedy_select.s": ("s", *_time("selection.greedy_select")),
    "selection.greedy_select.self_s": ("s", *_self("selection.greedy_select")),
    "selection.greedy.evaluated_ratio": (
        "ratio", *_ratio("selection.greedy_select", "selection.greedy.evaluated",
                         "selection.greedy.iterations")),
    "selection.settle_fallbacks": (
        "count", *_count("harness.run_experiment", "selection.settle_fallbacks")),
    "harness.export_csv.s": ("s", *_time("harness.export_csv")),
    "harness.export_csv.bytes": ("bytes", *_count("harness.export_csv", "harness.export_csv.bytes")),
    "harness.run_experiment.self_s": ("s", *_self("harness.run_experiment")),
    "harness.monte_carlo.failed_runs": (
        "count", *_count("harness.monte_carlo", "harness.monte_carlo.failed_runs")),
}


def layer_metrics(tracer: Tracer, missing=()) -> dict:
    """Metric name -> value per experiment; None where the site it needs is missing."""
    totals = _Totals(tracer)
    return {name: (None if site in missing else fn(totals))
            for name, (_, site, fn) in LAYER_METRICS.items()}


# ---------------------------------------------------------------------------
# Log events
# ---------------------------------------------------------------------------


class LogEvents(logging.Handler):
    """Counts the program's log-only events on the `dkfsim` logger.

    Settling fallbacks feed `selection.settle_fallbacks`; Monte Carlo
    failures keep their message, which is the only record of their cause.
    """

    def __init__(self):
        super().__init__(logging.WARNING)
        self.settle_fallbacks = 0
        self.mc_failures: list[str] = []

    def emit(self, record):
        msg = record.getMessage()
        if msg.startswith(SETTLE_FALLBACK_PREFIX):
            self.settle_fallbacks += 1
        elif msg.startswith(MC_FAILURE_PREFIX):
            self.mc_failures.append(msg)

    @contextmanager
    def attached(self):
        logger = logging.getLogger("dkfsim")
        logger.addHandler(self)
        try:
            yield self
        finally:
            logger.removeHandler(self)
