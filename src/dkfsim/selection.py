"""Sensor subset selection: the greedy threshold sweep (benchmark, needs ground
truth) and the stability-criterion selection (needs only information histories),
plus the MSE / maximum-deviation metrics both report.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .dkf import DkfEngine, Scenario
from .errors import ConfigError, DivergenceError, MetricError
from .model import robust_inverse  # noqa: F401 - per-layer tracing wraps this name
from .stability import (
    StabilityParams,
    _require_network,
    beta_hat_batch,
    bound_operator,
    i_tilde_matrices,
    warn_pinv_steps,
)
from . import _kernels, stability

log = logging.getLogger(__name__)

SETTLE_BAND = 0.01
# packed history entries ((N + 1) m (m + 1) / 2 per node) of one node chunk of
# stability_select: the network splits into the fewest chunks within it, of
# equal size rounded up to 64 nodes (3 chunks of 704 nodes at m=5, N=200, 2000
# nodes; one chunk at m=2). The admission check holds about four (P, entries)
# arrays per node block; blocks of an eighth of the budget, split the same way,
# keep them within half the chunk's histories
STABILITY_CHUNK = 1 << 21
CHOLESKY_SLACK = 8.0  # c in the bracket shift delta = c m (m + 1) eps max|D|


@dataclass(frozen=True)
class SelectionReport:
    """One evaluated configuration: chosen nodes plus estimation-quality metrics."""

    nodes: frozenset
    mse: float
    md: float
    mse_raw: float = float("nan")
    iteration: int | None = None
    thresholds: tuple | None = None

    @property
    def n_selected(self) -> int:
        return len(self.nodes)

    @property
    def ran(self) -> bool:
        return not math.isnan(self.mse)


def settling_index(traj, band: float = SETTLE_BAND) -> int:
    """First step after which every state stays within band of its final value.

    The final value is the mean of the last 5% of samples; the band is
    band * max(|final|, max|x|) per state, the max-|x| floor guarding
    trajectories that decay to zero. Never settling returns N/2, flagged.
    """
    states = np.asarray(traj, dtype=float)
    if states.shape[0] < 1:
        raise MetricError("empty trajectory")
    if not (0.0 < band < 1.0):
        raise ConfigError("band must lie in (0, 1)", keys=("band",))
    n_last = max(1, int(math.ceil(0.05 * states.shape[0])))
    final = states[-n_last:].mean(axis=0)
    floor = band * np.abs(states).max()
    tol = np.maximum(band * np.abs(final), floor)
    bad = (np.abs(states - final) > tol[None, :]).any(axis=1)
    if not bad.any():
        return 0
    last_bad = int(np.nonzero(bad)[0][-1])
    if last_bad == states.shape[0] - 1:
        fallback = (states.shape[0] - 1) // 2
        log.warning("trajectory never settles within band %.3g; falling back to step %d",
                    band, fallback)
        return fallback
    return last_bad + 1


def mse(x_hat, x, from_index: int = 0) -> float:
    """Per-step-normalized squared error: (1/2) sum ||xhat - x||^2 / #steps, k >= from_index."""
    return _mse(x_hat, x, from_index, normalize=True)


def mse_raw(x_hat, x, from_index: int = 0) -> float:
    """Plain accumulated (1/2) sum ||xhat - x||^2 over k >= from_index."""
    return _mse(x_hat, x, from_index, normalize=False)


def _mse(x_hat, x, from_index, normalize):
    a = np.asarray(x_hat, dtype=float)
    b = np.asarray(x, dtype=float)
    if a.shape != b.shape:
        raise MetricError(f"trajectory shapes differ: {a.shape} vs {b.shape}")
    if not (0 <= from_index < a.shape[0]):
        raise MetricError(f"from_index {from_index} outside trajectory of length {a.shape[0]}")
    err = a[from_index:] - b[from_index:]
    total = 0.5 * float(np.sum(err * err))
    return total / err.shape[0] if normalize else total


def max_deviation(x_hat, x) -> float:
    """max |xhat - x| over steps and components, divided by max |x|."""
    a = np.asarray(x_hat, dtype=float)
    b = np.asarray(x, dtype=float)
    if a.shape != b.shape:
        raise MetricError(f"trajectory shapes differ: {a.shape} vs {b.shape}")
    denom = float(np.abs(b).max())
    if denom == 0.0:
        raise MetricError("maximum deviation undefined for an all-zero true trajectory")
    return float(np.abs(a - b).max()) / denom


def _require_resolved(network):
    jittered = np.flatnonzero(network.jitter > 0.0)
    if jittered.size:
        raise ConfigError(
            f"node {jittered[0] + 1} has unresolved stochastic delay; apply sensing.resolve_delays",
        )


def greedy_select(
    engine: DkfEngine,
    iterations: int,
    r_max: float,
    tau_max: float,
    band: float = SETTLE_BAND,
) -> list:
    """Threshold sweep: iteration k admits nodes with R_i <= R0(k) and tau_i <= tau0(k),
    with R0, tau0 shrinking linearly from (r_max, tau_max) toward zero.

    The engine's network supplies the variances, delays and ids. All
    non-empty iterations run as one batched DKF pass (DkfEngine.fused_runs)
    against the engine's one plant/noise realization, so the sweep compares
    subsets, not sample paths. Needs the engine's ground-truth states;
    benchmark use only. Iterations with an empty subset record NaN metrics.
    Stochastic delays must be resolved before the engine is built
    (sensing.resolve_delays).
    """
    if iterations < 1:
        raise ConfigError("iterations must be >= 1", keys=("iterations",))
    if r_max <= 0.0 or tau_max <= 0.0:
        raise ConfigError("r_max and tau_max must be positive", keys=("variance_range", "delay_range"))
    network = engine.network
    _require_resolved(network)
    settle = settling_index(engine.truth, band)
    variances = network.variances
    delays_s = network.base
    shrink = 1.0 - np.arange(iterations) / iterations  # iteration j + 1 scales by shrink[j]
    r0 = r_max * shrink
    tau0 = tau_max * shrink
    masks = (variances[None, :] <= r0[:, None]) & (delays_s[None, :] <= tau0[:, None])
    ran = masks.any(axis=1)
    xhats = None
    if ran.any():
        try:
            xhats = engine.fused_runs(masks[ran])[2]
        except DivergenceError as exc:
            iteration = int(np.flatnonzero(ran)[exc.row]) + 1
            raise DivergenceError(
                f"non-finite fused information in greedy iteration {iteration} at step {exc.step}",
                step=exc.step,
            ) from exc
    row = np.cumsum(ran) - 1  # row of iteration j + 1 in xhats
    ids = np.array(network.ids())
    reports = []
    for j in range(iterations):
        thresholds = (float(r0[j]), float(tau0[j]))
        if not ran[j]:
            reports.append(SelectionReport(
                nodes=frozenset(), mse=float("nan"), md=float("nan"),
                iteration=j + 1, thresholds=thresholds,
            ))
            continue
        xhat = xhats[row[j]]
        reports.append(SelectionReport(
            nodes=frozenset(ids[masks[j]].tolist()),
            mse=mse(xhat, engine.truth, settle),
            md=max_deviation(xhat, engine.truth),
            mse_raw=mse_raw(xhat, engine.truth, settle),
            iteration=j + 1,
            thresholds=thresholds,
        ))
    return reports


def best_report(reports) -> SelectionReport | None:
    """The ran report with the smallest MSE, or None when nothing ran."""
    ran = [r for r in reports if r.ran]
    return min(ran, key=lambda r: r.mse) if ran else None


@dataclass(frozen=True)
class NodeStabilityRow:
    """Per-node outcome of the stability check, for the report CSV."""

    node_id: int
    selected: bool
    ct_exp: int
    ct_act: int
    delay_s: float
    variance: float
    beta_hat: float


def _cholesky_outcome(packed, shift):
    """(succeeded, broke down) of an unpivoted Cholesky of each D - shift I.

    packed (P, e) holds the lower triangle of one symmetric matrix per column,
    in np.tril_indices order, so row i of the triangle is one run of packed
    rows; shift is (e,). A pivot that is NaN counts as neither outcome.
    """
    m = _kernels.packed_dim(packed.shape[0])
    index = _kernels.packed_index(m)
    w = packed.copy()
    w[index.diagonal()] -= shift
    succeeded = np.ones(packed.shape[-1], dtype=bool)
    broke = np.zeros(packed.shape[-1], dtype=bool)
    with np.errstate(invalid="ignore", divide="ignore"):
        for j in range(m):
            pivot = w[index[j, j]]
            succeeded &= pivot > 0.0
            broke |= pivot <= 0.0
            col = w[index[j + 1:, j]] / np.sqrt(pivot)  # column j of the factor below the pivot
            for i in range(j + 1, m):
                w[index[i, j + 1]:index[i, i] + 1] -= col[i - j - 1] * col[:i - j]
    return succeeded, broke


def _positive_definite(packed) -> np.ndarray:
    """Whether lambda_min > 0 for each symmetric matrix of a packed stack
    (P, e) (lower triangles in np.tril_indices order, one matrix per column),
    decided as np.linalg.eigvalsh decides it.

    A Cholesky bracket decides: with delta = c m (m + 1) eps max|D|, the
    computed factor of D - delta I is exact for a perturbation smaller than
    m (m + 1) eps max|D| (Higham, Accuracy and Stability, Thm 10.3), so
    success means lambda_min(D) exceeds eigvalsh's own backward error and
    eigvalsh finds it positive. A breakdown on D + delta I means
    lambda_min(D) lies below minus that error (Demmel's success condition,
    Thm 10.7), and eigvalsh finds it negative. The second test runs only where
    the first fails; eigvalsh decides what neither does, and any entry so small
    or large that the products could under- or overflow, on those entries
    unpacked.
    """
    m = _kernels.packed_dim(packed.shape[0])
    scale = np.maximum(packed.max(axis=0), -packed.min(axis=0))  # max|D|, without an |D| copy
    delta = CHOLESKY_SLACK * m * (m + 1) * np.finfo(float).eps * scale
    trusted = (scale > 1e-150) & (scale < 1e150)
    positive, _ = _cholesky_outcome(packed, delta)
    positive &= trusted
    rest = np.flatnonzero(~positive)
    _, negative = _cholesky_outcome(packed[:, rest], -delta[rest])
    undecided = rest[~(negative & trusted[rest])]
    if undecided.size:
        full = _kernels.unpack(packed[:, undecided])
        positive[undecided] = np.linalg.eigvalsh(full)[:, 0] > 0.0
    return positive


def stability_select(scenario: Scenario, params: StabilityParams):
    """Admit node i iff its delayed information beats the stability bound at
    every applicable step k in (k_bar, N]: the delayed I_i(k - d_i | k - d_i)
    must strictly dominate Itilde_i(k) in matrix order (min eig of the
    difference > 0), which is what the stability bound asserts and makes k_bar
    the tolerated staleness. Needs no ground-truth states.

    The scenario supplies the plant, the network and the horizon N; a
    scenario without a network raises ConfigError. Nodes whose delay leaves
    no applicable step are excluded: they offer no evidence of stability.
    Stochastic delays must be resolved beforehand (sensing.resolve_delays).
    Returns (selected ids, one NodeStabilityRow per node).

    The pass runs over node chunks of STABILITY_CHUNK packed history entries,
    each taking its histories and beta-hat, then bounds and admission check
    block by block, so neither the whole network's histories nor its bounds
    are held at once.
    """
    network = _require_network(scenario)
    if len(network) == 0:
        return set(), []
    n_steps = scenario.n_steps
    if n_steps <= params.k_bar:
        raise ConfigError(f"n_steps must exceed k_bar={params.k_bar}", keys=("horizon", "k_bar"))
    _require_resolved(network)
    d = network.delay_steps(scenario.sys.sample_time)
    m = scenario.sys.state_dim
    n = len(network)
    k_bar = params.k_bar
    n_pairs = m * (m + 1) // 2

    # bound position j is step k = k_bar + 1 + j; node i's applicable steps
    # (k - d_i >= 1) are positions first[i] .. n_pos - 1
    n_pos = n_steps - k_bar
    first = np.clip(d - k_bar, 0, n_pos)
    ct_exp = n_pos - first
    warn_pinv_steps(scenario, k_bar + 1, n_steps, k_bar)
    betas = np.empty(n)
    ct_act = np.empty(n, dtype=np.int64)
    operator = bound_operator(scenario, k_bar + 1, n_steps, k_bar, scenario.l_all)
    terms = None if params.beta_hat is not None else stability._distinct_noise_terms(scenario)
    # blocks of 64-node multiples keep the bound matmul's tiles whole, so a
    # block's bounds equal the whole network's to the bit (so measured with
    # OpenBLAS; 333-, 417-, 500- and 667-node blocks of 2000 nodes differed)
    chunk = _split(n, STABILITY_CHUNK // ((n_steps + 1) * n_pairs))
    block = _split(chunk, STABILITY_CHUNK // (8 * n_pos * n_pairs))
    for lo in range(0, n, chunk):
        part = slice(lo, lo + chunk)
        betas[part], ct_act[part] = _admit_chunk(scenario, params, operator, terms, block,
                                                 scenario.l_all[part], d[part], first[part],
                                                 ct_exp[part])

    admitted = (ct_exp > 0) & (ct_exp == ct_act)
    if not (ct_exp > 0).any():
        log.warning("no node has an applicable step: delays are larger than the estimation horizon")
    selected = set((np.flatnonzero(admitted) + 1).tolist())
    variances = network.variances
    rows = [
        NodeStabilityRow(
            node_id=i + 1, selected=bool(admitted[i]), ct_exp=int(ct_exp[i]),
            ct_act=int(ct_act[i]), delay_s=float(network.base[i]),
            variance=float(variances[i]), beta_hat=float(betas[i]),
        )
        for i in range(n)
    ]
    return selected, rows


def _split(n: int, cap: int) -> int:
    """Size of the fewest equal parts of n nodes with at most cap nodes each,
    rounded up to a multiple of 64 when cap allows 64."""
    size = -(-n // -(-n // max(cap, 1)))
    return -(-size // 64) * 64 if cap >= 64 else size


def _max_trace_matrices(hist) -> np.ndarray:
    """Each node's matrix (n, m, m) at the step of largest trace in its packed
    history (P, N+1, n); the traces add the diagonal rows in order, as np.trace
    adds a matrix's diagonal, so ties break as they would on full matrices."""
    diag = _kernels.packed_index(_kernels.packed_dim(hist.shape[0])).diagonal()
    traces = hist[diag[0]].copy()  # (N+1, n)
    for row in diag[1:]:
        traces += hist[row]
    n = hist.shape[2]
    return _kernels.unpack(hist[:, np.argmax(traces, axis=0), np.arange(n)])


def _admit_chunk(scenario: Scenario, params: StabilityParams, operator, terms, block, l_all, d,
                 first, ct_exp):
    """(beta-hat, steps passed) for one chunk of nodes of stability_select."""
    n = l_all.shape[0]
    k_bar = params.k_bar
    # delay-free per-node information histories (the local IF recursions), packed
    hist = _kernels.node_info_histories(scenario.a_inv_seq, scenario.q_inv, l_all)
    n_pairs, n_out, _ = hist.shape
    if params.beta_hat is not None:
        betas = np.full(n, params.beta_hat)
    else:
        # per-node contraction from each node's own history bound
        betas = beta_hat_batch(scenario, _max_trace_matrices(hist), params.alpha, terms)
    flat_hist = hist.reshape(n_pairs, n_out * n)
    passed = np.empty(n, dtype=np.int64)
    for lo in range(0, n, block):
        nodes = slice(lo, lo + block)
        counts = ct_exp[nodes]
        # one entry per applicable (node, position) pair of this block
        node = np.repeat(np.arange(counts.size), counts)
        pos = np.arange(node.size) - np.repeat(np.cumsum(counts) - counts, counts) + first[lo + node]
        # each entry's bound, gathered from the block's (P, K, b) bounds, then
        # the delayed history minus it
        bounds = i_tilde_matrices(operator, betas[nodes], l_all[nodes]).reshape(n_pairs, -1)
        diff = bounds[:, pos * counts.size + node]
        del bounds
        np.subtract(flat_hist[:, (k_bar + 1 + pos - d[lo + node]) * n + lo + node], diff, out=diff)
        passed[nodes] = np.bincount(node, weights=_positive_definite(diff), minlength=counts.size)
    return betas, passed
