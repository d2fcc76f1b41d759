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
from .sensing import R_MIN
from .stability import (
    StabilityParams,
    beta_hat_batch,
    bound_operator,
    i_tilde_matrices,
    warn_pinv_steps,
)
from . import _kernels, stability

log = logging.getLogger(__name__)

# packed history entries of one node chunk of stability_select, budgeted at
# (N + 1) m (m + 1) / 2 per live node: the live nodes split into the fewest
# chunks within it, of equal size (at most 695 nodes a chunk at m=5, N=200, and
# 3477 at m=2). With delays U[0, N] steps and k_bar = 20, as on the benchmark,
# about 200 of 2000 nodes are live, so they form one chunk at either m. A chunk
# stores every step of its nodes' histories. The admission check holds the
# block's (P, K, b) bounds, which it overwrites, and the history gathered
# against them; blocks of an eighth of the budget, split the same way, keep
# the two within a quarter of it
STABILITY_CHUNK = 1 << 21


def settling_index(traj, band: float) -> int:
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


def _pair(x_hat, x):
    """The estimate (..., N+1, m) and the truth (N+1, m) as float arrays."""
    a = np.asarray(x_hat, dtype=float)
    b = np.asarray(x, dtype=float)
    if b.ndim != 2 or a.shape[-2:] != b.shape:
        raise MetricError(f"trajectory shapes differ: {a.shape} vs {b.shape}")
    return a, b


def mse_raw(x_hat, x, from_index: int = 0):
    """Plain accumulated (1/2) sum ||xhat - x||^2 over k >= from_index.

    x_hat is one (N+1, m) trajectory or a stack (..., N+1, m) of them, each
    scored against the one truth x; a stack gives one value per trajectory.
    """
    a, b = _pair(x_hat, x)
    if not (0 <= from_index < b.shape[0]):
        raise MetricError(f"from_index {from_index} outside trajectory of length {b.shape[0]}")
    err = a[..., from_index:, :] - b[from_index:]
    return 0.5 * np.sum(err * err, axis=(-2, -1))


def mse(x_hat, x, from_index: int = 0):
    """Per-step-normalized squared error: mse_raw / #steps, k >= from_index."""
    return mse_raw(x_hat, x, from_index) / (np.shape(x)[0] - from_index)


def scores(x_hat, x, from_index: int = 0):
    """(mse, max_deviation, mse_raw) of one trajectory or a stack, as those
    three give them, with mse_raw computed once."""
    raw = mse_raw(x_hat, x, from_index)
    return raw / (np.shape(x)[0] - from_index), max_deviation(x_hat, x), raw


def max_deviation(x_hat, x):
    """max |xhat - x| over steps and components, divided by max |x|; one value
    per trajectory of a stack (..., N+1, m), as mse_raw."""
    a, b = _pair(x_hat, x)
    denom = float(np.abs(b).max())
    if denom == 0.0:
        raise MetricError("maximum deviation undefined for an all-zero true trajectory")
    return np.abs(a - b).max(axis=(-2, -1)) / denom


# one record per iteration of the greedy sweep: the columns of greedy_report.csv
GREEDY_REPORT = np.dtype([
    ("iteration", np.int64), ("r0", float), ("tau0", float), ("n_selected", np.int64),
    ("mse", float), ("md", float), ("mse_raw", float),
])


def sweep_masks(network, r0, tau0) -> np.ndarray:
    """The nodes the thresholds (R0, tau0) admit: R_i <= R0 and tau_i <= tau0.

    Scalar thresholds give one (n,) bool mask; arrays of B thresholds give
    (B, n). R0 counts as at least sensing.R_MIN, the floor of every variance,
    so R0 = 0 admits on delay alone, as tau0 = 0 admits on variance alone.
    """
    r0 = np.expand_dims(np.maximum(r0, R_MIN), -1)
    tau0 = np.expand_dims(tau0, -1)
    return (network.variance <= r0) & (network.base <= tau0)


@dataclass
class GreedySweep:
    """The threshold sweep's fused runs, which greedy_select scores.

    report: one GREEDY_REPORT record per iteration, metrics NaN; masks
    (iterations, n): the nodes each iteration admits. The iterations that
    admit a node ran, in order, as the rows of info_hist (R, N+1, m, m) and
    xhat (R, N+1, m).
    """

    report: np.recarray
    masks: np.ndarray
    info_hist: np.ndarray
    xhat: np.ndarray

    def run(self, index: int):
        """(info_hist, xhat) of the run of iteration index (0-based), which
        must admit a node."""
        row = np.count_nonzero(self.report.n_selected[:index] > 0)
        return self.info_hist[row], self.xhat[row]


def greedy_sweep(engine: DkfEngine, iterations: int, r_max: float,
                 tau_max: float) -> GreedySweep:
    """Threshold sweep: iteration k admits sweep_masks(network, R0(k), tau0(k)),
    with R0, tau0 shrinking linearly from (r_max, tau_max) toward zero.

    The engine's network supplies the variances and delays. All iterations
    that admit a node run as one batched DKF pass (DkfEngine.fused_run)
    against the engine's one plant/noise realization, so the sweep compares
    subsets, not sample paths.
    """
    if iterations < 1:
        raise ConfigError("iterations must be >= 1", keys=("iterations",))
    if not (0.0 <= r_max < math.inf and 0.0 <= tau_max < math.inf):  # NaN fails both
        raise ConfigError(f"r_max and tau_max must be finite and >= 0, got {r_max} and {tau_max}",
                          keys=("variance_range", "delay_range"))
    shrink = 1.0 - np.arange(iterations) / iterations  # iteration j + 1 scales by shrink[j]
    r0 = r_max * shrink
    tau0 = tau_max * shrink
    masks = sweep_masks(engine.network, r0, tau0)
    n_selected = masks.sum(axis=1)
    nan = np.full(iterations, np.nan)
    report = np.rec.fromarrays([np.arange(1, iterations + 1), r0, tau0, n_selected, nan, nan, nan],
                               dtype=GREEDY_REPORT)
    ran = n_selected > 0
    m = engine.sys.state_dim
    info_hist, xhat = np.empty((0, engine.n_steps + 1, m, m)), np.empty((0, engine.n_steps + 1, m))
    if ran.any():
        try:
            info_hist, _, xhat, _ = engine.fused_run(masks[ran])
        except DivergenceError as exc:
            iteration = int(np.flatnonzero(ran)[exc.row]) + 1
            raise DivergenceError(
                f"non-finite fused information in greedy iteration {iteration} at step {exc.step}",
                step=exc.step,
            ) from exc
    return GreedySweep(report, masks, info_hist, xhat)


def greedy_select(sweep: GreedySweep, truth, settle: int) -> np.recarray:
    """The sweep's report with each run scored against the ground-truth states
    truth (N+1, m), benchmark use only: the MSE over steps settle..N (the
    harness passes settling_index of the truth). Returns a GREEDY_REPORT
    record array, one record per iteration; an iteration with an empty
    subset holds NaN metrics.
    """
    report = sweep.report.copy()
    ran = report.n_selected > 0
    if ran.any():
        report.mse[ran], report.md[ran], report.mse_raw[ran] = scores(sweep.xhat, truth, settle)
    return report


# one record per node of stability_select's report, in id order
STABILITY_REPORT = np.dtype([
    ("node_id", np.int64), ("selected", bool), ("ct_exp", np.int64), ("first_fail", np.int64),
    ("delay_s", float), ("variance", float), ("beta_hat", float),
])


def _positive_definite(packed) -> np.ndarray:
    """Whether each symmetric matrix D of a packed stack (P, e) (lower
    triangles in np.tril_indices order, one matrix per column) is certified
    positive definite.

    With delta = c m (m + 1) eps max|D|, the computed Cholesky factor of
    D - delta I is exact for a perturbation smaller than m (m + 1) eps max|D|
    (Higham, Accuracy and Stability, Thm 10.3), so its success means
    lambda_min(D) exceeds the backward error of any eigensolver on D, and
    np.linalg.eigvalsh finds it positive. Every other entry fails: one whose
    lambda_min lies below -delta, and one within delta of zero, singular to
    within rounding, which a strict domination test cannot certify. So does any
    entry so small or large that the products could under- or overflow.

    The factorization runs in packed itself, which it overwrites.
    """
    delta, trusted = _kernels.rounding_shift(packed)
    return _kernels._cholesky_succeeds(packed, delta) & trusted


def stability_select(scenario: Scenario, params: StabilityParams):
    """Admit node i iff its delayed information beats the stability bound at
    every applicable step k in (k_bar, N]: the delayed I_i(k - d_i | k - d_i)
    must strictly dominate Itilde_i(k) in matrix order (min eig of the
    difference > 0), which is what the stability bound asserts and makes k_bar
    the tolerated staleness. Needs no ground-truth states.

    The scenario (a DkfEngine is one) supplies the plant, the network and the
    horizon N; a scenario without a network raises ConfigError. Nodes whose
    delay leaves no applicable step are excluded: they offer no evidence of
    stability. Stochastic delays must be resolved beforehand
    (sensing.resolve_delays).

    At m >= 2 a node with k_bar <= d_i < N is rejected by proof, before its
    history is computed. Its first applicable step k = d_i + 1 reads
    I_i(1) = psi(l_i) + l_i, where psi(l_i), the time update of the zero
    prior's first step l_i, has rank one as l_i has. The bound's tau = 1 term
    is l_i and every other term is PSD, so the difference is psi(l_i) minus a
    PSD matrix, which has an eigenvalue <= 0 when m >= 2. The proof needs
    m >= 2, one measured state per node and the zero node prior that
    node_info_histories starts from. So only the live nodes are computed:
    those with d_i < k_bar at m >= 2, every node with an applicable step at
    m = 1.

    Returns (selected ids, report): report is a STABILITY_REPORT record array
    with one record per node in id order. ct_exp counts its applicable steps;
    first_fail is the first of them whose check fails (d_i + 1 for a node the
    proof rejects), 0 if none does; beta_hat is NaN for a node not computed.
    A node is selected iff ct_exp > 0 and first_fail == 0. A computed history
    that is not finite raises DivergenceError naming its first non-finite
    step, then the first node there.

    The pass runs over chunks of live nodes, of STABILITY_CHUNK packed history
    entries. A chunk stores its nodes' whole histories, (P, N+1, nodes), and
    picks beta-hat's input from them, each node's matrix at its first step of
    largest trace. Then it runs bounds and admission check block by block on
    the dense (P, K, b) grid of positions and nodes, where a mask drops the
    pairs ahead of a node's first applicable position (only at m = 1 does a
    live node have any). Neither the whole network's histories nor its bounds
    are held at once.
    """
    network = scenario.network
    if network is None:
        raise ConfigError("the scenario has no sensor network")
    if len(network) == 0:
        return set(), np.recarray(0, dtype=STABILITY_REPORT)
    n_steps = scenario.n_steps
    if n_steps <= params.k_bar:
        raise ConfigError(f"n_steps must exceed k_bar={params.k_bar}", keys=("horizon", "k_bar"))
    d = scenario.delays
    m = scenario.sys.state_dim
    n = len(network)
    k_bar = params.k_bar
    n_pairs = m * (m + 1) // 2

    # bound position j is step k = k_bar + 1 + j; node i's applicable steps
    # (k - d_i >= 1) are positions first[i] .. n_pos - 1
    n_pos = n_steps - k_bar
    first = np.clip(d - k_bar, 0, n_pos)
    ct_exp = n_pos - first
    # the live nodes, which the docstring's proof does not decide; every other
    # node with an applicable step fails at its first, k = d_i + 1
    live = np.flatnonzero((d < k_bar) if m >= 2 else (ct_exp > 0))
    first_fail = np.where(ct_exp > 0, d + 1, 0)
    first_fail[live] = 0
    betas = np.full(n, np.nan)
    warn_pinv_steps(scenario, k_bar)
    operator = bound_operator(scenario, k_bar)
    terms = stability._distinct_noise_terms(scenario)
    chunk = _split(live.size, STABILITY_CHUNK // ((n_steps + 1) * n_pairs))
    block = _split(chunk, STABILITY_CHUNK // (8 * n_pos * n_pairs))
    positions = np.arange(n_pos)[:, None]
    for lo in range(0, live.size, chunk):
        part = live[lo:lo + chunk]
        state, inv_r, delay, first_pos = (a[part] for a in (network.state, scenario.inv_r, d, first))
        # delay-free per-node information histories (the local IF recursions),
        # packed (P, N+1, nodes)
        with np.errstate(invalid="ignore"):  # a NaN history raises below
            hist = _kernels.node_info_histories(scenario.a_inv_seq, scenario.q_inv, state, inv_r)
        finite = np.isfinite(hist).all(axis=0)
        if not finite.all():  # name the first step, then the first node, that fails
            k, c = divmod(int(np.argmin(finite)), part.size)
            raise DivergenceError(f"non-finite information history of node {part[c] + 1} "
                                  f"at step {k}", step=k)
        # per-node contraction from each node's own history bound
        betas[part] = beta = beta_hat_batch(_kernels.unpack(_peak_trace_matrices(hist)),
                                            params.alpha, terms)
        for b in range(0, part.size, block):
            nodes = slice(b, b + block)
            # bound position j reads each node's history at step k_bar + 1 + j - d_i,
            # which is before step 1 only for the pairs ahead of first_pos (m = 1)
            steps = np.maximum(k_bar + 1 + positions - delay[nodes], 0)
            cols = np.arange(b, b + steps.shape[1])
            # the block's (P, K, b) bounds become the delayed history minus them,
            # then the admission check factors them in place
            diff = i_tilde_matrices(operator, beta[nodes], state[nodes], inv_r[nodes])
            np.subtract(hist[:, steps, cols], diff, out=diff)
            fail = ~_positive_definite(diff.reshape(n_pairs, -1)).reshape(steps.shape)
            fail &= positions >= first_pos[nodes]
            failing = fail.any(axis=0)
            first_fail[part[cols[failing]]] = k_bar + 1 + fail.argmax(axis=0)[failing]
            # released before the next block's bounds are made, or both blocks'
            # would be alive at once; the same holds for the chunks' histories
            del diff
        del hist

    admitted = (ct_exp > 0) & (first_fail == 0)
    if not (ct_exp > 0).any():
        log.warning("no node has an applicable step: delays are larger than the estimation horizon")
    selected = set((np.flatnonzero(admitted) + 1).tolist())
    report = np.rec.fromarrays(
        [np.arange(1, n + 1), admitted, ct_exp, first_fail, network.base, network.variance, betas],
        dtype=STABILITY_REPORT,
    )
    return selected, report


def _peak_trace_matrices(hist) -> np.ndarray:
    """(P, n) each node's packed matrix at its first step of largest trace,
    the diagonal added in order, from packed histories (P, N+1, n)."""
    diag = _kernels.packed_index(_kernels.packed_dim(hist.shape[0])).diagonal()
    trace = hist[diag[0]].copy()
    for row in diag[1:]:
        np.add(trace, hist[row], trace)
    return hist[:, np.argmax(trace, axis=0), np.arange(hist.shape[2])]


def _split(n: int, cap: int) -> int:
    """Size of the fewest equal parts of n nodes with at most cap nodes each
    (1 for no nodes, a step a loop over none can take)."""
    n = max(n, 1)
    return -(-n // -(-n // max(cap, 1)))

