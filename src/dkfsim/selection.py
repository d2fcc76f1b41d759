"""Sensor subset selection: the greedy threshold sweep (benchmark, needs ground
truth) and the stability-criterion selection (needs only information histories),
plus the MSE / maximum-deviation metrics both report.
"""

from __future__ import annotations

import logging
import math

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
# (N + 1) m (m + 1) / 2 per node: the network splits into the fewest chunks
# within it, of equal size (chunks of 667, 667 and 666 nodes at m=5, N=200,
# 2000 nodes; one chunk at m=2). A chunk stores each node's history only at
# the steps its admission reads, so with delays U[0, N] steps, as on the
# benchmark, it fills about half the budget. The admission check holds about
# four (P, entries) arrays per node block; blocks of an eighth of the budget,
# split the same way, keep them within half of it
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


# one record per iteration of greedy_select's sweep: the columns of greedy_report.csv
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


def greedy_select(engine: DkfEngine, iterations: int, r_max: float, tau_max: float,
                  settle: int) -> np.recarray:
    """Threshold sweep: iteration k admits sweep_masks(network, R0(k), tau0(k)),
    with R0, tau0 shrinking linearly from (r_max, tau_max) toward zero.

    The engine's network supplies the variances and delays. All non-empty
    iterations run as one batched DKF pass (DkfEngine.fused_runs) against the
    engine's one plant/noise realization, so the sweep compares subsets, not
    sample paths. Each is scored against the engine's ground-truth states
    (benchmark use only), the MSE over steps settle..N (the harness passes
    settling_index of the truth). Returns a GREEDY_REPORT record array, one
    record per iteration; an iteration with an empty subset holds NaN metrics.
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
    if ran.any():
        try:
            xhats = engine.fused_runs(masks[ran])[2]
        except DivergenceError as exc:
            iteration = int(np.flatnonzero(ran)[exc.row]) + 1
            raise DivergenceError(
                f"non-finite fused information in greedy iteration {iteration} at step {exc.step}",
                step=exc.step,
            ) from exc
        report.mse[ran], report.md[ran], report.mse_raw[ran] = scores(xhats, engine.truth, settle)
    return report


# one record per node of stability_select's report, in id order
STABILITY_REPORT = np.dtype([
    ("node_id", np.int64), ("selected", bool), ("ct_exp", np.int64), ("ct_act", np.int64),
    ("delay_s", float), ("variance", float), ("beta_hat", float),
])


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
    delta, trusted = _kernels.rounding_shift(packed)
    positive, _ = _kernels._cholesky_outcome(packed.copy(), delta)
    positive &= trusted
    rest = np.flatnonzero(~positive)
    # the gather is a fresh array, so the bracket may factor it in place
    _, negative = _kernels._cholesky_outcome(np.take(packed, rest, axis=1), -delta[rest])
    undecided = rest[~(negative & trusted[rest])]
    if undecided.size:
        full = _kernels.unpack(np.take(packed, undecided, axis=1))
        positive[undecided] = np.linalg.eigvalsh(full)[:, 0] > 0.0
    return positive


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
    (sensing.resolve_delays). Returns (selected ids, report): report is a
    STABILITY_REPORT record array with one record per node in id order. A
    stored history that is not finite raises DivergenceError naming its node.

    The pass runs over node chunks of STABILITY_CHUNK packed history entries.
    A chunk takes its nodes in delay order, so that the nodes whose admission
    reads a step form one range, and stores their histories only there, with
    each node's peak-trace matrix for beta-hat; then it runs bounds and
    admission check block by block. Neither the whole network's histories nor
    its bounds are held at once.
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
    warn_pinv_steps(scenario, k_bar)
    betas = np.empty(n)
    ct_act = np.empty(n, dtype=np.int64)
    operator = bound_operator(scenario, k_bar)
    terms = stability._distinct_noise_terms(scenario)
    chunk = _split(n, STABILITY_CHUNK // ((n_steps + 1) * n_pairs))
    block = _split(chunk, STABILITY_CHUNK // (8 * n_pos * n_pairs))
    for lo in range(0, n, chunk):
        part = lo + np.argsort(d[lo:lo + chunk], kind="stable")  # delay order within the chunk
        state, inv_r, delay, first_pos, expected = (
            a[part] for a in (network.state, scenario.inv_r, d, first, ct_exp))
        # delay-free per-node information histories (the local IF recursions),
        # packed, stored only at the steps the admission reads
        start, stop = _admission_windows(delay, k_bar, n_steps)
        column = _kernels.window_columns(start, stop)
        peak = np.empty((n_pairs, part.size))
        with np.errstate(invalid="ignore"):  # a NaN history raises below
            hist = _kernels.node_info_histories(scenario.a_inv_seq, scenario.q_inv, state,
                                                inv_r, start, stop, peak)
        finite = np.isfinite(hist).all(axis=0)
        if not finite.all():  # name the first stored step, then the first node, that fails
            c = int(np.argmin(finite))
            k = int(np.searchsorted(column + start, c, side="right")) - 1
            raise DivergenceError(f"non-finite information history of node "
                                  f"{part[c - column[k]] + 1} at step {k}", step=k)
        # per-node contraction from each node's own history bound
        betas[part] = beta = beta_hat_batch(_kernels.unpack(peak), params.alpha, terms)
        for b in range(0, part.size, block):
            nodes = slice(b, b + block)
            counts = expected[nodes]
            # one entry per applicable (node, position) pair of this block
            node = np.repeat(np.arange(counts.size), counts)
            pos = (np.arange(node.size) - np.repeat(np.cumsum(counts) - counts, counts)
                   + first_pos[b + node])
            # each entry's bound, gathered from the block's (P, K, b) bounds, then
            # the delayed history minus it; np.take keeps the (P, e) gathers
            # C-ordered, where a[:, idx] returns them F-ordered, so the admission
            # check's max/min and Cholesky rows read contiguous memory
            bounds = i_tilde_matrices(operator, beta[nodes], state[nodes],
                                      inv_r[nodes]).reshape(n_pairs, -1)
            diff = np.take(bounds, pos * counts.size + node, axis=1)
            del bounds
            np.subtract(np.take(hist, column[k_bar + 1 + pos - delay[b + node]] + b + node, axis=1),
                        diff, out=diff)
            ct_act[part[nodes]] = np.bincount(node, weights=_positive_definite(diff),
                                              minlength=counts.size)
        # released before the next chunk's histories are made, or both chunks'
        # would be alive at once
        del hist, diff

    admitted = (ct_exp > 0) & (ct_exp == ct_act)
    if not (ct_exp > 0).any():
        log.warning("no node has an applicable step: delays are larger than the estimation horizon")
    selected = set((np.flatnonzero(admitted) + 1).tolist())
    report = np.rec.fromarrays(
        [np.arange(1, n + 1), admitted, ct_exp, ct_act, network.base, network.variance, betas],
        dtype=STABILITY_REPORT,
    )
    return selected, report


def _split(n: int, cap: int) -> int:
    """Size of the fewest equal parts of n nodes with at most cap nodes each."""
    return -(-n // -(-n // max(cap, 1)))


def _admission_windows(d, k_bar: int, n_steps: int):
    """(start, stop) per history step t = 0..N for nodes in ascending order
    of their delays d (steps): nodes start[t] .. stop[t] - 1 are those whose
    admission reads I_i(t), the t >= 1 with k_bar < t + d_i <= N."""
    t = np.arange(n_steps + 1)
    start = np.searchsorted(d, k_bar + 1 - t)
    stop = np.searchsorted(d, n_steps - t, side="right")
    stop[0] = start[0]  # no admission step reads the zero-prior step 0
    return start, stop
