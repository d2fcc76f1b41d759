"""Stability machinery for the delayed DKF: the one-step information operator
psi_k, the contraction constant beta-hat, and the lower-bound matrix used as
the admission threshold by the stability-based node selection.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .dkf import Scenario, _symmetrize, time_update_general
from .errors import ConfigError, NumericError
from .model import LtvSystem, is_effectively_singular, robust_inverse, transition_matrix
from .sensing import SensorNetwork

log = logging.getLogger(__name__)

DEFAULT_K_BAR = 20
DEFAULT_ALPHA = 1e-6
GAMMA_CHUNK = 64  # nodes per chunk in _gamma_max_2x2; 32-64 ran ~30% faster than 256 or unchunked
PRUNE_MARGIN = 1e-10  # relative slack under which _gamma_max_pruned drops a noise term


@dataclass
class StabilityParams:
    """Inputs for the bound: window length, regularization, contraction.

    beta_hat=None selects the per-node contraction mode, in which each node's
    beta is derived from its own delay-free information history.
    """

    k_bar: int = DEFAULT_K_BAR
    alpha: float = DEFAULT_ALPHA
    beta_hat: float | None = None

    def __post_init__(self):
        if self.k_bar < 1:
            raise ConfigError("k_bar must be >= 1", keys=("k_bar",))
        if self.alpha <= 0.0:
            raise ConfigError("alpha must be > 0", keys=("alpha",))
        if self.beta_hat is not None and not (0.0 < self.beta_hat <= 1.0):
            raise ConfigError("beta_hat must lie in (0, 1]", keys=("beta_hat_override",))


def psi(info, a_k, q) -> np.ndarray:
    """One-step information-matrix time update.

    (A info^{-1} A^T + Q)^{-1} for invertible info; otherwise the general
    form (I-C) M (I-C)^T + C Q^{-1} C^T with M = A^{-T} info A^{-1} and
    C = M (M + Q^{-1})^{-1} (dkf.time_update_general).
    """
    info = _symmetrize(np.asarray(info, dtype=float))
    a_k = np.asarray(a_k, dtype=float)
    q = np.asarray(q, dtype=float)
    if not is_effectively_singular(info):
        out = np.linalg.inv(a_k @ np.linalg.solve(info, a_k.T) + q)
        if not np.all(np.isfinite(out)):
            raise NumericError("non-finite psi result")
        return _symmetrize(out)
    a_inv, _ = robust_inverse(a_k)
    out, _ = time_update_general(info, np.zeros(info.shape[0]), a_inv, np.linalg.inv(q))
    if not np.all(np.isfinite(out)):
        raise NumericError("non-finite psi result")
    return out


def _psd_sqrt(b):
    w, v = np.linalg.eigh(_symmetrize(b))
    return v @ np.diag(np.sqrt(np.maximum(w, 0.0))) @ v.T


def gamma_hat(a_k, q, info, alpha: float) -> float:
    """Smallest gamma with A^{-1} Q A^{-T} <= gamma (info + alpha I)^{-1}.

    Computed as the largest eigenvalue of
    (info + alpha I)^{1/2} A^{-1} Q A^{-T} (info + alpha I)^{1/2}.
    """
    if alpha <= 0.0:
        raise ConfigError("alpha must be > 0", keys=("alpha",))
    info = _symmetrize(np.asarray(info, dtype=float))
    a_inv, _ = robust_inverse(np.asarray(a_k, dtype=float))
    half = _psd_sqrt(info + alpha * np.eye(info.shape[0]))
    t = a_inv @ np.asarray(q, dtype=float) @ a_inv.T
    return float(max(np.linalg.eigvalsh(_symmetrize(half @ t @ half)).max(), 0.0))


def _distinct_noise_terms(scenario) -> np.ndarray:
    """Deduplicated A(k)^{-1} Q A(k)^{-T} over the scenario's steps k < n_steps."""
    first = {}
    for k, a in enumerate(scenario.a_seq):
        first.setdefault(a.tobytes(), k)
    a_inv = scenario.a_inv_seq[list(first.values())]
    return a_inv @ scenario.sys.process_noise_cov @ a_inv.transpose(0, 2, 1)


def _require_network(scenario) -> SensorNetwork:
    """The scenario's network; a plant-only scenario has none to select from."""
    if scenario.network is None:
        raise ConfigError("the scenario has no sensor network")
    return scenario.network


def _gamma_max_2x2(bounds, terms) -> np.ndarray:
    """max over terms T of lambda_max(B T) for 2x2 B (n, 2, 2), T (t, 2, 2).

    B^{1/2} T B^{1/2} and B T share their eigenvalues, so no square root of B
    is needed: for a 2x2 product P they are tr/2 +- sqrt(tr^2/4 - det), with
    tr^2/4 - det written as ((P11 - P22)/2)^2 + P12 P21 so that near-equal
    eigenvalues lose no accuracy.
    """
    t_cols = terms.transpose(1, 0, 2).reshape(2, -1)  # column (t, s) holds T_t[:, s]
    out = np.empty(bounds.shape[0])
    for lo in range(0, bounds.shape[0], GAMMA_CHUNK):
        b = bounds[lo:lo + GAMMA_CHUNK]
        prod = (b.reshape(-1, 2) @ t_cols).reshape(b.shape[0], 2, -1, 2)
        p11, p12, p21, p22 = prod[:, 0, :, 0], prod[:, 0, :, 1], prod[:, 1, :, 0], prod[:, 1, :, 1]
        disc = np.maximum((0.5 * (p11 - p22)) ** 2 + p12 * p21, 0.0)
        out[lo:lo + GAMMA_CHUNK] = (0.5 * (p11 + p22) + np.sqrt(disc)).max(axis=1)
    return out


def _lambda_max(halves, terms) -> np.ndarray:
    """Largest eigenvalue of H T H for paired stacks H, T (e, m, m)."""
    return np.linalg.eigvalsh(_symmetrize(halves @ terms @ halves))[:, -1]


def _gamma_max_pruned(halves, terms) -> np.ndarray:
    """max(0, max over terms T of lambda_max(H T H)) for PSD H (n, m, m), T (t, m, m).

    H T H is PSD, so lambda_max(H T H) <= tr(H T H) = <H^2, T>, and one matmul
    gives every trace. Per node, the exact eigenvalue of the max-trace term is
    a floor; a term whose trace falls below it (less a relative margin that
    absorbs rounding) cannot raise the maximum, so eigvalsh runs only on the
    terms left. Each product is formed as the per-term loop forms it, so the
    result is that loop's to the bit.
    """
    n, m, _ = halves.shape
    traces = (halves @ halves).reshape(n, m * m) @ terms.reshape(-1, m * m).T  # (n, t)
    top = np.argmax(traces, axis=1)
    floor = _lambda_max(halves, terms[top])
    traces[np.arange(n), top] = -np.inf  # the floor's own term is done
    node, term = np.nonzero(traces > (floor * (1.0 - PRUNE_MARGIN))[:, None])
    gamma_max = np.maximum(floor, 0.0)
    np.maximum.at(gamma_max, node, _lambda_max(halves[node], terms[term]))
    return gamma_max


def beta_hat_batch(scenario: Scenario, bounds, alpha: float) -> np.ndarray:
    """beta-hat for a stack of bound matrices (b, m, m) at once, over the
    scenario's horizon; returns (b,)."""
    bounds = np.asarray(bounds, dtype=float)
    m = bounds.shape[-1]
    terms = _distinct_noise_terms(scenario)
    regularized = _symmetrize(bounds) + alpha * np.eye(m)
    if m == 2:
        gamma_max = _gamma_max_2x2(regularized, terms)
    else:
        w, v = np.linalg.eigh(regularized)
        halves = v @ (np.sqrt(np.maximum(w, 0.0))[..., None] * v.transpose(0, 2, 1))
        gamma_max = _gamma_max_pruned(halves, terms)
    return 1.0 / (1.0 + np.maximum(gamma_max, 0.0))


def beta_hat(sys: LtvSystem, horizon_n: int, i_bound, alpha: float) -> float:
    """min over k in [0, horizon) of 1 / (1 + gamma_hat(A(k), Q, i_bound, alpha))."""
    i_bound = np.atleast_2d(np.asarray(i_bound, dtype=float))
    return float(beta_hat_batch(Scenario(sys, None, horizon_n), i_bound[None], alpha)[0])


def i_tilde(k: int, k_bar: int, beta: float, sys: LtvSystem, l_node) -> np.ndarray:
    """Lower-bound matrix at step k over a window of k_bar steps:

    sum_{tau=1..k_bar} beta^{tau-1} G_tau^T l G_tau,
    G_tau = (A(k-1) ... A(k-tau+1))^{-1}, with G_1 = I.
    """
    if k < k_bar:
        raise ConfigError(f"k={k} must be >= k_bar={k_bar}", keys=("k_bar",))
    l_node = _symmetrize(np.asarray(l_node, dtype=float))
    m = l_node.shape[0]
    g = np.eye(m)
    total = np.zeros((m, m))
    scale = 1.0
    for tau in range(1, k_bar + 1):
        if tau > 1:
            a_inv, used_pinv = robust_inverse(transition_matrix(sys, k - tau + 1))
            if used_pinv:
                log.warning("i_tilde: A(%d) effectively singular, using pseudo-inverse", k - tau + 1)
            g = a_inv @ g
            scale *= beta
        total += scale * (g.T @ l_node @ g)
    return _symmetrize(total)


def i_tilde_matrices(scenario: Scenario, k_lo: int, k_hi: int, k_bar: int, betas,
                     l_all) -> np.ndarray:
    """Full bound matrices for a stack of nodes: (n, k_hi - k_lo + 1, m, m).

    Itilde_i(k) = sum_tau betas[i]^{tau-1} G_tau(k)^T l_all[i] G_tau(k) for k
    in [k_lo, k_hi], with G_tau(k) = (A(k-1) ... A(k-tau+1))^{-1}, G_1 = I;
    the G products are shared across nodes, so this is one einsum per sweep.
    The einsum's contraction order is fixed from the shapes of the scenario's
    whole network, so a node chunk of it contracts as the whole network does.
    The pseudo-inverse steps the G products take are reported by the caller
    (warn_pinv_steps).
    """
    if k_lo < k_bar:
        raise ConfigError(f"k_lo={k_lo} must be >= k_bar={k_bar}", keys=("k_bar",))
    if k_hi > scenario.n_steps:
        raise ConfigError(f"k_hi={k_hi} exceeds the scenario's {scenario.n_steps} steps",
                          keys=("horizon",))
    ks = np.arange(k_lo, k_hi + 1)
    m = scenario.sys.state_dim
    g = np.empty((ks.size, k_bar, m, m))
    g[:, 0] = np.eye(m)
    for tau in range(2, k_bar + 1):
        g[:, tau - 1] = scenario.a_inv_seq[ks - tau + 1] @ g[:, tau - 2]
    betas = np.asarray(betas, dtype=float)
    l_all = np.asarray(l_all, dtype=float)
    beta_pow = betas[:, None] ** np.arange(k_bar)[None, :]
    subscripts = "ktba,ibc,ktcd,it->ikad"
    n_all = len(l_all) if scenario.network is None else len(scenario.network)
    path = np.einsum_path(subscripts, g, np.broadcast_to(0.0, (n_all, m, m)), g,
                          np.broadcast_to(0.0, (n_all, k_bar)), optimize=True)[0]
    out = np.einsum(subscripts, g, l_all, g, beta_pow, optimize=path)
    return _symmetrize(out)


def warn_pinv_steps(scenario: Scenario, k_lo: int, k_hi: int, k_bar: int):
    """Log each step j whose A(j) the bounds for k in [k_lo, k_hi] take as a
    pseudo-inverse."""
    for j in scenario.a_pinv_steps:
        if k_lo - k_bar + 1 <= j < k_hi:
            log.warning("i_tilde: A(%d) effectively singular, using pseudo-inverse", j)


def estimate_info_bound(scenario: Scenario) -> np.ndarray:
    """Pilot delay-free pass: uniform bound on the fused information sequence.

    Runs the fused information recursion with every node of the scenario
    delivering at delay 0 (measurements do not enter the information flow)
    and returns the max-trace I(k|k), symmetrized.
    """
    _require_network(scenario)
    m = scenario.sys.state_dim
    n_out = scenario.n_steps + 1
    info_inc = np.broadcast_to(scenario.l_all.sum(axis=0), (1, n_out, m, m)).copy()
    info_hist, _ = _kernels.fused_info_recursion(
        scenario.a_inv_seq, scenario.q_inv, info_inc, np.zeros((1, n_out, m)),
        np.zeros((m, m)), np.zeros(m),
    )
    info_hist = info_hist[0]
    traces = np.trace(info_hist, axis1=1, axis2=2)
    return _symmetrize(info_hist[int(np.argmax(traces))])


def compute_params(
    scenario: Scenario,
    k_bar: int = DEFAULT_K_BAR,
    alpha: float = DEFAULT_ALPHA,
    beta_hat_override: float | None = None,
    per_node: bool = True,
) -> StabilityParams:
    """StabilityParams for a prepared scenario (plant, network and horizon).

    per_node=True leaves beta_hat unset so the selection derives one
    contraction per node from that node's own information history; this is the
    discriminating variant. per_node=False computes a single global beta_hat
    from the fused pilot bound (estimate_info_bound), the only case that runs
    the pilot pass. beta_hat_override fixes beta_hat and skips both.
    """
    if beta_hat_override is not None:
        beta = float(beta_hat_override)
    elif per_node:
        beta = None
    else:
        beta = float(beta_hat_batch(scenario, estimate_info_bound(scenario)[None], alpha)[0])
    return StabilityParams(k_bar=k_bar, alpha=alpha, beta_hat=beta)
