"""Stability machinery for the delayed DKF, batched over nodes: the contraction
constant beta-hat and the lower-bound matrices used as the admission threshold
by the stability-based node selection. A node enters as its measured state
s_i and 1/r_i; l_i = e_s e_s^T / r_i is never formed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .dkf import Scenario, _symmetrize
from .errors import ConfigError
from .model import robust_inverse, transition_matrix  # noqa: F401 - per-layer tracing wraps these names

log = logging.getLogger(__name__)

DEFAULT_K_BAR = 20
DEFAULT_ALPHA = 1e-6
PRUNE_MARGIN = 1e-10  # relative slack under which _gamma_max_pruned drops a noise term


@dataclass
class StabilityParams:
    """Inputs for the bound: window length and the regularization of the
    contraction, which the selection derives per node from that node's own
    delay-free information history."""

    k_bar: int = DEFAULT_K_BAR
    alpha: float = DEFAULT_ALPHA

    def __post_init__(self):
        if self.k_bar < 1:
            raise ConfigError("k_bar must be >= 1", keys=("k_bar",))
        if self.alpha <= 0.0:
            raise ConfigError("alpha must be > 0", keys=("alpha",))


def _distinct_noise_terms(scenario) -> np.ndarray:
    """Deduplicated A(k)^{-1} Q A(k)^{-T} over the scenario's steps k < n_steps."""
    first = {}
    for k, a in enumerate(scenario.a_seq):
        first.setdefault(a.tobytes(), k)
    a_inv = scenario.a_inv_seq[list(first.values())]
    return a_inv @ scenario.sys.process_noise_cov @ a_inv.transpose(0, 2, 1)


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


def beta_hat_batch(bounds, alpha: float, terms) -> np.ndarray:
    """beta-hat for a stack of bound matrices (b, m, m) at once against the
    scenario's distinct noise terms (_distinct_noise_terms), which a caller
    that runs many batches derives once; returns (b,)."""
    bounds = np.asarray(bounds, dtype=float)
    m = bounds.shape[-1]
    w, v = np.linalg.eigh(_symmetrize(bounds) + alpha * np.eye(m))
    halves = v @ (np.sqrt(np.maximum(w, 0.0))[..., None] * v.transpose(0, 2, 1))
    return 1.0 / (1.0 + _gamma_max_pruned(halves, terms))


def bound_operator(scenario: Scenario, k_bar: int):
    """The linear map from a node's window inputs to its packed bound matrices
    for k in (k_bar, N], N the scenario's steps: op, C-contiguous, of shape
    (k_bar, m, P, K), P = m (m + 1) / 2, K = N - k_bar.

    Row (tau, s) and column (a >= d, k), the pairs a >= d in np.tril_indices
    order, hold G[s, d] G[s, a], with G = G_tau(k) = (A(k-1) ... A(k-tau+1))^{-1},
    G_1 = I: the (a, d) entry of G^T l_i G for a node measuring state s, per
    unit of 1/r_i, since l_i = e_s e_s^T / r_i; every bound is symmetric, so
    one column gives its (a, d) and (d, a) entries. Built once per selection
    pass and applied per block of nodes by i_tilde_matrices; the
    pseudo-inverse steps the G products take are reported by the caller
    (warn_pinv_steps).
    """
    ks = np.arange(k_bar + 1, scenario.n_steps + 1)
    m = scenario.sys.state_dim
    lower = np.tril_indices(m)
    g = np.empty((ks.size, k_bar, m, m))
    g[:, 0] = np.eye(m)
    for tau in range(2, k_bar + 1):
        g[:, tau - 1] = scenario.a_inv_seq[ks - tau + 1] @ g[:, tau - 2]
    g = g.transpose(1, 2, 3, 0)  # g[tau - 1, s, a, j] = G_tau(k_bar + 1 + j)[s, a]
    op = np.empty((k_bar, m, lower[0].size, ks.size))
    return np.multiply(g[:, :, lower[1]], g[:, :, lower[0]], out=op)


def i_tilde_matrices(op, betas, state, inv_r) -> np.ndarray:
    """Packed bound matrices for a stack of nodes: (P, K, n), row p holding
    entry np.tril_indices(m)[p] (the layout of node_info_histories).

    Itilde_i(k) = sum_tau betas[i]^{tau-1} G_tau(k)^T l_i G_tau(k) over the
    window of bound_operator, for node i measuring state state[i] with
    l_i = e_s e_s^T inv_r[i]. Node i's inputs betas[i]^{tau-1} inv_r[i] in
    column state[i], zero elsewhere, form one column, so a block of nodes is
    one matmul of the shared operator, transposed, against those columns.
    """
    betas = np.asarray(betas, dtype=float)
    k_bar, m, n_pairs, n_pos = op.shape
    n = betas.size
    beta_pow = betas[:, None] ** np.arange(k_bar)[None, :]
    inputs = np.zeros((n, k_bar, m))
    inputs[np.arange(n), :, state] = beta_pow * inv_r[:, None]
    out = op.reshape(k_bar * m, -1).T @ inputs.reshape(n, -1).T
    return out.reshape(n_pairs, n_pos, n)


def warn_pinv_steps(scenario: Scenario, k_bar: int):
    """Log each step j whose A(j) the bounds for k in (k_bar, N] take as a
    pseudo-inverse: G_tau(k) inverts A(k - tau + 1) for 2 <= tau <= k_bar, so
    every 2 <= j < N when k_bar >= 2, and none for a one-step window."""
    for j in scenario.a_pinv_steps:
        if k_bar >= 2 and 2 <= j < scenario.n_steps:
            log.warning("i_tilde: A(%d) effectively singular, using pseudo-inverse", j)


def compute_params(k_bar: int = DEFAULT_K_BAR, alpha: float = DEFAULT_ALPHA) -> StabilityParams:
    """StabilityParams for a stability run: the one call through which the
    harness makes the parameters, which perfbench times as its
    stability.compute_params site."""
    return StabilityParams(k_bar=k_bar, alpha=alpha)
