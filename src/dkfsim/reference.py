"""One-matrix reference implementations that tests compare production code with.

Nothing on the production path imports this module. Each function computes
for one node, one matrix or one step what the batched code in dkf, stability,
sensing and _kernels computes for whole networks at once:

- time_update_general: one information time update (_kernels._time_update);
- kf_covariance_form: the covariance-form Kalman filter (DkfEngine.fused_runs);
- recover_estimate: one estimate from an information pair (dkf.recover_estimates);
- psi, gamma_hat, beta_hat, i_tilde: the stability operator, contraction
  constant and bound matrix (stability.beta_hat_batch, i_tilde_matrices);
- delay_steps: one node's delay in filter steps (SensorNetwork.delay_steps).
"""

from __future__ import annotations

import logging

import numpy as np

from .dkf import _symmetrize
from .errors import ConfigError, NumericError
from .model import LtvSystem, is_effectively_singular, robust_inverse, transition_matrix
from .sensing import _round_steps

log = logging.getLogger(__name__)


def time_update_general(info, iv, a_inv, q_inv):
    """One general-form time update of an information pair.

    M = Ainv^T I Ainv, C = M (M + Q^{-1})^{-1},
    I' = (I-C) M (I-C)^T + C Q^{-1} C^T, yv' = (I-C) Ainv^T yv.

    The Joseph-style product keeps the update valid for singular info; it
    equals (A I^{-1} A^T + Q)^{-1} whenever info is invertible.
    """
    mk = a_inv.T @ info @ a_inv
    c = np.linalg.solve(mk + q_inv, mk).T
    d = np.eye(info.shape[0]) - c
    info_next = _symmetrize(d @ mk @ d.T + c @ q_inv @ c.T)
    iv_next = d @ (a_inv.T @ iv)
    return info_next, iv_next


def kf_covariance_form(sys: LtvSystem, h_stacked, r_blockdiag, z,
                       n_steps: int, x0_hat=None, p0=None):
    """Standard covariance-form Kalman filter (Joseph update).

    z holds the readings, shape (n_steps+1, p); returns (xhat (N+1, m), cov (N+1, m, m)).
    """
    h = np.atleast_2d(np.asarray(h_stacked, dtype=float))
    r = np.atleast_2d(np.asarray(r_blockdiag, dtype=float))
    z = np.asarray(z, dtype=float).reshape(n_steps + 1, -1)
    m = sys.state_dim
    if h.shape != (z.shape[1], m) or r.shape != (z.shape[1], z.shape[1]):
        raise ConfigError("inconsistent oracle dimensions")
    x = np.zeros(m) if x0_hat is None else np.asarray(x0_hat, dtype=float).copy()
    p = np.eye(m) if p0 is None else np.asarray(p0, dtype=float).copy()
    eye = np.eye(m)
    xs = np.empty((n_steps + 1, m))
    ps = np.empty((n_steps + 1, m, m))
    for k in range(n_steps + 1):
        if k > 0:
            a = transition_matrix(sys, k - 1)
            x = a @ x
            p = _symmetrize(a @ p @ a.T + sys.process_noise_cov)
        s = h @ p @ h.T + r
        if is_effectively_singular(s):
            raise NumericError(f"singular innovation covariance at step {k}")
        gain = p @ h.T @ np.linalg.inv(s)
        x = x + gain @ (z[k] - h @ x)
        ikh = eye - gain @ h
        p = _symmetrize(ikh @ p @ ikh.T + gain @ r @ gain.T)
        xs[k] = x
        ps[k] = p
    return xs, ps


def recover_estimate(info, yv):
    """x = I^{-1} yv for one information pair, the pseudo-inverse where I is
    singular: |lambda|_min < 1e-10 |lambda|_max or |lambda|_min == 0 over
    np.linalg.eigvalsh(I). Returns (x (m,), flag), flag True where pinv ran."""
    svals = np.abs(np.linalg.eigvalsh(info))
    if svals.min() < 1e-10 * svals.max() or svals.min() == 0.0:
        return np.linalg.pinv(info) @ yv, True
    return np.linalg.solve(info, yv), False


def psi(info, a_k, q) -> np.ndarray:
    """One-step information-matrix time update.

    (A info^{-1} A^T + Q)^{-1} for invertible info; otherwise the general
    form (I-C) M (I-C)^T + C Q^{-1} C^T with M = A^{-T} info A^{-1} and
    C = M (M + Q^{-1})^{-1} (time_update_general).
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


def beta_hat(sys: LtvSystem, horizon_n: int, i_bound, alpha: float) -> float:
    """min over k in [0, horizon) of 1 / (1 + gamma_hat(A(k), Q, i_bound, alpha)),
    one gamma_hat per distinct A(k)."""
    i_bound = np.atleast_2d(np.asarray(i_bound, dtype=float))
    distinct = {}
    for k in range(horizon_n):
        a_k = transition_matrix(sys, k)
        distinct.setdefault(a_k.tobytes(), a_k)
    return min(1.0 / (1.0 + gamma_hat(a_k, sys.process_noise_cov, i_bound, alpha))
               for a_k in distinct.values())


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


def delay_steps(base: float, ts: float) -> int:
    """A constant delay of base seconds in filter steps.

    Round-to-nearest with ties away from zero; a 1e-9 nudge absorbs binary
    representation error in ratios like 0.015/0.01.
    """
    if ts <= 0.0:
        raise ConfigError("ts must be positive", keys=("ts",))
    return int(_round_steps(base, ts))
