"""Sensor network model: each node measures one state of the plant with a
scalar noise variance and reaches the estimator through a delay channel."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, SelectionError

R_MIN = 1e-6  # variance floor; keeps 1/R finite when sampled ranges touch 0
MAX_DELAY_STEPS = 2**62  # far past any horizon, and below the int64 overflow at 2**63


class SensorNetwork:
    """Nodes with ids 1..n, stored as read-only columns.

    Node i+1 measures state state[i] of a state_dim-state plant,
    z = x[state[i]] + v with v ~ N(0, variance[i]); its delay is base[i]
    seconds plus, when jitter[i] > 0, one Gaussian draw of that std
    (resolve_delays). Its information contribution is
    l_i = e_s e_s^T / variance[i], s = state[i].

    The columns are validated in one pass; the first faulty node, and for it
    the first rule it breaks, raises ConfigError naming the node.
    """

    def __init__(self, state, variance, base, jitter, state_dim: int):
        state = np.array(state, dtype=np.int64)
        variance, base, jitter = (np.array(c, dtype=float) for c in (variance, base, jitter))
        n = state.size
        if any(c.shape != (n,) for c in (state, variance, base, jitter)):
            raise ConfigError(f"columns do not describe {n} nodes: state {state.shape}, "
                              f"variance {variance.shape}, base {base.shape}, jitter {jitter.shape}")
        faults = [
            (~(np.isfinite(base) & (base >= 0.0)), "delay base must be finite and >= 0",
             ("delay_range",)),
            (~(np.isfinite(jitter) & (jitter >= 0.0)), "jitter_std must be finite and >= 0",
             ("jitter_std",)),
            (~(np.isfinite(variance) & (variance > 0.0)), "variance must be finite and > 0", ()),
            ((state < 0) | (state >= state_dim), f"state index outside [0, {state_dim})", ()),
        ]
        bad = np.flatnonzero(np.logical_or.reduce([mask for mask, _, _ in faults]))
        if bad.size:
            i = bad[0]
            message, keys = next((msg, keys) for mask, msg, keys in faults if mask[i])
            raise ConfigError(f"node {i + 1}: {message}", keys=keys)
        for column in (state, variance, base, jitter):
            column.flags.writeable = False
        self.state, self.variance, self.base, self.jitter = state, variance, base, jitter
        self.state_dim = int(state_dim)

    def __len__(self):
        return self.state.size

    def ids(self) -> list[int]:
        return list(range(1, len(self) + 1))

    def mask(self, ids) -> np.ndarray:
        """The (n,) bool mask of node ids (column i is id i+1), repeats counted
        once. SelectionError for an id that is not an integer, no id at all,
        or an id outside 1..n."""
        not_integers = [i for i in ids
                        if isinstance(i, bool) or not isinstance(i, (int, np.integer))]
        if not_integers:
            raise SelectionError(f"node ids must be integers, got {not_integers}")
        ids = sorted(set(int(i) for i in ids))
        if not ids:
            raise SelectionError("node subset is empty")
        unknown = [i for i in ids if not 1 <= i <= len(self)]
        if unknown:
            raise SelectionError(f"unknown node ids in subset: {unknown}")
        mask = np.zeros(len(self), dtype=bool)
        mask[np.array(ids) - 1] = True
        return mask

    def delay_steps(self, ts: float) -> np.ndarray:
        """Every node's delay in filter steps, at most MAX_DELAY_STEPS, so a
        delay however long stays a step past any horizon. A node with jitter
        raises ConfigError: its delay is drawn by resolve_delays, not here."""
        if ts <= 0.0:
            raise ConfigError("ts must be positive", keys=("ts",))
        jittered = np.flatnonzero(self.jitter > 0.0)
        if jittered.size:
            raise ConfigError(f"node {jittered[0] + 1} has unresolved stochastic delay; "
                              "apply sensing.resolve_delays")
        with np.errstate(over="ignore"):  # a quotient past the float range clips as inf
            return np.minimum(_round_steps(self.base, ts), MAX_DELAY_STEPS).astype(np.int64)


def _round_steps(eff, ts):
    """Non-negative delay seconds to filter steps.

    Round-to-nearest with ties away from zero; a 1e-9 nudge absorbs binary
    representation error in ratios like 0.015/0.01.
    """
    return np.floor(eff / ts + 0.5 + 1e-9)


def sample_network(
    n: int,
    variance_range,
    delay_range,
    rng: np.random.Generator,
    state_dim: int = 2,
    jitter_std: float = 0.0,
) -> SensorNetwork:
    """Draw n sensors: a uniform random measured state, variance ~ U[variance_range],
    delay ~ U[delay_range].

    Variances are clamped below at R_MIN so information quantities stay finite.
    """
    if n < 1:
        raise ConfigError("cannot sample an empty network", keys=("n_sensors",))
    for name, (lo, hi) in (("variance_range", variance_range), ("delay_range", delay_range)):
        if not (0.0 <= lo <= hi < np.inf):
            raise ConfigError(f"{name} must satisfy 0 <= lo <= hi < inf", keys=(name,))
    state = rng.integers(0, state_dim, size=n)
    variance = np.maximum(rng.uniform(variance_range[0], variance_range[1], size=n), R_MIN)
    delays = rng.uniform(delay_range[0], delay_range[1], size=n)
    return SensorNetwork(state, variance, delays, np.full(n, jitter_std), state_dim)


def resolve_delays(network: SensorNetwork, rng: np.random.Generator | None = None) -> SensorNetwork:
    """Fold each node's jitter draw into a constant delay (one draw per node).

    Returns an equivalent network with jitter_std = 0 everywhere, suitable for
    the selection algorithms, which require delays to be known.
    """
    jittered = np.flatnonzero(network.jitter > 0.0)
    if not jittered.size:
        return network
    if rng is None:
        raise ConfigError("network has stochastic delays; rng required")
    base = network.base.copy()
    base[jittered] = np.maximum(base[jittered] + rng.normal(0.0, network.jitter[jittered]), 0.0)
    return SensorNetwork(network.state, network.variance, base, np.zeros(len(network)),
                         network.state_dim)


def load_network(path, state_dim: int = 2) -> SensorNetwork:
    """Read a network file: one node per line, `id h_row_index variance delay_s jitter_std`,
    where h_row_index is the measured state.

    A field that does not parse, or a row index outside [0, state_dim), raises
    ConfigError naming path:line; a file without node lines raises ConfigError.
    Variances in [0, R_MIN) are clamped up to R_MIN; a negative or non-finite
    variance, and a non-finite delay or jitter, raises the network's
    ConfigError naming the node.
    """
    ids, rows, values = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 5:
                raise ConfigError(f"{path}:{lineno}: expected 5 fields, got {len(parts)}")
            try:
                node_id, row = int(parts[0]), int(parts[1])
                row_values = [float(v) for v in parts[2:]]
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
            if not 0 <= row < state_dim:
                raise ConfigError(f"{path}:{lineno}: h_row_index {row} outside [0, {state_dim})")
            ids.append(node_id)
            rows.append(row)
            values.append(row_values)
    n = len(ids)
    if n == 0:
        raise ConfigError(f"{path}: no nodes")
    variance, base, jitter = np.array(values, dtype=float).reshape(n, 3).T
    # the floor is for zero variances; a negative one reaches the network's check
    variance = np.where(variance < 0.0, variance, np.maximum(variance, R_MIN))
    network = SensorNetwork(rows, variance, base, jitter, state_dim)
    if ids != network.ids():
        raise ConfigError("node ids must be contiguous 1..n in order")
    return network
