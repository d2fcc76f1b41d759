"""Sensor network model: per-node measurements and the node-to-estimator delay channel."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError

R_MIN = 1e-6  # variance floor; keeps R invertible when sampled ranges touch 0


def _delay_faults(base, jitter) -> list:
    """(bad mask, message, keys) of each delay rule, in check order."""
    return [
        (base < 0.0, "delay base must be >= 0", ("delay_range",)),
        (jitter < 0.0, "jitter_std must be >= 0", ("jitter_std",)),
    ]


def _matrix_faults(h, r, rows) -> list:
    """(bad mask, message, keys) of each rule on H (n, p, m) and R (n, p, p),
    in check order; node i uses the first rows[i] rows."""
    bad_r = np.zeros(h.shape[0], dtype=bool)
    bad_h = np.zeros(h.shape[0], dtype=bool)
    for q, idx in row_groups(rows):
        rq = r[idx, :q, :q]
        bad_r[idx] = np.linalg.eigvalsh(0.5 * (rq + rq.transpose(0, 2, 1))).min(axis=1) <= 0.0
        bad_h[idx] = (np.linalg.matrix_rank(h[idx, :q]) < q) | (q > h.shape[2])
    return [
        (bad_r, "node {}: R must be positive definite", ()),
        (bad_h, "node {}: H must have full row rank p <= m", ()),
    ]


def _raise_first_fault(faults, first_id: int = 1) -> None:
    """Raise the ConfigError of the first faulty node (ids from first_id) and,
    for that node, of the first rule it breaks."""
    masks = [np.atleast_1d(mask) for mask, _, _ in faults]
    bad = np.flatnonzero(np.logical_or.reduce(masks))
    if bad.size:
        i = bad[0]
        message, keys = next((msg, keys) for mask, (_, msg, keys) in zip(masks, faults) if mask[i])
        raise ConfigError(message.format(first_id + i), keys=keys)


@dataclass(frozen=True)
class DelaySpec:
    """Constant delay (seconds) plus an optional additive Gaussian component.

    The stochastic component is drawn once per node per run, not per message.
    """

    base: float = 0.0
    jitter_std: float = 0.0

    def __post_init__(self):
        _raise_first_fault(_delay_faults(self.base, self.jitter_std))


@dataclass(frozen=True)
class SensorNode:
    """One filter node: measurement matrix H (p x m), noise covariance R (p x p), delay."""

    id: int
    h: np.ndarray
    r: np.ndarray
    delay: DelaySpec = DelaySpec()

    def __post_init__(self):
        h = np.atleast_2d(np.asarray(self.h, dtype=float))
        r = np.atleast_2d(np.asarray(self.r, dtype=float))
        p = h.shape[0]
        if r.shape != (p, p):
            raise ConfigError(f"node {self.id}: R shape {r.shape} does not match p={p}")
        _raise_first_fault(_matrix_faults(h[None], r[None], [p]), first_id=self.id)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "r", r)

    @property
    def state_dim(self) -> int:
        return self.h.shape[1]


class SensorNetwork:
    """Nodes with ids 1..n, stored as columns.

    h (n, p, m), r (n, p, p), base and jitter (n,) delay seconds, rows (n,):
    node i+1 measures rows[i] <= p rows, and h and r are zero past them. The
    columns are read-only. SensorNetwork(nodes) builds the columns from
    SensorNode objects; from_columns builds a network without them. Node i+1
    is h[i, :rows[i]], r[i, :rows[i], :rows[i]], base[i] and jitter[i].
    """

    def __init__(self, nodes=()):
        nodes = tuple(nodes)
        ids = [node.id for node in nodes]
        if ids != list(range(1, len(ids) + 1)):
            raise ConfigError("node ids must be contiguous 1..n in order")
        m = nodes[0].state_dim if nodes else 0
        for node in nodes:
            if node.state_dim != m:
                raise ConfigError(f"node {node.id} measures a {node.state_dim}-state plant, "
                                  f"node 1 a {m}-state one")
        rows = np.array([node.h.shape[0] for node in nodes], dtype=np.int64)
        p = int(rows.max()) if nodes else 1
        h = np.zeros((len(nodes), p, m))
        r = np.zeros((len(nodes), p, p))
        for i, node in enumerate(nodes):
            h[i, : rows[i]] = node.h
            r[i, : rows[i], : rows[i]] = node.r
        self._set_columns(h, r, [node.delay.base for node in nodes],
                          [node.delay.jitter_std for node in nodes], rows)

    @classmethod
    def from_columns(cls, h, r, base, jitter, rows=None) -> SensorNetwork:
        """Network of nodes 1..n from columns, validated in one vectorized pass.

        rows defaults to p for every node. Raises the ConfigError that building
        the nodes one by one would raise first.
        """
        h = np.array(h, dtype=float)
        r = np.array(r, dtype=float)
        base = np.array(base, dtype=float)
        jitter = np.array(jitter, dtype=float)
        n, p, _ = h.shape
        rows = np.full(n, p, dtype=np.int64) if rows is None else np.array(rows, dtype=np.int64)
        if r.shape != (n, p, p) or base.shape != (n,) or jitter.shape != (n,) or rows.shape != (n,):
            raise ConfigError(f"columns do not describe {n} nodes of up to {p} rows: R {r.shape}, "
                              f"base {base.shape}, jitter {jitter.shape}, rows {rows.shape}")
        _raise_first_fault(_delay_faults(base, jitter) + _matrix_faults(h, r, rows))
        net = cls.__new__(cls)
        net._set_columns(h, r, base, jitter, rows)
        return net

    def _set_columns(self, h, r, base, jitter, rows):
        for name, value in (("h", h), ("r", r), ("base", base), ("jitter", jitter),
                            ("rows", rows)):
            value = np.asarray(value, dtype=np.int64 if name == "rows" else float)
            value.flags.writeable = False
            setattr(self, name, value)

    def __len__(self):
        return self.h.shape[0]

    @property
    def state_dim(self) -> int:
        return self.h.shape[2]

    def ids(self) -> list[int]:
        return list(range(1, len(self) + 1))

    @cached_property
    def variances(self) -> np.ndarray:
        """Largest eigenvalue of every node's R."""
        out = np.empty(len(self))
        for q, idx in row_groups(self.rows):
            out[idx] = np.linalg.eigvalsh(self.r[idx, :q, :q])[:, -1]
        return out

    def delay_steps(self, ts: float) -> np.ndarray:
        """Every node's delay in filter steps. A node with jitter raises
        ConfigError: its delay is drawn by resolve_delays, not here."""
        if ts <= 0.0:
            raise ConfigError("ts must be positive", keys=("ts",))
        jittered = np.flatnonzero(self.jitter > 0.0)
        if jittered.size:
            raise ConfigError(f"node {jittered[0] + 1} has unresolved stochastic delay; "
                              "apply sensing.resolve_delays")
        return _round_steps(self.base, ts).astype(np.int64)


def row_groups(rows) -> list:
    """(p, indices) for each distinct row count p in rows; indices ascend."""
    return [(int(q), np.flatnonzero(rows == q)) for q in np.unique(rows)]


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
    """Draw n single-row sensors: random basis row H, R ~ U[variance_range], delay ~ U[delay_range].

    Variances are clamped below at R_MIN so information quantities stay finite.
    """
    if n < 1:
        raise ConfigError("cannot sample an empty network", keys=("n_sensors",))
    for name, (lo, hi) in (("variance_range", variance_range), ("delay_range", delay_range)):
        if not (0.0 <= lo <= hi):
            raise ConfigError(f"{name} must satisfy 0 <= lo <= hi", keys=(name,))
    rows = rng.integers(0, state_dim, size=n)
    variances = np.maximum(rng.uniform(variance_range[0], variance_range[1], size=n), R_MIN)
    delays = rng.uniform(delay_range[0], delay_range[1], size=n)
    h = np.zeros((n, 1, state_dim))
    h[np.arange(n), 0, rows] = 1.0
    return SensorNetwork.from_columns(h, variances[:, None, None], delays, np.full(n, jitter_std))


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
    return SensorNetwork.from_columns(network.h, network.r, base, np.zeros(len(network)),
                                      network.rows)


def load_network(path, state_dim: int = 2) -> SensorNetwork:
    """Read a network file: one node per line, `id h_row_index variance delay_s jitter_std`.

    A field that does not parse, or a row index outside [0, state_dim), raises
    ConfigError naming path:line; a file without node lines raises ConfigError.
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
    values = np.array(values, dtype=float).reshape(n, 3)
    h = np.zeros((n, 1, state_dim))
    h[np.arange(n), 0, np.array(rows, dtype=np.int64)] = 1.0
    network = SensorNetwork.from_columns(
        h, np.maximum(values[:, 0], R_MIN)[:, None, None], values[:, 1], values[:, 2]
    )
    if ids != network.ids():
        raise ConfigError("node ids must be contiguous 1..n in order")
    return network
