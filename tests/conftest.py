import contextlib
import warnings

import numpy as np
import pytest

from dkfsim.model import LtvSystem, MatrixTable, builtin_system
from dkfsim.sensing import SensorNetwork


# The Hypothesis plugin imports hypothesis.extra._patching only when a property
# fails, to write a patch for it; that loads libcst, whose mypy_extensions
# import warns DeprecationWarning, which -W error turns into an INTERNALERROR
# that hides the failing test and stops the run. Loading it here, with that one
# warning silenced, keeps a failure reported as a failure.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


class ZeroNoiseRng:
    """Stand-in rng whose normal draws are all zero (noise stubbed out)."""

    def standard_normal(self, size=None):
        return np.zeros(size) if size is not None else 0.0

    def normal(self, loc=0.0, scale=1.0, size=None):
        return np.zeros(size) + loc if size is not None else loc

    def integers(self, low, high=None, size=None):
        return np.zeros(size, dtype=np.int64) if size is not None else 0

    def uniform(self, low=0.0, high=1.0, size=None):
        return np.full(size, low) if size is not None else low


@pytest.fixture
def zero_rng():
    return ZeroNoiseRng()


@pytest.fixture
def benchmark_system():
    return builtin_system()


def identity_system(m=2, q_scale=1.0, n_steps=400, ts=0.01):
    """Table-mode system with A(k) = I for every step."""
    return LtvSystem(
        state_dim=m,
        transition=MatrixTable(tuple(np.eye(m) for _ in range(n_steps))),
        process_noise_cov=q_scale * np.eye(m),
        initial_state=np.zeros(m),
        sample_time=ts,
    )


def random_system(rng, m=2, n_steps=220, q_scale=None):
    """Random invertible LTV table system, mildly contractive on average."""
    mats = []
    for _ in range(n_steps):
        while True:
            a = 0.9 * rng.standard_normal((m, m)) / np.sqrt(m)
            if abs(np.linalg.det(a)) > 0.05:
                break
        mats.append(a)
    q = rng.standard_normal((m, m))
    q = q @ q.T + (q_scale or 0.2) * np.eye(m)
    return LtvSystem(
        state_dim=m,
        transition=MatrixTable(tuple(mats)),
        process_noise_cov=q,
        initial_state=rng.standard_normal(m),
        sample_time=0.01,
    )


def random_psd(rng, m=2, scale=1.0):
    a = rng.standard_normal((m, m))
    return scale * (a @ a.T)


# a network file whose every delay (2.5-4 s) exceeds the default delay_range's
# upper end of 2 s and a 60-step horizon: no greedy threshold admits a node
# and no node has an admission step
ALL_LATE = "1 0 0.1 2.5 0.0\n2 1 0.2 3.0 0.0\n3 0 0.3 3.5 0.0\n4 1 0.4 4.0 0.0\n"


def network_of(*nodes, m=2):
    """Network of nodes 1..n, each given as (state, variance[, base[, jitter]]);
    base and jitter default to 0."""
    cols = [tuple(node) + (0.0, 0.0)[len(node) - 2:] for node in nodes]
    state, variance, base, jitter = zip(*cols) if cols else ((), (), (), ())
    return SensorNetwork(state, variance, base, jitter, m)


def assert_rel_close(a, b, rel=1e-12):
    """max|a - b| <= rel * max|b|, with max|b| floored at 1e-300 only so that an
    all-zero b asks for an exact match."""
    assert np.abs(a - b).max() <= rel * max(np.abs(b).max(), 1e-300)

