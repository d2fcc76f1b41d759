"""Machine-speed calibration for the end-to-end times.

On a shared machine the speed of one core changes by up to 2x within
seconds, as other tenants load the hardware it shares, and that moves the
wall time of the same experiment far more than the bounds in BENCHMARK.json
allow. So the benchmark times a fixed kernel next to every measurement and
reports times scaled to the machine speed at which that kernel takes
NOMINAL_S:

    reported = wall * NOMINAL_S / kernel

The kernel is frozen benchmark code, so no change to dkfsim moves it. It
mixes the kinds of work dkfsim does: a Python loop over 2x2 numpy products,
batched 2x2 solves over 2000 nodes, and a dense solve.
"""

import time

import numpy as np

# About the kernel's median time on a 2.1 GHz Xeon core with one BLAS thread,
# so that reported times stay close to wall times there.
NOMINAL_S = 0.09


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel."""
    t0 = time.perf_counter()
    a = np.eye(2)
    acc = 0.0
    for i in range(10000):
        acc += float((a @ a + 0.001 * i)[0, 0])
    small = np.random.default_rng(0).standard_normal((2000, 2, 2))
    for _ in range(30):
        small = np.linalg.solve(small + 3.0 * np.eye(2), small)
    dense = np.random.default_rng(1).standard_normal((300, 300))
    for _ in range(5):
        dense = np.linalg.solve(dense + 300.0 * np.eye(300), dense)
    return time.perf_counter() - t0


def scaled(wall: float, kernel: float) -> float:
    """Wall seconds scaled to the speed at which the kernel takes NOMINAL_S."""
    return wall * NOMINAL_S / kernel
