"""Time one fresh-process set-up of a workload.

Set-up is what a user pays before the first experiment: importing dkfsim,
loading the config and making the workload's input files. The interpreter's
own start-up is not included. Afterwards the calibration kernel is timed
(speed.py; the second of two runs, the first one warms it up). Prints the
two times, set-up first. run.py takes the median of the scaled set-up time
over several fresh processes as setup_s.

Usage: python3 perfbench/setup_probe.py <workload>
"""

import sys
import time

T0 = time.perf_counter()

from metrics import pin_blas  # noqa: E402

pin_blas()
import workloads  # noqa: E402

workloads.setup(sys.argv[1])
SETUP_S = time.perf_counter() - T0

import speed  # noqa: E402

speed.kernel_seconds()
print(SETUP_S, speed.kernel_seconds())
