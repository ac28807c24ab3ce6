"""Machine-speed gauges: fixed kernels timed between ops.

On a shared host the speed of the machine itself wanders, by up to a
factor of two over a few seconds.  The benchmark times a gauge kernel
right before every op, outside the op's timing, and reports each op's
time scaled to the speed at which that kernel takes its nominal time:

    scaled = raw * nominal / (gauge time just before the op)

Raw times are kept beside the scaled ones in the run's result file.

Each op uses the gauge of the kind of work it does (``workloads.py``
picks it from the op's suite and shape), because the two kinds drift
apart: interpreter work with small LAPACK calls follows CPU speed, large
dense factorisations also follow cache and memory contention.  Over six
20-second runs per workload on a shared 2-vCPU host, scaling by the
matching gauge cut the spread (interquartile range over median) of
trials per second from 0.12-0.28 to 0.02-0.03, while the other gauge
left it at 0.05-0.15.

The kernels never call mpjl, so no change to the program can move them.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

import numpy as np

_rng = np.random.default_rng(20191105)
_SMALL = _rng.standard_normal((5, 4))
_SQUARE = _SMALL[:4] + 4.0 * np.eye(4)
_MID = _rng.standard_normal((24, 20))
_LARGE = _rng.standard_normal((96, 96))
_DENSE = _rng.standard_normal((256, 256))


def _small_kernel() -> None:
    for _ in range(24):
        np.linalg.svd(_SMALL, full_matrices=False)
        np.linalg.solve(_SQUARE, _SMALL.T)
        _ = {f"k{i}": i * 0.5 for i in range(40)}
    np.linalg.svd(_MID, compute_uv=False)
    np.linalg.svd(_LARGE, compute_uv=False)
    json.dumps([float(v) for v in _MID[:6].ravel()])


def _dense_kernel() -> None:
    np.linalg.svd(_DENSE, compute_uv=False)
    _DENSE @ _DENSE


# gauge name -> (kernel, nominal seconds).  The nominal times are near the
# kernels' median times on the host the bounds were set on, so scaled and
# raw times there are alike.
GAUGES = {
    "small": (_small_kernel, 0.002),
    "dense": (_dense_kernel, 0.008),
}


def startup_factor() -> float:
    """Factor for a process start-up measured now.

    Start-up mixes interpreter work with loading large libraries, so it
    takes the geometric mean of both gauges.  Over 534 fresh processes
    in 150 seconds, the spread of medians of 9 consecutive start-ups was
    0.16 raw, 0.13 and 0.12 with either gauge and 0.10 with their mean.
    """
    small = statistics.median(sample("small") for _ in range(5))
    dense = statistics.median(sample("dense") for _ in range(3))
    return (small * dense) ** 0.5


def sample(gauge: str) -> float:
    """Factor taking a raw time measured now to the gauge's nominal speed."""
    kernel, nominal = GAUGES[gauge]
    start = perf_counter()
    kernel()
    return nominal / (perf_counter() - start)
