"""A fixed reference kernel, timed right before and after each job.

The host this benchmark runs on is shared: for seconds at a time the same
code runs up to twice as slow, in CPU time as well as in wall time, and a
whole run can fall into a slow or a fast stretch.  A job's time divided by
the time of this kernel, run next to it in the same process, cancels most of
that drift, so the gated ``job_rel`` tracks the program rather than the host.

The kernel mixes kinds of work the workloads do: many small numpy calls and
LAPACK solves, a dense matrix product, and an elementwise transcendental over
an array larger than the caches, in time shares of about 1 : 1 : 2.  Of the
mixes tried on a 2-vCPU shared VM (these three and an interpreted loop, each
weighted 0 to 2), this one kept the spread of the job / kernel ratio lowest
across the workloads; the transcendental tracks ``verify_fast`` best and the
matrix product ``ct_512``.  It does not use oqf and it never changes.
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(0)
_SMALL = _RNG.standard_normal((24, 24)) + 24.0 * np.eye(24)
_RHS = np.ones(24)
_DENSE = _RNG.standard_normal((400, 400)) / 20.0
_LARGE = np.linspace(0.0, 100.0, 1_000_000)
_OUT = np.empty_like(_LARGE)  # allocated once, so peak RSS only shifts by a constant


def _small_calls() -> complex:
    total = 0j
    for _ in range(750):
        total += np.exp(1j * np.linalg.solve(_SMALL, _RHS)).sum()
    return total


def _dense() -> float:
    out = _DENSE
    for _ in range(5):
        out = _DENSE @ out
    return float(out[0, 0])


def _streaming() -> float:
    return float(np.sin(_LARGE, out=_OUT).sum())


def run(reps: int) -> float:
    """Run the kernel ``reps`` times; return the seconds it took."""
    start = time.perf_counter()
    for _ in range(reps):
        _small_calls()
        _dense()
        _streaming()
        _streaming()
    return time.perf_counter() - start
