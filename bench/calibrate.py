"""Machine-speed probe that the end-to-end times are scaled by.

Other tenants of a shared host slow this process by up to 2x, in phases
that last from a fraction of a second to minutes.  A median wall time
moved by 15-35% between runs minutes apart.  The probe is a fixed
kernel of the same kind of work the pipeline does: Python glue
around 6x6 eigenvalue problems and a 36x36 solve.  It runs between run
units, and each unit's wall time is multiplied by ``NOMINAL_S`` over the
median time of the probes on either side of it: the unit's time at the
probe's nominal speed.  The kernel is owned by the benchmark, so a
change to the package moves the unit times and not the probe.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: probe time on an idle core of the machine this benchmark was tuned on
#: (Xeon, 2 KVM vCPUs, Python 3.11, numpy 2.4, one OpenBLAS thread)
NOMINAL_S = 0.85e-3

_rng = np.random.default_rng(12345)
_DRIFT = _rng.standard_normal((6, 6)) - 3.0 * np.eye(6)
_VEC = np.kron(np.eye(6), _DRIFT) + np.kron(_DRIFT, np.eye(6))
_RHS = _rng.standard_normal(36)


def _kernel():
    acc = 0.0
    for k in range(20):
        fields = {"a": k * 0.5, "b": math.sin(k), "c": math.hypot(k, 2.0)}
        acc += sum(fields.values())
        acc += float(np.linalg.eigvals(_DRIFT).real.max())
        acc += float(np.linalg.solve(_VEC, _RHS)[0])
        acc += float(np.linalg.det(_DRIFT[:2, :2]))
    return acc


def probe(reps):
    """Seconds of each of ``reps`` back-to-back kernel runs."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return times


def scale(probe_times):
    """Factor that takes a time measured alongside ``probe_times`` to
    the probe's nominal speed."""
    return NOMINAL_S / statistics.median(probe_times)
