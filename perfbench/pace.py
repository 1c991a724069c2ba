"""Machine pace: scale measured times to a fixed reference speed.

On a machine shared with other tenants, identical work runs up to twice
as slowly for seconds to minutes at a time, so raw times spread between
runs far more than any change worth measuring.  The benchmark therefore
times a fixed reference kernel of about 3 ms (plain Python and
15-element numpy arrays, like the package's own hot loops, and
independent of it) at most every ``PROBE_EVERY_S`` seconds, and scales
each measured time by ``REFERENCE_S / t_probe`` with ``t_probe`` the
median of the last three probes.  A scaled time is the time the work
would take at the pace where the probe takes ``REFERENCE_S``, which is
close to the uncontended pace of the 2-core Xeon machine the benchmark
was written on.  The report prints the raw times too.

Starting a fresh interpreter and importing numpy drifts with the host
too, but not with the kernel's pace: it depends on process creation and
on shared libraries being mapped.  :class:`StartupPace` times a fresh
interpreter that only imports numpy, which the package needs and does
not own, and scales start-up times by ``STARTUP_REFERENCE_S`` over the
median of those probes.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time
from collections import deque
from pathlib import Path

import numpy as np

REFERENCE_S = 3e-3
STARTUP_REFERENCE_S = 0.1
PROBE_EVERY_S = 0.1
_X = np.linspace(0.1, 1.0, 15)


def probe() -> float:
    """Wall seconds of one pass of the reference kernel."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(600):
        y = np.sqrt(_X * _X + 0.5)
        acc += float(np.sum(np.exp(-y) * _X))
    t1 = time.perf_counter()
    if not math.isfinite(acc):
        raise RuntimeError("reference kernel produced a non-finite sum")
    return t1 - t0


class Pace:
    """Current scale factor from the most recent probes."""

    def __init__(self) -> None:
        self.recent: deque[float] = deque(maxlen=3)
        self.last = -math.inf

    def factor(self) -> float:
        """REFERENCE_S over the median recent probe; probes first when the
        last probe is more than PROBE_EVERY_S old."""
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            self.recent.append(probe())
            self.last = time.perf_counter()
        return REFERENCE_S / statistics.median(self.recent)


class StartupPace:
    """Scale factor for interpreter start-up from fresh ``import numpy``
    processes, run in ``cwd`` with ``env`` like the set-up children."""

    def __init__(self, cwd: Path, env: dict[str, str]) -> None:
        self.cwd = cwd
        self.env = env
        self.probes: list[float] = []

    def probe(self) -> None:
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import numpy"],
            cwd=self.cwd,
            env=self.env,
            capture_output=True,
            timeout=120,
            check=True,
        )
        self.probes.append(time.perf_counter() - t0)

    def factor(self) -> float:
        """STARTUP_REFERENCE_S over the median probe so far."""
        return STARTUP_REFERENCE_S / statistics.median(self.probes)
