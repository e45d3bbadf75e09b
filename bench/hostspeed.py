"""Host speed probe: the reference solver, run between timed grids.

The benchmark was defined on a 2-core share of a machine whose speed drifts
with the load of its other tenants, by up to 1.8x over tens of seconds to
minutes. CPU time drifts with wall time, so the slowdown is in the cycles
themselves, not in time spent descheduled, and no length of run averages it
away: a grid timed in a slow stretch reads slower for reasons the program
does not control.

The probe measures that drift with a short run of ``ref_solver.py``, the
benchmark's frozen numpy/scipy restatement of the solver, on a fixed input
of the workload's shape and with the workload's settings (``Workload.probe``
narrows the grid to one short solve). It is the mix of interpreter, numpy
and scipy work the program did when the benchmark was defined, and it
imports nothing from stochfw, so no change to the package moves it. On that
machine, over 35-second windows, grid time divided by probe time spread
3-5% where grid time alone spread 13-32%, less than half the spread left by
a synthetic mix of tokenising, sparse products and small numpy steps.

``Workload.probe_s`` is a typical probe time on that machine; it only sets
the scale. A time ``t`` measured while the probe takes ``p`` seconds reads
``t * probe_s / p`` seconds at that speed. The benchmark takes ``p`` as the
median of the probes run just before and just after each timed grid.
"""

from __future__ import annotations

import statistics
import time

from inputs import generate
from ref_solver import reference_grid

# The probe's input does not follow the workload seed, so that its work is
# the same in every run.
PROBE_SEED = 0


class Probe:
    """One workload's probe; ``measure`` runs it and keeps each time."""

    def __init__(self, workload, scale="full"):
        self.inp = generate(workload.data, PROBE_SEED, scale)
        self.spec = dict(workload.spec, **workload.probe)
        self.reference_s = workload.probe_s
        self.samples = []
        self.once()  # warm-up, not kept

    def once(self):
        t0 = time.perf_counter()
        reference_grid(self.inp, self.spec)
        return time.perf_counter() - t0

    def measure(self, seconds):
        """Run the probe for about ``seconds``, at least once; return the times."""
        times = []
        while sum(times) < seconds or not times:
            times.append(self.once())
        self.samples += times
        return times

    def factor(self, times):
        """Reference speed over the speed ``times`` show: multiply a time by this."""
        return self.reference_s / statistics.median(times)
