"""CPU time, scaled by the host's pace probed between slices of work.

The machines this benchmark runs on are shared, and two things there move a
timing that have nothing to do with the program:

- The hypervisor takes the CPU away now and then (steal time). Times are
  therefore CPU time (user + system) of the benchmark process, and of the
  children it has waited for. The kernel leaves stolen time out of it. For
  this single-threaded, CPU-bound program, CPU time is the wall time a user
  would see on a machine of their own.
- The CPU's speed drifts by up to 1.9 times, in spells from a fraction of a
  second to over a minute: a fixed loop's median over 5 s ranged from 1.05
  to 1.88 times its fastest within ten minutes. A run can fall wholly inside
  one spell.

For the drift, the benchmark probes the pace: it times ``probe``, a fixed
kernel of the kinds of work mechdock does, right before and right after each
slice of work, on the same CPU. A slice's time is scaled by ``REF_S`` over
the mean of the two probes, which gives its time at the pace at which the
probe takes 1 ms (about this host's median pace). Interleaved with
`attack main` at r = 100 for two minutes, the median raw time ranged over
±20% between 25 s windows and the scaled one over ±1.5%. The kernel is the
benchmark's own and never changes with the program, so a change to the
program shows in full.
"""

from __future__ import annotations

import os
from fractions import Fraction
from time import process_time

REF_S = 1e-3
PROBE_STEPS = 210


def probe():
    """Exact fractions, comparisons, a dict and str formatting."""
    acc, seen = Fraction(0), {}
    for i in range(1, PROBE_STEPS):
        q = Fraction(i, 7 + i % 5)
        acc += q
        seen[i] = (acc > q, str(q))
    return len(seen)


def pace():
    """CPU seconds the probe takes now: the faster of two runs, so that a
    garbage collection landing in one does not count."""
    best = None
    for _ in range(2):
        t0 = process_time()
        probe()
        dt = process_time() - t0
        best = dt if best is None else min(best, dt)
    return best


def scale(before, after):
    """Factor that takes a time between two probes to the reference pace."""
    return REF_S / ((before + after) / 2)


def pin_to_one_cpu():
    """Keep this process, and the children it starts, on one CPU, so the
    probe measures the core the work runs on. The CPUs of a shared host
    drift apart."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
