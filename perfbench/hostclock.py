"""Host-speed calibration: timings in reference seconds.

A shared host runs the same serial work 10-30% slower or faster from one
minute to the next, in CPU time as well as wall time, because of what its
other tenants do.  Medians inside a run cannot remove drift that is slower
than the run.  So the timed intervals of a run are interleaved with
*probes*: a fixed unit of work that never calls the program (an interpreter
loop and vectorised transcendental numpy on cache-resident arrays and on
arrays the size of the potential evaluator's 4096-point batches, the kinds
of work the pipeline mixes).  Each timed interval is reported as

    measured seconds x REFERENCE_UNIT_S / mean probe-unit seconds around it

that is, the seconds it would have taken at the host speed the probe was
calibrated at.  "Around it" means the probes of the same pass, or of the
same set-up sample, so drift within a run is followed too.  A workload that
keeps several cores busy is probed on as many cores at once, each in a
forked process that ends before the probe returns.  A change to the program
moves the work, not the probe, so it moves the reported seconds by the same
factor as the raw ones.  The raw seconds and the factors stay in the run
record.
"""

from __future__ import annotations

import multiprocessing
import statistics
import time

import numpy as np

#: Median seconds of one probe unit on the reference host (2-vCPU Xeon VM,
#: CPython 3.11, numpy 2.4 on OpenBLAS pinned to one thread; 200 units), so
#: reference seconds read close to wall seconds there.  Only a unit
#: conversion: any fixed value gives the same ratios between runs.
REFERENCE_UNIT_S = 0.08

_SMALL = np.linspace(1.0, 2.0, 20_000)  # 160 kB: stays in cache
_LARGE = np.linspace(1.0, 2.0, 1_600_000)  # 13 MB: streams through the caches
# Results go to preallocated buffers: a temporary of 13 MB would be mapped
# fresh or reused from the heap depending on what the program allocated
# before (glibc's adaptive mmap threshold), and the probe would time that.
_BUFFERS = {id(x): (np.empty_like(x), np.empty_like(x)) for x in (_SMALL, _LARGE)}


def _transcendental(x: np.ndarray) -> float:
    """sum(log(x) / sqrt(x + 1) * exp(-x)) without allocating temporaries."""
    a, b = _BUFFERS[id(x)]
    np.log(x, out=a)
    np.add(x, 1.0, out=b)
    np.sqrt(b, out=b)
    np.divide(a, b, out=a)
    np.negative(x, out=b)
    np.exp(b, out=b)
    np.multiply(a, b, out=a)
    return float(a.sum())


def _probe_unit() -> float:
    """About 0.08 s of fixed work: interpreter, cached and streaming numpy."""
    total = 0.0
    for i in range(250_000):
        total += (i % 7) * 0.5
    for _ in range(80):
        total += _transcendental(_SMALL)
    for _ in range(2):
        total += _transcendental(_LARGE)
    return total


def _timed_units(units: int) -> list[float]:
    samples = []
    for _ in range(units):
        start = time.perf_counter()
        _probe_unit()
        samples.append(time.perf_counter() - start)
    return samples


def _send_timed_units(conn, units: int) -> None:
    conn.send(_timed_units(units))
    conn.close()


def _parallel_timed_units(units: int, width: int) -> list[float]:
    """``units`` probe units on each of ``width`` forked processes at once."""
    context = multiprocessing.get_context("fork")
    pipes, processes = [], []
    try:
        for _ in range(width):
            receiver, sender = context.Pipe(duplex=False)
            process = context.Process(target=_send_timed_units, args=(sender, units))
            process.start()
            sender.close()
            pipes.append(receiver)
            processes.append(process)
        return [sample for receiver in pipes for sample in receiver.recv()]
    finally:
        for process in processes:
            process.join(timeout=60)
            if process.exitcode is None:
                process.kill()
                process.join()
        for receiver in pipes:
            receiver.close()


class HostClock:
    """The probe samples of one run, and the speed factor they give.

    ``width`` is the number of cores the workload keeps busy; each probe
    point runs its units on that many processes at once.
    """

    def __init__(self, units: int = 1, width: int = 1) -> None:
        self.units = units
        self.width = width
        self.samples: list[float] = []

    def probe(self, units: int | None = None) -> None:
        """Run ``units`` (default: the clock's) probe units per core, timing each."""
        units = self.units if units is None else units
        if self.width == 1:
            self.samples += _timed_units(units)
        else:
            self.samples += _parallel_timed_units(units, self.width)

    def factor(self, since: int = 0) -> float:
        """Reference over measured host speed of ``samples[since:]``.

        Multiply the raw seconds of the interval those samples bracket by it.
        """
        return REFERENCE_UNIT_S / statistics.mean(self.samples[since:])


def warm_up() -> None:
    """One unrecorded unit, so first-call costs stay out of every sample."""
    _probe_unit()
