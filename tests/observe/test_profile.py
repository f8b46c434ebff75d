"""Opt-in resource profiling and pool utilization analytics.

The profiler's contract: resource stamps land only in the *volatile* span
payload (the canonical projection is untouched), frames survive interleaved
spans from concurrent branch tracers, and ``tracemalloc`` ownership is
honoured on :meth:`close`.  ``pool_utilization`` is pinned on synthetic
dispatch/result events where the busy/idle arithmetic is exact.
"""

from __future__ import annotations

import time
import tracemalloc

import pytest

from repro.observe import (
    ResourceProfiler,
    Tracer,
    canonical_trace_text,
    pool_utilization,
)


class _NapTask:
    """Picklable pool task that holds its worker briefly."""

    def __call__(self, index: int) -> int:
        time.sleep(0.05)
        return index


def _profiled_trace():
    profiler = ResourceProfiler()
    tracer = Tracer(profile=profiler)
    try:
        with tracer.span("analysis"):
            with tracer.span("assemble"):
                blob = bytearray(512 * 1024)  # ~512 KiB high-water
                del blob
            with tracer.span("solve"):
                sum(range(20_000))
    finally:
        profiler.close()
    return tracer.finalize()


class TestResourceProfiler:
    def test_stamps_land_in_volatile_only(self):
        roots = _profiled_trace()
        for name in ("analysis", "assemble", "solve"):
            node = roots[0] if name == "analysis" else roots[0].find(name)
            assert node.volatile["cpu_seconds"] >= 0.0
            assert node.volatile["mem_peak_kb"] > 0.0
            assert "cpu_seconds" not in node.attributes

    def test_parent_peak_covers_child_allocations(self):
        roots = _profiled_trace()
        parent = roots[0]
        child = parent.find("assemble")
        # The ~512 KiB allocated inside assemble was live while the
        # enclosing analysis span was open, so the parent's high-water
        # mark must be at least the child's.
        assert child.volatile["mem_peak_kb"] >= 400.0
        assert parent.volatile["mem_peak_kb"] >= child.volatile["mem_peak_kb"]

    def test_canonical_projection_is_unchanged_by_profiling(self):
        bare = Tracer()
        with bare.span("analysis"):
            with bare.span("assemble"):
                pass
            with bare.span("solve"):
                pass
        profiler = ResourceProfiler()
        profiled = Tracer(profile=profiler)
        try:
            with profiled.span("analysis"):
                with profiled.span("assemble"):
                    bytearray(256 * 1024)
                with profiled.span("solve"):
                    pass
        finally:
            profiler.close()
        assert canonical_trace_text(bare.finalize()) == canonical_trace_text(
            profiled.finalize()
        )

    def test_interleaved_frames_do_not_corrupt_each_other(self):
        # Two branch tracers sharing one profiler, entering/exiting out of
        # LIFO order — the id-keyed frames must pair correctly anyway.
        profiler = ResourceProfiler()
        one, two = Tracer(profile=profiler), Tracer(profile=profiler)
        try:
            ctx1 = one.span("group", index=0)
            ctx2 = two.span("group", index=1)
            node1 = ctx1.__enter__()
            node2 = ctx2.__enter__()
            ctx1.__exit__(None, None, None)  # close the *older* frame first
            ctx2.__exit__(None, None, None)
        finally:
            profiler.close()
        assert node1.volatile["cpu_seconds"] >= 0.0
        assert node2.volatile["cpu_seconds"] >= 0.0
        assert node1.volatile["mem_peak_kb"] >= 0.0

    def test_close_stops_tracemalloc_only_when_owned(self):
        assert not tracemalloc.is_tracing()
        profiler = ResourceProfiler()
        tracer = Tracer(profile=profiler)
        with tracer.span("phase"):
            pass
        assert tracemalloc.is_tracing()
        profiler.close()
        assert not tracemalloc.is_tracing()

        tracemalloc.start()  # someone else owns tracing
        try:
            borrowed = ResourceProfiler()
            borrowed_tracer = Tracer(profile=borrowed)
            with borrowed_tracer.span("phase"):
                pass
            borrowed.close()
            assert tracemalloc.is_tracing()
        finally:
            tracemalloc.stop()

    def test_cpu_only_profiler_never_touches_tracemalloc(self):
        assert not tracemalloc.is_tracing()
        profiler = ResourceProfiler(memory=False)
        tracer = Tracer(profile=profiler)
        with tracer.span("phase"):
            pass
        assert not tracemalloc.is_tracing()
        node = tracer.finalize()[0]
        assert "cpu_seconds" in node.volatile
        assert "mem_peak_kb" not in node.volatile
        profiler.close()

    def test_exit_without_enter_is_a_noop(self):
        from repro.observe.trace import Span

        profiler = ResourceProfiler(memory=False)
        orphan = Span(name="orphan")
        profiler.exit(orphan)  # no frame: must not raise or stamp
        assert "cpu_seconds" not in orphan.volatile


class TestPoolUtilization:
    def _trace(self):
        tracer = Tracer()
        with tracer.span("campaign"):
            tracer.event("pool.dispatch", slot=0, job=0, t=0.0)
            tracer.event("pool.dispatch", slot=1, job=1, t=0.0)
            tracer.event("pool.result", slot=0, job=0, t=0.4)
            tracer.event("pool.result", slot=1, job=1, t=1.0)
            tracer.event("pool.dispatch", slot=0, job=2, t=0.6)
            tracer.event("pool.result", slot=0, job=2, t=1.0)
        return tracer.finalize()

    def test_busy_idle_saturation_and_gaps_are_exact(self):
        util = pool_utilization(self._trace())
        assert util["span_seconds"] == pytest.approx(1.0)
        assert util["n_slots"] == 2 and util["chunks"] == 3
        # slot0 busy 0.8 (0-0.4 + 0.6-1.0), slot1 busy 1.0 -> 1.8 busy-seconds
        assert util["mean_concurrency"] == pytest.approx(1.8)
        assert util["saturation"] == pytest.approx(0.9)
        slot0 = util["slots"]["0"]
        assert slot0["busy_seconds"] == pytest.approx(0.8)
        assert slot0["idle_seconds"] == pytest.approx(0.2)
        assert slot0["utilization"] == pytest.approx(0.8)
        assert slot0["dispatch_gap_mean_seconds"] == pytest.approx(0.2)
        assert slot0["dispatch_gap_max_seconds"] == pytest.approx(0.2)
        assert util["slots"]["1"]["utilization"] == pytest.approx(1.0)

    def test_malformed_events_are_skipped(self):
        tracer = Tracer()
        with tracer.span("campaign"):
            tracer.event("pool.dispatch", slot=0, job=0, t=0.0)
            tracer.event("pool.dispatch", t=0.1)  # no slot: skipped
            tracer.event("pool.dispatch", slot="x", job=1, t="nan?")
            tracer.event("pool.result", slot=0, job=0, t=0.5)
        util = pool_utilization(tracer.finalize())
        assert util["chunks"] == 1 and util["n_slots"] == 1

    def test_empty_trace_yields_zeroed_shape(self):
        tracer = Tracer()
        with tracer.span("campaign"):
            pass
        util = pool_utilization(tracer.finalize())
        assert util == {
            "span_seconds": 0.0,
            "n_slots": 0,
            "chunks": 0,
            "mean_concurrency": 0.0,
            "saturation": 0.0,
            "slots": {},
        }

    def test_single_span_argument_is_accepted(self):
        roots = self._trace()
        assert pool_utilization(roots[0]) == pool_utilization(roots)


class TestPoolEventClock:
    """A real pool stamps every run's events on one clock."""

    @staticmethod
    def _check(roots):
        times = [
            node.volatile["t"]
            for root in roots
            for node in root.walk()
            if node.kind == "event" and node.name in ("pool.dispatch", "pool.result")
        ]
        assert len(times) == 8 and times == sorted(times)
        util = pool_utilization(roots)
        assert util["chunks"] == 4
        assert 0.0 <= util["saturation"] <= 1.0
        for slot in util["slots"].values():
            # Every chunk naps 0.05 s between its dispatch and its result.
            assert slot["busy_seconds"] >= 0.05 * slot["chunks"]

    def test_sequential_runs(self):
        from repro.parallel.pool import WorkerPool

        tracer = Tracer()
        with WorkerPool(2, tracer=tracer) as pool, tracer.span("runs"):
            for _ in range(2):
                pool.run_partition(_NapTask(), [[0], [1]])
        self._check(tracer.finalize())

    def test_concurrent_runs(self):
        from repro.parallel.pool import WorkerPool

        tracer = Tracer()
        with WorkerPool(2, tracer=tracer) as pool, tracer.span("runs"):
            first = pool.submit(_NapTask(), [[0], [1]])
            time.sleep(0.02)  # the second run starts while the first is in flight
            second = pool.submit(_NapTask(), [[0], [1]])
            while not (first.done and second.done):
                pool.service()
            results = [pool.result(run) for run in (first, second)]
        assert all(sorted(result.results) == [0, 1] for result in results)
        self._check(tracer.finalize())
