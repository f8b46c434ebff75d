#!/usr/bin/env python3
"""Benchmark: from a substation grid design to its IEEE-80 safety verdict.

Run from the repository root::

    python3 perfbench/run.py --workload paper-verdict --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up time
(fresh interpreters, median of several), then timed passes over the
workload's designs for ``--seconds`` seconds (means over passes).  Times
are in reference seconds: each set-up sample and each pass is scaled by the
host speed that probes around it measured (see ``hostclock``), so host
drift cancels; the raw seconds and the factors are in the run record.
``--trace 1`` is the separate per-layer run: one untraced and one traced pass,
the trace written as JSONL under ``perfbench/out/`` (readable by
``python -m repro report``) next to its deterministic counts.  Every pass is
checked against the stored references.  The last stdout line is the JSON
result; ``--quick`` shrinks every input so the self-test runs in seconds.
"""

from __future__ import annotations

import os

# Pin BLAS / OpenMP pools before anything imports numpy: one thread per
# process, so no run keeps more processes busy than there are cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("paper-verdict", "large-grid", "campaign-pool")
#: Fresh-interpreter set-up samples per run (the median is reported).
SETUP_SAMPLES = 5
#: Host-speed probe units before and after each set-up sample.
SETUP_PROBE_UNITS = 2
#: A probe that is not ready within this many seconds fails the run.
SETUP_TIMEOUT_S = 60.0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs (self-test)")
    parser.add_argument(
        "--references", type=Path, default=None, help="override the reference file"
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Import the program from this checkout's ``src/`` (never an installed copy)."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {source}")
    sys.path[:0] = [str(source), str(HERE)]
    import workloads

    return workloads


def probe_units(args: argparse.Namespace, units: int) -> int:
    return 1 if args.quick else units


# ---------------------------------------------------------------- set-up


def setup_probe(args: argparse.Namespace) -> None:
    """Child side of one ``setup_s`` sample: imports, inputs, pool, then "ready"."""
    workloads = import_program()
    workload = workloads.make_workload(args.workload, args.seed, args.quick)
    workload.start()
    print("ready", flush=True)
    workload.stop()


def measure_setup(
    args: argparse.Namespace, samples: int, clock
) -> tuple[list[float], list[float]]:
    """Seconds from launching a fresh interpreter until it is ready to analyse.

    ``clock`` probes the host speed in this process before each launch and
    after each child has exited.  Returns (raw seconds, factors) per sample.
    """
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--setup-probe",
    ] + (["--quick"] if args.quick else [])
    units = probe_units(args, SETUP_PROBE_UNITS)
    times, factors = [], []
    for _ in range(samples):
        first = len(clock.samples)
        clock.probe(units)
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
            try:
                line = child.stdout.readline()
                elapsed = time.perf_counter() - start
                child.wait(timeout=SETUP_TIMEOUT_S)
            finally:
                if child.poll() is None:
                    child.kill()
                    child.wait()
        if line.strip() != "ready" or child.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed (exit {child.returncode})")
        clock.probe(units)
        times.append(elapsed)
        factors.append(clock.factor(first))
    return times, factors


# ---------------------------------------------------------------- checks


def host_fingerprint() -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy: no dict mode
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
    }


def peak_rss_mb(workload) -> float:
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return (own_kb + getattr(workload, "worker_peak_kb", 0.0)) / 1024.0


# ---------------------------------------------------------------- runs


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def pool_run_utilization(roots) -> tuple[float, float]:
    """(busy fraction, mean dispatch gap [s]) over the pool runs of a trace.

    Pool events carry times relative to their own run's start, so
    ``pool_utilization`` is applied to each run separately: a run starts at
    a dispatch made while no chunk is outstanding.
    """
    from repro.observe import Span, pool_utilization

    runs: list[list] = []
    outstanding: set = set()
    for root in roots:
        for node in root.walk():
            if node.kind != "event" or node.name not in ("pool.dispatch", "pool.result"):
                continue
            job = node.volatile.get("job")
            if node.name == "pool.dispatch":
                if not outstanding:
                    runs.append([])
                outstanding.add(job)
            else:
                outstanding.discard(job)
            if runs:
                runs[-1].append(node)
    busy = capacity = 0.0
    gaps = []
    for events in runs:
        usage = pool_utilization(Span(name="pool.run", children=events))
        busy += usage["mean_concurrency"] * usage["span_seconds"]
        capacity += usage["n_slots"] * usage["span_seconds"]
        gaps += [slot["dispatch_gap_mean_seconds"] for slot in usage["slots"].values()]
    return (busy / capacity if capacity else 0.0), (sum(gaps) / len(gaps) if gaps else 0.0)


def timed_run(args, workloads, workload, gate, record: dict) -> dict:
    from hostclock import HostClock, warm_up

    clock = HostClock(
        probe_units(args, workloads.PROBE_UNITS[args.workload]), workload.probe_width
    )
    warm_up()
    setup, setup_factors = measure_setup(args, 1 if args.quick else SETUP_SAMPLES, clock)
    resistance, verdict, factors, pass_wall = [], [], [], []
    peak_mb = 0.0
    start = time.perf_counter()
    # Passes run back to back; one that would overrun the window is not started.
    while not pass_wall or (
        time.perf_counter() - start + statistics.mean(pass_wall) <= args.seconds
    ):
        began = time.perf_counter()
        first = len(clock.samples)
        result = gate.run(workload, probe=clock.probe)
        pass_wall.append(time.perf_counter() - began)
        if result is None:
            break
        resistance.append(result.resistance_s)
        verdict.append(result.verdict_s)
        factors.append(clock.factor(first))
        if len(verdict) == 1:
            # Through the first pass only: how many passes fit the window
            # depends on host speed, and allocator growth over later passes
            # would make the peak depend on it too.
            peak_mb = peak_rss_mb(workload)
    workload.stop()
    record.update(
        raw_setup_samples=setup,
        setup_factors=setup_factors,
        raw_resistance_samples=resistance,
        raw_verdict_samples=verdict,
        pass_factors=factors,
        probe_samples=clock.samples,
    )
    if not verdict:
        return {}

    def calibrated(raw: list[float], factors: list[float]) -> list[float]:
        return [seconds * factor for seconds, factor in zip(raw, factors)]

    # Set-up: median of its samples.  Passes: mean, as a run holds only one
    # to four of them and the mean keeps every second they measured.
    return {
        "setup_s": metric(statistics.median(calibrated(setup, setup_factors)), "s"),
        "resistance_s": metric(statistics.mean(calibrated(resistance, factors)), "s"),
        "verdict_s": metric(statistics.mean(calibrated(verdict, factors)), "s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
        "accuracy_rel_err": metric(gate.max_rel_err, "ratio"),
    }


def traced_run(args, workloads, workload, gate, record: dict) -> dict:
    from repro.observe import (
        Tracer,
        aggregate_trace,
        canonical_aggregate_text,
        write_trace_jsonl,
    )

    untraced = gate.run(workload)
    tracer = Tracer()
    spawn_s = workload.start(tracer)
    if spawn_s:
        tracer.record_span("bench.pool.spawn", duration_seconds=spawn_s)
    traced = gate.run(workload, tracer)
    workload.stop()
    if untraced is None or traced is None:
        return {}
    roots = tracer.finalize()
    stem = f"{args.workload}-seed{args.seed}{'-quick' if args.quick else ''}"
    workloads.OUT_DIR.mkdir(exist_ok=True)
    trace_path = write_trace_jsonl(workloads.OUT_DIR / f"{stem}.trace.jsonl", roots)

    aggregate = aggregate_trace(roots)
    spans = aggregate["deterministic"]["spans"]
    seconds = aggregate["volatile"]["durations"]

    def total_s(*names: str) -> float:
        return sum(seconds.get(name, {}).get("total_seconds", 0.0) for name in names)

    def attr(span: str, key: str) -> float:
        return spans.get(span, {}).get("attributes", {}).get(key, {}).get("total", 0.0)

    def per_s(units: float, secs: float) -> float:
        return units / secs if secs > 0.0 else 0.0

    extra = traced.extra
    busy_fraction, dispatch_gap_s = pool_run_utilization(roots)
    verdict = traced.verdict_s
    layer_s = {
        # In-process analyses trace their geometry phases; the campaign
        # reports its discretisation phase in CampaignResult.timings.
        "geometry": total_s("phase.data_input", "phase.data_preprocessing")
        + extra.get("geometry.s", 0.0),
        "assembly": total_s("assemble.columns"),
        "cluster": total_s("blocks.plan", "blocks.near", "blocks.far"),
        "solve": total_s("solve"),
        "potential": total_s("bench.potential"),
        "safety": total_s("bench.safety"),
        "campaign_evaluate": total_s("campaign.evaluate"),
    }
    iterations = attr("solve", "iterations")
    counts = {
        "geometry.elements": attr("analysis", "n_elements") + attr("campaign.group", "n_elements"),
        "kernels.image_terms": attr("bench.design", "image_terms"),
        "cluster.far_blocks": attr("blocks.plan", "n_far_blocks"),
        "cluster.total_rank": attr("blocks.far", "total_rank"),
        "cluster.near_pairs": attr("blocks.near", "near_pairs"),
        "solve.iterations": iterations,
        "campaign.assemblies": extra.get("campaign.assemblies", 0),
        "campaign.derived": extra.get("campaign.derived", 0),
        "campaign.checkpoint_bytes": extra.get("campaign.checkpoint_bytes", 0),
    }
    count_units = {"campaign.checkpoint_bytes": "B"}
    metrics = {
        "geometry.s": metric(layer_s["geometry"], "s"),
        "assembly.s": metric(layer_s["assembly"], "s"),
        "assembly.entries_per_s": metric(
            per_s(attr("bench.design", "matrix_entries"), layer_s["assembly"]), "1/s"
        ),
        "cluster.plan_s": metric(total_s("blocks.plan"), "s"),
        "cluster.near_s": metric(total_s("blocks.near"), "s"),
        "cluster.far_s": metric(total_s("blocks.far"), "s"),
        "cluster.operator_mb": metric(attr("bench.design", "operator_bytes") / 1e6, "MB"),
        "solve.s": metric(layer_s["solve"], "s"),
        "solve.matvecs_per_s": metric(
            per_s(iterations + spans.get("solve", {}).get("count", 0), layer_s["solve"]), "1/s"
        ),
        "potential.s": metric(layer_s["potential"], "s"),
        "potential.evals_per_s": metric(
            per_s(attr("bench.potential", "evaluations"), layer_s["potential"]), "1/s"
        ),
        "safety.s": metric(layer_s["safety"], "s"),
        "pool.spawn_s": metric(spawn_s, "s"),
        "pool.chunks": metric(extra.get("pool.chunks", 0), "count"),
        "pool.tasks": metric(extra.get("pool.tasks", 0), "count"),
        "pool.retries": metric(extra.get("pool.retries", 0), "count"),
        "pool.busy_fraction": metric(busy_fraction, "ratio"),
        "pool.dispatch_gap_s": metric(dispatch_gap_s, "s"),
        "campaign.group_s": metric(total_s("campaign.group"), "s"),
        "campaign.evaluate_s": metric(layer_s["campaign_evaluate"], "s"),
        "observe.overhead_ratio": metric(verdict / untraced.verdict_s, "ratio"),
    }
    for name, value in counts.items():
        metrics[name] = metric(value, count_units.get(name, "count"))
    for layer, secs in layer_s.items():
        metrics[f"share.{layer}"] = metric(secs / verdict, "ratio")

    # Deterministic half: must be byte-identical between two traced runs.
    counts_path = workloads.OUT_DIR / f"{stem}.counts.txt"
    counts_path.write_text(
        canonical_aggregate_text(roots) + "\n" + json.dumps(counts, sort_keys=True) + "\n"
    )
    record.update(trace=str(trace_path), counts=str(counts_path), verdict_s=verdict)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    workloads = import_program()
    workload = workloads.make_workload(args.workload, args.seed, args.quick)
    table = workloads.reference_table(args.workload, args.quick, args.references)
    gate = workloads.Gate(workload.references(table), workloads.TOLERANCE[args.workload])
    record: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "quick": args.quick,
        "designs_per_pass": workload.n_designs(),
        "host": host_fingerprint(),
    }
    run = traced_run if args.trace else timed_run
    try:
        workload.start()  # the pool the first pass borrows is spawned during set-up
        metrics = run(args, workloads, workload, gate, record)
    finally:
        workload.stop()
    record.update(failures=gate.messages, metrics=metrics)
    print(json.dumps(record, sort_keys=True))
    if not metrics:
        print("perfbench: no pass completed", file=sys.stderr)
        return 1
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
