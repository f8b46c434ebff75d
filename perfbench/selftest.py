"""The benchmark's own tests, on ``--quick`` inputs (about a minute).

    python3 -m pytest -q perfbench/selftest.py

Each case runs ``perfbench/run.py`` in a fresh interpreter, as the driver does.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
OUT = HERE / "out"
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, str(cwd / SPEC["command"][1]), "--quick", "--seconds", "1"]
    return subprocess.run(
        command + list(args), cwd=cwd, capture_output=True, text=True, timeout=300
    )


def result_of(run: subprocess.CompletedProcess) -> dict:
    assert run.returncode == 0, run.stderr[-3000:]
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run_reports_every_end_to_end_metric(workload):
    run = bench("--workload", workload, "--seed", "0", "--trace", "0")
    result = result_of(run)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for spec in SPEC["end_to_end"]:
        value = result["metrics"][spec["name"]]
        assert value["unit"] == spec["unit"] and value["value"] > 0.0, spec["name"]
    assert len(result["metrics"]) == len(SPEC["end_to_end"])
    # Reported times are the raw samples in reference seconds.
    record = json.loads(run.stdout.strip().splitlines()[-2])
    assert min(record["probe_samples"]) > 0.0
    for name, factors, average in (
        ("setup", "setup_factors", statistics.median),
        ("resistance", "pass_factors", statistics.mean),
        ("verdict", "pass_factors", statistics.mean),
    ):
        raw = record[f"raw_{name}_samples"]
        assert len(record[factors]) == len(raw) >= 1
        expected = average([s * f for s, f in zip(raw, record[factors])])
        assert result["metrics"][f"{name}_s"]["value"] == pytest.approx(expected)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seeded_inputs_pass_against_scaled_references(workload):
    result = result_of(bench("--workload", workload, "--seed", "7", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0


def test_perturbed_reference_reports_failures(tmp_path):
    result_of(bench("--workload", "paper-verdict", "--seed", "0"))  # fills the cache
    tables = json.loads((OUT / "references-quick.json").read_text())
    for design in tables["paper-verdict"].values():
        design["r_eq"] *= 1.01
    perturbed = tmp_path / "perturbed.json"
    perturbed.write_text(json.dumps(tables))
    result = result_of(
        bench("--workload", "paper-verdict", "--seed", "0", "--references", str(perturbed))
    )
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_campaign_scaling_matches_standalone_references():
    """The scaling algebra seeded references rely on, against real solves."""
    result_of(bench("--workload", "campaign-pool", "--seed", "0"))  # fills the cache
    table = json.loads((OUT / "references-quick.json").read_text())["campaign-pool"]
    for name, ref in table.items():
        base = table[name.rsplit("-", 1)[0] + "-base"]
        ratio = ref["gpr"] / base["gpr"]
        assert ref["r_eq"] == pytest.approx(base["r_eq"], rel=1e-8)
        assert ref["touch"] == pytest.approx(base["touch"] * ratio, rel=1e-6)
        assert ref["step"] == pytest.approx(base["step"] * ratio, rel=1e-6)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_is_deterministic_and_readable(workload):
    counts = OUT / f"{workload}-seed5-quick.counts.txt"
    texts, results = [], []
    for _ in range(2):
        results.append(result_of(bench("--workload", workload, "--seed", "5", "--trace", "1")))
        texts.append(counts.read_bytes())
    assert texts[0] == texts[1]
    for result in results:
        assert result["correct"]
        assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    metrics = results[0]["metrics"]
    pool_and_campaign = [name for name in metrics if name.split(".")[0] in ("pool", "campaign")]
    nonzero = [name for name in pool_and_campaign if metrics[name]["value"] > 0.0]
    if workload == "campaign-pool":
        assert {"pool.spawn_s", "pool.chunks", "campaign.assemblies"} <= set(nonzero)
    else:
        assert nonzero == []
    report = subprocess.run(
        [sys.executable, "-m", "repro", "report", str(OUT / f"{workload}-seed5-quick.trace.jsonl")],
        cwd=ROOT,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert report.returncode == 0, report.stderr[-2000:]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out"))
    run = bench("--workload", WORKLOADS[0], "--seed", "0", cwd=tmp_path)
    assert run.returncode != 0
    assert '"correct"' not in run.stdout
