"""The benchmark's three workloads: inputs from a seed, one timed pass, references.

Every workload turns ``(seed, quick)`` into a fixed set of *designs* — a grid,
a soil model and a GPR each — and runs them from geometry to the IEEE-80
touch/step verdict through the public ``repro`` API only:

``paper-verdict``
    The paper's five published cases (Barberá uniform and two-layer,
    Balaidos A/B/C), dense adaptive serial analysis plus a 61x61 raster.
``large-grid``
    A 40x40-mesh, 5 m reticulated two-layer grid (3,280 elements) through the
    serial hierarchical engine and matrix-free PCG, plus a 41x41 raster.
``campaign-pool``
    ``demo_campaign(n_scenarios=20, nx=ny=22)`` on a 2-worker ``WorkerPool``
    lent to ``run_campaign`` (``group_concurrency=1``) with a checkpoint file.

Seeds.  Seed 0 is the default: the paper's and the demo campaign's own
values.  Any other seed draws, per design, a common soil-resistivity scale
(every layer conductivity multiplied by the same factor) and the GPR from the
ranges below; the paper cases never change.  Because the BEM problem is
linear, a common conductivity scale ``s`` maps R_eq to ``R_eq / s`` and leaves
the normalised surface potential unchanged, and the GPR scales every voltage
linearly — so the reference values of a seeded design follow *exactly* from
the stored references of its seed-0 base design (the same algebra the
campaign engine uses for its derived scenarios).  The seed-0 references of
all 20 campaign scenarios are independent standalone runs, which checks that
algebra against real solves.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro import (
    GridBuilder,
    GroundingAnalysis,
    HierarchicalControl,
    SafetyAssessment,
    TwoLayerSoil,
    WorkerPool,
    run_campaign,
)
from repro.bem import (
    DofManager,
    PotentialEvaluator,
    default_geometry_cache,
    ieee80_tolerable_step,
    ieee80_tolerable_touch,
)
from repro.campaign import demo_campaign, scaled_soil, standalone_scenario_run
from repro.campaign.runner import surface_safety_metrics
from repro.experiments.balaidos import balaidos_case
from repro.experiments.barbera import barbera_case
from repro.geometry import discretize_grid
from repro.kernels import kernel_for_soil
from repro.kernels.truncation import AdaptiveControl
from repro.observe import ensure_tracer
from repro.timing import wall_clock

DEFAULT_SEED = 0
#: Seeded ranges: common conductivity scale (log-uniform) and GPR [V].
SCALE_RANGE = (0.5, 2.0)
GPR_RANGE = (5_000.0, 20_000.0)
#: Campaign variants keep their kind: GPR-only variants draw a GPR, soil
#: variants draw a scale and a GPR, base scenarios stay the demo's.
CAMPAIGN_SCALE_RANGE = (0.8, 1.25)
CAMPAIGN_GPR_RANGE = (5_000.0, 15_000.0)

#: Largest relative deviation from the reference a design may show.
TOLERANCE = {"paper-verdict": 1e-6, "large-grid": 1e-5, "campaign-pool": 1e-6}
#: Host-speed probe units (``hostclock``) at each probe point of a pass:
#: about a tenth of a pass's wall time goes to probes.
PROBE_UNITS = {"paper-verdict": 1, "large-grid": 8, "campaign-pool": 6}

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "references.json"
OUT_DIR = HERE / "out"


def _no_probe() -> None:
    pass


# ---------------------------------------------------------------- outcomes


@dataclass
class Outcome:
    """What one design produced: the quantities the correctness gate checks."""

    r_eq: float
    touch: float
    step: float
    safe: bool
    converged: bool = True

    def to_dict(self) -> dict[str, Any]:
        return {"r_eq": self.r_eq, "touch": self.touch, "step": self.step, "safe": self.safe}


@dataclass
class PassResult:
    """One timed pass over a workload's designs."""

    resistance_s: float
    verdict_s: float
    outcomes: dict[str, Outcome]
    errors: dict[str, str] = field(default_factory=dict)
    #: Benchmark-side measurements and program counters for the traced run.
    extra: dict[str, Any] = field(default_factory=dict)


def scaled_reference(base: dict[str, float], gpr: float, scale: float) -> dict[str, float]:
    """Reference of a design whose soil is ``scale`` x its base's, at ``gpr``."""
    ratio = gpr / base["gpr"]
    return {
        "r_eq": base["r_eq"] / scale,
        "touch": base["touch"] * ratio,
        "step": base["step"] * ratio,
    }


class Gate:
    """Counts design evaluations and failures against the references.

    A design fails if its pass raises, its PCG does not converge, R_eq or the
    worst touch/step voltage deviates by more than ``tolerance`` (relative),
    or its safe/unsafe verdict differs from the reference's.
    """

    def __init__(self, expected: dict, tolerance: float) -> None:
        self.expected = expected
        self.tolerance = tolerance
        self.attempted = 0
        self.failed = 0
        self.max_rel_err = 0.0
        self.messages: list[str] = []

    def run(self, workload, tracer=None, probe=_no_probe) -> PassResult | None:
        """One pass, checked; a pass that raises counts every design as failed."""
        try:
            result = workload.run_pass(tracer, probe)
        except Exception as exc:  # recorded as failures; the run goes on
            self.messages.append(f"pass raised {type(exc).__name__}: {exc}")
            result = None
        self.check(result)
        return result

    def check(self, result: PassResult | None) -> None:
        for name, ref in self.expected.items():
            self.attempted += 1
            outcome = result.outcomes.get(name) if result is not None else None
            if outcome is None:
                error = result.errors.get(name, "no result") if result else "pass raised"
                self._fail(f"{name}: {error}")
                continue
            worst = max(
                abs(getattr(outcome, key) - ref[key]) / abs(ref[key])
                for key in ("r_eq", "touch", "step")
            )
            self.max_rel_err = max(self.max_rel_err, worst)
            if not outcome.converged:
                self._fail(f"{name}: PCG did not converge")
            elif not worst <= self.tolerance:
                self._fail(f"{name}: rel err {worst:.3e} > {self.tolerance:.0e}")
            elif outcome.safe != ref["safe"]:
                self._fail(f"{name}: verdict safe={outcome.safe}, reference {ref['safe']}")

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 10:
            self.messages.append(message)


# ---------------------------------------------------------------- designs


@dataclass
class Design:
    """One grid + soil + GPR analysed from geometry to verdict."""

    name: str  # also the key of its seed-0 reference
    grid: Any
    soil: Any
    gpr: float
    scale: float
    raster: int
    analysis_kwargs: dict[str, Any]

    @property
    def rho_top(self) -> float:
        return 1.0 / self.soil.conductivities[0]



def _draw(seed: int, n: int, scale_range, gpr_range) -> list[tuple[float, float]]:
    """``n`` (scale, gpr) pairs; the default seed gives the unscaled inputs."""
    if seed == DEFAULT_SEED:
        return [(1.0, 0.0)] * n
    rng = np.random.default_rng(seed)
    lo, hi = np.log(scale_range[0]), np.log(scale_range[1])
    return [
        (float(np.exp(rng.uniform(lo, hi))), float(rng.uniform(*gpr_range)))
        for _ in range(n)
    ]


def paper_designs(seed: int, quick: bool) -> list[Design]:
    """The paper's published cases; the seed does not change them."""
    del seed
    if quick:
        cases = [
            ("barbera-uniform", barbera_case("uniform", coarse=True)),
            ("barbera-two-layer", barbera_case("two_layer", coarse=True)),
        ]
        raster = 11
    else:
        cases = [
            ("barbera-uniform", barbera_case("uniform")),
            ("barbera-two-layer", barbera_case("two_layer")),
            ("balaidos-A", balaidos_case("A")),
            ("balaidos-B", balaidos_case("B")),
            ("balaidos-C", balaidos_case("C")),
        ]
        raster = 61
    return [
        Design(name, grid, soil, gpr, 1.0, raster, {})
        for name, (grid, soil, gpr) in cases
    ]


def large_grid_designs(seed: int, quick: bool) -> list[Design]:
    """One reticulated two-layer grid through the serial hierarchical engine."""
    meshes, raster = (6, 11) if quick else (40, 41)
    control = HierarchicalControl(workers=0, leaf_size=16 if quick else 64)
    grid = GridBuilder(depth=0.8, conductor_radius=6.0e-3, name="large-grid").rectangular_mesh(
        5.0 * meshes, 5.0 * meshes, meshes, meshes
    )
    base_soil, base_gpr = TwoLayerSoil(0.005, 0.016, 1.0), 10_000.0
    ((scale, gpr),) = _draw(seed, 1, SCALE_RANGE, GPR_RANGE)
    return [
        Design(
            "large-grid",
            grid,
            scaled_soil(base_soil, scale),
            gpr or base_gpr,
            scale,
            raster,
            {"hierarchical": control},
        )
    ]


def run_design(design: Design, tracer=None, probe=_no_probe):
    """Geometry to verdict for one design; returns (resistance_s, verdict_s, outcome).

    The benchmark-side spans (``bench.*``) wrap each call into the program,
    so a traced pass attributes the wall time to analysis, raster and
    assessment; the program's own spans nest under ``bench.analysis``.
    ``probe`` runs between the analysis and the raster, outside both timings.
    """
    tracer = ensure_tracer(tracer)
    with tracer.span("bench.design", design=design.name):
        start = wall_clock()
        with tracer.span("bench.analysis"):
            results = GroundingAnalysis(
                design.grid, design.soil, gpr=design.gpr, tracer=tracer, **design.analysis_kwargs
            ).run()
        resistance_s = wall_clock() - start
        probe()
        start = wall_clock()
        n_elements = results.mesh.n_elements
        with tracer.span("bench.potential", evaluations=design.raster**2 * n_elements):
            surface = results.evaluator().surface_potential_over_grid(
                n_x=design.raster, n_y=design.raster
            )
        with tracer.span("bench.safety"):
            assessment = SafetyAssessment.from_surface(
                surface,
                design.gpr,
                results.equivalent_resistance,
                results.total_current,
                design.rho_top,
            )
        verdict_s = resistance_s + wall_clock() - start
        layers = range(1, design.soil.n_layers + 1)
        n_dofs = results.dof_values.size
        dense = "hierarchical" not in results.metadata
        tracer.annotate(
            image_terms=sum(results.kernel.series_length(b, c) for b in layers for c in layers),
            matrix_entries=n_dofs * (n_dofs + 1) // 2 if dense else 0,
            operator_bytes=0 if dense else results.metadata["hierarchical"]["memory_bytes"],
        )
    outcome = Outcome(
        r_eq=results.equivalent_resistance,
        touch=assessment.max_touch_voltage,
        step=assessment.max_step_voltage,
        safe=assessment.is_safe,
        converged=bool(results.solver.converged),
    )
    return resistance_s, verdict_s, outcome


class DesignWorkload:
    """``paper-verdict`` and ``large-grid``: independent designs, in-process."""

    #: Cores a pass keeps busy (the host-speed probe runs on as many).
    probe_width = 1

    def __init__(self, name: str, seed: int, quick: bool) -> None:
        self.name = name
        build = paper_designs if name == "paper-verdict" else large_grid_designs
        self.designs = build(seed, quick)

    def n_designs(self) -> int:
        return len(self.designs)

    def start(self, tracer=None) -> float:
        """Nothing to spawn (the pool workload spawns its pool here)."""
        return 0.0

    def stop(self) -> None:
        pass

    def run_pass(self, tracer=None, probe=_no_probe) -> PassResult:
        """``probe`` runs before, inside and after every design, never timed."""
        resistance_s = verdict_s = 0.0
        outcomes: dict[str, Outcome] = {}
        errors: dict[str, str] = {}
        probe()
        for design in self.designs:
            default_geometry_cache().clear()
            try:
                r_s, v_s, outcome = run_design(design, tracer, probe)
            except Exception as exc:  # a failed design is counted, not fatal
                errors[design.name] = f"{type(exc).__name__}: {exc}"
                continue
            finally:
                probe()
            resistance_s += r_s
            verdict_s += v_s
            outcomes[design.name] = outcome
        return PassResult(resistance_s, verdict_s, outcomes, errors)

    def references(self, table: dict[str, Any]) -> dict[str, dict[str, Any]]:
        expected = {}
        for design in self.designs:
            ref = scaled_reference(table[design.name], design.gpr, design.scale)
            ref["safe"] = bool(
                ref["touch"] <= ieee80_tolerable_touch(design.rho_top)
                and ref["step"] <= ieee80_tolerable_step(design.rho_top)
            )
            expected[design.name] = ref
        return expected

    def compute_base_references(self) -> dict[str, dict[str, float]]:
        """Seed-0 references: exact engine (paper), dense engine (large grid)."""
        table = {}
        for design in self.designs:
            kwargs = {"adaptive": None} if self.name == "paper-verdict" else {}
            exact = dataclasses.replace(design, analysis_kwargs=kwargs)
            _, _, outcome = run_design(exact)
            table[design.name] = {**outcome.to_dict(), "gpr": design.gpr}
        return table


# ---------------------------------------------------------------- campaign


def campaign_spec(seed: int, quick: bool):
    """The demo campaign; a non-default seed redraws its derived variants."""
    campaign = demo_campaign(n_scenarios=20, nx=5 if quick else 22, ny=5 if quick else 22)
    draws = _draw(seed, len(campaign.scenarios), CAMPAIGN_SCALE_RANGE, CAMPAIGN_GPR_RANGE)
    scenarios = []
    for spec, (scale, gpr) in zip(campaign.scenarios, draws):
        if seed != DEFAULT_SEED and not spec.name.endswith("-base"):
            spec = dataclasses.replace(
                spec, gpr=gpr, soil_scale=scale if spec.soil_scale != 1.0 else 1.0
            )
        scenarios.append(spec)
    return dataclasses.replace(campaign, scenarios=tuple(scenarios))


def _base_name(spec) -> str:
    return spec.name.rsplit("-", 1)[0] + "-base"


def child_peak_rss_kb() -> float:
    """Sum of the peak resident sizes (VmHWM) of this process's live children."""
    total = 0.0
    for task in Path("/proc/self/task").iterdir():
        try:
            pids = (task / "children").read_text().split()
        except OSError:
            continue
        for pid in pids:
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total += float(line.split()[1])
    return total


class CampaignWorkload:
    """``campaign-pool``: the demo campaign on a lent persistent pool."""

    def __init__(self, name: str, seed: int, quick: bool) -> None:
        self.name = name
        self.seed = seed
        self.campaign = campaign_spec(seed, quick)
        self.n_workers = min(2, len(os.sched_getaffinity(0)))  # never more busy than nproc
        self.probe_width = self.n_workers
        self.pool: WorkerPool | None = None
        self.worker_peak_kb = 0.0

    def n_designs(self) -> int:
        return len(self.campaign.scenarios)

    def start(self, tracer=None) -> float:
        """Spawn a fresh pool (cold worker caches); returns the spawn seconds."""
        self.stop()
        default_geometry_cache().clear()  # workers fork from a cold master cache
        start = wall_clock()
        self.pool = WorkerPool(self.n_workers, tracer=tracer)
        return wall_clock() - start

    def stop(self) -> None:
        if self.pool is not None:
            self.worker_peak_kb = max(self.worker_peak_kb, child_peak_rss_kb())
            self.pool.close()
            self.pool = None

    def run_pass(self, tracer=None, probe=_no_probe) -> PassResult:
        """``probe`` runs before and after the campaign, never timed."""
        if self.pool is None:
            self.start()
        tracer = ensure_tracer(tracer)
        default_geometry_cache().clear()
        probe()
        outcomes: dict[str, Outcome] = {}
        errors: dict[str, str] = {}
        OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
            checkpoint = Path(scratch) / "campaign.ckpt"
            with tracer.span("bench.campaign", scenarios=self.n_designs()):
                start = wall_clock()
                result = run_campaign(
                    self.campaign,
                    pool=self.pool,
                    checkpoint=checkpoint,
                    tracer=tracer,
                    group_concurrency=1,
                )
                verdict_s = wall_clock() - start
            probe()
            checkpoint_bytes = checkpoint.stat().st_size
        # Each group's R_eq is known once its solve ends; the campaign's
        # evaluate phase (the safety rasters) is the rest of its wall time.
        resistance_s = verdict_s - result.timings["evaluate"]
        for failure in result.failures:
            for name in failure.scenario_names:
                errors[name] = f"{failure.stage}: {failure.error}"
        for scenario in result.scenarios:
            if scenario.name in errors:
                continue
            outcomes[scenario.name] = Outcome(
                r_eq=scenario.equivalent_resistance,
                touch=scenario.max_touch_voltage,
                step=scenario.max_step_voltage,
                safe=scenario.verdicts["compliant"],
                converged=bool(scenario.metadata.get("solver_converged", True)),
            )
        pool_stats = result.cache_stats.get("pool", {})
        extra = {
            "campaign.assemblies": result.plan_summary["n_assemblies"],
            "campaign.derived": result.plan_summary["n_scenarios"]
            - result.plan_summary["n_assemblies"],
            "campaign.checkpoint_bytes": checkpoint_bytes,
            "geometry.s": result.timings["discretize"],
            "pool.chunks": pool_stats.get("chunks_dispatched", 0),
            "pool.tasks": pool_stats.get("tasks_executed", 0),
            "pool.retries": pool_stats.get("retries", 0),
        }
        self.stop()  # the next pass gets a fresh pool with cold caches
        return PassResult(resistance_s, verdict_s, outcomes, errors, extra)

    def references(self, table: dict[str, Any]) -> dict[str, dict[str, Any]]:
        campaign = self.campaign
        expected = {}
        for spec in campaign.scenarios:
            # Seed 0 checks every scenario against its own standalone run;
            # other seeds scale their base scenario's standalone reference.
            key = spec.name if self.seed == DEFAULT_SEED else _base_name(spec)
            ref = scaled_reference(table[key], spec.gpr, spec.soil_scale)
            rho = 1.0 / (spec.soil.conductivities[0] * spec.soil_scale)
            limits = [
                float(limit(rho, campaign.fault_duration_s, campaign.body_weight_kg,
                            campaign.surface_resistivity, campaign.surface_thickness))
                for limit in (ieee80_tolerable_touch, ieee80_tolerable_step)
            ]
            ref["safe"] = ref["touch"] <= limits[0] and ref["step"] <= limits[1]
            expected[spec.name] = ref
        return expected

    def compute_base_references(self) -> dict[str, dict[str, float]]:
        """Seed-0 references: every scenario as its own standalone analysis.

        Stored at scale 1 (the scenario's soil scale folded into its R_eq is
        undone) so seeded designs scale from them like any other reference.
        """
        campaign = self.campaign
        table = {}
        for spec in campaign.scenarios:
            default_geometry_cache().clear()
            dof_values, _ = standalone_scenario_run(campaign, spec, workers=0)
            soil = spec.effective_soil()
            mesh = discretize_grid(spec.geometry.build_grid(), soil=soil)
            dofs = DofManager(mesh, campaign.element_type)
            current = float(dofs.assemble_basis_integrals() @ dof_values)
            evaluator = PotentialEvaluator(
                mesh,
                soil,
                kernel_for_soil(soil, campaign.series_control),
                dofs,
                dof_values,
                gpr=spec.gpr,
                adaptive=AdaptiveControl(tolerance=spec.tolerance),
            )
            touch, step = surface_safety_metrics(
                evaluator, campaign.safety_margin, campaign.safety_raster
            )
            table[spec.name] = {
                "r_eq": spec.gpr / current * spec.soil_scale,
                "touch": touch,
                "step": step,
                "gpr": spec.gpr,
            }
        return table


WORKLOADS: dict[str, type] = {
    "paper-verdict": DesignWorkload,
    "large-grid": DesignWorkload,
    "campaign-pool": CampaignWorkload,
}


def make_workload(name: str, seed: int, quick: bool):
    return WORKLOADS[name](name, seed, quick)


# ---------------------------------------------------------------- references


def reference_table(name: str, quick: bool, path: Path | None = None) -> dict[str, Any]:
    """Seed-0 base references of a workload.

    Full-size references are committed in ``references.json``.  Quick-mode
    references are computed on first use (outside any timed window) and
    cached under ``out/``.  ``path`` overrides the file (the self-test points
    it at a deliberately perturbed copy).
    """
    path = path or (OUT_DIR / "references-quick.json" if quick else REFERENCE_FILE)
    tables = json.loads(path.read_text()) if path.exists() else {}
    if name not in tables:
        if not quick:
            raise SystemExit(f"no stored reference for {name!r} in {path}")
        tables[name] = make_workload(name, DEFAULT_SEED, quick).compute_base_references()
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(tables, indent=1, sort_keys=True) + "\n")
    return tables[name]
