"""The full reproduction pipeline: sharded caching + parallel execution.

Reproducing the paper end to end needs ~330 simulation runs:

* 1 idle calibration,
* 40 CompressionB+ImpactB signature runs (Fig. 6),
* 6 application impact runs (Fig. 3),
* 6 isolated baselines,
* 240 application × CompressionB degradation runs (Fig. 7),
* 36 application-pair co-runs (Table I, Figs. 8–9).

Every run is a pure function of ``(settings, machine_config, workload)``, so
the campaign decomposes into picklable :class:`ExperimentDescriptor` s that
:class:`CampaignSession` fans out through :func:`repro.parallel.run_tasks`
in three dependency stages (the calibration, then the measurements, then
degradations/co-runs after their baselines), under a retry/timeout policy
that turns permanent failures into structured
:class:`~repro.errors.FailureRecord` holes instead of a dead campaign.  The
exhaustive :meth:`ReproductionPipeline.ensure_all` and every round of a
planned campaign run through that one executor.

Products are memoized in memory and, when a cache directory is given, in a
:class:`~repro.core.experiments.cache.ShardedCache` — one atomic JSON shard
per product group, written as results land, so an interrupted campaign
resumes from its completed shards.  A legacy monolithic ``paper_cache.json``
migrates automatically on first load.
"""

from __future__ import annotations

import json
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ... import telemetry
from ...config import MachineConfig, scenario_tag
from ...core.measurement import ProbeSignature
from ...engine.base import (
    available_engines,
    ensure_scenario_supported,
    get_engine,
)
from ...errors import CampaignError, ExperimentError, FailureRecord
from ...faults import active_fault_plan, current_attempt
from ...parallel import RetryPolicy, RunReport, default_worker_count, run_tasks
from ...queueing import ServiceEstimate
from ...telemetry.live import LIVE_REPORT_NAME, LiveReporter
from ...telemetry.report import TELEMETRY_REPORT_NAME, build_report, write_report
from ...units import MS
from ...workloads import CompressionConfig, Workload
from ..models import PredictionEngine, default_models
from .cache import ShardedCache
from .catalog import APP_NAMES, paper_applications, paper_compression_catalog, quick_compression_catalog
from .compression import CompressionObservation
from .impact import ImpactResult

__all__ = [
    "CampaignSession",
    "PipelineSettings",
    "ReproductionPipeline",
    "ExperimentDescriptor",
    "run_experiment",
    "stratified_sample",
]

#: Name of the machine-readable failure report written into the cache
#: directory after each campaign (reserved: never loaded as a shard).
FAILURE_REPORT_NAME = "failure_report.json"


@dataclass(frozen=True)
class PipelineSettings:
    """Knobs of one reproduction campaign.

    Attributes:
        profile: ``"paper"`` (40 configs) or ``"quick"`` (10-config subset).
        seed: root RNG seed for every machine built by the pipeline.
        impact_duration: simulated seconds per impact measurement.
        signature_duration: simulated seconds per CompressionB signature run.
        calibration_duration: simulated seconds of idle probing.
        probe_interval: mean probe gap (the paper's 100 ms, scaled ×1/400).
        engine: experiment backend — ``"sim"`` (discrete-event reference),
            ``"analytic"`` (closed-form M/G/1 fast path, single switch
            only), or ``"fluid"`` (flow-level per-link fixed points for
            large fabrics).  Non-default engines get their own cache
            namespace (see :meth:`ReproductionPipeline._key`).
    """

    profile: str = "paper"
    seed: int = 0
    impact_duration: float = 0.03
    signature_duration: float = 0.03
    calibration_duration: float = 0.05
    probe_interval: float = 0.25 * MS
    engine: str = "sim"

    def __post_init__(self) -> None:
        if self.profile not in ("paper", "quick"):
            raise ExperimentError(f"unknown profile {self.profile!r}")
        if self.engine not in available_engines():
            raise ExperimentError(
                f"unknown engine {self.engine!r}; "
                f"available: {', '.join(available_engines())}"
            )


@dataclass(frozen=True)
class ExperimentDescriptor:
    """One self-contained, picklable experiment of the campaign.

    Carries everything a worker process needs to recompute the product from
    scratch: the campaign settings, the machine description, the workload(s)
    involved, and any already-computed inputs (calibration estimate,
    baseline runtime) the experiment depends on.

    Attributes:
        key: the product's cache key (also determines its shard group).
        kind: ``calibration`` | ``impact`` | ``comp_sig`` | ``baseline`` |
            ``degradation`` | ``pair``.
        settings: campaign knobs (durations, probe interval).
        machine_config: machine to build (fresh per experiment).
        workload: probed/measured workload (``None`` for the idle impact).
        other: co-runner workload (``pair`` only).
        comp_config: CompressionB configuration (``comp_sig``/``degradation``).
        calibration: serialized idle-switch :class:`ServiceEstimate`.
        baseline: isolated runtime of the measured app (stage-two kinds).
        label: registry name of the measured app (``pair`` bookkeeping).
    """

    key: str
    kind: str
    settings: PipelineSettings
    machine_config: MachineConfig
    workload: Optional[Workload] = None
    other: Optional[Workload] = None
    comp_config: Optional[CompressionConfig] = None
    calibration: Optional[dict] = None
    baseline: Optional[float] = None
    label: Optional[str] = None


def stratified_sample(raws: Sequence[str], size: int, seed: int) -> List[str]:
    """A seeded sample of product keys that visits every kind in turn.

    Keys are grouped by kind (the part before the first ``/``); each group
    and the order of the kinds are shuffled by ``random.Random(seed)``, and
    the sample draws one key from each kind in that order, round after
    round.  A sample at least as large as the number of kinds therefore
    covers every kind.  ``size <= 0`` or a size beyond the key count takes
    every key.
    """
    rng = random.Random(seed)
    groups: Dict[str, List[str]] = {}
    for raw in raws:
        groups.setdefault(raw.split("/")[0], []).append(raw)
    kinds = sorted(groups)
    rng.shuffle(kinds)
    for kind in kinds:
        rng.shuffle(groups[kind])
    if size <= 0:
        size = len(raws)
    sample: List[str] = []
    for round_ in range(max(map(len, groups.values()), default=0)):
        for kind in kinds:
            if len(sample) < size and round_ < len(groups[kind]):
                sample.append(groups[kind][round_])
    return sample


def run_experiment(descriptor: ExperimentDescriptor) -> object:
    """Execute one descriptor and return its JSON-ready product value.

    Dispatches to the engine named in the descriptor's settings (``"sim"``
    resolves to the discrete-event reference, ``"analytic"`` to the M/G/1
    fast path, ``"fluid"`` to the flow-level fabric solver).  Pure for a
    fixed engine: the product is a function of the descriptor alone, so
    results are identical whether this runs in the driver process or a
    pool worker.

    Capability dispatch happens here, at the registry level: the scenario
    is checked against the engine's declared
    :meth:`~repro.engine.base.ExperimentEngine.capabilities` before the
    engine sees the descriptor, so an unsupported scenario raises
    :class:`~repro.errors.UnsupportedScenario` (naming the engines that do
    support it) identically whichever engine was asked.

    This is also the fault-injection point of the engine seam: an active
    :class:`~repro.faults.FaultPlan` naming this descriptor's key fires
    here, inside whichever process executes the experiment, before the
    engine runs.
    """
    plan = active_fault_plan()
    if plan is not None:
        plan.on_experiment(descriptor.key, current_attempt())
    engine = get_engine(descriptor.settings.engine)
    ensure_scenario_supported(engine, descriptor.machine_config)
    value = engine.run(descriptor)
    # Counted here, not in the driver: the increment happens in whichever
    # process actually executed the experiment, so worker tallies merge
    # back through the chunk envelope and the campaign-wide count is exact.
    if telemetry.enabled():
        telemetry.registry().counter_inc("pipeline.experiments_completed")
    return value


#: Dependency stage of each product kind, listed in campaign order: the
#: calibration runs alone, the measurements after it, and the dependents
#: after their baselines.
_STAGE_OF = {
    "calibration": "calibration",
    "impact": "measurements",
    "comp_sig": "measurements",
    "baseline": "measurements",
    "degradation": "dependents",
    "pair": "dependents",
}
_STAGES = ("calibration", "measurements", "dependents")


def _prerequisite(raw: str) -> Optional[str]:
    """The raw key a product's descriptor is built from, if any.

    Impacts and CompressionB signatures need the idle calibration; an
    application's degradations and co-runs need its isolated baseline.
    """
    kind, _, rest = raw.partition("/")
    if kind in ("impact", "comp_sig"):
        return "calibration"
    if kind in ("degradation", "pair"):
        return "baseline/" + rest.split("/")[0]
    return None


class CampaignSession:
    """One campaign: the staged executor, its accounting and its finish step.

    :meth:`ReproductionPipeline.ensure_all` runs every product through one
    :meth:`execute` call; a planned campaign runs each round through the
    same session.  The session owns what a campaign accumulates — failure
    and transient records, budget-skipped keys, per-stage wall/CPU phases,
    progress and ETA — and, with telemetry on and a cache directory, the
    :class:`LiveReporter` behind ``telemetry.live.json``.

    Use it as a context manager (see :meth:`ReproductionPipeline.campaign`):
    leaving the block runs :meth:`finish` on every exit path.
    """

    def __init__(
        self,
        pipeline: "ReproductionPipeline",
        workers: int,
        chunksize: int,
        failure_budget: int,
    ) -> None:
        self.pipeline = pipeline
        self.workers = workers
        self.chunksize = chunksize
        self.failure_budget = failure_budget
        self.verbose = pipeline.verbose
        self.telemetry_on = (
            pipeline.telemetry if pipeline.telemetry is not None else telemetry.enabled()
        )
        if self.telemetry_on:
            telemetry.enable()
        directory = pipeline._cache.directory
        # The live document only makes sense with telemetry on and a real
        # cache directory to sit next to; a dark campaign pays nothing.
        self.reporter = (
            LiveReporter(directory / LIVE_REPORT_NAME)
            if self.telemetry_on and directory is not None
            else None
        )
        self.failures: List[FailureRecord] = []
        self.transients: List[FailureRecord] = []
        self.skipped: List[str] = []
        self.phases: Dict[str, Dict[str, float]] = {}
        self.failure_report: Optional[Path] = None
        self.telemetry_report: Optional[Path] = None
        self.total = 0
        self.done = 0
        self.start = time.time()
        self.stage = "pending"
        self._stages: Dict[str, Dict[str, object]] = {}
        self._stage_done0 = 0
        self._stage_start = self.start
        self._stage_base = (0, 0.0)

    def __enter__(self) -> "CampaignSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # A campaign already dying of another exception still leaves its
        # reports and final frame, but is not re-raised as a budget error.
        self.finish(enforce_budget=exc_type is None)

    # ------------------------------------------------------------------
    # The staged executor
    # ------------------------------------------------------------------
    def execute(
        self,
        raw_keys: Sequence[str],
        costs: Optional[Sequence[float]] = None,
        budget: Optional[float] = None,
    ) -> Dict[str, object]:
        """Run (or load) ``raw_keys`` in the three dependency stages.

        Already-cached keys are loaded and cost nothing.  The rest run
        stage by stage — calibration, measurements, dependents — each
        stage in the order the keys were given.  A key whose prerequisite
        (:func:`_prerequisite`) is not in the cache when its stage starts
        is never attempted; by the prerequisite's outcome it is

        * skipped, uncharged, if the prerequisite was budget-skipped;
        * an ``unsupported`` hole if the prerequisite was a model refusal;
        * a ``dependency`` hole otherwise (failed, or never requested).

        Budget semantics (estimated experiment-seconds): admission is
        decided up front per stage from ``costs`` in key order, so it is
        deterministic whatever the worker count; keys that do not fit are
        skipped; a deterministic model refusal refunds its cost to the
        following stages.

        Args:
            raw_keys: unqualified product keys (see
                :meth:`ReproductionPipeline.descriptor_for`); duplicates
                collapse, first occurrence wins.
            costs: estimated cost per entry of ``raw_keys`` (default: all
                zero, i.e. unbudgeted).
            budget: admission ceiling over ``costs`` for this call.

        Returns:
            This call's stats: requested/cached/executed/failed/unsupported
            counts, skipped (qualified) keys, ``budget_spent``,
            ``budget_refunded`` and elapsed seconds.
        """
        if costs is not None and len(costs) != len(raw_keys):
            raise ExperimentError(
                f"costs/raw_keys length mismatch: {len(costs)} != {len(raw_keys)}"
            )
        pipeline = self.pipeline
        cost_of: Dict[str, float] = {}
        for index, raw in enumerate(raw_keys):
            cost_of.setdefault(raw, float(costs[index]) if costs is not None else 0.0)
        start = time.time()
        pending = [raw for raw in cost_of if not pipeline.has_product(raw)]
        for _ in range(len(cost_of) - len(pending)):
            pipeline._note_cache_hit()
        self.total += len(pending)
        first_failure, first_skip = len(self.failures), len(self.skipped)
        spent = refunded = 0.0
        for stage in _STAGES:
            runnable: List[str] = []
            for raw in pending:
                if _STAGE_OF[raw.split("/")[0]] != stage:
                    continue
                prerequisite = _prerequisite(raw)
                if prerequisite is None or pipeline.has_product(prerequisite):
                    runnable.append(raw)
                else:
                    self._cascade(raw, prerequisite)
            report = self._run_stage(
                stage,
                [pipeline.descriptor_for(raw) for raw in runnable],
                [cost_of[raw] for raw in runnable],
                budget,
            )
            spent += report.budget_spent
            refunded += report.budget_refunded
            if budget is not None:
                budget = max(0.0, budget - report.budget_spent)
        failures = self.failures[first_failure:]
        skipped = self.skipped[first_skip:]
        return {
            "requested": len(cost_of),
            "cached": len(cost_of) - len(pending),
            "executed": len(pending) - len(failures) - len(skipped),
            "failed": len(failures),
            "unsupported": sum(1 for r in failures if r.category == "unsupported"),
            "skipped": skipped,
            "budget_spent": spent,
            "budget_refunded": refunded,
            "elapsed": time.time() - start,
        }

    def _cascade(self, raw: str, prerequisite: str) -> None:
        """Account for a product whose prerequisite is not in the cache."""
        key = self.pipeline._key(raw)
        upstream = self.pipeline._key(prerequisite)
        if upstream in self.skipped:
            self.skipped.append(key)
            self.total -= 1
            return
        # A refusal's dependents are missing because of a documented model
        # limit, not infrastructure flakiness: they inherit ``unsupported``
        # and so stay exempt from the failure budget too.
        refused = any(
            record.key == upstream and record.category == "unsupported"
            for record in self.failures
        )
        cause = "model refusal" if refused else "failed"
        self.failures.append(
            FailureRecord(
                key=key,
                category="unsupported" if refused else "dependency",
                message=f"{prerequisite} unavailable ({cause} upstream)",
                attempts=0,
                kind=raw.split("/")[0],
            )
        )

    def _run_stage(
        self,
        name: str,
        descriptors: List[ExperimentDescriptor],
        costs: List[float],
        budget: Optional[float],
    ) -> RunReport:
        """Run one dependency stage under a span, tracking wall/CPU time."""
        pipeline = self.pipeline
        by_key = {descriptor.key: descriptor for descriptor in descriptors}

        def land(_index: int, key: str, value: object) -> None:
            pipeline._cache.put(key, value)
            self.advance(key)

        self.begin_stage(name, len(descriptors))
        wall0, cpu0 = time.time(), time.process_time()
        with telemetry.span(f"stage:{name}", "pipeline", engine=pipeline.settings.engine):
            report = run_tasks(
                run_experiment,
                descriptors,
                keys=list(by_key),
                # Everything depends on the calibration: it runs alone.
                workers=1 if name == "calibration" else self.workers,
                chunksize=self.chunksize,
                policy=pipeline.retry,
                on_result=land,
                costs=costs,
                budget=budget,
            )
        phase = self.phases.setdefault(name, {"wall": 0.0, "cpu": 0.0})
        phase["wall"] += time.time() - wall0
        phase["cpu"] += time.process_time() - cpu0
        for records, target, verb in (
            (report.failures, self.failures, "FAILED"),
            (report.transients, self.transients, "retrying"),
        ):
            for record in records:
                record.kind = by_key[record.key].kind
                target.append(record)
                if self.verbose:
                    print(f"[pipeline] {verb} {record.describe()}", flush=True, file=sys.stderr)
        self.skipped.extend(report.skipped)
        self.total -= len(report.skipped)
        self.end_stage()
        return report

    # ------------------------------------------------------------------
    # Progress, ETA and the live frame
    # ------------------------------------------------------------------
    def begin_stage(self, name: str, total: int) -> None:
        self.stage = name
        self._stage_done0 = self.done
        self._stage_start = time.time()
        # A planned campaign re-enters each stage once per round: the live
        # view keeps one accumulating row per stage.
        entry = self._stages.setdefault(
            name, {"stage": name, "total": 0, "done": 0, "elapsed": 0.0}
        )
        entry["total"] += total  # type: ignore[operator]
        self._stage_base = (entry["done"], entry["elapsed"])
        self.publish(force=True)

    def _touch_stage(self) -> None:
        entry = self._stages[self.stage]
        done0, elapsed0 = self._stage_base
        entry["done"] = done0 + self.done - self._stage_done0
        entry["elapsed"] = elapsed0 + time.time() - self._stage_start

    def end_stage(self) -> None:
        self._touch_stage()
        self.publish(force=True)

    def eta(self) -> Optional[float]:
        """Seconds until campaign completion, from the *current stage's* rate.

        Campaign stages have wildly different per-product costs (a
        calibration vs. a pairwise co-run), so the cumulative campaign rate
        systematically lies across a stage boundary — after a fast
        measurement stage it promises the slow pairwise stage will finish
        at measurement speed.  The stage's own throughput is the honest
        estimator; the global rate is only used before the current stage
        has completed anything, and before any completion there is no
        estimate at all.
        """
        now = time.time()
        remaining = self.total - self.done
        stage_done = self.done - self._stage_done0
        if stage_done > 0:
            return ((now - self._stage_start) / stage_done) * remaining
        if self.done > 0:
            return ((now - self.start) / self.done) * remaining
        return None

    def progress_document(self) -> Dict[str, object]:
        elapsed = time.time() - self.start
        return {
            "stage": self.stage,
            "done": self.done,
            "total": self.total,
            "elapsed": elapsed,
            "eta": self.eta(),
            "failed": len(self.failures),
            "retried": len(self.transients),
            "stages": [dict(entry) for entry in self._stages.values()],
        }

    def publish(self, *, force: bool = False, complete: bool = False) -> None:
        if self.reporter is None:
            return
        metrics = (
            (lambda: telemetry.registry().snapshot()) if telemetry.enabled() else None
        )
        self.reporter.publish(
            self.progress_document(), metrics, complete=complete, force=force
        )

    def advance(self, key: str) -> None:
        self.done += 1
        self._touch_stage()
        self.publish()
        if not self.verbose:
            return
        elapsed = time.time() - self.start
        remaining = self.eta()
        eta_text = f"{remaining:.1f}s" if remaining is not None else "?"
        # Progress/ETA is diagnostics, not output: stderr keeps stdout clean
        # for machine-readable results (`repro campaign --json | ...`).
        print(
            f"[pipeline] {self.done}/{self.total} {key} · "
            f"elapsed {elapsed:.1f}s · eta {eta_text}",
            flush=True,
            file=sys.stderr,
        )

    # ------------------------------------------------------------------
    # The finish step
    # ------------------------------------------------------------------
    def finish(self, enforce_budget: bool = True) -> None:
        """Write the reports, publish the final frame, enforce the budget.

        ``failure_report.json`` (and, with telemetry on,
        ``telemetry.json``) land next to the shards, and the live document
        gets its ``complete`` frame, before the failure budget decides.
        ``unsupported`` records are deterministic model refusals (and their
        cascades) — documented holes, not flakiness — so only the other
        categories are charged against the budget.

        Raises:
            CampaignError: charged failures exceed the failure budget.
        """
        self.failure_report = self._write_failure_report()
        self.telemetry_report = self._write_telemetry_report()
        # Final live frame — marked complete so `repro top` knows to stop.
        self.publish(force=True, complete=True)
        if not enforce_budget:
            return
        budgeted = [record for record in self.failures if record.category != "unsupported"]
        if len(budgeted) > self.failure_budget:
            raise CampaignError(
                f"{len(budgeted)} experiment(s) failed permanently, exceeding "
                f"the failure budget of {self.failure_budget}: "
                + "; ".join(record.describe() for record in budgeted),
                self.failures,
            )
        if self.verbose and self.total:
            unsupported = len(self.failures) - len(budgeted)
            holes = f", {len(self.failures)} hole(s)" if self.failures else ""
            if unsupported:
                holes += f" ({unsupported} unsupported by this engine)"
            print(
                f"[pipeline] campaign complete: {self.done} experiment(s)"
                f"{holes} in {time.time() - self.start:.1f}s "
                f"with {self.workers} worker(s)",
                flush=True,
                file=sys.stderr,
            )

    def _write_failure_report(self) -> Optional[Path]:
        """Persist the campaign's failure accounting next to the shards.

        Written on every campaign (an empty report overwrites stale ones) so
        automation can always read the latest campaign's health from one
        well-known file.  Memory-only caches skip the write.
        """
        cache = self.pipeline._cache
        if cache.directory is None:
            return None
        settings = self.pipeline.settings
        document = {
            "engine": settings.engine,
            "profile": settings.profile,
            "started_at": self.start,
            "elapsed": time.time() - self.start,
            "workers": self.workers,
            "failure_count": len(self.failures),
            "failures": [record.to_dict() for record in self.failures],
            "transient_count": len(self.transients),
            "transients": [record.to_dict() for record in self.transients],
            "quarantined_shards": [str(shard) for shard in cache.quarantined],
        }
        cache.directory.mkdir(parents=True, exist_ok=True)
        path = cache.directory / FAILURE_REPORT_NAME
        path.write_text(json.dumps(document, indent=2) + "\n")
        return path

    def _write_telemetry_report(self) -> Optional[Path]:
        """Write ``telemetry.json`` next to the shards (telemetry-on only).

        Records the enclosing ``campaign`` span first so the trace always
        has its root, then snapshots the merged driver+worker telemetry.
        Memory-only caches skip the write, like the failure report.
        """
        directory = self.pipeline._cache.directory
        if not self.telemetry_on or directory is None:
            return None
        settings = self.pipeline.settings
        elapsed = time.time() - self.start
        telemetry.tracer().record(
            "campaign",
            self.start,
            elapsed,
            category="pipeline",
            args={"engine": settings.engine, "profile": settings.profile},
        )
        snap = telemetry.snapshot()
        document = build_report(
            snap["metrics"],
            snap["spans"],
            phases=self.phases,
            campaign={
                "engine": settings.engine,
                "profile": settings.profile,
                "workers": self.workers,
                "elapsed": elapsed,
                "failed": len(self.failures),
                "retried": len(self.transients),
            },
        )
        directory.mkdir(parents=True, exist_ok=True)
        return write_report(directory / TELEMETRY_REPORT_NAME, document)


class ReproductionPipeline:
    """Runs and caches every experiment the paper's evaluation needs.

    Args:
        settings: campaign knobs.
        machine_config: override the Cab-like default machine.
        cache_path: directory of the sharded result cache (created on first
            save; safe to commit — results are deterministic).  Passing a
            path to an *existing file* treats it as a legacy monolithic
            cache: its contents migrate into a sibling directory named
            after the file's stem.
        applications: override the application registry (tests use small
            fast apps here).
        catalog: override the CompressionB catalog.
        verbose: print per-experiment and campaign-progress lines.
        legacy_cache: optional legacy monolithic JSON cache migrated into
            the shard directory on load (ignored when ``cache_path`` itself
            is a legacy file).
        workers: default process count for campaigns
            (``None`` → all usable cores but one).
        chunksize: default descriptors per pool task submission.
        retry: per-task retry/timeout/backoff policy for campaign execution
            (``None`` → :class:`~repro.parallel.RetryPolicy`'s defaults:
            two attempts, no timeout).
        failure_budget: how many products a campaign may leave as holes
            before raising :class:`~repro.errors.CampaignError`
            (0 = any permanent failure raises, preserving the historical
            all-or-nothing behavior).
        telemetry: collect metrics/spans during campaigns and write
            ``telemetry.json`` next to the shards.  ``None`` (default)
            follows the process-wide switch (:func:`repro.telemetry.enabled`,
            i.e. the ``REPRO_TELEMETRY`` environment variable or an earlier
            ``enable()``); ``True``/``False`` forces it for this pipeline.
            Purely observational — products and shards are bit-identical
            either way.
    """

    def __init__(
        self,
        settings: PipelineSettings = PipelineSettings(),
        machine_config: Optional[MachineConfig] = None,
        cache_path: Optional[str | Path] = None,
        applications: Optional[Dict[str, Workload]] = None,
        catalog: Optional[Sequence[CompressionConfig]] = None,
        verbose: bool = False,
        legacy_cache: Optional[str | Path] = None,
        workers: Optional[int] = None,
        chunksize: int = 1,
        retry: Optional[RetryPolicy] = None,
        failure_budget: int = 0,
        telemetry: Optional[bool] = None,
    ) -> None:
        from ...cluster import cab_config

        if failure_budget < 0:
            raise ExperimentError(
                f"failure_budget must be >= 0, got {failure_budget}"
            )
        self.settings = settings
        self.retry = retry if retry is not None else RetryPolicy()
        self.failure_budget = failure_budget
        self.machine_config = machine_config or cab_config(seed=settings.seed)
        self.applications = applications if applications is not None else paper_applications()
        if catalog is None:
            catalog = (
                paper_compression_catalog()
                if settings.profile == "paper"
                else quick_compression_catalog()
            )
        self.catalog: List[CompressionConfig] = list(catalog)
        self.verbose = verbose
        self.workers = workers
        self.chunksize = chunksize
        # Optional[bool]: None defers to the process-wide switch at campaign
        # time (the parameter shadows the telemetry module in this scope).
        self.telemetry = telemetry
        directory, legacy = self._resolve_cache_paths(cache_path, legacy_cache)
        self.cache_path = directory
        self.legacy_cache = legacy
        self._cache = ShardedCache(directory, legacy)

    @staticmethod
    def _resolve_cache_paths(
        cache_path: Optional[str | Path], legacy_cache: Optional[str | Path]
    ) -> Tuple[Optional[Path], Optional[Path]]:
        directory = Path(cache_path) if cache_path else None
        legacy = Path(legacy_cache) if legacy_cache else None
        if directory is not None and directory.is_file():
            # A pre-sharding monolithic cache was passed directly: migrate
            # it into a sibling directory named after the file's stem.
            legacy = directory
            directory = directory.parent / directory.stem
        return directory, legacy

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------
    def _key(self, raw: str) -> str:
        """Engine- and scenario-qualified cache key for one product.

        The default ``sim`` engine on the default single-switch healthy
        machine keeps the bare key, so pre-engine caches (and the committed
        paper cache) stay valid byte for byte.  Other engines prefix
        ``"<engine>:"``; non-default fabric scenarios (leaf-spine and/or
        link faults) prefix the machine's :func:`~repro.config.scenario_tag`
        — each qualifier lands its products in their own shard files, so a
        fabric campaign can share a cache directory with the single-switch
        baseline without ever colliding.
        """
        qualifiers = []
        tag = scenario_tag(self.machine_config)
        if tag is not None:
            qualifiers.append(tag)
        if self.settings.engine != "sim":
            qualifiers.append(self.settings.engine)
        if not qualifiers:
            return raw
        return ":".join(qualifiers) + ":" + raw

    def _memo(self, key: str, compute: Callable[[], object]) -> object:
        if key in self._cache:
            self._note_cache_hit()
            return self._cache[key]
        if telemetry.enabled():
            telemetry.registry().counter_inc("pipeline.cache_misses")
        start = time.time()
        value = compute()
        if self.verbose:
            print(
                f"[pipeline] {key}: {time.time() - start:.1f}s",
                flush=True,
                file=sys.stderr,
            )
        self._cache.put(key, value)
        return value

    @staticmethod
    def _note_cache_hit() -> None:
        if telemetry.enabled():
            telemetry.registry().counter_inc("pipeline.cache_hits")

    @property
    def app_names(self) -> List[str]:
        """Application names in the paper's display order."""
        ordered = [name for name in APP_NAMES if name in self.applications]
        extras = sorted(set(self.applications) - set(ordered))
        return ordered + extras

    def _app(self, name: str) -> Workload:
        try:
            return self.applications[name]
        except KeyError as exc:
            raise ExperimentError(f"unknown application {name!r}") from exc

    def product_keys(self) -> List[str]:
        """Every cache key of the full evaluation, in campaign order."""
        return [self._key(key) for key in self.raw_product_keys()]

    def raw_product_keys(self) -> List[str]:
        """:meth:`product_keys` before engine/scenario qualification."""
        keys = ["calibration", "impact/idle"]
        for name in self.app_names:
            keys.append(f"impact/{name}")
            keys.append(f"baseline/{name}")
        keys.extend(f"comp_sig/{config.label}" for config in self.catalog)
        for name in self.app_names:
            keys.extend(
                f"degradation/{name}/{config.label}" for config in self.catalog
            )
        for measured in self.app_names:
            keys.extend(f"pair/{measured}/{other}" for other in self.app_names)
        return keys

    def pending_keys(self) -> List[str]:
        """Products not yet present in the cache (what a resume would run)."""
        return [key for key in self.product_keys() if key not in self._cache]

    def has_product(self, raw: str) -> bool:
        """Whether one raw (unqualified) product key is already cached."""
        return self._key(raw) in self._cache

    def product(self, raw: str) -> object:
        """The cached value of one raw product key (raises if absent)."""
        key = self._key(raw)
        if key not in self._cache:
            raise ExperimentError(f"product {raw!r} is not in the cache")
        return self._cache[key]

    def recompute_matches(self, raw: str) -> bool:
        """Whether recomputing one cached product reproduces it exactly.

        The fresh value is compared with the cached one as canonical JSON,
        the form the cache stores, so a difference in any bit of a float
        counts.  Nothing is written to the cache.
        """
        fresh = run_experiment(self.descriptor_for(raw))
        cached = self.product(raw)
        return json.dumps(fresh, sort_keys=True) == json.dumps(cached, sort_keys=True)

    def descriptor_for(self, raw: str) -> ExperimentDescriptor:
        """Build the descriptor of one raw product key — the planner seam.

        Accepts the same unqualified key grammar :meth:`product_keys` emits
        (``calibration``, ``impact/<app>|idle``, ``comp_sig/<label>``,
        ``baseline/<app>``, ``degradation/<app>/<label>``,
        ``pair/<app>/<app>``); engine/scenario qualification happens inside
        the descriptor builders.  CompressionB labels contain no ``/``, so
        splitting on it is unambiguous.

        Raises:
            ExperimentError: unknown key shape, application, or catalog
                label.
        """
        parts = raw.split("/")
        kind = parts[0]
        if raw == "calibration":
            return self._calibration_descriptor()
        if kind == "impact" and len(parts) == 2:
            return self._impact_descriptor(None if parts[1] == "idle" else parts[1])
        if kind == "comp_sig" and len(parts) == 2:
            return self._comp_sig_descriptor(self._config(parts[1]))
        if kind == "baseline" and len(parts) == 2:
            return self._baseline_descriptor(parts[1])
        if kind == "degradation" and len(parts) == 3:
            return self._degradation_descriptor(parts[1], self._config(parts[2]))
        if kind == "pair" and len(parts) == 3:
            return self._pair_descriptor(parts[1], parts[2])
        raise ExperimentError(f"unrecognized product key {raw!r}")

    def _config(self, label: str) -> CompressionConfig:
        for config in self.catalog:
            if config.label == label:
                return config
        raise ExperimentError(f"unknown CompressionB label {label!r}")

    # ------------------------------------------------------------------
    # Descriptor builders
    # ------------------------------------------------------------------
    def _calibration_descriptor(self) -> ExperimentDescriptor:
        return ExperimentDescriptor(
            key=self._key("calibration"),
            kind="calibration",
            settings=self.settings,
            machine_config=self.machine_config,
        )

    def _calibration_data(self) -> dict:
        self.calibration()
        return self._cache[self._key("calibration")]  # type: ignore[return-value]

    def _impact_descriptor(self, name: Optional[str]) -> ExperimentDescriptor:
        return ExperimentDescriptor(
            key=self._key(f"impact/{name}" if name else "impact/idle"),
            kind="impact",
            settings=self.settings,
            machine_config=self.machine_config,
            workload=self._app(name) if name else None,
            calibration=self._calibration_data(),
        )

    def _comp_sig_descriptor(self, config: CompressionConfig) -> ExperimentDescriptor:
        return ExperimentDescriptor(
            key=self._key(f"comp_sig/{config.label}"),
            kind="comp_sig",
            settings=self.settings,
            machine_config=self.machine_config,
            comp_config=config,
            calibration=self._calibration_data(),
        )

    def _baseline_descriptor(self, name: str) -> ExperimentDescriptor:
        return ExperimentDescriptor(
            key=self._key(f"baseline/{name}"),
            kind="baseline",
            settings=self.settings,
            machine_config=self.machine_config,
            workload=self._app(name),
        )

    def _degradation_descriptor(
        self, name: str, config: CompressionConfig
    ) -> ExperimentDescriptor:
        return ExperimentDescriptor(
            key=self._key(f"degradation/{name}/{config.label}"),
            kind="degradation",
            settings=self.settings,
            machine_config=self.machine_config,
            workload=self._app(name),
            comp_config=config,
            baseline=self.app_baseline(name),
        )

    def _pair_descriptor(self, measured: str, other: str) -> ExperimentDescriptor:
        return ExperimentDescriptor(
            key=self._key(f"pair/{measured}/{other}"),
            kind="pair",
            settings=self.settings,
            machine_config=self.machine_config,
            workload=self._app(measured),
            other=self._app(other),
            baseline=self.app_baseline(measured),
            label=measured,
        )

    # ------------------------------------------------------------------
    # Primitive products
    # ------------------------------------------------------------------
    def calibration(self) -> ServiceEstimate:
        """Idle-switch service estimate (µ, Var(S))."""
        descriptor = self._calibration_descriptor()
        data = self._memo(descriptor.key, lambda: run_experiment(descriptor))
        return ServiceEstimate.from_dict(data)  # type: ignore[arg-type]

    def idle_signature(self) -> ProbeSignature:
        """The idle switch's probe signature (Fig. 3's 'No App' series)."""
        data = self._memo(
            self._key("impact/idle"),
            lambda: run_experiment(self._impact_descriptor(None)),
        )
        return ImpactResult.from_dict(data).signature  # type: ignore[arg-type]

    def app_impact(self, name: str) -> ImpactResult:
        """Impact experiment on one application (probe signature + ρ)."""
        self._app(name)  # validate before touching the cache
        data = self._memo(
            self._key(f"impact/{name}"),
            lambda: run_experiment(self._impact_descriptor(name)),
        )
        return ImpactResult.from_dict(data)  # type: ignore[arg-type]

    def compression_signature(self, config: CompressionConfig) -> CompressionObservation:
        """Signature of one CompressionB config (Fig. 6 point)."""
        data = self._memo(
            self._key(f"comp_sig/{config.label}"),
            lambda: run_experiment(self._comp_sig_descriptor(config)),
        )
        return CompressionObservation.from_dict(data)  # type: ignore[arg-type]

    def compression_signatures(self) -> List[CompressionObservation]:
        """All catalog configs' signatures."""
        return [self.compression_signature(config) for config in self.catalog]

    def app_baseline(self, name: str) -> float:
        """Isolated runtime of one application."""
        descriptor = self._baseline_descriptor(name)
        return float(self._memo(descriptor.key, lambda: run_experiment(descriptor)))  # type: ignore[arg-type]

    def app_degradation(self, name: str, config: CompressionConfig) -> float:
        """% degradation of one app under one CompressionB config (Fig. 7 point)."""
        key = self._key(f"degradation/{name}/{config.label}")
        if key in self._cache:
            self._note_cache_hit()
            return float(self._cache[key])  # type: ignore[arg-type]
        descriptor = self._degradation_descriptor(name, config)
        return float(self._memo(key, lambda: run_experiment(descriptor)))  # type: ignore[arg-type]

    def degradation_table(self) -> Dict[str, Dict[str, float]]:
        """Per-app, per-config % degradations for the whole catalog."""
        return {
            name: {
                config.label: self.app_degradation(name, config)
                for config in self.catalog
            }
            for name in self.app_names
        }

    def pair_slowdown(self, measured: str, other: str) -> float:
        """Measured % slowdown of ``measured`` co-running with ``other``."""
        key = self._key(f"pair/{measured}/{other}")
        if key in self._cache:
            self._note_cache_hit()
            return float(self._cache[key])  # type: ignore[arg-type]
        descriptor = self._pair_descriptor(measured, other)
        return float(self._memo(key, lambda: run_experiment(descriptor)))  # type: ignore[arg-type]

    def measured_pairs(self) -> Dict[Tuple[str, str], float]:
        """All ordered pairs' measured slowdowns (Table I)."""
        return {
            (measured, other): self.pair_slowdown(measured, other)
            for measured in self.app_names
            for other in self.app_names
        }

    # ------------------------------------------------------------------
    # Model products
    # ------------------------------------------------------------------
    def engine(self) -> PredictionEngine:
        """A prediction engine fitted on this pipeline's products."""
        signatures = {
            name: self.app_impact(name).signature for name in self.app_names
        }
        return PredictionEngine(
            observations=self.compression_signatures(),
            degradations=self.degradation_table(),
            signatures=signatures,
            models=default_models(),
        )

    def model_artifact(self):
        """Freeze this pipeline's model inputs into a serializable artifact.

        The returned :class:`~repro.serving.artifact.ModelArtifact` carries
        the catalog signatures, degradation tables, impact signatures, and
        calibration — everything :meth:`engine` fits on — plus provenance
        metadata, so predictions can be served without the campaign cache.
        """
        # Imported lazily: repro.serving imports the models package, which
        # lives under repro.core — a module-level import would be circular.
        from ...serving.artifact import ModelArtifact

        return ModelArtifact(
            observations=self.compression_signatures(),
            degradations=self.degradation_table(),
            signatures={
                name: self.app_impact(name).signature for name in self.app_names
            },
            calibration=self.calibration(),
            metadata={
                "engine": self.settings.engine,
                "profile": self.settings.profile,
                "seed": self.settings.seed,
                "apps": self.app_names,
                "catalog_size": len(self.catalog),
                "scenario": scenario_tag(self.machine_config) or "single-switch",
            },
        )

    def prediction_errors(self) -> Dict[str, Dict[Tuple[str, str], float]]:
        """|measured − predicted| per model per ordered pair (Fig. 8)."""
        engine = self.engine()
        measured = self.measured_pairs()
        errors: Dict[str, Dict[Tuple[str, str], float]] = {
            name: {} for name in engine.model_names
        }
        for (app, other), real in measured.items():
            for model in engine.model_names:
                predicted = engine.predict(app, other, model)
                errors[model][(app, other)] = abs(real - predicted)
        return errors

    # ------------------------------------------------------------------
    # Campaign execution
    # ------------------------------------------------------------------
    def campaign(
        self,
        workers: Optional[int] = None,
        chunksize: Optional[int] = None,
        failure_budget: Optional[int] = None,
    ) -> CampaignSession:
        """Open a :class:`CampaignSession` on this pipeline.

        ``None`` arguments take the pipeline's defaults (``workers=None``
        on the pipeline too → all usable cores but one).
        """
        count = workers if workers is not None else self.workers
        return CampaignSession(
            self,
            workers=count if count is not None else default_worker_count(),
            chunksize=chunksize if chunksize is not None else self.chunksize,
            failure_budget=(
                failure_budget if failure_budget is not None else self.failure_budget
            ),
        )

    def ensure_all(
        self,
        workers: Optional[int] = None,
        chunksize: Optional[int] = None,
        failure_budget: Optional[int] = None,
    ) -> Dict[str, object]:
        """Run (or load) every product of the full evaluation, fault-tolerantly.

        One :class:`CampaignSession` executes every product key, unbudgeted.
        Pending products fan out through a process pool in three dependency
        stages: the calibration, then the measurements (impacts, signatures,
        baselines), then the degradations and co-runs.  Results land as they
        complete, each flushing its shard atomically, so interrupting the
        campaign never loses completed work.

        Each task runs under the pipeline's :class:`~repro.parallel.RetryPolicy`
        — bounded retries with backoff, an optional per-task timeout that
        kills hung workers, and automatic pool respawn after a worker crash.
        A task that exhausts its attempts becomes a hole plus a structured
        :class:`~repro.errors.FailureRecord`; products depending on a failed
        input (impacts and signatures of a failed calibration, degradations
        and pairs of a failed baseline) are skipped with a ``dependency``
        record rather than attempted.  The campaign finishes with holes as
        long as the number of permanent failures stays within the failure
        budget, and writes a machine-readable ``failure_report.json`` next
        to the shards either way.

        Deterministic model refusals — an engine raising
        :class:`~repro.errors.AnalyticModelError` because a workload drives
        a resource past its validity ceiling — are recorded as
        ``unsupported`` holes (their dependents too) but are *exempt* from
        the failure budget: the budget guards against infrastructure
        flakiness, while a refusal is the model honestly declining a
        scenario outside its domain.  A campaign on an oversubscribed
        fabric thus completes with documented holes for the workloads that
        saturate it, instead of failing outright.

        Args:
            workers: process count (``None`` → the pipeline's default).
            chunksize: descriptors per pool submission (``None`` → default).
            failure_budget: override the pipeline's failure budget.

        Returns:
            Campaign stats: total/executed/cached/failed product counts,
            elapsed seconds, worker count, retry count, and the failure
            records (as dicts) with the report path, if one was written.
            With telemetry on, ``telemetry_report`` holds the path of the
            ``telemetry.json`` written next to the shards.

        Raises:
            CampaignError: permanent failures exceeded the budget.
        """
        kinds = list(_STAGE_OF)
        keys = sorted(
            self.raw_product_keys(), key=lambda raw: kinds.index(raw.split("/")[0])
        )
        with self.campaign(workers, chunksize, failure_budget) as session:
            stats = session.execute(keys)
        return {
            "total": stats["requested"],
            "executed": stats["executed"],
            "cached": stats["cached"],
            "failed": stats["failed"],
            "unsupported": stats["unsupported"],
            "retried": len(session.transients),
            "elapsed": stats["elapsed"],
            "workers": session.workers,
            "failure_records": [record.to_dict() for record in session.failures],
            "failure_report": str(session.failure_report) if session.failure_report else None,
            "telemetry_report": (
                str(session.telemetry_report) if session.telemetry_report else None
            ),
        }
