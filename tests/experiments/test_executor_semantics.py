"""One set of failure, budget and refusal semantics for every campaign.

The exhaustive ``ensure_all`` and a :class:`~repro.planner.PlannedCampaign`
run through the same staged executor and campaign session, so each scenario
here runs against both entry points and must give the same holes:

* a failed calibration holes exactly the impacts and CompressionB
  signatures (``dependency``); baselines and their dependents still land;
* a failed baseline holes its degradations and pairs (``dependency``);
* a refused baseline holes them as ``unsupported``, exempt from the budget;
* a budget-skipped baseline skips its dependents without charging them;
* ``failure_report.json`` lists every failure, across all planner rounds;
* a telemetry-on campaign writes a ``telemetry.json`` the cost model
  accepts, and a ``complete`` live frame.

The planned variant uses :class:`ProposeEverything`, a strategy that asks
for every degradation and pair in its first round — including those of
applications whose baseline is missing — so the cascade rule is exercised
across rounds, not only inside one executor call.
"""

import json

import pytest

import repro.core.experiments.pipeline as pipeline_mod
from repro import telemetry
from repro.errors import AnalyticModelError, CampaignError
from repro.parallel import RetryPolicy
from repro.planner import CostModel, PlannedCampaign
from repro.planner.base import Planner, PlanProposal
from repro.telemetry.live import LIVE_REPORT_NAME, load_live
from repro.telemetry.report import TELEMETRY_REPORT_NAME

from ..planner.conftest import make_pipeline

#: Generous failure budget for scenarios that inspect holes, not the raise.
TOLERANT = 1000


class ProposeEverything(Planner):
    """Round 1 asks for every degradation and pair; later rounds stop."""

    name = "everything"

    def __init__(self, apps, labels):
        self.apps = tuple(apps)
        self.labels = tuple(labels)

    def propose(self, context, budget_remaining):
        if context.round_index > 1:
            return PlanProposal(keys=())
        keys = [f"degradation/{a}/{label}" for a in self.apps for label in self.labels]
        keys += [f"pair/{a}/{b}" for a in self.apps for b in self.apps]
        return PlanProposal(keys=tuple(keys), reason="every dependent")


def _exhaustive(pipeline, failure_budget):
    pipeline.ensure_all(workers=1, failure_budget=failure_budget)


def _planned(pipeline, failure_budget):
    planner = ProposeEverything(
        pipeline.app_names, [config.label for config in pipeline.catalog]
    )
    return PlannedCampaign(
        pipeline, planner, workers=1, max_rounds=3, failure_budget=failure_budget
    ).run()


ENTRY_POINTS = pytest.mark.parametrize(
    "run", [_exhaustive, _planned], ids=["ensure_all", "planned"]
)


@pytest.fixture(autouse=True)
def _dark_telemetry():
    yield
    telemetry.disable()
    telemetry.reset()


@pytest.fixture
def pipeline(tmp_path):
    pipeline = make_pipeline(cache_path=tmp_path / "cache")
    pipeline.retry = RetryPolicy(backoff_base=0.0)
    return pipeline


def _raw(key):
    return key.rsplit(":", 1)[-1]


def _holes(pipeline):
    """Raw key → category of every hole in the campaign's failure report."""
    report = json.loads((pipeline.cache_path / "failure_report.json").read_text())
    assert report["failure_count"] == len(report["failures"])
    return {_raw(row["key"]): row["category"] for row in report["failures"]}


def _fail(monkeypatch, raw, error=ValueError):
    real = pipeline_mod.run_experiment

    def run_experiment(descriptor):
        if _raw(descriptor.key) == raw:
            raise error(f"injected failure of {raw}")
        return real(descriptor)

    monkeypatch.setattr(pipeline_mod, "run_experiment", run_experiment)


def _dependents(pipeline, app):
    keys = {f"degradation/{app}/{config.label}" for config in pipeline.catalog}
    return keys | {f"pair/{app}/{other}" for other in pipeline.app_names}


@ENTRY_POINTS
def test_failed_calibration_holes_exactly_impacts_and_signatures(
    run, pipeline, monkeypatch
):
    _fail(monkeypatch, "calibration")
    run(pipeline, TOLERANT)

    probes = {"impact/idle"} | {f"impact/{app}" for app in pipeline.app_names}
    probes |= {f"comp_sig/{config.label}" for config in pipeline.catalog}
    holes = _holes(pipeline)
    assert holes.pop("calibration") == "exception"
    assert holes == {key: "dependency" for key in probes}
    # Nothing else depends on the calibration: the rest still lands.
    for app in pipeline.app_names:
        assert pipeline.has_product(f"baseline/{app}")
        assert all(pipeline.has_product(key) for key in _dependents(pipeline, app))


@ENTRY_POINTS
def test_failed_calibration_exceeds_the_default_budget(run, pipeline, monkeypatch):
    _fail(monkeypatch, "calibration")
    with pytest.raises(CampaignError) as caught:
        run(pipeline, 0)
    assert {_raw(record.key) for record in caught.value.failures} >= {
        "calibration",
        "impact/idle",
    }
    # The finish step ran before the raise: the report is on disk.
    assert "calibration" in _holes(pipeline)


@ENTRY_POINTS
def test_failed_baseline_gives_dependency_holes(run, pipeline, monkeypatch):
    _fail(monkeypatch, "baseline/mcb")
    run(pipeline, TOLERANT)

    holes = _holes(pipeline)
    assert holes.pop("baseline/mcb") == "exception"
    assert holes == {key: "dependency" for key in _dependents(pipeline, "mcb")}


@ENTRY_POINTS
def test_refused_baseline_gives_unsupported_holes_exempt_from_budget(
    run, pipeline, monkeypatch
):
    _fail(monkeypatch, "baseline/mcb", AnalyticModelError)
    run(pipeline, 0)  # refusals never count against the failure budget

    expected = _dependents(pipeline, "mcb") | {"baseline/mcb"}
    assert _holes(pipeline) == {key: "unsupported" for key in expected}


def _budget_costs():
    # Baselines cost far more than anything else, so a budget can admit
    # the whole instrument sweep except one baseline and still leave room.
    per_kind = dict.fromkeys(
        ("calibration", "impact", "comp_sig", "degradation", "pair"), 1.0
    )
    return CostModel(per_kind={**per_kind, "baseline": 10.0}, source="test")


def _session_with_budget(pipeline, model, budget):
    # Campaign order, as ensure_all runs it: baselines after the signatures.
    kinds = ["calibration", "impact", "comp_sig", "baseline", "degradation", "pair"]
    keys = sorted(
        pipeline.raw_product_keys(), key=lambda raw: kinds.index(raw.split("/")[0])
    )
    with pipeline.campaign(workers=1) as session:
        stats = session.execute(keys, costs=model.costs_for(keys), budget=budget)
    return stats["skipped"], stats["budget_spent"]


def _planned_with_budget(pipeline, model, budget):
    planner = ProposeEverything(
        pipeline.app_names, [config.label for config in pipeline.catalog]
    )
    result = PlannedCampaign(
        pipeline, planner, measurement_budget=budget, workers=1, cost_model=model
    ).run()
    skipped = [key for entry in result.rounds for key in entry["skipped"]]
    return skipped, result.budget_spent


@pytest.mark.parametrize(
    "run", [_session_with_budget, _planned_with_budget], ids=["session", "planned"]
)
def test_budget_skipped_baseline_skips_dependents_uncharged(run, pipeline):
    model = _budget_costs()
    # Everything up to and including baseline/fftw, plus 5: baseline/mcb
    # (10) no longer fits, a few cheap dependents of fftw still do.
    sweep = 1 + (1 + len(pipeline.app_names)) + len(pipeline.catalog) + 10
    skipped, spent = run(pipeline, model, float(sweep + 5))

    skipped = {_raw(key) for key in skipped}
    assert "baseline/mcb" in skipped
    assert _dependents(pipeline, "mcb") <= skipped
    assert _holes(pipeline) == {}  # skipped keys are not failures
    # Only products that actually ran were charged.
    ran = [raw for raw in pipeline.raw_product_keys() if pipeline.has_product(raw)]
    assert spent == pytest.approx(sum(model.costs_for(ran)))


@ENTRY_POINTS
def test_failure_report_lists_failures_of_every_round(run, pipeline, monkeypatch):
    real = pipeline_mod.run_experiment

    def run_experiment(descriptor):
        if _raw(descriptor.key).startswith("degradation/fftw/"):
            raise ValueError("injected")
        return real(descriptor)

    monkeypatch.setattr(pipeline_mod, "run_experiment", run_experiment)
    result = run(pipeline, TOLERANT)

    fftw_rows = {f"degradation/fftw/{config.label}" for config in pipeline.catalog}
    assert _holes(pipeline) == {key: "exception" for key in fftw_rows}
    if result is not None:
        # The seed rows fail in the bootstrap, the rest in round 1: the one
        # report covers both, and agrees with the plan's own records.
        assert [entry["failed"] > 0 for entry in result.rounds[:2]] == [True, True]
        assert {_raw(r["key"]) for r in result.failure_records} == fftw_rows


@ENTRY_POINTS
def test_telemetry_report_feeds_the_cost_model_and_live_frame_completes(
    run, pipeline
):
    pipeline.telemetry = True
    run(pipeline, 0)

    report = pipeline.cache_path / TELEMETRY_REPORT_NAME
    document = json.loads(report.read_text())
    assert set(document["phases"]) == {"calibration", "measurements", "dependents"}
    model = CostModel.from_telemetry_report(report)
    assert model.source == str(report)
    live = load_live(pipeline.cache_path / LIVE_REPORT_NAME)
    assert live["complete"] is True
    assert live["progress"]["done"] == document["counters"]["runner.tasks_completed"]
