"""Campaign-progress ETA must use the current stage's own rate.

Regression for the ISSUE 10 satellite bug: the ETA was computed from the
cumulative campaign rate, so after a fast measurement stage the slow
pairwise stage inherited measurement-speed promises.  These tests drive
:class:`CampaignSession`'s progress with a fake clock and check that a stage
boundary resets the estimator.
"""

import pytest

import repro.core.experiments.pipeline as pipeline_mod
from repro.core.experiments.pipeline import PipelineSettings, ReproductionPipeline


class FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(pipeline_mod.time, "time", fake)
    return fake


def _progress(total):
    pipeline = ReproductionPipeline(
        PipelineSettings(profile="quick"), applications={}, catalog=[]
    )
    session = pipeline.campaign(workers=1)
    session.total = total
    return session


def test_no_estimate_before_any_completion(clock):
    progress = _progress(10)
    progress.begin_stage("measurements", 10)
    clock.tick(5.0)
    assert progress.eta() is None
    assert progress.progress_document()["eta"] is None


def test_eta_uses_stage_local_rate_after_stage_boundary(clock):
    # Fast stage: 8 products at 1 s each.
    progress = _progress(10)
    progress.begin_stage("measurements", 8)
    for _ in range(8):
        clock.tick(1.0)
        progress.done += 1
    progress.end_stage()

    # Slow stage: first pairwise product takes 30 s.  The cumulative rate
    # (~4.75 s/product) would promise ~4.75 s for the last product; the
    # stage-local rate honestly says 30 s.
    progress.begin_stage("pairwise", 2)
    clock.tick(30.0)
    progress.done += 1
    assert progress.eta() == pytest.approx(30.0)


def test_eta_falls_back_to_global_rate_before_first_stage_completion(clock):
    # Mid-stage with nothing completed yet in *this* stage, but history from
    # the previous one: the global rate is the only estimator available.
    progress = _progress(10)
    progress.begin_stage("measurements", 8)
    for _ in range(8):
        clock.tick(1.0)
        progress.done += 1
    progress.end_stage()

    progress.begin_stage("pairwise", 2)
    clock.tick(4.0)
    # 8 done in 12 s globally → 1.5 s/product × 2 remaining.
    assert progress.eta() == pytest.approx(3.0)


def test_eta_tracks_the_slow_stage_as_it_progresses(clock):
    progress = _progress(4)
    progress.begin_stage("measurements", 2)
    for _ in range(2):
        clock.tick(0.5)
        progress.done += 1
    progress.end_stage()

    progress.begin_stage("pairwise", 2)
    clock.tick(10.0)
    progress.done += 1
    clock.tick(10.0)
    progress.done += 1
    # Stage rate 10 s/product, nothing remaining.
    assert progress.eta() == pytest.approx(0.0)
