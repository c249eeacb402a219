"""Golden products: recomputed sim products equal the committed paper cache.

``results/paper_cache.json`` holds the packet simulator's end results.
This test recomputes four of them -- a baseline, a pair with itself, a pair
with another app and a CompressionB degradation (about 1.6 s in total) --
and compares them the way ``repro cache verify`` does.  It checks end
results, so it catches only some same-instant reorderings; the event-order
contract itself is guarded by the reference-trace tests in
``tests/sim/test_events.py``.
"""

from pathlib import Path

import pytest

from repro.core.experiments import ReproductionPipeline

ORACLE = Path(__file__).resolve().parents[2] / "results" / "paper_cache.json"

GOLDEN = (
    "baseline/mcb",
    "pair/mcb/mcb",
    "pair/mcb/lulesh",
    "degradation/mcb/P4xM1xB2.5e+06",
)


@pytest.fixture(scope="module")
def oracle():
    return ReproductionPipeline(legacy_cache=ORACLE)


@pytest.mark.parametrize("raw", GOLDEN)
def test_product_is_bit_identical_to_paper_cache(oracle, raw):
    assert oracle.recompute_matches(raw)
