"""Figure 6 — running time of the aligner strategies (metadata matcher as BASEMATCHER).

Paper (Figure 6): VIEWBASEDALIGNER and PREFERENTIALALIGNER significantly
reduce running time versus EXHAUSTIVE (about 60% savings), averaged over the
introduction of 40 new sources.  The benchmark replays a subset of the
query-log trials (the full 16-trial run is available through
``harness.py fig6``) and asserts the ordering.

What the strategies share, and what they do not: the replay runs EXHAUSTIVE,
VIEWBASED, PREFERENTIAL in that order over one persistent profile index, and
the index remembers no matcher output — each strategy scores every relation
pair it selects.  The one thing still shared is the label-level
``_name_similarity_cached`` LRU: the strategy that runs first pays for the
label pairs the others then find cached.  Reversing ``STRATEGIES`` moves the
first strategy's time, not the ordering (measured, ms over the 40
introductions: preferential / view_based / exhaustive 27.9 / 38.9 / 68.2
reversed against 20.7 / 33.9 / 75.9 forward), so the assertion stays at the
ordering, which holds both ways.
"""

from __future__ import annotations

import pytest

from experiments import QUERY_LOG, run_gbco_alignment_experiment


@pytest.mark.benchmark(group="fig6")
def test_fig6_aligner_runtime(benchmark):
    measurements = benchmark.pedantic(
        run_gbco_alignment_experiment,
        kwargs=dict(rows_per_relation=20, trials=QUERY_LOG[:6]),
        rounds=1,
        iterations=1,
    )
    exhaustive = measurements["exhaustive"]
    view_based = measurements["view_based"]
    preferential = measurements["preferential"]

    # The information-need-driven strategies must be cheaper than EXHAUSTIVE.
    assert view_based.avg_time_ms < exhaustive.avg_time_ms
    assert preferential.avg_time_ms < exhaustive.avg_time_ms

    benchmark.extra_info["avg_time_ms"] = {
        name: round(m.avg_time_ms, 2) for name, m in measurements.items()
    }
    benchmark.extra_info["introductions"] = exhaustive.introductions
