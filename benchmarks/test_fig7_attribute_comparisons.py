"""Figure 7 — pairwise attribute comparisons per strategy, with/without value-overlap filter.

Paper (Figure 7): with no additional filter, EXHAUSTIVE needs by far the most
attribute comparisons; VIEWBASEDALIGNER cuts them by roughly 60% and
PREFERENTIALALIGNER is cheaper still; the value-overlap filter reduces all
three dramatically.

The counts are deterministic for a given configuration, so one configuration
(15 rows per relation, the first 8 query-log trials, 20 introductions) is
held to exact totals: any drift means the blocking or counting logic changed.
"""

from __future__ import annotations

import pytest

from experiments import QUERY_LOG, run_gbco_alignment_experiment


@pytest.mark.benchmark(group="fig7")
def test_fig7_attribute_comparisons(benchmark):
    measurements = benchmark.pedantic(
        run_gbco_alignment_experiment,
        kwargs=dict(rows_per_relation=20, trials=QUERY_LOG[:6]),
        rounds=1,
        iterations=1,
    )
    exhaustive = measurements["exhaustive"]
    view_based = measurements["view_based"]
    preferential = measurements["preferential"]

    # No additional filter: exhaustive >> view-based >= preferential.
    assert view_based.avg_comparisons_no_filter < exhaustive.avg_comparisons_no_filter
    assert preferential.avg_comparisons_no_filter <= view_based.avg_comparisons_no_filter
    # The pruning should save a substantial fraction (paper: ~60%).
    assert view_based.avg_comparisons_no_filter < 0.75 * exhaustive.avg_comparisons_no_filter

    # The value-overlap filter reduces comparisons for every strategy.
    for measurement in measurements.values():
        assert measurement.avg_comparisons_value_filter < measurement.avg_comparisons_no_filter

    benchmark.extra_info["avg_comparisons"] = {
        name: {
            "no_filter": round(m.avg_comparisons_no_filter, 1),
            "value_overlap_filter": round(m.avg_comparisons_value_filter, 1),
        }
        for name, m in measurements.items()
    }


#: strategy -> (comparisons without a filter, with the value-overlap filter),
#: summed over the 20 introductions of the pinned configuration.
PINNED_COMPARISONS = {
    "exhaustive": (33266, 362),
    "view_based": (13658, 171),
    "preferential": (10807, 140),
}


def test_fig7_comparison_counts_are_exact():
    measurements = run_gbco_alignment_experiment(rows_per_relation=15, trials=QUERY_LOG[:8])
    assert {
        name: (m.total_comparisons_no_filter, m.total_comparisons_value_filter)
        for name, m in measurements.items()
    } == PINNED_COMPARISONS
    assert {m.introductions for m in measurements.values()} == {20}
