"""Figure 9: execution-time breakdown vs input size, one process failure.

Figure 8's matrix plus fault injection: the Figure 8 observations hold,
and every design recovers. REINIT-FTI remains the best total.
"""

import pytest

from repro.core.report import format_breakdown_series

from conftest import bench_apps, write_series


@pytest.mark.parametrize("app", bench_apps())
def test_fig9(benchmark, results, app):
    def build_series():
        return results.input_series(app, faults="single")

    rows = benchmark.pedantic(build_series, rounds=1, iterations=1)
    table = format_breakdown_series(
        "Figure 9(%s): breakdown vs input size, one process failure" % app,
        [(size, d, r.breakdown) for size, d, r in rows],
        x_label="Input")
    write_series("fig9_%s.txt" % app, table)

    by_cell = {(s, d): r for s, d, r in rows}
    for size in ("small", "medium", "large"):
        totals = {d: by_cell[(size, d)].breakdown.total_seconds
                  for d in ("restart-fti", "reinit-fti", "ulfm-fti")}
        assert totals["reinit-fti"] == min(totals.values())
        for design in totals:
            result = by_cell[(size, design)]
            assert result.breakdown.recovery_seconds > 0
            assert result.verified
