"""Figure 6: execution-time breakdown vs scaling, one process failure.

Same matrix as Figure 5 plus a SIGTERM at a random (rank, iteration) per
repetition. REINIT-FTI achieves the best overall performance (§V-C).
"""

import pytest

from repro.core.report import format_breakdown_series

from conftest import bench_apps, write_series


@pytest.mark.parametrize("app", bench_apps())
def test_fig6(benchmark, results, app):
    def build_series():
        return results.scaling_series(app, faults="single")

    rows = benchmark.pedantic(build_series, rounds=1, iterations=1)
    table = format_breakdown_series(
        "Figure 6(%s): breakdown vs #processes, one process failure" % app,
        [(n, d, r.breakdown) for n, d, r in rows])
    write_series("fig6_%s.txt" % app, table)

    by_cell = {(n, d): r for n, d, r in rows}
    for nprocs in sorted({n for n, _, _ in rows}):
        totals = {d: by_cell[(nprocs, d)].breakdown.total_seconds
                  for d in ("restart-fti", "reinit-fti", "ulfm-fti")}
        # REINIT-FTI achieves the best performance under failures
        assert totals["reinit-fti"] == min(totals.values())
        # every design actually recovered (non-zero recovery segment)
        for design in totals:
            assert (by_cell[(nprocs, design)]
                    .breakdown.recovery_seconds > 0)
    assert all(r.verified for _, _, r in rows)
