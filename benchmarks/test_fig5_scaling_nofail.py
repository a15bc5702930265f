"""Figure 5: execution-time breakdown vs scaling size, no failures.

For every app, runs the three designs across Table I's process counts on
the small input and prints the Application / Write-Checkpoints series
behind the paper's stacked bars. Shape checks: ULFM-FTI is the worst of
the three; RESTART-FTI and REINIT-FTI are near-identical.
"""

import pytest

from repro.core.report import format_breakdown_series

from conftest import bench_apps, write_series


@pytest.mark.parametrize("app", bench_apps())
def test_fig5(benchmark, results, app):
    def build_series():
        return results.scaling_series(app, faults="none")

    rows = benchmark.pedantic(build_series, rounds=1, iterations=1)
    table = format_breakdown_series(
        "Figure 5(%s): breakdown vs #processes, no failures" % app,
        [(n, d, r.breakdown) for n, d, r in rows])
    write_series("fig5_%s.txt" % app, table)

    by_cell = {(n, d): r for n, d, r in rows}
    for nprocs in sorted({n for n, _, _ in rows}):
        restart = by_cell[(nprocs, "restart-fti")].breakdown
        reinit = by_cell[(nprocs, "reinit-fti")].breakdown
        ulfm = by_cell[(nprocs, "ulfm-fti")].breakdown
        # ULFM-FTI performs worst; RESTART-FTI ~ REINIT-FTI (§V-C)
        assert ulfm.total_seconds > restart.total_seconds
        assert reinit.total_seconds == pytest.approx(
            restart.total_seconds, rel=0.02)
        # no recovery happens without failures
        assert restart.recovery_seconds == 0.0
    # every run passed application-level verification
    assert all(r.verified for _, _, r in rows)
