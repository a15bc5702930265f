"""Figure 7: MPI recovery time vs scaling size.

The paper's headline numbers: ULFM recovery up to 13x (4x average)
slower than Reinit and growing with the process count; Restart ~16x
slower than Reinit (up to 22x) and 2-3x slower than ULFM; Reinit
independent of the scaling size.
"""

import pytest

from repro.core.report import format_recovery_series, summarize_ratios

from conftest import bench_apps, write_series


@pytest.mark.parametrize("app", bench_apps())
def test_fig7(benchmark, results, app):
    def build_series():
        return results.scaling_series(app, faults="single")

    rows = benchmark.pedantic(build_series, rounds=1, iterations=1)
    series = [(n, d, r.breakdown.recovery_seconds) for n, d, r in rows]
    table = format_recovery_series(
        "Figure 7(%s): recovery time vs #processes" % app, series)
    recovery = {}
    for _, design, seconds in series:
        recovery.setdefault(design, []).append(seconds)
    table += "\n\n" + summarize_ratios(recovery)
    write_series("fig7_%s.txt" % app, table)

    scales = sorted({n for n, _, _ in rows})
    by_cell = {(n, d): s for n, d, s in series}
    for nprocs in scales:
        reinit = by_cell[(nprocs, "reinit-fti")]
        ulfm = by_cell[(nprocs, "ulfm-fti")]
        restart = by_cell[(nprocs, "restart-fti")]
        assert reinit < ulfm < restart          # the paper's ordering
        assert 2.0 < ulfm / reinit < 14.0       # 4x avg, up to 13x
        assert 8.0 < restart / reinit < 24.0    # 16x avg, up to 22x
        assert 1.5 < restart / ulfm < 4.5       # 2-3x
    if len(scales) >= 2:
        lo, hi = scales[0], scales[-1]
        # Reinit independent of scale; ULFM grows with it
        assert by_cell[(hi, "reinit-fti")] == pytest.approx(
            by_cell[(lo, "reinit-fti")], rel=0.05)
        assert by_cell[(hi, "ulfm-fti")] > by_cell[(lo, "ulfm-fti")]
