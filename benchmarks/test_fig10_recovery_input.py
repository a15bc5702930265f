"""Figure 10: MPI recovery time vs input problem size.

The paper's finding: recovery time of ULFM and Reinit (and Restart)
negligibly changes across input sizes — recovery repairs MPI state, not
application data, so its cost is input-independent.
"""

import pytest

from repro.core.report import format_recovery_series

from conftest import bench_apps, write_series


@pytest.mark.parametrize("app", bench_apps())
def test_fig10(benchmark, results, app):
    def build_series():
        return results.input_series(app, faults="single")

    rows = benchmark.pedantic(build_series, rounds=1, iterations=1)
    series = [(s, d, r.breakdown.recovery_seconds) for s, d, r in rows]
    table = format_recovery_series(
        "Figure 10(%s): recovery time vs input size" % app, series,
        x_label="Input")
    write_series("fig10_%s.txt" % app, table)

    by_cell = {(s, d): sec for s, d, sec in series}
    for design in ("restart-fti", "reinit-fti", "ulfm-fti"):
        small = by_cell[("small", design)]
        medium = by_cell[("medium", design)]
        large = by_cell[("large", design)]
        # recovery is independent of the input problem size (§V-D)
        assert medium == pytest.approx(small, rel=0.15)
        assert large == pytest.approx(small, rel=0.15)
    for size in ("small", "medium", "large"):
        assert (by_cell[(size, "reinit-fti")]
                < by_cell[(size, "ulfm-fti")]
                < by_cell[(size, "restart-fti")])
