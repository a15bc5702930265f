"""Figure 8: execution-time breakdown vs input problem size, no failures.

64 processes across small/medium/large inputs. Execution and checkpoint
time grow with the input; ULFM's application overhead grows with it too
(it taxes every compute interval), while REINIT-FTI tracks RESTART-FTI.
"""

import pytest

from repro.core.report import format_breakdown_series

from conftest import bench_apps, write_series


@pytest.mark.parametrize("app", bench_apps())
def test_fig8(benchmark, results, app):
    def build_series():
        return results.input_series(app, faults="none")

    rows = benchmark.pedantic(build_series, rounds=1, iterations=1)
    table = format_breakdown_series(
        "Figure 8(%s): breakdown vs input size, no failures" % app,
        [(size, d, r.breakdown) for size, d, r in rows],
        x_label="Input")
    write_series("fig8_%s.txt" % app, table)

    by_cell = {(s, d): r.breakdown for s, d, r in rows}
    # times grow with the input problem size
    for design in ("restart-fti", "reinit-fti", "ulfm-fti"):
        assert (by_cell[("large", design)].total_seconds
                > by_cell[("small", design)].total_seconds)
    assert (by_cell[("large", "restart-fti")].ckpt_write_seconds
            > by_cell[("small", "restart-fti")].ckpt_write_seconds)
    # ULFM's application overhead grows with the input size (§V-D)
    overhead = {
        size: (by_cell[(size, "ulfm-fti")].application_seconds
               - by_cell[(size, "restart-fti")].application_seconds)
        for size in ("small", "large")
    }
    assert overhead["large"] > overhead["small"] > 0
    # Reinit does not delay application execution
    for size in ("small", "medium", "large"):
        assert (by_cell[(size, "reinit-fti")].application_seconds
                == pytest.approx(
                    by_cell[(size, "restart-fti")].application_seconds,
                    rel=0.02))
