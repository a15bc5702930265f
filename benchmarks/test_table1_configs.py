"""Table I: the experimentation configuration matrix.

Regenerates the paper's Table I verbatim and benchmarks the cost of
constructing/validating the full evaluation matrix.
"""

from repro.core.configs import input_matrix, scaling_matrix
from repro.core.report import format_table1

from conftest import write_series


def test_table1(benchmark):
    def build_everything():
        table = format_table1()
        cells = scaling_matrix() + scaling_matrix(faults="single")
        cells += input_matrix() + input_matrix(faults="single")
        return table, cells

    table, cells = benchmark(build_everything)
    write_series("table1.txt", table)
    # 66 scaling cells and 54 input cells, with and without faults
    assert len(cells) == 2 * 66 + 2 * 54
    assert "-problem 2 -n 20 20 20" in table
