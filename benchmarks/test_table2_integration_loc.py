"""Table II — NFs implemented for evaluation and the LOC added to
integrate them into SpeedyBox.

Paper values (C/C++ sources):

    NF        core LOC   added LOC
    Snort        1129    27 (+2.4%)
    Maglev        141    23 (+16.3%)
    IPFilter      110    20 (+18.2%)
    Monitor       223    19 (+8.5%)
    MazuNAT       358    20 (+5.6%)

Our NFs are Python, so absolute LOC differ; the claim that reproduces is
the *shape*: integration is a handful of instrumentation-API lines, a
single-digit-to-low-double-digit percentage of each NF.
"""

from benchmarks.harness import save_result
from repro.stats import format_table, integration_table


def run_table2():
    return integration_table()


def render_table2(reports) -> str:
    """The committed ``results/table2_integration_loc.txt`` body."""
    return format_table(
        ["Network Function", "LOC for Core Functionalities", "Added LOC"],
        [report.as_row() for report in reports],
        title="Table II: additional LOC to integrate NFs into SpeedyBox",
    )


def test_table2_integration_loc(benchmark):
    reports = benchmark.pedantic(run_table2, rounds=3, iterations=1)
    save_result("table2_integration_loc", render_table2(reports))

    by_name = {report.name: report for report in reports}
    assert set(by_name) == {"Snort", "Maglev", "IPFilter", "Monitor", "MazuNAT"}
    for report in reports:
        # Shape claims: integration is small in absolute terms (tens of
        # lines at most) and a modest fraction of the NF.
        assert 1 <= report.added_loc <= 30
        assert report.overhead_percent <= 25.0
    # Snort is the biggest NF and has the lowest relative overhead, as
    # in the paper (1129 core lines, +2.4%).
    assert by_name["Snort"].core_loc == max(r.core_loc for r in reports)
    assert by_name["Snort"].overhead_percent == min(r.overhead_percent for r in reports)
