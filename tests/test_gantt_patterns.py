"""Tests for Gantt-chart extraction and the exact periodicity pass."""

import dataclasses

import pytest

from repro.core.events import MemoryCategory
from repro.core.gantt import build_gantt_chart
from repro.core.patterns import COLUMNS, periodicity
from repro.experiments.configs import paper_mlp_config
from repro.experiments.sweep import Scenario, SweepRunner

from tests.helpers import build_trace


def test_gantt_builds_one_rectangle_per_lifetime(simple_trace):
    chart = build_gantt_chart(simple_trace)
    assert len(chart) == 3
    block2 = next(rect for rect in chart.rectangles if rect.block_id == 2)
    assert block2.start_ns == 2_000
    assert block2.end_ns == 15_000
    assert block2.duration_ns == 13_000
    assert block2.size == 4096


def test_gantt_closes_live_blocks_at_trace_end(simple_trace):
    chart = build_gantt_chart(simple_trace)
    block1 = next(rect for rect in chart.rectangles if rect.block_id == 1)
    assert block1.end_ns == simple_trace.end_ns    # parameters live until the end


def test_gantt_iteration_filter(simple_trace):
    chart = build_gantt_chart(simple_trace, max_iterations=1)
    assert all(rect.iteration < 1 for rect in chart.rectangles)
    assert len(chart.iteration_bounds) == 1


def test_gantt_lifetime_stats_and_dict(simple_trace):
    chart = build_gantt_chart(simple_trace)
    assert len(chart) == 3
    assert max(rect.size for rect in chart.rectangles) == 4096
    assert chart.rectangles[0].to_dict()["block_id"] in {1, 2, 3}


ACT, PARAM, WORK = (MemoryCategory.ACTIVATION, MemoryCategory.PARAMETER,
                    MemoryCategory.WORKSPACE)


def iteration_events(index, a=10, b=11, change=None):
    """One iteration at ``index * 100`` us: blocks ``a`` and ``b`` made,
    written, read and freed around a read of parameter block 1.  ``change``
    perturbs one column of this iteration."""
    base = index * 100_000
    rows = [["malloc", 1_000, a, 2048, ACT], ["malloc", 2_000, b, 2048, ACT],
            ["write", 3_000, a, 2048, ACT], ["write", 4_000, b, 2048, ACT],
            ["read", 5_000, 1, 1024, PARAM],
            ["read", 6_000, a, 2048, ACT], ["read", 7_000, b, 2048, ACT],
            ["free", 8_000, a, 2048, ACT], ["free", 9_000, b, 2048, ACT]]
    if change == "rows":
        rows.append(["read", 9_500, 1, 1024, PARAM])
    elif change == "kind":
        rows[5][0] = "write"
    elif change == "size":
        rows[2][3] = 4096
    elif change == "category":
        rows[2][4] = WORK
    elif change == "time":
        rows[5][1] += 1
    elif change == "block_id":
        rows[6][2] = a         # read a twice: no bijection maps the rows
    return [(kind, base + t, block, size, category, index)
            for kind, t, block, size, category in rows]


def make_trace(num_iterations=5, arguments=None):
    """``num_iterations`` iterations after a preamble; ``arguments[index]``
    holds an iteration's :func:`iteration_events` arguments, if any."""
    events = [("malloc", 0, 1, 1024, PARAM, -1), ("write", 500, 1, 1024, PARAM, -1)]
    marks = []
    for index in range(num_iterations):
        events += iteration_events(index, **(arguments or {}).get(index, {}))
        marks.append((index * 100_000, index * 100_000 + 50_000))
    return build_trace(events, iteration_marks=marks)


def test_identical_iterations_are_period_one_from_the_first():
    result = periodicity(make_trace())
    assert (result.start, result.period) == (0, 1)
    assert result.iterations == (0, 1, 2, 3, 4)
    assert result.breaks == (None,) * 4
    assert result.describe() == "exactly periodic from iteration 0, period 1"


def test_a_two_iteration_address_cycle_is_period_two():
    """Alternate iterations use blocks 10/11 and 12/13: ids map one to one,
    but their addresses differ, so only every other iteration matches."""
    cycle = {index: {"a": 10 + 2 * (index % 2), "b": 11 + 2 * (index % 2)}
             for index in range(6)}
    result = periodicity(make_trace(6, cycle))
    assert (result.start, result.period) == (0, 2)
    assert result.breaks == ("address",) * 5


@pytest.mark.parametrize("column", [column for column in COLUMNS if column != "address"])
def test_a_changed_first_iteration_breaks_on_its_column(column):
    result = periodicity(make_trace(arguments={0: {"change": column}}))
    assert result.breaks == (column, None, None, None)
    assert (result.start, result.period) == (1, 1)


def test_a_first_iteration_on_other_blocks_breaks_on_address():
    result = periodicity(make_trace(arguments={0: {"a": 20, "b": 21}}))
    assert result.breaks == ("address", None, None, None)
    assert (result.start, result.period) == (1, 1)


def test_a_changed_last_iteration_leaves_no_period():
    """Every candidate period compares the last iteration, so none holds."""
    result = periodicity(make_trace(arguments={4: {"change": "size"}}))
    assert result.breaks == (None, None, None, "size")
    assert (result.start, result.period) == (None, None)
    assert result.describe() == "not exactly periodic"


def test_one_iteration_compares_no_pair():
    result = periodicity(make_trace(1))
    assert (result.iterations, result.breaks) == ((0,), ())
    assert (result.start, result.period) == (None, None)


def test_rows_outside_an_iteration_are_not_compared():
    """The preamble's rows (iteration -1) and a stray row stamped with an
    unmarked iteration leave the result as it was."""
    trace = make_trace()
    stray = build_trace([("malloc", 0, 1, 1024, PARAM, -1),
                         ("write", 500, 1, 1024, PARAM, -1),
                         *[event for index in range(5) for event in iteration_events(index)],
                         ("read", 600_000, 1, 1024, PARAM, 9)],
                        iteration_marks=[(index * 100_000, index * 100_000 + 50_000)
                                         for index in range(5)])
    assert periodicity(stray) == periodicity(trace)


def paper_mlp_periodicity(allocator):
    config = dataclasses.replace(paper_mlp_config(), allocator=allocator)
    return periodicity(SweepRunner().trace(Scenario(config)))


def test_the_paper_mlp_under_caching_cycles_through_three_address_sets():
    """The caching pass's FIFO pools rotate the blocks' addresses: iteration
    0 makes the gradients and the optimizer state (more rows), and from
    iteration 1 the addresses repeat every third iteration."""
    result = paper_mlp_periodicity("caching")
    assert (result.start, result.period) == (1, 3)
    assert result.breaks == ("rows", "address", "address", "address")


def test_the_paper_mlp_under_best_fit_is_period_one():
    result = paper_mlp_periodicity("best_fit")
    assert (result.start, result.period) == (1, 1)
    assert result.breaks == ("rows", None, None, None)


def test_periodicity_of_a_real_training_trace(small_mlp_session):
    result = periodicity(small_mlp_session.trace)
    assert result.iterations == (0, 1, 2, 3, 4)
    assert (result.start, result.period) == (1, 1)
    assert result.breaks == ("rows", None, None, None)
