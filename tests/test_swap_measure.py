"""A swap row is measured off its recording and its walk's clock.

Swapping moves data, never an allocation, and the rows a walk inserts are
neither accesses nor live-bytes changes.  So a swap-on row's ATI pairs, its
malloc / free rows, its block count and its breakdown bytes are its placed
recording's, at the rows and times its walk's clock
(:class:`~repro.swap.executor.WalkClock`) gives them.  The reduction reads
each placed class recording's measure once and every row's clock; the
overlaid trace is built only when a session's ``class_traces``,
``rank_traces`` or ``trace`` is read.

The oracle is the path a swap row took before: every walk's overlaid trace
built eagerly at its finalize, reduced by the pre-change reduction
(``tests.helpers.eager_reduction``).  Results must be equal field for field
(and as JSON text), and the lazily built traces byte for byte.  Tier-1 runs
the 23 ``swap_ladder`` rows and a few generated draws; the swap-smoke CI leg
draws wide with ``--hypothesis-profile=swap-wide``.
"""

from __future__ import annotations

import dataclasses
import json
from unittest import mock

import pytest
from hypothesis import given, settings

from repro.core.recorder import PlacedTrace
from repro.core.trace import Splice, merge_rank_traces
from repro.errors import InfeasibleScenarioError
from repro.experiments import results as results_module
from repro.experiments.results import run_scenario
from repro.experiments.sweep import SweepRunner
from repro.train import session as session_module
from repro.train.session import run_training_session

from tests.helpers import eager_reduction, eager_swap_session, swap_scenarios
from tests.test_swap_differential import LADDER

WIDE = settings.get_current_profile_name() == "swap-wide"


def _trace_view(trace):
    """Every byte a consumer reads off a trace: columns, tags, ops, marks,
    metadata (as JSON text, key order included) and end."""
    columns = trace.columns()
    return ({field.name: getattr(columns, field.name).tolist()
             for field in dataclasses.fields(columns)},
            trace.event_strings(),
            [(mark.index, mark.start_ns, mark.end_ns, mark.meta)
             for mark in trace.iteration_marks],
            json.dumps(trace.metadata), trace.end_ns)


def _result_view(result):
    result = dataclasses.replace(result, wall_time_s=0.0)
    return result, json.dumps(result.to_dict())


def assert_measured_like_the_eager_path(scenario):
    """``scenario``'s result equals the eager oracle's, and its lazily built
    class, rank and merged traces equal the eagerly built ones."""
    try:
        expected, eager = eager_reduction(scenario)
    except InfeasibleScenarioError as error:
        with pytest.raises(InfeasibleScenarioError) as raised:
            run_scenario(scenario)
        assert str(raised.value) == str(error)
        return
    assert _result_view(run_scenario(scenario)) == _result_view(expected)
    session = run_training_session(scenario.config)
    assert [_trace_view(trace) for trace in session.class_traces] == \
        [_trace_view(trace) for trace in eager]
    ranks = [eager[index].rank_view(rank) for rank, index in enumerate(session.rank_classes)]
    if session.n_devices > 1:
        assert [_trace_view(trace) for trace in session.rank_traces] == \
            [_trace_view(trace) for trace in ranks]
    assert _trace_view(session.trace) == _trace_view(merge_rank_traces(ranks))


@pytest.mark.parametrize("scenario", LADDER, ids=lambda s: s.config.describe()
                         + f", cap={s.config.device_memory_capacity}")
def test_ladder_rows_are_measured_like_the_eager_path(scenario):
    assert_measured_like_the_eager_path(scenario)


@settings(max_examples=settings.default.max_examples if WIDE else 4,
          deadline=None, derandomize=not WIDE)
@given(scenario=swap_scenarios())
def test_generated_scenarios_are_measured_like_the_eager_path(scenario):
    assert_measured_like_the_eager_path(scenario)


def test_a_sweep_on_shared_recordings_is_measured_like_the_eager_path():
    """Rows that share a recording share its placed runs' measures: each
    row still reads what the eager path gives it on a fresh session."""
    sweep = SweepRunner(cache_dir=None, workers=1, strict=False).run(LADDER)
    assert len(sweep.results) == len(LADDER) and not sweep.failures
    by_key = {result.key: result for result in sweep.results}
    for scenario in LADDER:
        assert _result_view(by_key[scenario.key()]) == \
            _result_view(eager_reduction(scenario)[0]), scenario.config.describe()


def _counted(owner, name, calls):
    """Patch ``owner.name`` to count its calls under ``name`` in ``calls``."""
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)
    return mock.patch.object(owner, name, counted)


def test_a_ladder_sweep_measures_each_placed_recording_once_and_builds_no_log():
    """A serial sweep of the ladder measures each placed class recording once
    (the placement pass runs once per one), not once per row, and builds no
    overlaid log in full: every row is read off its walk's clock.  The only
    splices built in full are the placed recordings, one per placed class."""
    calls = {}
    with _counted(results_module, "measure_class", calls), \
            _counted(session_module, "place", calls), \
            _counted(PlacedTrace, "_place", calls), \
            _counted(Splice, "columns", calls), \
            _counted(Splice, "ops", calls):
        sweep = SweepRunner(cache_dir=None, workers=1, strict=False).run(LADDER)
    assert len(sweep.results) == 23 and not sweep.failures
    assert calls["measure_class"] == calls["place"] < len(LADDER)
    assert calls["columns"] == calls["ops"] == calls["_place"] == calls["place"]


def test_a_swap_rows_trace_is_built_once_when_read():
    (scenario,) = [s for s in LADDER if s.config.n_devices == 2]
    calls = {}
    with _counted(Splice, "columns", calls), _counted(PlacedTrace, "_place", calls):
        session = run_training_session(scenario.config)
        placed = calls["_place"]
        assert calls["columns"] == placed           # the placement's, no walk's
        first = session.trace
        assert calls["columns"] - placed == len(session.clocks) == 1
        assert session.trace is first
        session.class_traces, session.rank_traces
    assert calls["columns"] - placed == 1
    expected = eager_swap_session(scenario.config)[1]
    assert [_trace_view(trace) for trace in session.class_traces] == \
        [_trace_view(trace) for trace in expected]
