"""Where a swap row's overlay can act, and what its rows on one recording share.

Swap execution never moves an allocation, so at every recorded row of an
overlaid trace the bytes resident on the device are at most the bytes the
swap-off recording has allocated there: an eviction only lowers residency,
and a restoration only brings back what it took.  A capacity or a
pressure budget can therefore bind only where the recording's allocated
bytes, plus the incoming block, exceed it.

A walk that has inserted no row and shifted no delay by the end of the
warm-up learns from it what every such walk on the recording learns, so
the recording keeps that first learning pass for the rows overlaid after
it.  Whichever row comes first — one whose capacity already forces
evictions during the warm-up, or one it leaves undisturbed — every row
must equal its own fresh session.

Tier-1 runs the 23 ``swap_ladder`` rows and a few generated draws; the
swap-smoke CI leg draws wide with ``--hypothesis-profile=swap-wide``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.events import MemoryEventKind
from repro.core.trace import KIND_CODES
from repro.errors import InfeasibleScenarioError
from repro.experiments.grid import recording_token
from repro.swap.executor import WARMUP_ITERATIONS
from repro.train.session import record_session, run_training_session
from repro.units import MIB

from tests.helpers import swap_run, swap_scenarios
from tests.test_swap_differential import LADDER


def assert_resident_within_recorded_allocation(scenario):
    """Per rank, resident bytes after every row of the overlaid trace are at
    most the placed recording's allocated bytes after the recorded rows up to it
    (an engine row sits in front of the recorded row it was made at)."""
    recording = record_session(scenario.config)
    try:
        session = run_training_session(scenario.config, recording=recording)
    except InfeasibleScenarioError:   # no trace to hold
        return
    for rank, trace in enumerate(session.rank_traces or [session.trace]):
        recorded = recording.placed(scenario.config).traces[recording.rank_classes[rank]].trace.columns()
        allocated = np.concatenate(([0], np.cumsum(recorded.live_deltas())))
        columns = trace.columns()
        engine = columns.is_swap | columns.is_rematerialization
        walked = np.cumsum(~engine)
        assert walked[-1] == len(recorded.kind_code), rank
        resident = np.cumsum(columns.resident_deltas())
        assert np.all(resident <= allocated[walked]), rank
        assert np.all(resident >= 0), rank


@pytest.mark.parametrize("scenario", LADDER, ids=lambda s: s.config.describe()
                         + f", cap={s.config.device_memory_capacity}")
def test_ladder_rows_stay_within_the_recorded_allocation(scenario):
    assert_resident_within_recorded_allocation(scenario)


WIDE = settings.get_current_profile_name() == "swap-wide"


@settings(max_examples=settings.default.max_examples if WIDE else 4,
          deadline=None, derandomize=not WIDE)
@given(scenario=swap_scenarios())
def test_generated_scenarios_stay_within_the_recorded_allocation(scenario):
    assert_resident_within_recorded_allocation(scenario)


#: The capacity ladder: ``lru`` and ``unified`` under every rung, all on the
#: 2048-wide MLP's one recording.
RUNGS = [scenario for scenario in LADDER if scenario.config.device_memory_capacity]
#: The 64 MiB ``lru`` rung evicts before iteration 1 starts.
(DISTURBED,) = [scenario for scenario in RUNGS if scenario.config.swap == "lru"
                and scenario.config.device_memory_capacity == 64 * MIB]
ENGINE_CODES = [KIND_CODES[kind] for kind in (
    MemoryEventKind.SWAP_OUT, MemoryEventKind.SWAP_IN,
    MemoryEventKind.RECOMPUTE_DROP, MemoryEventKind.RECOMPUTE)]


def _disturbs_the_warmup(view):
    """Whether a :func:`~tests.helpers.swap_run` view holds an engine row
    stamped before the first planned iteration."""
    columns = view[1]
    engine = np.isin(columns["kind_code"], ENGINE_CODES)
    return bool(np.any(engine & (np.array(columns["iteration"]) < WARMUP_ITERATIONS)))


@pytest.fixture(scope="module")
def fresh():
    """Each rung's own session: result, columns, strings, summaries and plan inputs."""
    return [swap_run(scenario, "overlay") for scenario in RUNGS]


def test_the_rungs_share_a_recording_and_one_disturbs_the_warmup(fresh):
    assert len({recording_token(scenario.config) for scenario in RUNGS}) == 1
    assert len(RUNGS) == 10
    assert _disturbs_the_warmup(fresh[RUNGS.index(DISTURBED)])
    assert not all(_disturbs_the_warmup(view) for view in fresh)


@pytest.mark.parametrize("disturbed_first", [True, False],
                         ids=["disturbed first", "undisturbed first"])
def test_the_shared_warmup_pass_is_order_independent(fresh, disturbed_first):
    """On one recording, every rung equals its fresh session whether the
    disturbed rung or an undisturbed one overlays it first; only an
    undisturbed walk leaves its warm-up pass on the recording."""
    disturbs = {id(scenario): _disturbs_the_warmup(view)
                for scenario, view in zip(RUNGS, fresh)}
    calm = [scenario for scenario in RUNGS if not disturbs[id(scenario)]]
    others = [scenario for scenario in RUNGS if scenario not in (DISTURBED, calm[0])]
    order = ([DISTURBED, calm[0]] if disturbed_first else [calm[0], DISTURBED]) + others
    recording = record_session(DISTURBED.config)
    learned = False
    for scenario in order:
        view = swap_run(scenario, "overlay", recording)
        assert view == fresh[RUNGS.index(scenario)], scenario.config.describe()
        learned = learned or not disturbs[id(scenario)]
        (index,) = recording.placed(scenario.config).walk_indexes
        assert (index.warmup is not None) == learned
