"""Rows that share a swap-off recording simulate it once, and change nothing.

A sweep row differs from its swap-off twin only in ``swap``, ``allocator``
and ``device_memory_capacity`` when their ``grid.recording_token`` is equal;
the execution rounds then walk (or chunk) the rows in recording order and
hand each row's recording to the next row with that token.  Whatever the
order and the worker count, every row's payload must be the one its own
``run_scenario`` gives, every failure its own, a swap-off row under a
capacity must place the shared recording in it, a retried row must not
disturb its twins, and a row whose swap mode or offline policy is unknown
must fail before anything is simulated.
"""

from __future__ import annotations

import random
from dataclasses import replace
from unittest import mock

import pytest

from repro.errors import ConfigurationError, InfeasibleScenarioError
from repro.experiments import executor as executor_module
from repro.experiments.faults import FaultPlan, FaultSpec
from repro.experiments.grid import Scenario, SweepGrid, recording_token
from repro.experiments.sweep import SweepRunner, run_scenario
from repro.train import session as session_module
from repro.train.session import TrainingRunConfig
from repro.units import GIB, MIB

from tests.test_swap_differential import LADDER

#: Below the 16 MiB working set of the 2048-wide MLP: no eviction fits it.
INFEASIBLE = 8 * MIB
#: Above the same MLP's peak: a swap-off row that fits under its capacity.
ROOMY = 2 * GIB


def _grouped_scenarios():
    """The 2048-wide MLP under every mode x {no cap, 64 MiB, infeasible},
    a swap-off row under a capacity it fits in and a two-replica resnet18
    ``zero_offload`` row, shuffled with a fixed seed."""
    mlp = dict(models=("mlp",), batch_sizes=(512,), iterations=(3,),
               model_kwargs={"hidden_dim": 2048, "num_hidden_layers": 4})
    scenarios = SweepGrid(**mlp, swaps=("off", "planner", "lru", "unified"),
                          device_memory_capacities=(None, 64 * MIB, INFEASIBLE)).expand()
    scenarios += SweepGrid(**mlp, device_memory_capacities=(ROOMY,)).expand()
    scenarios += SweepGrid(models=("resnet18",), batch_sizes=(8,), iterations=(3,),
                           dataset="cifar10", swaps=("zero_offload",), n_devices=(2,),
                           model_kwargs={"input_size": 32, "num_classes": 10}).expand()
    random.Random(34).shuffle(scenarios)
    return scenarios


SCENARIOS = _grouped_scenarios()


def _outcome(scenario):
    """A row's own ``run_scenario`` payload (wall time zeroed), or its error type."""
    try:
        return replace(run_scenario(scenario), wall_time_s=0.0)
    except Exception as error:   # noqa: BLE001 - compared, not swallowed
        return type(error)


@pytest.fixture(scope="module")
def expected():
    return [_outcome(scenario) for scenario in SCENARIOS]


def _sweep_outcomes(sweep, scenarios):
    """Each row's payload or error type from a non-strict sweep, in row order."""
    keys = [scenario.key() for scenario in scenarios]
    results = {result.key: replace(result, wall_time_s=0.0) for result in sweep.results}
    errors = {failure.key: type(failure.error_obj) for failure in sweep.failures}
    assert [result.key for result in sweep.results] == [key for key in keys
                                                         if key in results]
    return [results.get(key, errors.get(key)) for key in keys]


def _recorded(scenarios, **runner_kwargs):
    """A serial non-strict sweep of ``scenarios`` and the configs it recorded."""
    with mock.patch.object(session_module, "record_session",
                           wraps=session_module.record_session) as record_session, \
            SweepRunner(cache_dir=None, workers=1, strict=False, **runner_kwargs) as runner:
        sweep = runner.run(scenarios)
    return sweep, [call.args[0] for call in record_session.call_args_list]


def test_the_grid_shares_and_fails_where_expected(expected):
    tokens = {recording_token(scenario.config) for scenario in SCENARIOS}
    assert len(SCENARIOS) == 14 and len(tokens) == 2
    infeasible = [scenario for scenario, outcome in zip(SCENARIOS, expected)
                  if outcome is InfeasibleScenarioError]
    assert sorted(scenario.config.swap for scenario in infeasible) == \
        ["lru", "planner", "unified"]
    assert all(scenario.config.device_memory_capacity == INFEASIBLE
               for scenario in infeasible)


@pytest.mark.parametrize("workers", [1, 2])
def test_every_row_is_its_own_run(expected, workers):
    with SweepRunner(cache_dir=None, workers=workers, strict=False) as runner:
        sweep = runner.run(SCENARIOS)
    assert _sweep_outcomes(sweep, SCENARIOS) == expected


def test_the_infeasible_rung_fails_alone(expected):
    sweep, _ = _recorded(SCENARIOS)
    failed = {failure.key: failure for failure in sweep.failures}
    for scenario, outcome in zip(SCENARIOS, expected):
        if scenario.config.device_memory_capacity != INFEASIBLE or \
                scenario.config.swap == "off":
            continue
        failure = failed[scenario.key()]
        assert (failure.reason, failure.kind, failure.attempts) == \
            ("infeasible", "deterministic", 1)
        assert isinstance(failure.error_obj, InfeasibleScenarioError)
        twins = [other for other in SCENARIOS if other is not scenario
                 and recording_token(other.config) == recording_token(scenario.config)]
        assert len(twins) == 12
        # (a swap-off twin under a capacity fails on its own: its allocator
        # runs out of that memory)
        assert not any(other.key() in failed for other in twins
                       if other.config.device_memory_capacity != INFEASIBLE
                       and (other.config.swap != "off"
                            or other.config.device_memory_capacity is None))


def test_a_capped_swap_off_row_places_the_shared_recording():
    """A swap-off row's capacity only shrinks its allocator's memory: it
    places its twins' recording, and the 64 MiB and 8 MiB rows run out of it."""
    sweep, recorded = _recorded(SCENARIOS)
    assert sorted(failure.reason for failure in sweep.failures) == \
        ["infeasible", "infeasible", "infeasible", "oom", "oom"]
    (roomy,) = [scenario for scenario in SCENARIOS
                if scenario.config.device_memory_capacity == ROOMY]
    (uncapped,) = [scenario for scenario in SCENARIOS if scenario.config.swap == "off"
                   and scenario.config.model == "mlp"
                   and scenario.config.device_memory_capacity is None]
    assert recording_token(roomy.config) == recording_token(uncapped.config)
    assert roomy.key() in {result.key for result in sweep.results}
    # Every token is recorded; a group records again only after a row of it
    # failed with the recording it made.
    tokens = [recording_token(config) for config in recorded]
    assert set(tokens) == {recording_token(scenario.config) for scenario in SCENARIOS}
    assert len(tokens) <= len(set(tokens)) + len(sweep.failures)


def test_the_ladder_simulates_four_recordings():
    """``swap_ladder``'s 23 rows: every mode on the 4096-wide MLP, the capacity
    ladder on the 2048-wide one, every mode on resnet18, and its two-replica
    row — four twins, so four simulations, whatever the row order."""
    scenarios = list(LADDER)
    random.Random(7).shuffle(scenarios)
    sweep, recorded = _recorded(scenarios)
    assert len(sweep.results) == 23 and not sweep.failures
    assert len(recorded) == 4
    assert len({recording_token(config) for config in recorded}) == 4


@pytest.mark.parametrize("workers", [1, 2])
def test_a_retried_first_row_leaves_its_twins_alone(expected, workers):
    tokens = [recording_token(scenario.config) for scenario in SCENARIOS]
    largest = max(set(tokens), key=tokens.count)
    first = SCENARIOS[tokens.index(largest)]
    plan = FaultPlan(faults=[FaultSpec(kind="error", key=first.key(), times=1)])
    ran = []
    original = executor_module.run_scenario_on

    def logged(scenario, *args, **kwargs):
        ran.append(scenario.key())
        return original(scenario, *args, **kwargs)

    with mock.patch.object(executor_module, "run_scenario_on", logged), \
            SweepRunner(cache_dir=None, workers=workers, strict=False, retries=1,
                        backoff_s=0.0, fault_plan=plan) as runner:
        sweep = runner.run(SCENARIOS)
    assert sweep.retries == 1
    assert _sweep_outcomes(sweep, SCENARIOS) == expected
    if workers == 1:   # the pool's workers run their own, unpatched copy
        assert sorted(ran) == sorted(scenario.key() for scenario in SCENARIOS)


BOGUS = [
    Scenario(TrainingRunConfig(model="mlp", batch_size=64, iterations=2,
                               swap="teleport")),
    Scenario(TrainingRunConfig(model="mlp", batch_size=64, iterations=2,
                               swap="lru"),
             swap_policy="teleport"),
]


@pytest.mark.parametrize("scenario", BOGUS, ids=["swap_mode", "offline_policy"])
def test_an_unknown_name_fails_before_anything_is_simulated(scenario):
    with mock.patch.object(session_module, "record_session",
                           side_effect=AssertionError("simulated")):
        with pytest.raises(ConfigurationError):
            run_scenario(scenario)
    twin = Scenario(replace(scenario.config, swap="off"))
    assert recording_token(twin.config) == recording_token(scenario.config)
    sweep, recorded = _recorded([scenario, twin])
    assert [failure.reason for failure in sweep.failures] == ["config"]
    assert [result.key for result in sweep.results] == [twin.key()]
    assert len(recorded) == 1 and recorded[0].swap == "off"
