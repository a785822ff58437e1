"""Tests for the data-parallel trainer, merged traces and rank-aware baselines."""

import numpy as np
import pytest

from repro.core.events import MemoryCategory
from repro.core.trace import merge_rank_traces
from repro.errors import ConfigurationError
from repro.train import TrainingRunConfig, run_training_session, shard_batch

from tests.helpers import trace_events


def _config(n_devices, batch_size=32, iterations=2, **overrides):
    return TrainingRunConfig(
        model="mlp", model_kwargs={"hidden_dim": 32}, batch_size=batch_size,
        iterations=iterations, n_devices=n_devices, **overrides)


# -- batch sharding -------------------------------------------------------------------


def test_shard_batch_splits_along_the_sample_axis():
    batch = np.arange(24).reshape(8, 3)
    shards = shard_batch(batch, 4)
    assert [s.shape for s in shards] == [(2, 3)] * 4
    np.testing.assert_array_equal(np.concatenate(shards), batch)
    assert shard_batch(batch, 1)[0] is batch


def test_shard_batch_rejects_more_devices_than_samples():
    with pytest.raises(ConfigurationError, match="cannot shard"):
        shard_batch(np.zeros((2, 3)), 4)
    with pytest.raises(ConfigurationError, match="at least one sample"):
        run_training_session(_config(n_devices=8, batch_size=4))


# -- the data-parallel step -----------------------------------------------------------


def test_merged_trace_carries_the_device_rank_dimension():
    session = run_training_session(_config(2))
    trace = session.trace
    assert trace.ranks() == [0, 1]
    assert trace.metadata["n_devices"] == 2
    cols = trace.columns()
    assert set(np.unique(cols.device_rank)) == {0, 1}
    # Block identities stay disjoint across ranks after the merge.
    rank0_blocks = set(trace.for_rank(0).block_ids())
    rank1_blocks = set(trace.for_rank(1).block_ids())
    assert rank0_blocks and rank1_blocks
    assert rank0_blocks.isdisjoint(rank1_blocks)
    # Event ids are renumbered contiguously in time order.
    ids = [event.event_id for event in trace_events(trace)]
    assert ids == list(range(len(ids)))
    timestamps = [event.timestamp_ns for event in trace_events(trace)]
    assert timestamps == sorted(timestamps)


def test_each_rank_runs_the_single_device_step_on_its_shard():
    """Apart from the allreduce, rank 0 of a two-device run behaves exactly
    like one device training on half the batch."""
    def step(trace):
        return [(event.kind, event.size, event.category, event.op, event.tag)
                for event in trace_events(trace) if event.op != "grad_allreduce"]

    double = run_training_session(_config(2, batch_size=32))
    single = run_training_session(_config(1, batch_size=16))
    assert step(double.trace.for_rank(0)) == step(single.trace)


def test_per_rank_slices_are_symmetric():
    session = run_training_session(_config(2))
    rank0 = session.trace.for_rank(0)
    rank1 = session.trace.for_rank(1)
    assert len(rank0) == len(rank1)
    assert rank0.peak_live_bytes() == rank1.peak_live_bytes()


def test_allreduce_emits_gradient_read_write_behaviors():
    session = run_training_session(_config(2))
    ops = {event.op for event in trace_events(session.trace)}
    assert "grad_allreduce" in ops
    reads = [event for event in trace_events(session.trace)
             if event.op == "grad_allreduce" and event.kind.value == "read"]
    writes = [event for event in trace_events(session.trace)
              if event.op == "grad_allreduce" and event.kind.value == "write"]
    # One read and one write per gradient buffer per rank per iteration.
    assert len(reads) == len(writes) > 0
    assert all(event.category is MemoryCategory.PARAMETER_GRADIENT
               for event in reads + writes)


def test_collective_time_grows_with_replicas_and_slows_the_step():
    sessions = {n: run_training_session(_config(n, batch_size=64))
                for n in (1, 2, 4)}
    assert sessions[1].collective is None
    t2 = sessions[2].collective["total_time_ns"]
    t4 = sessions[4].collective["total_time_ns"]
    assert 0 < t2 < t4
    assert sessions[2].collective["count"] == 2  # one allreduce per iteration


def test_naive_allreduce_is_slower_than_ring_in_session():
    ring = run_training_session(_config(4, allreduce_algorithm="ring"))
    naive = run_training_session(_config(4, allreduce_algorithm="naive"))
    assert (naive.collective["total_time_ns"] > ring.collective["total_time_ns"])


def test_faster_interconnect_shrinks_the_collective():
    pcie = run_training_session(_config(4, interconnect="pcie_gen3"))
    nvlink = run_training_session(_config(4, interconnect="nvlink2"))
    assert (nvlink.collective["total_time_ns"] < pcie.collective["total_time_ns"])


def test_per_device_peak_shrinks_with_sharding():
    peaks = [run_training_session(_config(n, batch_size=64)).peak_allocated_bytes
             for n in (1, 2, 4)]
    assert peaks[0] > peaks[1] > peaks[2]


# -- trace merging --------------------------------------------------------------------


def test_merge_rank_traces_single_input_is_identity():
    session = run_training_session(_config(1))
    assert merge_rank_traces([session.trace]) is session.trace


def test_merge_rank_traces_unions_iteration_marks():
    session = run_training_session(_config(2))
    marks = session.trace.iteration_marks
    assert [mark.index for mark in marks] == [0, 1]
    for mark in marks:
        assert mark.end_ns is not None and mark.end_ns > mark.start_ns


# -- rank-aware ZeRO-Offload ----------------------------------------------------------


def test_policies_report_per_device_numbers_on_multi_rank_scenarios():
    """The sweep evaluates every policy on the rank-0 slice, so savings stay
    comparable with the per-replica peak instead of counting each replicated
    block once per rank."""
    from repro.experiments.sweep import Scenario, run_scenario

    for n in (1, 2):
        scenario = Scenario(config=_config(n, batch_size=64),
                            swap_policy="zero_offload")
        result = run_scenario(scenario)
        swap = result.swap
        # Offloaded optimizer state/gradients exist once per device; their
        # per-device savings must not exceed the per-replica peak.
        assert 0 < swap["savings_bytes"] <= result.peak_allocated_bytes
        assert 0.0 < swap["savings_fraction"] <= 1.0
    # The replicated model means the per-device offloadable bytes match
    # across cluster sizes (same parameters on every rank).
    flat = run_scenario(Scenario(config=_config(1, batch_size=64),
                                 swap_policy="zero_offload")).swap
    sharded = run_scenario(Scenario(config=_config(2, batch_size=64),
                                    swap_policy="zero_offload")).swap
    assert flat["swapped_bytes"] == sharded["swapped_bytes"]
    assert sharded["overhead_ns"] < flat["overhead_ns"]


def test_zero_offload_partitions_transfers_across_ranks(monkeypatch):
    from repro.core.trace import MemoryTrace
    from repro.swap.policies import ZeroOffloadPolicy

    single = run_training_session(_config(1, batch_size=64))
    double = run_training_session(_config(2, batch_size=64))
    flat = ZeroOffloadPolicy().evaluate(single.trace)
    sharded = ZeroOffloadPolicy().evaluate(double.trace)   # merged: sliced inside
    # Each rank still frees its full local optimizer-state/gradient bytes...
    assert sharded["swapped_bytes"] == flat["swapped_bytes"]
    assert sharded["world_size"] == 2
    assert sharded["partition_bytes"] == -(-flat["swapped_bytes"] // 2)
    # ...but only moves its 1/N partition per iteration.
    assert sharded["overhead_ns"] < flat["overhead_ns"]
    assert "world_size" not in flat
    # The dict as the parent commit computed it, key order included.
    assert list(sharded.items()) == [
        ("name", "zero_offload_style"), ("num_blocks", 8), ("swapped_bytes", 4096),
        ("savings_bytes", 4096), ("savings_fraction", 0.2),
        ("overhead_ns", 1290.1587301587301), ("world_size", 2),
        ("partition_bytes", 2048), ("policy", "zero_offload")]
    # A rank slice (what the sweep hands over) is taken as given: same dict,
    # no second slice.
    rank0 = double.trace.for_rank(0)
    monkeypatch.setattr(MemoryTrace, "for_rank", lambda self, rank: pytest.fail(
        "an already-sliced trace was sliced again"))
    assert ZeroOffloadPolicy().evaluate(rank0) == sharded
