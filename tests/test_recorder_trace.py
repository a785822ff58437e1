"""Tests for the trace recorder and the MemoryTrace container."""

import numpy as np
import pytest

from repro.core.events import MemoryCategory, MemoryEvent, MemoryEventKind
from repro.core.recorder import TraceRecorder
from repro.core.trace import MemoryTrace
from repro.errors import EmptyTraceError, TraceFormatError
from repro.tensor import functional as F
from repro.tensor import randn


def record_some_activity(device):
    recorder = TraceRecorder(device.clock, metadata={"workload": "unit-test"})
    device.add_listener(recorder)
    recorder.begin_iteration(0)
    a = randn(device, (8, 8), tag="a")
    b = randn(device, (8, 8), tag="b")
    c = F.matmul(a, b)
    c.free()
    recorder.end_iteration(0)
    device.remove_listener(recorder)
    return recorder


def test_recorder_captures_all_behavior_kinds(test_device):
    recorder = record_some_activity(test_device)
    trace = recorder.to_trace()
    counts = trace.counts_by_kind()
    assert counts["malloc"] == 3
    assert counts["free"] == 1
    assert counts["write"] >= 3
    assert counts["read"] >= 2
    assert trace.metadata["workload"] == "unit-test"


def test_recorder_tracks_iteration_attribution(test_device):
    recorder = record_some_activity(test_device)
    trace = recorder.to_trace()
    assert trace.iterations() == [0]
    assert all(event.iteration == 0 for event in trace.events)
    (mark,) = trace.iteration_marks
    assert mark.index == 0 and mark.duration_ns() > 0


def test_recorder_lifetimes_open_and_close(test_device):
    recorder = record_some_activity(test_device)
    trace = recorder.to_trace()
    closed = [lt for lt in trace.lifetimes if lt.free_ns is not None]
    live = [lt for lt in trace.lifetimes if lt.is_live]
    assert len(closed) == 1          # only c was freed
    assert len(live) == 2
    assert closed[0].access_count >= 1


def test_recorder_pause_resume(test_device):
    recorder = TraceRecorder(test_device.clock)
    test_device.add_listener(recorder)
    recorder.pause()
    randn(test_device, (4,))
    assert len(recorder) == 0
    recorder.resume()
    randn(test_device, (4,))
    assert len(recorder) > 0


def test_trace_accessors(simple_trace):
    assert len(simple_trace) == 12
    assert simple_trace.block_ids() == [1, 2, 3]
    assert int(simple_trace.columns().is_access.sum()) == 7
    assert simple_trace.counts_by_kind()["read"] == 4
    assert simple_trace.peak_live_bytes() == 1024 + 4096
    assert simple_trace.duration_ns == 120_000


def test_trace_events_in_iteration(simple_trace):
    assert len(simple_trace.events_in_iteration(0)) == 7
    assert len(simple_trace.events_in_iteration(1)) == 5


def test_empty_trace_guards():
    trace = MemoryTrace()
    assert trace.is_empty
    assert trace.duration_ns == 0
    assert trace.peak_live_bytes() == 0
    with pytest.raises(EmptyTraceError):
        trace.require_events()


def test_trace_json_round_trip(tmp_path, simple_trace):
    path = simple_trace.save_json(tmp_path / "trace.json")
    loaded = MemoryTrace.load_json(path)
    assert len(loaded) == len(simple_trace)
    assert loaded.block_ids() == simple_trace.block_ids()
    assert loaded.iterations() == simple_trace.iterations()
    assert loaded.events[0].kind is MemoryEventKind.MALLOC
    assert loaded.lifetimes[0].category is MemoryCategory.PARAMETER


def test_trace_csv_export(tmp_path, simple_trace):
    path = simple_trace.export_events_csv(tmp_path / "events.csv")
    content = path.read_text().splitlines()
    assert content[0].startswith("event_id,kind,timestamp_ns")
    assert len(content) == len(simple_trace) + 1


def test_trace_load_rejects_bad_format(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(TraceFormatError):
        MemoryTrace.load_json(bad)
    with pytest.raises(TraceFormatError):
        MemoryTrace.from_dict({"format_version": 999})


def test_trace_summary_fields(simple_trace):
    summary = simple_trace.summary()
    assert summary["num_events"] == 12
    assert summary["num_blocks"] == 3
    assert summary["num_iterations"] == 2
    assert summary["peak_live_bytes"] == 5120


def test_event_serialization_round_trip():
    event = MemoryEvent(event_id=1, kind=MemoryEventKind.WRITE, timestamp_ns=10,
                        block_id=3, address=0x100, size=64,
                        category=MemoryCategory.ACTIVATION, tag="x", iteration=2, op="k")
    assert MemoryEvent.from_dict(event.to_dict()) == event


def test_event_kind_properties():
    assert MemoryEventKind.READ.is_access
    assert MemoryEventKind.WRITE.is_access
    assert not MemoryEventKind.MALLOC.is_access
    assert MemoryEventKind.MALLOC.is_block_behavior
    assert not MemoryEventKind.SEGMENT_ALLOC.is_block_behavior


def test_category_paper_bucket_mapping():
    assert MemoryCategory.INPUT.paper_bucket() == "input data"
    assert MemoryCategory.LABEL.paper_bucket() == "input data"
    assert MemoryCategory.PARAMETER.paper_bucket() == "parameters"
    assert MemoryCategory.OPTIMIZER_STATE.paper_bucket() == "parameters"
    assert MemoryCategory.ACTIVATION.paper_bucket() == "intermediate results"
    assert MemoryCategory.PARAMETER_GRADIENT.paper_bucket() == "intermediate results"
    assert MemoryCategory.WORKSPACE.paper_bucket() == "intermediate results"


# -- columnar-first recording (PR 4) ------------------------------------------------


def test_recorder_log_is_columnar_and_events_synthesize_lazily(test_device):
    recorder = record_some_activity(test_device)
    trace = recorder.to_trace()
    # The column store is available without ever materializing event objects.
    cols = trace.columns()
    assert len(cols) == len(trace) == len(recorder)
    assert cols.address is not None and cols.address.shape == cols.size.shape
    # Lazy synthesis produces full-fidelity objects (tags, ops, addresses).
    events = trace.events
    assert len(events) == len(cols)
    assert [e.event_id for e in events] == cols.event_id.tolist()
    assert {e.tag for e in events if e.kind is MemoryEventKind.MALLOC} == {"a", "b", "matmul_out"}
    assert any(e.op == "matmul" for e in events)
    assert [e.address for e in events] == cols.address.tolist()


def test_columnar_trace_json_round_trip(tmp_path, test_device):
    recorder = record_some_activity(test_device)
    trace = recorder.to_trace()
    loaded = MemoryTrace.load_json(trace.save_json(tmp_path / "columnar.json"))
    assert [e.to_dict() for e in loaded.events] == [e.to_dict() for e in trace.events]
    assert loaded.peak_live_bytes() == trace.peak_live_bytes()


def test_columnar_trace_event_strings_match_objects(test_device):
    recorder = record_some_activity(test_device)
    trace = recorder.to_trace()
    tags, ops = trace.event_strings()
    assert tags == [e.tag for e in trace.events]
    assert ops == [e.op for e in trace.events]


def test_midrun_trace_snapshots_are_independent(test_device):
    recorder = TraceRecorder(test_device.clock)
    test_device.add_listener(recorder)
    randn(test_device, (4,))
    early = recorder.to_trace()
    early_len = len(early)
    randn(test_device, (4,))
    late = recorder.to_trace()
    assert len(early) == early_len          # earlier snapshot unaffected
    assert len(late) > early_len
    test_device.remove_listener(recorder)


# -- MemoryTrace.validate(): access inside lifetime, monotone clocks, no live overlap -----


def _events(*rows):
    """``(kind, timestamp_ns, block_id, address, size[, rank])`` rows -> a trace."""
    return MemoryTrace(events=[
        MemoryEvent(event_id=index, kind=MemoryEventKind(row[0]), timestamp_ns=row[1],
                    block_id=row[2], address=row[3], size=row[4],
                    category=MemoryCategory.ACTIVATION,
                    device_rank=row[5] if len(row) > 5 else 0)
        for index, row in enumerate(rows)])


def test_validate_accepts_recorded_and_hand_built_traces(test_device, simple_trace):
    assert simple_trace.validate() is simple_trace
    assert MemoryTrace().validate().is_empty
    record_some_activity(test_device).to_trace().validate()
    # Address reuse after a free, an id reused for a second lifetime, a block that
    # outlives the run, equal addresses on different ranks, equal timestamps.
    _events(("malloc", 0, 1, 0x1000, 512), ("write", 1, 1, 0x1000, 512),
            ("free", 2, 1, 0x1000, 512), ("malloc", 2, 2, 0x1000, 1024),
            ("malloc", 3, 1, 0x2000, 512), ("read", 3, 1, 0x2000, 512),
            ("malloc", 1, 7, 0x1000, 512, 1), ("read", 4, 2, 0x1000, 1024)).validate()


@pytest.mark.parametrize("rows, offender, message", [
    # read after the free; the later write before any malloc is not the first offender
    ([("malloc", 0, 1, 0x1000, 512), ("free", 1, 1, 0x1000, 512),
      ("read", 2, 1, 0x1000, 512), ("write", 3, 9, 0x9000, 512)], 2, "read of block 1 outside"),
    ([("write", 0, 9, 0x9000, 512)], 0, "write of block 9 outside"),
    # rank 0's clock steps back; rank 1 interleaved at other times is fine
    ([("malloc", 5, 1, 0x1000, 512), ("malloc", 1, 2, 0x1000, 512, 1),
      ("write", 4, 1, 0x1000, 512)], 2, "earlier than the previous event of rank 0"),
    # same start, start inside a live block, a live block's start inside the new one
    ([("malloc", 0, 1, 0x1000, 512), ("malloc", 1, 2, 0x1000, 256)], 1,
     "block 2 at [0x1000, 0x1100) overlaps live block 1"),
    ([("malloc", 0, 1, 0x1000, 1024), ("malloc", 1, 2, 0x1200, 512)], 1, "overlaps live block 1"),
    ([("malloc", 0, 1, 0x1200, 512), ("malloc", 1, 2, 0x1000, 1024)], 1, "overlaps live block 1"),
    # the earliest violation is the one named, whichever invariant it breaks
    ([("malloc", 0, 1, 0x1000, 512), ("malloc", 1, 2, 0x1000, 512),
      ("read", 2, 3, 0x3000, 512)], 1, "overlaps"),
])
def test_validate_names_the_first_offending_event(rows, offender, message):
    from repro.errors import TraceError, TraceInvariantError
    with pytest.raises(TraceInvariantError) as caught:
        _events(*rows).validate()
    assert isinstance(caught.value, TraceError)
    assert caught.value.event_index == offender
    assert str(caught.value).startswith(f"event {offender}: ") and message in str(caught.value)
