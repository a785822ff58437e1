"""Golden bytes of the trace files the program writes, and their loads.

``repro profile --save-trace`` and :meth:`MemoryTrace.save_json` /
:meth:`MemoryTrace.export_events_csv` are the trace's on-disk formats; these
digests pin every byte of them, so a change to how a trace is stored in
memory cannot move what lands on disk.  ``data/mlp_2dev_trace.json`` is a
2-device trace written by an earlier checkout: it must load into the columns,
strings, marks and metadata a fresh session records, and save back to the
same bytes.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.core.trace import MemoryTrace
from repro.errors import TraceFormatError
from repro.train.session import TrainingRunConfig, run_training_session

FIXTURE = Path(__file__).parent / "data" / "mlp_2dev_trace.json"
#: The config that recorded :data:`FIXTURE`.
FIXTURE_CONFIG = TrainingRunConfig(model="mlp", model_kwargs={"hidden_dim": 8},
                                   batch_size=4, iterations=1, n_devices=2)

#: ``repro profile --iterations 2 --save-trace``, every other option at its default.
PROFILE_TRACE_SHA256 = "14b58a7f196b5c7956face9ddf7bf87e07bcaee0367128ad6dfb63ca50dcfb9a"
#: ``export_events_csv`` of the same session's trace.
PROFILE_CSV_SHA256 = "059e8b3e88a3c0a00a730931a5d96c754e7e404a85c3653aa3b23ddc0fca2b6d"
#: ``save_json`` of a 2-device resnet18 session (block ids shifted per rank,
#: merged stream order, segments, never-freed parameters).
RESNET18_2DEV_SHA256 = "571edbe1cf3079f56d39e23dcd99c7879978865bbef267ed623a57b35958819b"


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_profile_save_trace_is_golden(tmp_path, capsys):
    path = tmp_path / "trace.json"
    assert main(["profile", "--iterations", "2", "--save-trace", str(path)]) == 0
    capsys.readouterr()
    assert file_sha256(path) == PROFILE_TRACE_SHA256


def test_events_csv_is_golden(tmp_path):
    trace = run_training_session(TrainingRunConfig(iterations=2)).trace
    assert file_sha256(trace.export_events_csv(tmp_path / "events.csv")) == PROFILE_CSV_SHA256


def test_two_device_resnet18_save_json_is_golden(tmp_path):
    config = TrainingRunConfig(model="resnet18", dataset="cifar10",
                               model_kwargs={"input_size": 16, "num_classes": 10},
                               batch_size=2, iterations=1, n_devices=2)
    trace = run_training_session(config).trace
    assert file_sha256(trace.save_json(tmp_path / "trace.json")) == RESNET18_2DEV_SHA256


def test_stored_trace_saves_back_byte_for_byte(tmp_path):
    loaded = MemoryTrace.load_json(FIXTURE).validate()
    assert loaded.save_json(tmp_path / "again.json").read_bytes() == FIXTURE.read_bytes()


def test_stored_trace_loads_into_what_a_session_records():
    loaded = MemoryTrace.load_json(FIXTURE)
    fresh = run_training_session(FIXTURE_CONFIG).trace
    for name, column in vars(fresh.columns()).items():
        stored = getattr(loaded.columns(), name)
        assert stored.dtype == np.int64 and stored.flags.c_contiguous, name
        np.testing.assert_array_equal(stored, column, err_msg=name)
    assert loaded.event_strings() == fresh.event_strings()
    assert ([mark.to_dict() for mark in loaded.iteration_marks]
            == [mark.to_dict() for mark in fresh.iteration_marks])
    assert loaded.metadata == json.loads(json.dumps(fresh.metadata))
    assert loaded.end_ns == fresh.end_ns


def _stored_event(**changes):
    event = {"event_id": 0, "kind": "malloc", "timestamp_ns": 5, "block_id": 1,
             "address": 4096, "size": 512, "category": "activation", "tag": "x",
             "iteration": 0, "op": "", "device_rank": 0}
    event.update(changes)
    return {key: value for key, value in event.items() if value is not None}


@pytest.mark.parametrize("data", [
    {"format_version": 999},
    {"format_version": "one"},
    {"format_version": 1, "events": [_stored_event(kind="allocate")]},
    {"format_version": 1, "events": [_stored_event(category="weights")]},
    {"format_version": 1, "events": [_stored_event(size=None)]},
    {"format_version": 1, "events": [_stored_event(event_id=None)]},
    {"format_version": 1, "events": [_stored_event(timestamp_ns="soon")]},
    {"format_version": 1, "events": [_stored_event(iteration=None, block_id=[1])]},
    {"format_version": 1, "events": [["malloc", 5]]},
    {"format_version": 1, "iteration_marks": [{"start_ns": 0}]},
    {"format_version": 1, "end_ns": "late"},
], ids=["version", "version-text", "kind", "category", "no-size", "no-event-id",
        "bad-timestamp", "bad-block-id", "event-not-a-dict", "mark-no-index", "bad-end"])
def test_malformed_trace_data_is_rejected(data):
    with pytest.raises(TraceFormatError):
        MemoryTrace.from_dict(data)


def test_optional_event_fields_take_their_defaults():
    stored = _stored_event(category=None, tag=None, iteration=None, op=None,
                           device_rank=None)
    trace = MemoryTrace.from_dict({"format_version": 1, "events": [stored]})
    cols = trace.columns()
    assert (int(cols.category_code[0]), int(cols.iteration[0]),
            int(cols.device_rank[0])) == (8, -1, 0)
    assert trace.event_strings() == ([""], [""])
    assert trace.to_dict()["events"] == [_stored_event(category="unknown", tag="",
                                                       iteration=-1, op="", device_rank=0)]
