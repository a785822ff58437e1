"""Tests of the benchmark harness itself (``python -m pytest bench/tests -q``).

Not part of the tier-1 suite (``pyproject.toml`` collects ``tests/`` only).
"""

import collections
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from bench import run, spans, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _keys(workload):
    return [scenario.key() for scenario in workload.scenarios]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generation_is_a_function_of_the_seed(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    first, again, other = cls(11, tmp_path), cls(11, tmp_path), cls(12, tmp_path)
    assert _keys(first) == _keys(again)
    assert _keys(first) != _keys(other)
    assert set(_keys(first)).isdisjoint(_keys(other))
    # the seed never changes the amount of work
    assert len(first.scenarios) == len(other.scenarios)
    shape = lambda w: collections.Counter(  # noqa: E731
        (s.config.model, s.config.n_devices, s.config.dtype, s.config.swap,
         s.config.device_memory_capacity, s.config.device_spec)
        for s in w.scenarios)
    assert shape(first) == shape(other)
    # ... nor what prepare() warms up on, whatever the shuffle put first
    key = lambda s: (s.config.model, s.config.n_devices, s.config.swap)  # noqa: E731
    assert key(first.warmup) == key(other.warmup)


def test_declared_workloads_are_the_implemented_ones():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_self_time_arithmetic_on_synthetic_rows():
    rows = [["a", 0, 100, -1, 1], ["b", 10, 60, 0, 1],
            ["c", 20, 40, 1, 1], ["c", 45, 55, 1, 1]]
    assert spans.self_times(rows) == {"a": 50, "b": 20, "c": 30}


def test_tracer_self_times_add_up_over_a_three_level_nest():
    tracer = spans.Tracer(keep_rows=True)
    leaf = tracer.wrap(lambda: time.sleep(0.01), "c")
    middle = tracer.wrap(lambda: (leaf(), leaf(), time.sleep(0.005)), "b")
    outer = tracer.wrap(lambda: (middle(), time.sleep(0.005)), "a")
    tracer.begin_sample(1)
    outer()
    assert [tracer.calls(1, name) for name in "abc"] == [1, 1, 2]
    root = tracer.rows[0]
    assert root[0] == "a" and root[3] == -1
    # self times partition the root span exactly, and match a recomputation
    # from the kept rows
    assert round(tracer.accounted_s(1) * 1e9) == root[2] - root[1]
    recomputed = spans.self_times(tracer.rows)
    for name in "abc":
        assert round(tracer.self_s(1, name) * 1e9) == recomputed[name]
    assert tracer.self_s(1, "c") >= 0.02
    assert 0.005 <= tracer.self_s(1, "b") < 0.02
    assert 0.005 <= tracer.self_s(1, "a") < 0.02


def test_every_wrapped_attribute_is_restored():
    tracer = spans.Tracer()
    with spans.installed(tracer, fine=True) as tracing:
        patched = list(tracing.patched)
        assert len(patched) >= len(spans.SPAN_TABLE)
        for namespace, attribute, original, wrapped in patched:
            assert vars(namespace)[attribute] is wrapped
    for namespace, attribute, original, _wrapped in patched:
        assert vars(namespace)[attribute] is original
    # importers by name were patched and restored along with the definition
    import repro.experiments.sweep as sweep
    import repro.train.session as session
    assert sweep.run_training_session is session.run_training_session
    assert not hasattr(sweep.run_training_session, "__wrapped__")


def _result_line(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, declared", [(0, "end_to_end"), (1, "per_layer")])
def test_output_names_are_exactly_the_declared_ones(trace, declared, capsys):
    code = run.main(["--workload", "sim_mixed", "--seed", "5", "--seconds", "1",
                     "--trace", str(trace)])
    result = _result_line(capsys)
    assert code == 0 and result["correct"] is True and result["failed"] == 0
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC[declared]}
    units = {m["name"]: m["unit"] for m in SPEC[declared]}
    for name, item in result["metrics"].items():
        assert NAME.fullmatch(name)
        assert item["unit"] == units[name]
        assert isinstance(item["value"], (int, float))
    if trace == 0:
        assert all(item["value"] > 0 for item in result["metrics"].values())


def test_names_in_the_declaration_are_well_formed_and_unique():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert SPEC["paths"] == ["bench"]


def test_a_payload_mismatch_fails_the_run(monkeypatch, capsys):
    real = workloads.count_drift
    monkeypatch.setattr(workloads, "count_drift",
                        lambda results, reference: real(results, reference) + 1)
    code = run.main(["--workload", "cache_read", "--seed", "5", "--seconds", "1",
                     "--trace", "0"])
    captured = capsys.readouterr()
    result = json.loads(captured.out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0
    assert "sim_drift=0" not in captured.out


def test_restricted_suite_is_quick(tmp_path):
    out = tmp_path / "suite.json"
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--rounds", "1",
         "--seconds", "1", "--only", "sim_mixed,cache_read", "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - started
    assert completed.returncode == 0, completed.stderr
    # ~22 s on a quiet host: two timed runs with four cold children each plus
    # two traced runs; a slow episode of the shared host adds 40 %.
    assert elapsed < 60
    document = json.loads(out.read_text(encoding="utf-8"))
    assert sorted(document["workloads"]) == ["cache_read", "sim_mixed"]
    assert document["claim"] is None
    for entry in document["workloads"].values():
        assert entry["correct"] and entry["failed_frac"] == 0
        assert set(entry["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
        assert set(entry["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
