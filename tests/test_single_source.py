"""Facts that must be written down once: structural pins and differentials.

The per-scenario reduction, the timing defaults and the template identity
each have one home.  The AST pins fail when a second copy appears; the
differentials pin the row forms of the recipes to their one-row forms.
"""

import ast
import dataclasses
import importlib
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.ati import (AtiSummary, IntervalArrays, summarize_rows_us,
                            summarize_values_us)
from repro.core.breakdown import occupation_from_columns
from repro.core.events import MemoryCategory
from repro.core.profiler import MemoryProfiler
from repro.core.recorder import PlacedTrace, TraceRecorder
from repro.core.stats import percentiles_of_sorted
from repro.core.swap import (BandwidthConfig, max_swap_bytes, swappable_fraction,
                             swappable_fractions)
from repro.core.trace import CATEGORY_FROM_CODE, MemoryTrace
from repro.data.loader import HostLatencyModel
from repro.device import tape, timing
from repro.device.allocator import PLACEMENT_PASSES
from repro.device.clock import DeviceClock
from repro.device.cluster import DeviceGroup
from repro.device.device import Device
from repro.device.spec import get_device_spec
from repro.experiments.grid import PRICING_FIELDS, SweepGrid, structure_token
from repro.experiments.replay import (
    PER_ROW_PRICING_FIELDS,
    ReplayEngine,
    TemplateError,
    template_key,
)
from repro.experiments.executor import ScenarioExecutor
from repro.experiments.sweep import SweepRunner
from repro.swap.executor import WalkIndex
from repro.swap.policies import POLICIES, get_policy
from repro.tensor import functional
from repro.train.session import Recording, TrainingRunConfig
from repro.train.trainer import DataParallelTrainer, Trainer
from repro.units import MIB

from tests.helpers import build_trace, price_one

SRC = Path(repro.__file__).resolve().parent
REPLAY = SRC / "experiments" / "replay.py"


def _enclosing_functions(path, predicate):
    """Names of the functions in ``path`` containing a node ``predicate`` accepts."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if predicate(node):
            found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text()), None)
    return found


def _calls(name):
    def predicate(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return (getattr(func, "id", None) == name
                or getattr(func, "attr", None) == name)
    return predicate


# -- structural pins ------------------------------------------------------------------


def test_scenario_result_is_constructed_in_two_places_only():
    sites = {(path.relative_to(SRC).as_posix(), function)
             for path in sorted(SRC.rglob("*.py"))
             for function in _enclosing_functions(path, _calls("ScenarioResult"))}
    assert sites == {("experiments/results.py", "from_dict"),
                     ("experiments/results.py", "assemble_result")}


def _names(node):
    """The names an AST node defines, imports or reads."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.name]
    if isinstance(node, ast.alias):
        return [node.name, node.asname]
    return []


def _naming(banned, paths):
    """The paths (relative to ``src/repro``) with a node naming one of ``banned``."""
    return sorted({path.relative_to(SRC).as_posix() for path in paths
                   for node in ast.walk(ast.parse(path.read_text()))
                   if banned.intersection(_names(node))})


def test_no_event_or_lifetime_object_type_exists():
    """A trace is its event columns: no name under ``src/repro`` defines,
    imports or reads a per-event or per-lifetime object type."""
    banned = {"MemoryEvent", "BlockLifetime"}
    assert _naming(banned, SRC.rglob("*.py")) == []
    assert not banned.intersection(dir(repro)) and not banned.intersection(dir(repro.core))


def test_a_trace_is_built_from_columns_only():
    parameters = inspect.signature(MemoryTrace.__init__).parameters
    assert "events" not in parameters and "columns" in parameters
    for owner, view in ((MemoryTrace, "events"), (MemoryTrace, "lifetimes"),
                        (MemoryTrace, "events_in_iteration"), (TraceRecorder, "events")):
        assert not hasattr(owner, view), f"{owner.__name__}.{view}"


def test_a_name_is_assigned_at_construction_only():
    """``Module.__init__`` builds the ``.out`` / ``.grad_in`` tags from the
    name once, so nothing may rename a module (or anything else) afterwards."""
    def assigns_name(node):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                   else [])
        return any(isinstance(target, ast.Attribute) and target.attr == "name"
                   for target in targets)

    functions = {function for path in sorted(SRC.rglob("*.py"))
                 for function in _enclosing_functions(path, assigns_name)}
    assert functions == {"__init__"}


def test_three_functions_run_a_training_session():
    """One way to run a scenario: results and the runner's trace door
    simulate; ``repro profile`` prints session-only fields
    (``peak_allocated_bytes``, the ``swap_execution`` block) no trace
    carries.  A template capture records the front end and places it — it
    builds no merged trace."""
    sites = {(path.relative_to(SRC).as_posix(), function)
             for path in sorted(SRC.rglob("*.py"))
             for function in _enclosing_functions(path, _calls("run_training_session"))}
    assert sites == {("experiments/results.py", "run_scenario_on"),
                     ("experiments/sweep.py", "trace"),
                     ("cli.py", "_cmd_profile")}
    recorders = {(path.relative_to(SRC).as_posix(), function)
                 for path in sorted(SRC.rglob("*.py"))
                 for function in _enclosing_functions(path, _calls("record_session"))}
    assert recorders == {("train/session.py", "run_training_session"),
                         ("experiments/replay.py", "_compile_template_checked")}
    holders = sorted(path.name for path in (SRC / "experiments").glob("*.py")
                     if "SessionResult" in path.read_text())
    assert holders == ["results.py"]


def test_one_function_evaluates_an_offline_policy():
    """Both feeders of a sweep row — a fresh session and replay — hand the
    policy rank 0's own recording through one function; nothing in the
    experiments layer slices a merged trace by rank."""
    paths = sorted((SRC / "experiments").glob("*.py"))
    sites = {(path.name, function) for path in paths
             for function in _enclosing_functions(path, _calls("evaluate"))}
    assert sites == {("results.py", "evaluate_policy")}
    assert not [path.name for path in paths
                if _enclosing_functions(path, _calls("for_rank"))]


def test_trace_figures_park_no_session():
    from repro.experiments import (paper_mlp_config, run_fig2, run_fig3, run_fig4,
                                   run_swap_planner)
    from repro.experiments.sweep import SweepRunner

    runner = SweepRunner()
    config = paper_mlp_config(batch_size=256, iterations=3)
    for run in (run_fig2, run_fig3, run_fig4, run_swap_planner):
        result = run(config, runner=runner)
        assert not hasattr(result, "session")
        assert result.label == config.label
    assert runner._ensure_replay_engine().templates_compiled == 1


def test_host_latency_is_named_once_in_replay_the_fingerprints_none_drop():
    tree = ast.parse(REPLAY.read_text())
    fingerprint = next(node for node in tree.body
                       if isinstance(node, ast.FunctionDef)
                       and node.name == "template_fingerprint")
    lines = [number for number, line in enumerate(REPLAY.read_text().splitlines(), 1)
             if "host_latency" in line]
    assert lines and all(fingerprint.lineno <= number <= fingerprint.end_lineno
                         for number in lines)
    reasons = set()
    for config in (TrainingRunConfig(swap="lru"), TrainingRunConfig(),
                   TrainingRunConfig(host_latency=HostLatencyModel())):
        try:
            template_key(config)
        except TemplateError as error:
            reasons.add(error.reason)
    assert reasons == {"swap_execution"}


TECHNIQUES = ("none", "planner", "swap_advisor", "zero_offload", "recompute",
              "pruning", "quantization", "lru", "unified")


def _sources(root=SRC):
    return [(path, ast.parse(path.read_text())) for path in sorted(root.rglob("*.py"))]


def test_each_technique_is_one_class_in_one_registry():
    named = []       # (technique, class name, file) per ``name = "<technique>"``
    for path, tree in _sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                named += [(statement.value.value, node.name,
                           path.relative_to(SRC).as_posix())
                          for statement in node.body
                          if isinstance(statement, ast.Assign)
                          and [getattr(t, "id", None) for t in statement.targets] == ["name"]
                          and isinstance(statement.value, ast.Constant)
                          and statement.value.value in TECHNIQUES]
    assert sorted((name, path) for name, _cls, path in named) == sorted(
        (name, "swap/policies.py") for name in TECHNIQUES)
    classes = {cls for _name, cls, _path in named}
    # dict literals whose values are technique classes: the registry, once
    registries = [path.relative_to(SRC).as_posix()
                  for path, tree in _sources() for node in ast.walk(tree)
                  if isinstance(node, ast.Dict) and node.values
                  and all(getattr(value, "id", None) in classes
                          for value in node.values)]
    assert registries == ["swap/policies.py"]
    from repro.swap import policies
    assert tuple(policies.POLICIES) == TECHNIQUES
    bases = {cls.__mro__[-2] for cls in policies.POLICIES.values()}
    assert bases == {policies.MemoryPolicy}
    # the two import paths the frozen benchmark harness resolves are that base
    from repro.baselines.policy import MemoryPolicy
    assert MemoryPolicy is policies.SwapExecutionPolicy is policies.MemoryPolicy
    assert [path.relative_to(SRC).as_posix() for path, tree in _sources()
            if any(isinstance(node, ast.FunctionDef) and node.name == "get_policy"
                   for node in ast.walk(tree))] == ["swap/policies.py"]


def test_the_joins_between_two_registries_are_gone():
    for path, _tree in _sources():
        text = path.read_text()
        for name in ("executable_name", "make_executable", "get_execution_policy",
                     "available_execution_policies", "SwapPolicyResult"):
            assert name not in text, (path.name, name)
    assert not (SRC / "baselines" / "swapping.py").exists()


def _absolute_imports(path, tree):
    """Dotted names a module under ``SRC`` imports, relative imports resolved."""
    package = path.relative_to(SRC.parent).with_suffix("").parts[:-1]
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            parts = list(package[:len(package) + 1 - node.level]) if node.level else []
            module = ".".join(parts + ([node.module] if node.module else []))
            found |= {module} | {f"{module}.{alias.name}" for alias in node.names}
    return found


def test_one_policy_module_reads_columns_and_baselines_is_a_binding():
    """Every offline estimate lives on its policy class and reads the trace's
    columns; ``baselines/`` keeps only the benchmark harness's import path."""
    lifetime_reads = [(path.name, node.lineno) for path, tree in _sources(SRC / "swap")
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and node.attr == "lifetimes"]
    assert lifetime_reads == []
    importers = [path.relative_to(SRC).as_posix() for path, tree in _sources()
                 if any(name == "repro.baselines" or name.startswith("repro.baselines.")
                        for name in _absolute_imports(path, tree))]
    assert importers == []
    assert "repro.swap.policies" in _absolute_imports(
        SRC / "baselines" / "policy.py", ast.parse((SRC / "baselines" / "policy.py").read_text()))
    assert sorted(path.name for path in (SRC / "baselines").iterdir()
                  if path.name != "__pycache__") == ["__init__.py", "policy.py"]


#: The object-level ATI API ``repro.core`` exported; the columns replaced it.
DELETED_ATI_NAMES = ("AccessInterval", "compute_access_intervals", "intervals_by_kind",
                     "intervals_by_category", "interval_values_us", "summarize_intervals",
                     "fraction_below", "is_swappable")
#: The fields that pair two accesses into one ATI.
PAIRING_FIELDS = {"start_event_id", "end_event_id", "start_kind", "end_kind",
                  "start_kind_code", "end_kind_code", "start_index", "end_index"}


def test_core_exports_no_object_level_ati_api():
    from repro import core
    from repro.core import ati, swap
    for name in DELETED_ATI_NAMES:
        assert name not in core.__all__ and not hasattr(core, name), name
        assert not hasattr(ati, name) and not hasattr(swap, name), name
    assert {"IntervalArrays", "compute_interval_arrays"} <= set(core.__all__)


def test_access_intervals_have_one_record():
    """No class under ``src/repro`` but the interval columns pairs two accesses."""
    records = [(path.relative_to(SRC).as_posix(), node.name)
               for path, tree in _sources() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)
               and PAIRING_FIELDS & {statement.target.id for statement in node.body
                                     if isinstance(statement, ast.AnnAssign)
                                     and isinstance(statement.target, ast.Name)}]
    assert records == [("core/ati.py", "IntervalArrays")]


def test_the_planners_read_the_observed_blocks_own_fields(monkeypatch):
    """``planner`` and ``unified`` plan on the warm-up's blocks as observed:
    the policies build no interval record and make up no event id or kind."""
    from repro.core.swap import SwapPlanner
    from repro.swap.executor import BlockState, WarmupObservations
    from repro.swap.policies import PlannerPolicy, UnifiedPolicy

    tree = ast.parse((SRC / "swap" / "policies.py").read_text())
    keywords = {keyword.arg for node in ast.walk(tree) if isinstance(node, ast.Call)
                for keyword in node.keywords}
    assert not keywords & PAIRING_FIELDS
    assert "repro.core.ati.IntervalArrays" not in _absolute_imports(
        SRC / "swap" / "policies.py", tree)

    scored = []
    evaluate = SwapPlanner.evaluate

    def spy(planner, *columns):
        candidates = evaluate(planner, *columns)
        scored.extend(candidates)
        return candidates

    monkeypatch.setattr(SwapPlanner, "evaluate", spy)
    second = 1_000_000_000
    blocks = [BlockState(block_id=7, size=64 * MIB, category=MemoryCategory.ACTIVATION,
                         tag="fc0.out", best_gap_ns=second // 2, best_gap_phase_ns=0),
              BlockState(block_id=9, size=96 * MIB, category=MemoryCategory.PARAMETER,
                         best_gap_ns=second // 2 + 1, best_gap_phase_ns=1)]
    warmup = WarmupObservations(
        blocks=blocks, by_id={state.block_id: state for state in blocks},
        peak_resident_bytes=256 * MIB, peak_phase_ns=second // 4,
        iteration_duration_ns=second, live_series=[(0, 0), (second // 4, 256 * MIB)])
    for policy in (PlannerPolicy(), UnifiedPolicy()):
        policy.plan(warmup, BandwidthConfig.from_paper())
    assert sorted((c.block_id, c.size, c.interval_ns, c.label) for c in scored) == [
        (7, 64 * MIB, second // 2, "fc0.out"), (7, 64 * MIB, second // 2, "fc0.out"),
        (9, 96 * MIB, second // 2 + 1, "parameter"),
        (9, 96 * MIB, second // 2 + 1, "parameter")]


def test_train_names_no_technique():
    for path, tree in _sources(SRC / "train"):
        literals = {node.value for node in ast.walk(tree)
                    if isinstance(node, ast.Constant) and isinstance(node.value, str)}
        assert not literals & set(TECHNIQUES), path.name


def test_the_device_and_training_layers_run_no_swap_engine():
    """The device and the trainer know nothing of swapping; the session's
    swap step imports the registry and the overlay, lazily, and nothing else."""
    importers = {}
    for path, tree in _sources(SRC / "device") + _sources(SRC / "train"):
        names = {name for name in _absolute_imports(path, tree)
                 if name == "repro.swap" or name.startswith("repro.swap.")}
        if names:
            importers[path.relative_to(SRC).as_posix()] = names
    assert importers == {"train/session.py": {
        "repro.swap", "repro.swap.POLICIES", "repro.swap.SWAP_EXECUTION_MODES",
        "repro.swap.executor", "repro.swap.executor.overlay"}}
    session = SRC / "train" / "session.py"
    assert _enclosing_functions(session, lambda node: isinstance(node, ast.ImportFrom)
                                and "swap" in (node.module or "")) == [
        "_swap_policies", "_execute_swap"]
    assert [name for name in dir(Device()) if "swap" in name.lower()] == []
    assert "swap_executors" not in inspect.signature(DataParallelTrainer).parameters


def test_only_record_session_builds_a_trainer():
    """A session simulates in one place: :func:`record_session` makes the
    recording every other session step (and every twin row) reads."""
    sites = {(path.relative_to(SRC).as_posix(), function)
             for path in sorted(SRC.rglob("*.py"))
             for function in _enclosing_functions(path, _calls("DataParallelTrainer"))}
    assert sites == {("train/session.py", "record_session")}


def _holds_a_recording(value, depth=2):
    if isinstance(value, (Recording, WalkIndex)):
        return True
    if depth and isinstance(value, dict):
        value = list(value.values())
    if depth and isinstance(value, (list, tuple, set, frozenset)):
        return any(_holds_a_recording(item, depth - 1) for item in value)
    return False


def test_no_experiments_module_holds_a_recording():
    """Shared recordings live for one round or chunk: no module under
    ``experiments/`` binds one, or a cache of them, at module level, and
    no module under ``swap/`` binds one or the overlay's per-recording
    memo (a :class:`~repro.swap.executor.WalkIndex` lives on its
    recording)."""
    recorders = {"Recording", "record_session", "run_scenario_on",
                 "run_training_session"}
    for path, tree in _sources(SRC / "experiments"):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                # a memoized function must not return what a session made
                if any("cache" in ast.unparse(decorator)
                       for decorator in node.decorator_list):
                    assert not any(_calls(name)(inner) for inner in ast.walk(node)
                                   for name in recorders), (path.name, node.name)
                continue
            names = {getattr(inner, "id", None) for inner in ast.walk(node)}
            assert not names & recorders, (path.name, ast.unparse(node)[:60])
    scenarios = SweepGrid(models=("mlp",), batch_sizes=(64,), iterations=(2,),
                          swaps=("off", "lru")).expand()
    assert len(SweepRunner(cache_dir=None, workers=1).run(scenarios).results) == 2
    scanned = []
    for name, module in sorted(sys.modules.items()):
        if name.startswith(("repro.experiments", "repro.swap")):
            held = [attribute for attribute, value in vars(module).items()
                    if _holds_a_recording(value)]
            assert held == [], name
            scanned.append(name)
    assert {"repro.swap.executor", "repro.swap.policies"} <= set(scanned)


def test_pressure_relief_is_declared_not_introspected():
    """A policy declares whether it relieves pressure (and resolves its
    budget when it plans); nothing under ``swap/`` compares a policy's
    ``directives_on_pressure`` with the base class's."""
    for path, tree in _sources(SRC / "swap"):
        compared = [ast.unparse(node) for node in ast.walk(tree)
                    if isinstance(node, ast.Compare)
                    and any(isinstance(inner, ast.Attribute)
                            and inner.attr == "directives_on_pressure"
                            for inner in ast.walk(node))]
        assert compared == [], path.name
    assert [name for name, policy in POLICIES.items() if policy.relieves_pressure] == ["lru"]
    assert all(policy().pressure_budget_bytes is None for policy in POLICIES.values())


def test_the_device_is_synchronous_and_the_overlay_owns_the_copy_stream():
    """No DMA engine, no device streams, nothing to drain: a device copy
    blocks on the device clock, and the one copy stream is the overlay's."""
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.device.dma")
    for name in ("dma", "compute_stream", "synchronize"):
        assert not hasattr(Device(), name), name
    assert not hasattr(DeviceGroup, "synchronize")
    sites = {(path.relative_to(SRC).as_posix(), function)
             for path in sorted(SRC.rglob("*.py"))
             for function in _enclosing_functions(path, _calls("Stream"))}
    assert sites == {("swap/executor.py", "__init__")}


def _passes_atom(node, kind):
    """Whether call ``node`` passes atom ``kind``."""
    return any(getattr(arg, "id", None) == kind
               for arg in (*node.args, *(k.value for k in node.keywords)))


def _atom_sites(kind):
    """(module, function) of every atom hook or atom packing passing ``kind``."""
    def predicate(node):
        return (_calls("on_atom")(node) or _calls("pack_atom")(node)) and _passes_atom(node, kind)
    return _sites(predicate)


def test_the_tape_has_one_sync_kind():
    """The gradient allreduce is the one cross-rank sync a run records: only
    ``CollectiveEngine.allreduce`` logs its atom."""
    kinds = {name for name in vars(tape) if name.startswith("TAPE_")}
    assert kinds == {"TAPE_CONST", "TAPE_KERNEL", "TAPE_MEMCPY_H2D", "TAPE_MEMCPY_D2H",
                     "TAPE_ALLOC_OVERHEAD", "TAPE_SEGMENT_OVERHEAD", "TAPE_ALLREDUCE"}
    assert not hasattr(tape, "SYNC_KINDS")
    assert _atom_sites("TAPE_ALLREDUCE") == {("device/collective.py", "allreduce")}
    assert "sync_kinds" not in REPLAY.read_text()


def test_the_recorder_logs_its_own_atoms():
    """One call per advance: the clock has no observers and no tape, and an
    atom is packed only by the recorder's kernel and atom hooks, whose
    callers are a launch, a copy, a host pause and the allreduce; the
    allocator's atom is never logged (its row implies it)."""
    for name in ("add_observer", "remove_observer", "reset", "_observers", "tape"):
        assert not hasattr(DeviceClock(), name), name
    assert list(inspect.signature(DeviceClock.advance).parameters) == ["self", "delta_ns"]
    assert _sites(_calls("pack_atom")) == {("core/recorder.py", "on_kernel"),
                                           ("core/recorder.py", "on_atom")}
    assert _sites(_calls("on_atom")) == {("device/device.py", "host_pause"),
                                         ("device/device.py", "_copy"),
                                         ("device/collective.py", "allreduce")}
    assert _atom_sites("TAPE_ALLOC_OVERHEAD") == set()
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        for word in ("record_kernel", "record_sync", "add_observer", ".consistent"):
            assert word not in text, (path, word)


def _moves_a_clock(node):
    """Whether ``node`` writes a clock's time or advances a clock."""
    if isinstance(node, (ast.Assign, ast.AugAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return any(isinstance(target, ast.Attribute) and target.attr == "_now_ns"
                   for target in targets)
    return _calls("advance")(node) or _calls("advance_to")(node)


def _qualified_sites(predicate):
    """(module, ``Class.function``) of every node ``predicate`` accepts."""
    found = set()

    def visit(node, scope, path):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = (*scope, node.name)
        if predicate(node):
            found.add((path.relative_to(SRC).as_posix(), ".".join(scope)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, path)

    for path, tree in _sources():
        visit(tree, (), path)
    return found


def test_only_the_recorder_and_the_steady_copy_move_a_device_clock():
    """A device's clock moves in :class:`TraceRecorder` — which logs the atom
    of every advance with it — and in a copied steady iteration, which
    appends its atoms with its rows; ``DeviceClock.advance`` is left to the
    swap overlay's own clock.  So there is no taped mode to switch on: no
    module names a tape class, a capture hook, per-event tape positions or a
    ``capture`` parameter."""
    sites = _qualified_sites(_moves_a_clock)
    overlay = {site for site in sites if site[0] == "swap/executor.py"}
    assert overlay
    assert sites - overlay == {
        ("device/clock.py", "DeviceClock.__init__"),
        ("device/clock.py", "DeviceClock.advance"),
        ("device/clock.py", "DeviceClock.advance_to"),
        ("core/recorder.py", "TraceRecorder.on_malloc"),
        ("core/recorder.py", "TraceRecorder.on_free"),
        ("core/recorder.py", "TraceRecorder.on_kernel"),
        ("core/recorder.py", "TraceRecorder.on_atom"),
        ("train/trainer.py", "_ReplicaSpan.append")}
    for path, tree in _sources():
        text = path.read_text()
        for word in ("TimingTape", "_TemplateCapture", "event_tape_positions",
                     "mark_tape_spans"):
            assert word not in text, (path, word)
        for node in ast.walk(tree):
            if isinstance(node, ast.arguments):
                names = {arg.arg for arg in (*node.posonlyargs, *node.args,
                                             *node.kwonlyargs)}
                assert "capture" not in names, path


def test_a_kernel_launch_is_one_recorder_call():
    """``Device.run_kernel`` is the one kernel entry and the only caller of
    the recorder's kernel hook, whose atom is the only ``TAPE_KERNEL``
    advance; the tensor library has no per-row launch helper left."""
    assert _sites(_calls("on_kernel")) == {("device/device.py", "run_kernel")}
    assert _atom_sites("TAPE_KERNEL") == {("core/recorder.py", "on_kernel")}
    assert not hasattr(functional, "launch")
    launchers = {path for path, _ in _sites(_calls("run_kernel"))}
    assert launchers == {"tensor/functional.py", "tensor/conv_ops.py", "tensor/shape_ops.py"}


def test_eq1_round_trip_has_one_implementation():
    """``core.swap.swap_round_trip_ns`` (on its bandwidths' one denominator)
    is the only round trip a module under ``src/`` defines."""
    defined = {(path.relative_to(SRC).as_posix(), node.name)
               for path, tree in _sources() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and "round_trip" in node.name}
    assert defined == {("core/swap.py", "swap_round_trip_ns"),
                       ("core/swap.py", "round_trip_s_per_byte")}


#: The four behaviors a device hands its recorder, against request ids, and
#: the kernel launch: its reads, its clock atom and its writes in one call.
BEHAVIOR_HOOKS = ("on_malloc", "on_free", "on_read", "on_write", "on_kernel")
#: The one hook besides: an advance of the clock no row implies.
ATOM_HOOK = "on_atom"


def test_a_recorder_hears_only_the_four_behaviors():
    """The device has one recorder slot and no listener fan-out: no module
    under ``src/repro`` names a listener type, a segment hook or a listener
    list, and the recorder's hooks are the four behaviors, the launch
    that carries a kernel's reads and writes and the atom hook."""
    assert {name for name in vars(TraceRecorder) if name.startswith("on_")} \
        == {*BEHAVIOR_HOOKS, ATOM_HOOK}
    banned = {"MemoryEventListener", "CompositeListener", "NullListener",
              "CountingListener", "on_segment_alloc", "on_segment_free",
              "listeners", "add_listener", "remove_listener"}
    assert _naming(banned, SRC.rglob("*.py")) == []


def _reads_request_calls(node):
    """A read of ``<x>.ops`` where ``x`` is a request log by this code's names
    (``requests``, ``log``, ``<device>.requests``), or of an ``op_ns``."""
    if isinstance(node, ast.Attribute) and node.attr == "op_ns":
        return True
    if not (isinstance(node, ast.Attribute) and node.attr == "ops"):
        return False
    return (getattr(node.value, "id", None) in ("requests", "log")
            or getattr(node.value, "attr", None) == "requests")


def _reads_recorder_rows(node):
    """A read of ``<recorder>.rows`` (``recorder`` or ``<x>.recorder``)."""
    if not (isinstance(node, ast.Attribute) and node.attr == "rows"):
        return False
    return "recorder" in (getattr(node.value, "id", None), getattr(node.value, "attr", None))


def _sites(predicate):
    return {(path.relative_to(SRC).as_posix(), function)
            for path in sorted(SRC.rglob("*.py"))
            for function in _enclosing_functions(path, predicate)}


def test_one_log_per_device():
    """A device's recorder rows are its only record of malloc and free and
    its malloc rows its only record of the requests: no module defines or
    imports a request log or reads one's call sequence or clock stamps, a
    fresh device already holds its :class:`TraceRecorder`, no trainer takes
    a recorder, and no profiler opens an attach window."""
    assert _sites(_reads_request_calls) == set()
    assert _naming({"RequestLog"}, SRC.rglob("*.py")) == []
    assert not (SRC / "device" / "memory.py").exists()
    assert not hasattr(Device(), "requests")
    assert "requests" not in {field.name for field in dataclasses.fields(Recording)}
    assert type(Device().recorder) is TraceRecorder
    for trainer in (DataParallelTrainer, Trainer):
        assert not {"recorder", "recorders"} & set(inspect.signature(trainer).parameters)
    for name in ("start", "stop", "detach", "require_attached", "__enter__",
                 "begin_iteration", "end_iteration"):
        assert not hasattr(MemoryProfiler, name), name
    assert "seen" not in inspect.getsource(PlacedTrace)


def test_only_the_placement_passes_read_the_request_log():
    """The allocator is a pass over a finished run's calls: only the
    recorder writes them, as its malloc and free rows; :func:`place`
    (for the policy passes) and :class:`PlacedTrace` (which call made each
    segment row) read them through :func:`call_rows`, and besides them only
    the trainer's copier reads a recorder's rows.  There is no allocator
    object: the module's classes are the result and its counters."""
    passes = {("device/allocator.py", function.__name__)
              for function in PLACEMENT_PASSES.values()}
    assert len(passes) == len(PLACEMENT_PASSES) == 3
    for function in PLACEMENT_PASSES.values():
        assert list(inspect.signature(function).parameters) == ["nbytes", "tag_of", "calls",
                                                                "capacity"]
    assert _sites(_calls("call_rows")) == {("device/allocator.py", "place"),
                                           ("core/recorder.py", "__init__")}  # PlacedTrace
    assert _sites(_reads_recorder_rows) == {
        ("train/trainer.py", "_rows"), ("train/trainer.py", "append")}
    writers = _sites(lambda node: _calls("pack_row")(node) and any(
        getattr(arg, "id", None) in ("_MALLOC", "_FREE") for arg in node.args))
    assert writers == {("core/recorder.py", "on_malloc"), ("core/recorder.py", "on_free")}
    tree = ast.parse((SRC / "device" / "allocator.py").read_text())
    assert [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)] \
        == ["AllocatorStats", "Placement"]


def test_the_front_end_holds_no_block():
    """The tensor library, the layers, the models and the trainer see request
    ids: nothing there names an allocator's block, segment or id."""
    front_end = [*(SRC / "tensor").rglob("*.py"), *(SRC / "nn").rglob("*.py"),
                 *(SRC / "models").rglob("*.py"), SRC / "train" / "trainer.py"]
    banned = {"Block", "Segment", "block_id", "segment_id", "live_blocks", "allocator",
              "Placement"}
    assert _naming(banned, front_end) == []
    assert not [path for path in front_end for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Attribute) and node.attr == "block"]


def test_tests_helpers_holds_the_only_live_hook_executor():
    """A live-hook executor is a listener that moves the device clock from
    inside the event path: only the oracle the overlay is held to is one."""
    behaviors = set(BEHAVIOR_HOOKS)
    found = []
    for root in (SRC, SRC.parents[1] / "tests"):
        for path, tree in _sources(root):
            for node in ast.walk(tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                hooks = {item.name for item in node.body
                         if isinstance(item, ast.FunctionDef)} & behaviors
                stalls = any(_calls("advance")(call) for call in ast.walk(node))
                if hooks and stalls:
                    found.append((path.name, node.name))
    # (the oracle's session places its requests live: its recorder pays each
    # call's segment overheads on the device clock)
    assert found == [("helpers.py", "SwapRecorder"), ("helpers.py", "ReferenceSwapExecutor")]


def _imported_modules(tree):
    """Dotted names a module imports, relative dots dropped (``.grid`` -> ``grid``)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            found.add(node.module or "")
            found |= {f"{node.module or ''}.{alias.name}".lstrip(".")
                      for alias in node.names}
    return found


def test_sweep_modules_import_downwards_only():
    experiments = SRC / "experiments"
    imports = {name: _imported_modules(ast.parse((experiments / f"{name}.py").read_text()))
               for name in ("grid", "results", "failures", "executor", "sweep")}
    for low in ("grid", "results", "failures"):
        assert not imports[low] & {"executor", "sweep"}, low
    assert "sweep" not in imports["executor"]
    assert "results" not in imports["grid"]
    # process pools belong to executor.py; failures.py only names the one
    # exception class it classifies
    users = {path.relative_to(SRC).as_posix(): sorted(
                 name for name in _imported_modules(tree)
                 if name.startswith("concurrent.futures"))
             for path, tree in _sources()}
    assert {path: names for path, names in users.items() if names} == {
        "experiments/executor.py": [
            "concurrent.futures", "concurrent.futures.FIRST_COMPLETED",
            "concurrent.futures.ProcessPoolExecutor", "concurrent.futures.wait"],
        "experiments/failures.py": [
            "concurrent.futures.process",
            "concurrent.futures.process.BrokenProcessPool"]}


def test_sweep_module_defines_only_the_runner():
    tree = ast.parse((SRC / "experiments" / "sweep.py").read_text())
    defined = [node.name for node in tree.body
               if isinstance(node, (ast.ClassDef, ast.FunctionDef))]
    assert defined == ["SweepResult", "_parse_cache_entry", "_RunState",
                       "SweepRunner"]


def test_the_runner_and_its_executor_take_only_what_callers_set():
    assert list(inspect.signature(SweepRunner).parameters) == [
        "cache_dir", "workers", "use_cache", "retries", "backoff_s", "timeout_s",
        "strict", "resume", "fault_plan"]
    assert list(inspect.signature(ScenarioExecutor).parameters) == [
        "workers", "timeout_s", "fault_plan"]


def _none_defaults(function):
    """Names of ``function``'s parameters that default to ``None``."""
    arguments = function.args
    positional = arguments.posonlyargs + arguments.args
    pairs = list(zip(positional[len(positional) - len(arguments.defaults):],
                     arguments.defaults))
    pairs += [(arg, default) for arg, default
              in zip(arguments.kwonlyargs, arguments.kw_defaults) if default]
    return {arg.arg for arg, default in pairs
            if isinstance(default, ast.Constant) and default.value is None}


def test_a_scenarios_eq1_bandwidths_come_only_from_its_device_spec():
    """No function under ``repro.experiments`` takes ``bandwidths=None`` to
    fall back to the device spec.  The two figure entry points that take
    one fall back to the paper's measured Titan X figures instead."""
    optional = {}
    for path, tree in _sources(SRC / "experiments"):
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and "bandwidths" in _none_defaults(node):
                optional[f"{path.stem}.{node.name}"] = ast.get_source_segment(
                    path.read_text(), node)
    assert sorted(optional) == ["fig4_outliers.run_fig4",
                                "swap_planner.run_swap_planner"]
    for source in optional.values():
        assert "BandwidthConfig.from_paper()" in source
        assert "device_spec" not in source and "resolve_bandwidths" not in source


def test_percentile_recipe_lives_in_core_only():
    for path in sorted((SRC / "experiments").glob("*.py")):
        assert not _enclosing_functions(path, _calls("percentile")), path.name


def test_no_selection_kernel_is_called_under_src():
    """Order statistics come off one sort (``percentiles_of_sorted``); the
    tests keep ``np.percentile`` as their oracle."""
    for path, _tree in _sources():
        for kernel in ("percentile", "quantile", "partition", "median",
                       "nanpercentile", "nanquantile", "nanmedian", "argpartition"):
            assert not _enclosing_functions(path, _calls(kernel)), (path.name, kernel)
    sorts = [path.name for path, _tree in _sources()
             if "percentiles_of_sorted" in _enclosing_functions(path, _calls("floor"))]
    assert sorts == ["stats.py"]


def test_replay_restates_no_timing_default():
    defaults = {timing.DEFAULT_COMPUTE_EFFICIENCY,
                timing.DEFAULT_BANDWIDTH_EFFICIENCY,
                timing.DEFAULT_HOST_DISPATCH_OVERHEAD_NS}
    literals = {node.value for node in ast.walk(ast.parse(REPLAY.read_text()))
                if isinstance(node, ast.Constant)
                and isinstance(node.value, (int, float))
                and not isinstance(node.value, bool)}
    assert not literals & defaults
    assert "IterationStats" not in REPLAY.read_text()


def test_device_and_timing_model_share_the_default_constants():
    spec = get_device_spec("titan_x_pascal")
    model = timing.KernelTimingModel(spec)
    assert model.compute_efficiency == timing.DEFAULT_COMPUTE_EFFICIENCY
    assert model.bandwidth_efficiency == timing.DEFAULT_BANDWIDTH_EFFICIENCY
    assert model.host_dispatch_overhead_ns == timing.DEFAULT_HOST_DISPATCH_OVERHEAD_NS
    assert model.effective_flops == spec.peak_flops * timing.DEFAULT_COMPUTE_EFFICIENCY
    assert (model.effective_bandwidth
            == spec.memory_bandwidth * timing.DEFAULT_BANDWIDTH_EFFICIENCY)
    device = Device(spec)
    assert device.timing.effective_flops == model.effective_flops
    assert device.timing.effective_bandwidth == model.effective_bandwidth
    assert device.timing.host_dispatch_overhead_ns == model.host_dispatch_overhead_ns


def test_replay_follows_a_changed_timing_default(monkeypatch):
    """The latent bug: a default moved in timing.py must move replay with it."""
    from repro.experiments.sweep import Scenario, run_scenario

    scenario = Scenario(TrainingRunConfig(model="mlp", batch_size=16, iterations=2))
    bandwidths = scenario.resolve_bandwidths()
    before = price_one(ReplayEngine(), scenario, bandwidths)

    original = timing.KernelTimingModel.__init__

    def slower(self, spec, compute_efficiency=0.5, bandwidth_efficiency=0.5,
               host_dispatch_overhead_ns=9_000):
        original(self, spec, compute_efficiency, bandwidth_efficiency,
                 host_dispatch_overhead_ns)

    monkeypatch.setattr(timing.KernelTimingModel, "__init__", slower)
    # The device takes one timing default (the host dispatch cost); the
    # efficiencies are the model's own.
    defaults = Device.__init__.__defaults__
    assert defaults.count(timing.DEFAULT_HOST_DISPATCH_OVERHEAD_NS) == 1
    monkeypatch.setattr(Device.__init__, "__defaults__", tuple(
        9_000 if value == timing.DEFAULT_HOST_DISPATCH_OVERHEAD_NS else value
        for value in defaults))
    replayed = price_one(ReplayEngine(), scenario, bandwidths)
    fresh = run_scenario(scenario)
    assert replayed.step_time_s_total == fresh.step_time_s_total
    assert replayed.ati == fresh.ati
    assert replayed.step_time_s_total > before.step_time_s_total


# -- row forms equal their one-row forms ----------------------------------------------

_WIDTHS = [0, 1, 2, 3, 7, 64, 301]
# Around the sort's vector width and numpy's 128-element pairwise-sum blocks,
# and beyond the 8,192-element reduction buffer.
_SUMMARY_WIDTHS = _WIDTHS + [127, 128, 129, 8_193]


@st.composite
def _gap_matrices(draw, widths=_WIDTHS):
    """``(rows, width)`` int64 gaps (negative ones included): spread out,
    heavily tied or all equal; C-ordered, Fortran-ordered or a strided slice."""
    rows = draw(st.integers(1, 5))
    width = draw(st.sampled_from(widths))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    high = draw(st.sampled_from([1, 4, 1_000, 2_000_000_000]))  # 1: all equal
    gaps = rng.integers(-5_000 if high > 1 else 0, high, size=(rows, 2 * width))
    layout = draw(st.sampled_from(["C", "F", "sliced"]))
    if layout == "sliced":
        return gaps[:, ::2]
    return np.array(gaps[:, :width], order=layout)


def _one_dimensional_summary(row):
    """The recipe as the simulator ran it before the row form existed."""
    if row.size == 0:
        return AtiSummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    p50, p90, p99 = np.percentile(row, (50, 90, 99))
    return AtiSummary(int(row.size), float(row.mean()), float(p50), float(p90),
                      float(p99), float(row.min()), float(row.max()))


def _bits(summary):
    """A summary's floats as bytes: ``==`` would let ``-0.0`` pass for ``0.0``."""
    floats = [value for value in dataclasses.astuple(summary) if isinstance(value, float)]
    return summary.count, np.array(floats).tobytes()


@settings(max_examples=120, deadline=None)
@given(_gap_matrices(_SUMMARY_WIDTHS))
def test_summarize_rows_equals_summarize_values_row_by_row(gaps):
    values = gaps / 1_000.0       # keeps the layout of ``gaps``
    expected = [_bits(summarize_values_us(row)) for row in values]
    for bits, row in zip(expected, values):
        assert (bits == _bits(_one_dimensional_summary(row))
                == _bits(_one_dimensional_summary(np.ascontiguousarray(row))))
    summaries = summarize_rows_us(values)       # consumes ``values``
    assert [_bits(summary) for summary in summaries] == expected


@pytest.mark.parametrize("percents, branches", [
    ((50, 90, 99), {False, True}), ((25, 50, 75), {False, True}),
    ((0, 100), {False}), ((1, 33.3, 66.6, 99.9), {False, True})])
def test_percentiles_of_sorted_is_np_percentile_bit_for_bit(percents, branches):
    """Every width 1..400, ties and negatives, both interpolation branches."""
    rng = np.random.default_rng(23)
    upper_branch = set()
    for width in range(1, 401):
        values = rng.integers(-50, 50 if width % 3 else 3, size=(4, width)) / 7.0
        ordered = np.sort(values, axis=1)
        got = percentiles_of_sorted(ordered, percents)
        assert got.tobytes() == np.percentile(values, percents, axis=1).tobytes()
        assert (percentiles_of_sorted(ordered[0], percents).tobytes()
                == np.percentile(values[0], percents).tobytes())
        upper_branch |= {(width - 1) * (p / 100) % 1 >= 0.5 for p in percents}
    assert upper_branch == branches


def _interval_arrays(interval_ns, sizes):
    filler = np.zeros(len(interval_ns), dtype=np.int64)
    columns = {field.name: filler for field in dataclasses.fields(IntervalArrays)}
    columns.update(interval_ns=np.asarray(interval_ns, dtype=np.int64),
                   size=np.asarray(sizes, dtype=np.int64))
    return IntervalArrays(**columns)


@settings(max_examples=60, deadline=None)
@given(_gap_matrices(), st.data())
def test_swappable_fractions_equals_swappable_fraction_row_by_row(gaps, data):
    rows, width = gaps.shape
    sizes = np.array(data.draw(st.lists(st.integers(1, 256 * MIB),
                                        min_size=width, max_size=width)),
                     dtype=np.int64)
    bandwidths = [BandwidthConfig(h2d_bytes_per_s=h2d * 1e9, d2h_bytes_per_s=d2h * 1e9)
                  for h2d, d2h in data.draw(st.lists(
                      st.tuples(st.floats(0.5, 64.0), st.floats(0.5, 64.0)),
                      min_size=rows, max_size=rows))]
    round_trips = [b.round_trip_s_per_byte for b in bandwidths]
    fractions = swappable_fractions(gaps, sizes, round_trips)
    assert fractions.shape == (rows,)
    owned = np.full(gaps.shape, np.nan)      # a caller's buffer: only written
    assert (swappable_fractions(gaps, sizes, round_trips, out=owned).tobytes()
            == fractions.tobytes())
    for fraction, row, bandwidth in zip(fractions.tolist(), gaps, bandwidths):
        arrays = _interval_arrays(row, sizes)
        by_interval = [size <= max_swap_bytes(gap, bandwidth)
                       for gap, size in zip(row.tolist(), sizes.tolist())]
        assert fraction == swappable_fraction(arrays, bandwidth)
        assert fraction == (float(np.mean(by_interval)) if width else 0.0)


def _malloc_free_stream(rng, blocks):
    """``blocks`` allocations of random size and category, most freed later,
    as parallel (deltas, categories, timestamps) columns in time order."""
    sizes = rng.integers(1, 64 * MIB, blocks)
    codes = rng.integers(0, len(CATEGORY_FROM_CODE), blocks)
    malloc_at = rng.integers(0, 10_000, blocks)
    freed = rng.random(blocks) < 0.8
    free_at = malloc_at[freed] + rng.integers(1, 5_000, int(freed.sum()))
    times = np.concatenate([malloc_at, free_at])
    order = np.argsort(times, kind="stable")
    return (np.concatenate([sizes, -sizes[freed]])[order],
            np.concatenate([codes, codes[freed]])[order], times[order])


def _per_category_breakdown(deltas, categories, timestamps):
    """The breakdown as one ``where`` + ``cumsum`` per category present."""
    live_total = np.cumsum(deltas)
    peak = int(np.argmax(live_total))
    at_peak, running = {}, {}
    for code in sorted(set(categories.tolist())):
        live = np.cumsum(np.where(categories == code, deltas, 0))
        name = CATEGORY_FROM_CODE[code].value
        if live[peak] > 0:
            at_peak[name] = int(live[peak])
        if live.max() > 0:
            running[name] = int(live.max())
    return int(timestamps[peak]), max(0, int(live_total[peak])), at_peak, running


@pytest.mark.parametrize("blocks", [1, 2, 17, 400])
def test_one_matrix_breakdown_is_the_per_category_loop(blocks):
    rng = np.random.default_rng(blocks)
    deltas, categories, timestamps = _malloc_free_stream(rng, blocks)
    breakdown = occupation_from_columns(deltas, categories, timestamps)
    assert (breakdown.peak_time_ns, breakdown.total_bytes, breakdown.category_bytes,
            breakdown.category_peak_bytes) == _per_category_breakdown(
                deltas, categories, timestamps)
    assert sum(breakdown.bucket_bytes.values()) == sum(breakdown.category_bytes.values())


def test_the_one_row_forms_leave_their_inputs_untouched():
    """The row recipes may consume a matrix the replay block owns; what a
    trace's reduction hands the one-row forms comes back as it went in."""
    rng = np.random.default_rng(26)
    gaps = rng.integers(-5_000, 2_000_000_000, 301)
    values = gaps / 1_000.0
    sizes = rng.integers(1, 256 * MIB, 301)
    deltas, categories, timestamps = _malloc_free_stream(rng, 120)
    inputs = (values, gaps, sizes, deltas, categories, timestamps)
    before = [column.copy() for column in inputs]
    summary = summarize_values_us(values)
    fraction = swappable_fraction(_interval_arrays(gaps, sizes),
                                  BandwidthConfig.from_paper())
    breakdown = occupation_from_columns(deltas, categories, timestamps)
    for column, copy in zip(inputs, before):
        assert column.tobytes() == copy.tobytes()
    assert _bits(summary) == _bits(_one_dimensional_summary(values))
    assert fraction == swappable_fraction(_interval_arrays(gaps.copy(), sizes),
                                          BandwidthConfig.from_paper())
    assert breakdown.to_dict() == occupation_from_columns(
        deltas.copy(), categories.copy(), timestamps.copy()).to_dict()


# -- template identity ----------------------------------------------------------------

_BASE = TrainingRunConfig(model="mlp", batch_size=32, iterations=2)
_OTHER_VALUES = {
    "model": "paper_mlp", "model_kwargs": {"hidden_dim": 128}, "dataset": "mnist",
    "dataset_kwargs": {"num_samples": 64}, "batch_size": 48, "iterations": 3,
    "learning_rate": 0.5, "momentum": 0.1, "optimizer": "adam",
    "device_spec": "v100_sxm2_16gb", "dtype": "float16", "allocator": "bump",
    "seed": 9, "host_latency": HostLatencyModel(),
    "device_memory_capacity": 1 << 30, "host_dispatch_overhead_ns": 1_300,
    "n_devices": 2, "interconnect": "nvlink2", "allreduce_algorithm": "naive",
    "swap": "lru", "label": "renamed",
}


def _template_key_or_reason(config):
    try:
        return template_key(config)
    except TemplateError as error:
        return error.reason


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(TrainingRunConfig)])
def test_every_config_field_is_pricing_or_splits_the_token(field):
    """A new ``TrainingRunConfig`` field fails here until it has a value in
    ``_OTHER_VALUES`` — and then either is declared a pricing axis or splits
    the structure token (the key template and the replay groups)."""
    changed = dataclasses.replace(_BASE, **{field: _OTHER_VALUES[field]})
    assert getattr(changed, field) != getattr(_BASE, field)
    if field in PRICING_FIELDS:
        assert structure_token(changed) == structure_token(_BASE)
        assert template_key(changed) == template_key(_BASE)
    else:
        assert structure_token(changed) != structure_token(_BASE)
        hash(structure_token(changed))
        if field not in ("dtype", "host_latency"):  # generalized / outside the envelope
            assert _template_key_or_reason(changed) != template_key(_BASE)


def test_replay_groups_by_the_one_structure_token():
    """``replay.py`` builds no grouping token of its own: it groups by
    :func:`~repro.experiments.grid.structure_token`, the token keys are built
    from, and defines no function, class or module constant that mentions a
    token or freezes a value."""
    tree = ast.parse(REPLAY.read_text())
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {target.id for node in tree.body if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)}
    assert not {name for name in defined
                if "token" in name.lower() or "freeze" in name.lower()}
    assert "PRICING_FIELDS" not in defined
    assert _enclosing_functions(
        REPLAY, lambda node: isinstance(node, ast.Name)
        and node.id == "structure_token") == ["price_batch"]


def test_price_times_lists_no_pricing_field_by_hand():
    """The point key is read off ``PRICING_FIELDS``; the one field the point
    pricer names itself is the per-row dispatch override, and the functions
    that build rows from its points name none."""
    assert PER_ROW_PRICING_FIELDS == ("label", "host_dispatch_overhead_ns")
    assert set(PER_ROW_PRICING_FIELDS) < set(PRICING_FIELDS)
    functions = {node.name: node for node in ast.walk(ast.parse(REPLAY.read_text()))
                 if isinstance(node, ast.FunctionDef)}

    def named(name):
        return {node.attr for node in ast.walk(functions[name])
                if isinstance(node, ast.Attribute)
                and getattr(node.value, "id", None) == "config"}

    assert named("_price_points") == {"host_dispatch_overhead_ns"}
    assert named("_price_times") == set()


@pytest.fixture(scope="module")
def two_rank_template():
    base = dataclasses.replace(_BASE, n_devices=2)
    return base, ReplayEngine().template_for(base)


@pytest.mark.parametrize("field", PRICING_FIELDS)
def test_a_pricing_field_alone_selects_another_pricing_point(two_rank_template, field):
    """Two configs one pricing field apart are two points (their clusters are
    built separately) unless the field is a stated per-row one."""
    base, template = two_rank_template
    changed = dataclasses.replace(base, **{field: _OTHER_VALUES[field]})
    _times, _costs, clusters = template._price_times([base, changed, base])
    assert clusters[0] is clusters[2]
    assert (clusters[0] is clusters[1]) == (field in PER_ROW_PRICING_FIELDS)


def test_no_module_under_src_names_a_template_manifest():
    for path, _tree in _sources():
        assert "index.json" not in path.read_text(), path.name


# -- the recompute estimator has no fallback model ------------------------------------


def test_trace_without_write_timing_reports_zero_recompute_overhead():
    events, marks = [], []
    for iteration in range(3):
        base = (iteration + 1) * 1_000_000_000
        for block in (10, 11):
            events.append(("malloc", base + block, block, 64 * MIB,
                           MemoryCategory.ACTIVATION, iteration))
            events.append(("read", base + 500_000_000 + block, block, 64 * MIB,
                           MemoryCategory.ACTIVATION, iteration))
            events.append(("free", base + 600_000_000 + block, block, 64 * MIB,
                           MemoryCategory.ACTIVATION, iteration))
        marks.append((base, base + 900_000_000))
    trace = build_trace(events, iteration_marks=marks, end_ns=4_000_000_000)
    summary = get_policy("recompute").evaluate(trace)
    assert summary["activation_bytes_discarded"] == 64 * MIB
    assert summary["recompute_time_overhead_ns"] == summary["overhead_ns"] == 0
