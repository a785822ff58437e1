"""Facts that must be written down once: structural pins and differentials.

The per-scenario reduction, the timing defaults and the template identity
each have one home.  The AST pins fail when a second copy appears; the
differentials pin the row forms of the recipes to their one-row forms.
"""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.baselines import estimate_recompute_plan
from repro.core.ati import (AtiSummary, IntervalArrays, summarize_rows_us,
                            summarize_values_us)
from repro.core.breakdown import occupation_from_columns
from repro.core.events import MemoryCategory
from repro.core.stats import percentiles_of_sorted
from repro.core.swap import (BandwidthConfig, max_swap_bytes, swappable_fraction,
                             swappable_fractions)
from repro.core.trace import CATEGORY_FROM_CODE
from repro.data.loader import HostLatencyModel
from repro.device import timing
from repro.device.device import Device
from repro.device.spec import get_device_spec
from repro.experiments.replay import (
    PER_ROW_PRICING_FIELDS,
    PRICING_FIELDS,
    ReplayEngine,
    TemplateError,
    template_key,
)
from repro.train.session import TrainingRunConfig
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


def test_block_lifetimes_are_constructed_in_one_function_only():
    sites = [(path.relative_to(SRC).as_posix(), function)
             for path in sorted(SRC.rglob("*.py"))
             for function in _enclosing_functions(path, _calls("BlockLifetime"))]
    assert sites == [("core/trace.py", "lifetimes_from_columns")]


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


def test_four_functions_run_a_training_session():
    """One way to run a scenario: results, template capture and the runner's
    trace door simulate; ``repro profile`` prints session-only fields
    (``peak_allocated_bytes``, the ``swap_execution`` block) no trace carries."""
    sites = {(path.relative_to(SRC).as_posix(), function)
             for path in sorted(SRC.rglob("*.py"))
             for function in _enclosing_functions(path, _calls("run_training_session"))}
    assert sites == {("experiments/results.py", "run_scenario"),
                     ("experiments/replay.py", "_compile_template_checked"),
                     ("experiments/sweep.py", "trace"),
                     ("cli.py", "_cmd_profile")}
    holders = sorted(path.name for path in (SRC / "experiments").glob("*.py")
                     if "SessionResult" in path.read_text())
    assert holders == ["results.py"]


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
    from repro.experiments.replay import check_replay_envelope
    reasons = set()
    for config in (TrainingRunConfig(swap="lru"), TrainingRunConfig(),
                   TrainingRunConfig(execution_mode="symbolic",
                                     host_latency=HostLatencyModel())):
        try:
            check_replay_envelope(config)
        except TemplateError as error:
            reasons.add(error.reason)
    assert reasons == {"swap_execution", "eager_mode"}


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


def test_train_names_no_technique():
    for path, tree in _sources(SRC / "train"):
        literals = {node.value for node in ast.walk(tree)
                    if isinstance(node, ast.Constant) and isinstance(node.value, str)}
        assert not literals & set(TECHNIQUES), path.name


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

    scenario = Scenario(TrainingRunConfig(model="mlp", batch_size=16, iterations=2,
                                          execution_mode="symbolic"))
    bandwidths = scenario.resolve_bandwidths()
    before = price_one(ReplayEngine(), scenario, bandwidths)

    original = timing.KernelTimingModel.__init__

    def slower(self, spec, compute_efficiency=0.5, bandwidth_efficiency=0.5,
               host_dispatch_overhead_ns=9_000):
        original(self, spec, compute_efficiency, bandwidth_efficiency,
                 host_dispatch_overhead_ns)

    monkeypatch.setattr(timing.KernelTimingModel, "__init__", slower)
    moved = {timing.DEFAULT_COMPUTE_EFFICIENCY: 0.5,
             timing.DEFAULT_BANDWIDTH_EFFICIENCY: 0.5,
             timing.DEFAULT_HOST_DISPATCH_OVERHEAD_NS: 9_000}
    monkeypatch.setattr(Device.__init__, "__defaults__",
                        tuple(moved.get(value, value) if isinstance(value, (int, float))
                              else value for value in Device.__init__.__defaults__))
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

_BASE = TrainingRunConfig(model="mlp", batch_size=32, iterations=2,
                          execution_mode="symbolic")
_OTHER_VALUES = {
    "model": "paper_mlp", "model_kwargs": {"hidden_dim": 128}, "dataset": "mnist",
    "dataset_kwargs": {"num_samples": 64}, "batch_size": 48, "iterations": 3,
    "learning_rate": 0.5, "momentum": 0.1, "optimizer": "adam",
    "device_spec": "v100_sxm2_16gb", "dtype": "float16", "allocator": "bump",
    "execution_mode": "eager", "seed": 9, "host_latency": HostLatencyModel(),
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
    the batch dispatcher's groups."""
    changed = dataclasses.replace(_BASE, **{field: _OTHER_VALUES[field]})
    assert getattr(changed, field) != getattr(_BASE, field)
    token = ReplayEngine._structural_token
    if field in PRICING_FIELDS:
        assert token(changed) == token(_BASE)
        assert template_key(changed) == template_key(_BASE)
    else:
        assert token(changed) != token(_BASE)
        hash(token(changed))
        if field not in ("dtype", "host_latency"):  # generalized / outside the envelope
            assert _template_key_or_reason(changed) != template_key(_BASE)


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
    assert named("_price_times") == named("_materialise_rows") == set()


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
    plan = estimate_recompute_plan(trace, keep_every=2)
    assert plan.activation_bytes_discarded == 64 * MIB
    assert plan.recompute_time_overhead_ns == 0
