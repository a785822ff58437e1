#!/usr/bin/env python3
"""Benchmark entry point for the sweep / replay / swap / persistence stack.

One measured run (what ``BENCHMARK.json``'s command runs)::

    python3 bench/run.py --workload replay_price --seed 7 --seconds 10 --trace 0

builds the workload's inputs from ``--seed``, sets up, repeats timed samples
for ``--seconds`` seconds (closed loop, one client, ``gc.collect()`` before
each sample), checks the outputs and prints — as the last line of stdout — one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics with no wrapper installed; ``--trace 1``
installs the span wrappers of ``spans.py`` for part of the run and reports the
per-layer metrics instead.  It exits 1 when a check fails.

Without ``--workload`` it is the whole suite: ``--rounds`` rounds, each
running every workload once (interleaved, seed + round number), then one
traced run per workload; every metric is printed by name with its unit and
the data is written to ``--out`` for ``bench/compare.py``.

Host time is what the simulator takes to run, simulated time what the
modelled GPU takes: every metric not prefixed ``sim.`` is host time.  The
end-to-end times are *drift-corrected*: a fixed calibration loop runs before
and after every sample, and the sample's wall time is scaled by how fast that
loop ran next to it relative to ``CALIB_REFERENCE_MS`` (see
``on_reference_host``).
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()   # setup_s is measured from here

import argparse
import contextlib
import functools
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
TMP_PARENT = BENCH_DIR / "tmp"            # inside the checkout, git-ignored
DEFAULT_OUT = BENCH_DIR / "results" / "latest.json"

#: Cold child interpreters per ``--trace 0`` run; each sets up once and takes
#: one sample, and the run reports the medians of their set-up time and RSS.
COLD_RUNS = 4
#: ``calibrate_ms()`` slices per calibration gap; there is a gap before and
#: after every sample and every cold child.
CALIB_SLICES = 3
#: Median ``calibrate_ms()`` on the quiet host the first baseline was taken
#: on.  Only ratios of the reported times matter; this constant keeps them in
#: seconds a reader recognises (speed factor ~1 on that host).
CALIB_REFERENCE_MS = 8.5
#: Share of a traced run's ``--seconds`` spent on untraced reference samples.
UNTRACED_SHARE = 0.4
#: Repeats of each ``cli.*`` subprocess timing (median reported).
CLI_REPEATS = 3


def load_spec() -> dict:
    with open(SPEC_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def import_harness():
    """Import the program under test and the harness modules (timed by callers)."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program to measure: {ROOT / 'src' / 'repro'} "
                         f"is missing (run from a full checkout)")
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from bench import layers, spans, workloads
    return workloads, spans, layers


def warn_if_loaded() -> float:
    """The 1-minute load average, with a warning when it exceeds the CPU count."""
    load = os.getloadavg()[0]
    if load > (os.cpu_count() or 1):
        print(f"bench: warning: 1-minute load {load:.2f} exceeds "
              f"{os.cpu_count()} CPUs; timings will be noisy", file=sys.stderr)
    return load


def peak_rss_mib() -> float:
    """Largest resident set of this process or any child it waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


class _Cell:
    __slots__ = ("scale", "offset")

    def __init__(self, scale: int, offset: int):
        self.scale, self.offset = scale, offset

    def apply(self, value: int) -> int:
        return self.scale * value + self.offset


_CELLS = [_Cell(index, index + 1) for index in range(2000)]


def calibrate_ms() -> float:
    """A fixed loop of what the simulator is made of — method calls, attribute
    and dict traffic, a little numpy: tells machine drift from program change."""
    import numpy as np
    started = time.perf_counter()
    table, total = {}, 0
    for step in range(40):
        for cell in _CELLS:
            total += cell.apply(step)
            table[cell.scale] = total
    values = np.arange(100_000, dtype=np.int64)[::-1].copy()
    values.sort()
    values.cumsum()
    return (time.perf_counter() - started) * 1e3


def calibration_gap() -> float:
    """One calibration gap: the mean of ``CALIB_SLICES`` slices, in ms."""
    return statistics.fmean(calibrate_ms() for _ in range(CALIB_SLICES))


def on_reference_host(seconds: float, *gaps: float) -> float:
    """``seconds`` measured next to the calibration ``gaps``, as the quiet
    reference host would have shown them.

    On this class of shared host the same code runs 10-50 % slower for
    anything from a second to minutes at a time, and the calibration loop
    slows with it; a median over raw times follows those episodes, a median
    over times scaled by the neighbouring gaps does not.
    """
    return seconds * CALIB_REFERENCE_MS / statistics.fmean(gaps)


def quartiles(values):
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


# -- one measured run -----------------------------------------------------------------


class Run:
    """State of one ``--workload`` run.

    Counts the samples instead of keeping them: their results would grow the
    process by the number of samples taken, and that number depends on how
    fast the host happens to be.
    """

    def __init__(self, tmp_root: Path, workloads):
        self.tmp_root = tmp_root
        self.workloads = workloads
        self.samples = 0
        self.calib = []           # mean calibrate_ms() of every gap so far
        self.errors = []
        self.attempted = 0
        self.failures = 0
        self.drift = 0
        self.reference = None     # key -> normalized result of round 0

    def calibrate(self) -> float:
        """Run one calibration gap and keep it for ``host.calib_ms``."""
        gap = calibration_gap()
        self.calib.append(gap)
        return gap

    def take(self, workload):
        """One sample: collect garbage, run, compare payloads with round 0."""
        gc.collect()
        sample = workload.sample()
        self.samples += 1
        self.attempted += sample.attempted
        self.failures += sample.failed
        self.errors.extend(sample.errors)
        if self.reference is None:
            first = workload.reference() or sample.results
            self.reference = {r.key: self.workloads.normalized(r) for r in first}
        drift = self.workloads.count_drift(sample.results, self.reference)
        if drift:
            self.drift += drift
            self.errors.append(f"{workload.name}: {drift} payload(s) differ from "
                               f"round 0 in sample {self.samples - 1}")
        return sample

    @property
    def failed(self) -> int:
        return self.failures + self.drift

    @functools.cached_property
    def digest(self) -> str:
        """``sim.digest`` of round 0's payloads (read once sampling is over)."""
        return self.workloads.sim_digest(list(self.reference.values()))


def run_cold(args) -> int:
    """Cold child: import + generate + ``prepare()`` + exactly one sample."""
    workloads, _spans, _layers = import_harness()
    workloads.scrub_environment()
    TMP_PARENT.mkdir(parents=True, exist_ok=True)
    tmp_root = Path(tempfile.mkdtemp(prefix="repro-bench-", dir=TMP_PARENT))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, tmp_root)
        workload.prepare()
        setup_s = time.perf_counter() - _STARTED
        calib_ms = calibration_gap()
        sample = workload.sample()
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    print(json.dumps({"setup_s": setup_s, "first_sample_s": sample.wall_s,
                      "peak_rss_mib": peak_rss_mib(), "attempted": sample.attempted,
                      "failed": sample.failed, "errors": sample.errors, "calib_ms": calib_ms}))
    return 0


def cold_runs(args, run: Run) -> list:
    """What ``COLD_RUNS`` fresh child interpreters report, one after another;
    ``setup_ref_s`` is each one's ``setup_s`` on the reference host, scaled by
    the gaps this process ran before and after it and the child's own."""
    reports = []
    before = run.calibrate()
    for _ in range(COLD_RUNS):
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--cold"],
            env=run.workloads.child_env(), capture_output=True, text=True,
            timeout=170)
        if completed.returncode != 0:
            raise RuntimeError(f"cold child failed: {completed.stderr[-400:]}")
        report = json.loads(completed.stdout.strip().splitlines()[-1])
        run.attempted += report["attempted"]
        run.failures += report["failed"]
        run.errors.extend(report["errors"])
        after = run.calibrate()
        report["setup_ref_s"] = on_reference_host(
            report["setup_s"], before, report["calib_ms"], after)
        reports.append(report)
        before = after
    return reports


def cli_timings(workload, run: Run, cli_s: float) -> dict:
    """The ``cli`` layer: three subprocess timings around ``repro sweep``."""
    from repro.experiments.sweep import SweepRunner

    def timed(command):
        walls = []
        for _ in range(CLI_REPEATS):
            started = time.perf_counter()
            completed = subprocess.run(command, env=run.workloads.child_env(),
                                       cwd=run.tmp_root, capture_output=True,
                                       text=True, timeout=150)
            walls.append(time.perf_counter() - started)
            if completed.returncode != 0:
                run.errors.append(f"cli_pool: {command[1:4]} exited "
                                  f"{completed.returncode}")
        return statistics.median(walls)

    import_s = timed([sys.executable, "-c", "import repro.cli"])
    dry_run_s = timed(workload.command(workload.fresh_dir("dry"), "--dry-run"))
    with SweepRunner(cache_dir=None, workers=1, strict=False) as runner:
        started = time.perf_counter()
        runner.run(workload.scenarios)
        serial_s = time.perf_counter() - started
    return {"cli.import_s": import_s, "cli.dry_run_s": dry_run_s,
            # base: in-process SweepRunner(workers=1) wall of the same
            # scenarios, divided by the CLI's wall (> 1: the CLI is faster)
            "cli.speedup_vs_serial": serial_s / cli_s}


def sim_metrics(run: Run) -> dict:
    """Exact simulated statistics of the workload's (unique) scenarios."""
    results = list(run.reference.values())
    return {
        # the first 48 bits of the sha256, as a number a JSON metric can carry
        "sim.digest48": int(run.digest[:12], 16),
        "sim.events_total": sum(r.num_events for r in results),
        "sim.step_time_ms_sum": sum(r.step_time_s_total for r in results) * 1e3,
        "sim.peak_alloc_mib_sum": sum(r.peak_allocated_bytes for r in results) / 2**20,
    }


def run_single(args) -> int:
    """One measured run of one workload; prints the result line, returns exit code."""
    spec = load_spec()
    load_start = warn_if_loaded()
    import_started = time.perf_counter()
    workloads, spans, layers = import_harness()
    import_s = time.perf_counter() - import_started
    workloads.scrub_environment()

    TMP_PARENT.mkdir(parents=True, exist_ok=True)
    tmp_root = Path(tempfile.mkdtemp(prefix="repro-bench-", dir=TMP_PARENT))
    run = Run(tmp_root, workloads)
    try:   # the finally also runs on KeyboardInterrupt
        cls = workloads.WORKLOADS[args.workload]
        if args.trace:
            metrics = _traced_run(args, run, cls, spans, layers, import_s, load_start)
            declared = spec["per_layer"]
        else:
            metrics = _timed_run(args, run, cls)
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)

    for error in run.errors:
        print(f"bench: CHECK FAILED: {error}", file=sys.stderr)
    correct = not run.errors and run.failed == 0
    print(f"{args.workload}: seed={args.seed} samples={run.samples} "
          f"attempted={run.attempted} failed={run.failed} sim_drift={run.drift} "
          f"sim.digest={run.digest}")
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    undeclared = sorted(set(metrics) - {m["name"] for m in declared})
    if missing or undeclared:
        raise SystemExit(f"bench: metrics out of step with BENCHMARK.json: "
                         f"missing {missing}, undeclared {undeclared}")
    for metric in declared:
        print(f"  {metric['name']:34s} {metrics[metric['name']]:>16.6g} {metric['unit']}")
    print(json.dumps({
        "correct": correct, "attempted": max(1, run.attempted), "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared}}))
    return 0 if correct else 1


def _timed_run(args, run: Run, cls) -> dict:
    """``--trace 0``: cold children, then steady samples; end-to-end metrics."""
    workload = cls(args.seed, run.tmp_root)
    workload.prepare()
    own_setup_s = time.perf_counter() - _STARTED
    cold = cold_runs(args, run)

    warmup = run.take(workload)                        # discarded
    walls, rates, event_rates = [], [], []
    before = run.calibrate()
    deadline = time.perf_counter() + args.seconds
    while True:
        sample = run.take(workload)
        after = run.calibrate()
        wall_s = on_reference_host(sample.wall_s, before, after)
        walls.append(sample.wall_s)
        rates.append(len(sample.results) / wall_s)
        event_rates.append(sample.events / wall_s)
        before = after
        if time.perf_counter() >= deadline:
            break
    run.errors.extend(workload.check(run.reference))

    q1, median, q3 = quartiles(walls)
    print(f"{workload.name}: as measured: sample wall median {median:.4f} s "
          f"(q1 {q1:.4f}, q3 {q3:.4f}, n={len(walls)}), "
          f"{len(sample.results) / median:.6g} scenarios/s; warm-up sample "
          f"{warmup.wall_s:.4f} s; cold first samples "
          f"{', '.join(format(r['first_sample_s'], '.3f') for r in cold)} s")
    print(f"{workload.name}: as measured: set-ups "
          f"{', '.join(format(r['setup_s'], '.3f') for r in cold)} s in cold "
          f"children, {own_setup_s:.3f} s in this process")
    q1, median, q3 = quartiles(run.calib)
    print(f"{workload.name}: host.calib_ms median {median:.3f} (q1 {q1:.3f}, "
          f"q3 {q3:.3f}, n={len(run.calib)} gaps); reference {CALIB_REFERENCE_MS}: "
          f"rates and setup_s below are scaled by the neighbouring gaps")
    return {
        "scenarios_per_s": statistics.median(rates),
        "events_per_s": statistics.median(event_rates),
        "setup_s": statistics.median(report["setup_ref_s"] for report in cold),
        # fixed work (set-up + one sample), so it does not move with host speed
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in cold),
    }


def _traced_run(args, run: Run, cls, spans, layers, import_s, load_start) -> dict:
    """``--trace 1``: untraced reference samples, then traced ones; per-layer."""
    tracer = spans.Tracer(keep_rows=bool(args.trace_out))
    in_process = cls.name != "cli_pool"    # the CLI child cannot be wrapped
    tracing = (spans.installed(tracer, fine=cls.fine_spans) if in_process
               else contextlib.nullcontext())

    tracer.begin_sample(layers.SETUP_SAMPLE)
    with tracing:
        workload = cls(args.seed, run.tmp_root)
        workload.prepare()

    first = run.take(workload)                         # cold.first_sample_s
    started = time.perf_counter()
    untraced = []
    while not untraced or time.perf_counter() - started < args.seconds * UNTRACED_SHARE:
        run.calibrate()
        untraced.append(run.take(workload).wall_s)
    traced, per_sample = [], []
    while not traced or time.perf_counter() - started < args.seconds:
        run.calibrate()
        sample_id = len(traced) + 1
        tracer.begin_sample(sample_id)
        with tracing:
            sample = run.take(workload)
        traced.append(sample.wall_s)
        per_sample.append(layers.sample_metrics(tracer, sample_id, sample))
    run.errors.extend(workload.check(run.reference))

    metrics = {name: statistics.median(values[name] for values in per_sample)
               for name in per_sample[0]}
    metrics.update(layers.setup_metrics(tracer, import_s))
    cli = {"cli.import_s": 0.0, "cli.dry_run_s": 0.0, "cli.speedup_vs_serial": 0.0}
    if not in_process:
        cli = cli_timings(workload, run, statistics.median(untraced + traced))
    metrics.update(cli)
    metrics.update(sim_metrics(run))
    metrics.update({
        "cold.first_sample_s": first.wall_s,
        "host.calib_ms": statistics.median(run.calib),
        "host.loadavg_start": load_start,
        "host.loadavg_end": os.getloadavg()[0],
        "trace.overhead_frac": (
            statistics.median(traced) / statistics.median(untraced) - 1.0
            if in_process else 0.0),
    })
    if in_process:
        print(f"{cls.name}: where the traced sample's time went "
              f"(self time by layer group, sample 1):")
        for group, seconds, share in layers.shares(tracer, 1):
            print(f"  {group:8s} {seconds:9.4f} s  {share:6.1%}")
    q1, median, q3 = quartiles(run.calib)
    print(f"{cls.name}: host.calib_ms median {median:.3f} (q1 {q1:.3f}, q3 {q3:.3f}); "
          f"{len(untraced)} untraced + {len(traced)} traced samples")
    if args.trace_out:
        tracer.write(args.trace_out)
    return metrics


# -- the suite ------------------------------------------------------------------------


def _child_run(workload: str, seed: int, seconds: int, trace: int):
    """Run one measured run in a child; returns ``(result dict, text report)``."""
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    lines = completed.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RuntimeError(f"{workload}: run printed no result "
                           f"(exit {completed.returncode}): {completed.stderr[-600:]}")
    if completed.stderr.strip():
        print(completed.stderr.strip(), file=sys.stderr)
    return result, "\n".join(lines[:-1])


def run_suite(args) -> int:
    """Every workload, ``--rounds`` interleaved rounds, then one traced run each."""
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.only:
        unknown = sorted(set(args.only.split(",")) - set(names))
        if unknown:
            raise SystemExit(f"bench: unknown workload(s) {unknown}; known: {names}")
        names = [name for name in names if name in args.only.split(",")]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    rounds = max(1, args.rounds)

    load_start = warn_if_loaded()
    report = {name: {"end_to_end": {m["name"]: {"unit": m["unit"], "values": []}
                                    for m in spec["end_to_end"]},
                     "per_layer": {}, "correct": True, "attempted": 0, "failed": 0}
              for name in names}

    def absorb(name, result):
        entry = report[name]
        entry["correct"] = entry["correct"] and bool(result["correct"])
        entry["attempted"] += result["attempted"]
        entry["failed"] += result["failed"]

    # Interleaved on purpose: on a shared host slow episodes last seconds to
    # minutes, and back-to-back repeats of one workload all land in the same one.
    for round_number in range(rounds):
        for name in names:
            result, _text = _child_run(name, args.seed + round_number, seconds, 0)
            absorb(name, result)
            for metric, item in result["metrics"].items():
                report[name]["end_to_end"][metric]["values"].append(item["value"])
            print(f"round {round_number + 1}/{rounds} {name}: " + ", ".join(
                f"{metric}={item['value']:.6g} {item['unit']}"
                for metric, item in result["metrics"].items()), flush=True)
    for name in names:
        result, text = _child_run(name, args.seed, seconds, 1)
        absorb(name, result)
        report[name]["per_layer"] = result["metrics"]
        print(text, flush=True)

    print(f"\n{'workload':14s} {'metric':18s} {'median':>14s} {'q1':>14s} "
          f"{'q3':>14s} {'iqr/median':>10s}  unit  (n={rounds})")
    for name in names:
        entry = report[name]
        for metric, item in entry["end_to_end"].items():
            item["q1"], item["median"], item["q3"] = quartiles(item["values"])
            print(f"{name:14s} {metric:18s} {item['median']:14.6g} "
                  f"{item['q1']:14.6g} {item['q3']:14.6g} "
                  f"{(item['q3'] - item['q1']) / item['median']:10.2%}  {item['unit']}")
        entry["failed_frac"] = entry["failed"] / max(1, entry["attempted"])
        print(f"{name:14s} {'failed_frac':18s} {entry['failed_frac']:14.6g} "
              f"{'':14s} {'':14s}  ratio  correct={entry['correct']}")

    document = {
        "schema": 1, "seed": args.seed, "rounds": rounds, "seconds": seconds,
        "claim": None,
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "platform": platform.platform(), "loadavg_start": load_start,
                 "loadavg_end": os.getloadavg()[0]},
        "workloads": report,
    }
    out = Path(args.out) if args.out else DEFAULT_OUT
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"\nwrote {out}")
    return 0 if all(entry["correct"] for entry in report.values()) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        help="run one workload (omit to run the whole suite)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time of one run "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="with --trace 1: keep every span and write them here")
    parser.add_argument("--cold", action="store_true",
                        help="(internal) set up, take one sample, report, exit")
    parser.add_argument("--rounds", type=int, default=5,
                        help="suite: rounds of timed runs per workload")
    parser.add_argument("--only", default=None, metavar="A,B",
                        help="suite: restrict to these workloads")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help=f"suite: result JSON (default {DEFAULT_OUT})")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.workload is None:
        return run_suite(args)
    names = [w["name"] for w in load_spec()["workloads"]]
    if args.workload not in names:
        raise SystemExit(f"bench: unknown workload '{args.workload}'; known: {names}")
    if args.cold:
        return run_cold(args)
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    return run_single(args)


if __name__ == "__main__":
    sys.exit(main())
