#!/usr/bin/env python
"""Alternating parent/change pairs of the registered benchmark, as one command.

``make bench-pairs PARENT=<rev> [ONLY=a,b] [PAIRS=10] [SEED=100]`` measures the
working tree (the *change*) against ``<rev>`` (the *parent*) the way every perf
PR since PR 12 did by hand:

* the parent's committed files are unpacked (``git archive``) into a
  git-ignored directory inside this checkout and removed afterwards;
* the run is refused when ``bench/`` or ``BENCHMARK.json`` differ between the
  two sides — a change that claims a gain may not edit the benchmark;
* per workload and pair, both sides run ``python3 bench/run.py --workload W
  --seed S --seconds <run_seconds> --trace 0`` from their own root, the side
  that goes first alternating from pair to pair;
* per workload x end-to-end metric it prints both medians and quartiles, the
  ratio with its base, pairs won, whether the median gap exceeds the parent's
  inter-quartile distance, and any median outside its ``BENCHMARK.json`` bound;
  the readings and verdicts are also written as JSON under ``.bench-pairs/``.

The decision rule is :func:`decide`, a pure function of the paired readings
(``docs/performance.md`` and the choosing-metrics guide state it in prose).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench-pairs"
BENCH_PATHS = ("bench", "BENCHMARK.json")


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` of the readings (inclusive method; one reading: itself)."""
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def decide(parent: Sequence[float], change: Sequence[float], better: str,
           bound: float) -> Dict[str, object]:
    """Judge one metric on one workload from paired readings.

    ``parent[i]`` and ``change[i]`` are the two sides of pair ``i``;
    ``better`` is ``"higher"`` or ``"lower"``.  A **gain** needs the change to
    win at least nine tenths of all pairs run (a tie counts for neither side)
    *and* its median to beat the parent's by more than the parent's own
    inter-quartile distance.  A **regression** is a change median worse than
    the parent's by more than ``bound`` (a share of the parent's median).
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of readings on both sides")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    parent_q1, parent_median, parent_q3 = quartiles(parent)
    change_q1, change_median, change_q3 = quartiles(change)
    gap = sign * (change_median - parent_median)
    parent_iqr = parent_q3 - parent_q1
    return {
        "pairs": len(parent), "wins": wins, "losses": losses,
        "parent": {"median": parent_median, "q1": parent_q1, "q3": parent_q3},
        "change": {"median": change_median, "q1": change_q1, "q3": change_q3},
        "ratio": change_median / parent_median if parent_median else None,
        "gap_exceeds_parent_iqr": gap > parent_iqr,
        "gain": 10 * wins >= 9 * len(parent) and gap > parent_iqr,
        "regression": -gap > bound * abs(parent_median),
    }


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=False)


def benchmark_differs(rev: str) -> List[str]:
    """Paths under ``bench/`` / ``BENCHMARK.json`` that differ from ``rev``."""
    changed = _git("diff", "--name-only", rev, "--", *BENCH_PATHS).stdout.decode().split()
    untracked = _git("ls-files", "--others", "--exclude-standard", "--",
                     *BENCH_PATHS).stdout.decode().split()
    return changed + untracked


def unpack_parent(rev: str) -> Path:
    """The committed files of ``rev`` in a fresh directory under ``.bench-pairs/``."""
    resolved = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    if resolved.returncode:
        raise SystemExit(f"bench-pairs: unknown revision {rev!r}")
    target = OUT_DIR / f"parent-{resolved.stdout.decode().strip()[:12]}-{os.getpid()}"
    target.mkdir(parents=True)
    archive = _git("archive", "--format=tar", rev)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(target, filter="data")
    return target


def run_once(root: Path, workload: str, seed: int, seconds: int) -> Dict[str, object]:
    """One ``bench/run.py`` run from ``root``; its result line as a dict."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, env=env, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"bench-pairs: {workload} printed no result in {root}:\n{done.stderr}")
    result = json.loads(lines[-1])
    result["exit_code"] = done.returncode
    return result


def report(spec: Dict[str, object], runs: Dict[str, Dict[str, List[dict]]]) -> List[dict]:
    """Print the verdict table; returns one row per workload x end-to-end metric."""
    rows = []
    print(f"{'workload':<13}{'metric':<17}{'parent median [q1, q3]':<36}"
          f"{'change median [q1, q3]':<36}{'ratio (base)':<22}{'won':<7}{'gap>IQR':<9}bound")
    for workload, sides in runs.items():
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent, change = ([run["metrics"][name]["value"] for run in sides[side]]
                              for side in ("parent", "change"))
            verdict = decide(parent, change, metric["better"], metric["bound"])
            rows.append({"workload": workload, "metric": name, **verdict})
            cells = [f"{verdict[side]['median']:.4g} [{verdict[side]['q1']:.4g}, "
                     f"{verdict[side]['q3']:.4g}]" for side in ("parent", "change")]
            ratio = (f"{verdict['ratio']:.3f}x of {verdict['parent']['median']:.4g}"
                     if verdict["ratio"] is not None else "-")
            bound = f"WORSE BY > {metric['bound']:.0%}" if verdict["regression"] else "ok"
            print(f"{workload:<13}{name:<17}{cells[0]:<36}{cells[1]:<36}{ratio:<22}"
                  f"{verdict['wins']}/{verdict['pairs']:<5}"
                  f"{'yes' if verdict['gap_exceeds_parent_iqr'] else 'no':<9}{bound}"
                  f"{'  GAIN' if verdict['gain'] else ''}")
        bad = [(side, index) for side in ("parent", "change")
               for index, run in enumerate(sides[side])
               if run["exit_code"] or run.get("failed") or not run.get("correct")]
        if bad:
            print(f"{workload}: failed / incorrect runs: {bad}")
    return rows


def main(argv: Sequence[str] = None) -> int:
    """Command-line entry point (see the module docstring)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, metavar="REV")
    parser.add_argument("--only", default="", metavar="A,B",
                        help="workloads to run (default: every registered one)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=100)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    registered = [workload["name"] for workload in spec["workloads"]]
    only = [name for name in args.only.split(",") if name] or registered
    unknown = sorted(set(only) - set(registered))
    if unknown or args.pairs < 1:
        parser.error(f"unknown workload(s) {unknown}" if unknown else "--pairs must be >= 1")
    differing = benchmark_differs(args.parent)
    if differing:
        raise SystemExit("bench-pairs: refusing to compare, the benchmark differs from "
                         f"{args.parent}: {', '.join(differing)}")

    parent_root = unpack_parent(args.parent)
    roots = {"parent": parent_root, "change": ROOT}
    runs = {workload: {"parent": [], "change": []} for workload in only}
    try:
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for workload in only:
                for side in order:
                    result = run_once(roots[side], workload, args.seed, spec["run_seconds"])
                    runs[workload][side].append(result)
                    print(f"pair {pair + 1}/{args.pairs} {workload} {side}: " + ", ".join(
                        f"{name}={reading['value']:.4g}"
                        for name, reading in result["metrics"].items()), flush=True)
    finally:
        shutil.rmtree(parent_root, ignore_errors=True)

    rows = report(spec, runs)
    out_path = OUT_DIR / f"pairs-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out_path.write_text(json.dumps(
        {"parent": args.parent, "seed": args.seed, "pairs": args.pairs,
         "run_seconds": spec["run_seconds"], "verdicts": rows, "runs": runs}, indent=1))
    print(f"wrote {out_path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
