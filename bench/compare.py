#!/usr/bin/env python3
"""Compare two result sets written by ``bench/run.py`` (suite mode).

    python3 bench/compare.py A.json B.json [--expect-identical-sim]

One row per (end-to-end metric, workload): both medians, both q1/q3, the
ratio B / A (base: A's median), the bound from ``BENCHMARK.json`` and a
verdict:

``same``        B's median is within the bound of A's, either way
``improved``    B's median is better than A's by more than the bound
``regressed``   B's median is worse than A's by more than the bound
``unresolved``  the run-to-run spread (q3 - q1 over the median, the wider of
                the two sets) exceeds the bound *and* the two sets' runs
                overlap — the data cannot tell, so it is not called ``same``

Exits 1 on any ``regressed`` row, on any rise of ``failed_frac``, on a run
that failed its checks, and — with ``--expect-identical-sim`` — when a
simulated statistic (``sim.*``, the digest included) or any other exact
count differs between the sets.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Per-layer units whose values repeat exactly between runs of one commit.
EXACT_UNITS = ("count", "bytes")
#: ... except these, which are host measurements carried in such a unit, or
#: file sizes that embed host-dependent text (wall times, temp paths).
INEXACT = ("host.loadavg_start", "host.loadavg_end", "journal.bytes_written",
           "sweep.cache_store.bytes", "template_store.bytes")


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """The row's verdict; ``a`` and ``b`` hold ``values``, ``median``, q1/q3."""
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (b["median"] - a["median"]) / a["median"]   # > 0: B is better
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (a, b))
    a_values = [sign * v for v in a["values"]]
    b_values = [sign * v for v in b["values"]]
    separated = min(b_values) > max(a_values) or max(b_values) < min(a_values)
    if spread > bound and not separated:
        return "unresolved"
    if gain < -bound:
        return "regressed"
    if gain > bound:
        return "improved"
    return "same"


def compare(a: dict, b: dict, spec: dict, expect_identical_sim: bool):
    """Returns ``(table rows, problems)``."""
    rows, problems = [], []
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in a["workloads"] or workload not in b["workloads"]:
            continue
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            ma, mb = wa["end_to_end"][name], wb["end_to_end"][name]
            row_verdict = verdict(ma, mb, metric["better"], metric["bound"])
            rows.append((workload, name, metric["unit"], ma, mb,
                         mb["median"] / ma["median"], metric["bound"], row_verdict))
            if row_verdict == "regressed":
                problems.append(f"{workload}/{name}: regressed")
        if wb["failed_frac"] > wa["failed_frac"]:
            problems.append(f"{workload}: failed_frac rose "
                            f"{wa['failed_frac']:.6g} -> {wb['failed_frac']:.6g}")
        for label, side in (("A", wa), ("B", wb)):
            if not side["correct"]:
                problems.append(f"{workload}: set {label} failed its checks")
        if expect_identical_sim:
            for name, unit in layer_units.items():
                exact = name.startswith("sim.") or (unit in EXACT_UNITS
                                                    and name not in INEXACT)
                va = wa["per_layer"].get(name, {}).get("value")
                vb = wb["per_layer"].get(name, {}).get("value")
                if exact and va != vb:
                    problems.append(f"{workload}/{name}: {va!r} != {vb!r}")
    return rows, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    parser.add_argument("--expect-identical-sim", action="store_true",
                        help="the two sets are meant to differ in host speed "
                             "only: fail on any differing sim.* / exact count")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    a = json.loads(args.a.read_text(encoding="utf-8"))
    b = json.loads(args.b.read_text(encoding="utf-8"))
    if args.expect_identical_sim and a["seed"] != b["seed"]:
        print(f"compare: --expect-identical-sim needs equal seeds "
              f"({a['seed']} != {b['seed']}): the seed picks the inputs",
              file=sys.stderr)
        return 2

    rows, problems = compare(a, b, spec, args.expect_identical_sim)
    print(f"A = {args.a} (seed {a['seed']}, {a['rounds']} rounds)   "
          f"B = {args.b} (seed {b['seed']}, {b['rounds']} rounds)")
    print(f"{'workload':13s} {'metric':16s} {'A median [q1, q3]':>38s} "
          f"{'B median [q1, q3]':>38s} {'B/A':>7s} {'bound':>6s}  verdict")
    for workload, name, unit, ma, mb, ratio, bound, row_verdict in rows:
        cells = [f"{m['median']:.5g} [{m['q1']:.5g}, {m['q3']:.5g}] {unit}"
                 for m in (ma, mb)]
        print(f"{workload:13s} {name:16s} {cells[0]:>38s} {cells[1]:>38s} "
              f"{ratio:7.3f} {bound:6.2f}  {row_verdict}")
    for problem in problems:
        print(f"compare: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
