#!/usr/bin/env python3
"""Alternating A/B runs of the benchmark on two checkouts.

Usage::

    python tools/bench_ab.py PARENT CHANGE --workload W --seed S --pairs N

Each pair runs ``perfbench/run.py --workload W --seed S --trace 0`` once
from each checkout, one after the other, in a fresh process; the side that
runs first alternates from pair to pair, so drift of the machine hits both
sides alike.  Run length is ``run_seconds`` from CHANGE's
``BENCHMARK.json``, the same for both sides.  For every gated end-to-end
metric of that file the tool prints each pair, then both sides' medians and
quartiles, the parent's interquartile range, the change's wins and whether
the change is a gain: it wins at least nine pairs in ten (ties count for
neither side) and its median is better than the parent's by more than the
parent's interquartile range.  Exit status is 0 when every run reported a
result, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), inclusive method; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list[tuple[float, float]], better: str) -> dict:
    """Statistics of (parent, change) value pairs of one metric; ``better`` is "lower" or "higher"."""
    sign = -1.0 if better == "lower" else 1.0
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    losses = sum(sign * (c - p) < 0 for p, c in pairs)
    iqr = p_q3 - p_q1
    return {
        "pairs": len(pairs),
        "parent": {"q1": p_q1, "median": p_med, "q3": p_q3},
        "change": {"q1": c_q1, "median": c_med, "q3": c_q3},
        "parent_iqr": iqr,
        "delta": c_med - p_med,
        "delta_pct": 100.0 * (c_med - p_med) / p_med if p_med else float("nan"),
        "wins": wins,
        "losses": losses,
        "gain": 10 * wins >= 9 * len(pairs) and sign * (c_med - p_med) > iqr,
    }


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The result document of one benchmark run, or None (with its stderr shown) when it printed none."""
    command = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        print(f"{checkout}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}", file=sys.stderr)
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Alternating A/B benchmark runs on two checkouts.")
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    args.parent, args.change = args.parent.resolve(), args.change.resolve()
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    gated = {m["name"]: m["better"] for m in spec["end_to_end"]}

    values: dict[str, list[tuple[float, float]]] = {name: [] for name in gated}
    failed = 0
    for k in range(args.pairs):
        sides = [("parent", args.parent), ("change", args.change)]
        if k % 2:
            sides.reverse()
        results = {}
        for label, checkout in sides:
            results[label] = run_once(checkout, args.workload, args.seed, spec["run_seconds"])
        if any(r is None or r["failed"] for r in results.values()):
            failed += 1
            print(f"pair {k + 1}: a run failed: {json.dumps(results)}")
            continue
        line = []
        for name in gated:
            p, c = (results[label]["metrics"][name]["value"] for label in ("parent", "change"))
            values[name].append((p, c))
            line.append(f"{name} {p:.4g} -> {c:.4g}")
        print(f"pair {k + 1} ({sides[0][0]} first): " + ", ".join(line), flush=True)

    for name, better in gated.items():
        if not values[name]:
            continue
        s = summarize(values[name], better)
        p, c = s["parent"], s["change"]
        print(
            f"{name} ({better} is better): parent median {p['median']:.4g} (q1 {p['q1']:.4g}, q3 {p['q3']:.4g},"
            f" IQR {s['parent_iqr']:.4g}); change median {c['median']:.4g} (q1 {c['q1']:.4g}, q3 {c['q3']:.4g});"
            f" {s['delta_pct']:+.1f}%; change better in {s['wins']}/{s['pairs']} pairs"
            f" (worse in {s['losses']}); gain: {'yes' if s['gain'] else 'no'}"
        )
    if failed:
        print(f"{failed} pair(s) with a failed run")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
