#!/usr/bin/env python3
"""Record one checkout's benchmark figures in ``BENCH_<label>.json``.

Usage::

    python tools/bench.py CHECKOUT --label LABEL [--runs 5] [--seed 1] [--out DIR]

For every workload of CHECKOUT's ``BENCHMARK.json`` the tool runs
``perfbench/run.py --trace 0`` ``--runs`` times and ``--trace 1`` once, each
in a fresh process and for the file's ``run_seconds``, then runs the Tier-1
suite once.  It writes ``DIR/BENCH_<label>.json`` (DIR defaults to the
current directory) holding:

* per workload, every run's value of each end-to-end metric with its median
  and quartiles (the gated ones from the run's result document, the others,
  such as ``run_wall_s`` or ``protocol_projected_min``, from the lines the
  untraced run prints under ``end-to-end``, to six significant digits), and
  the failed share of operations over all runs;
* per workload, the per-layer metrics of the traced run;
* the Tier-1 wall time as pytest reports it, with its pass/fail summary
  and the seconds of its five slowest tests (``--durations=5``);
* the environment block the benchmark prints (the first traced run's).

It reads only the lines the benchmark and pytest print and adds no timer of
its own.  Exit status is 0 when every run reported a result, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_ab import quartiles, run_lines  # noqa: E402

TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=5"]
# pytest's closing line, e.g. "329 passed, 2 deselected in 127.31s (0:02:07)"
_PYTEST_SUMMARY = re.compile(r"^=*\s*(?P<summary>.*?) in (?P<seconds>[0-9.]+)s\b")
# a --durations line, e.g. "51.70s call     tests/test_acceptance.py::test_criterion_6"
_PYTEST_DURATION = re.compile(r"^(?P<seconds>[0-9.]+)s (?:setup|call|teardown) +(?P<test>\S+)$")
# a printed metric, e.g. "  run_wall_s                      12.3457 s"
_METRIC_LINE = re.compile(r"^  (?P<name>\S+) +(?P<value>\S+) (?P<unit>\S+)$")


def parse_run(lines: list[str]) -> tuple[dict | None, dict | None]:
    """(result document, environment block) of one run's output lines; None where absent."""
    result = env = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    for line in lines:
        if line.startswith("env "):
            env = json.loads(line[len("env "):])
    return result, env


def printed_end_to_end(lines: list[str]) -> dict[str, tuple[float, str]]:
    """``{name: (value, unit)}`` of the metrics listed under a run's ``end-to-end`` header."""
    printed, inside = {}, False
    for line in lines:
        match = _METRIC_LINE.match(line)
        if inside and match:
            printed[match["name"]] = (float(match["value"]), match["unit"])
        else:
            inside = line.startswith("end-to-end")
    return printed


def parse_pytest(lines: list[str]) -> dict | None:
    """``{"wall_s", "summary", "durations"}`` from pytest's output, or None when it printed no closing line.

    ``durations`` maps each test that ``--durations`` listed to its seconds, its phases summed.
    """
    durations = {}
    for match in filter(None, map(_PYTEST_DURATION.match, lines)):
        durations[match["test"]] = round(durations.get(match["test"], 0.0) + float(match["seconds"]), 2)
    for line in reversed(lines):
        match = _PYTEST_SUMMARY.match(line.strip().strip("="))
        if match:
            return {"wall_s": float(match["seconds"]), "summary": match["summary"].strip(), "durations": durations}
    return None


def _spread(unit: str, values: list[float], **extra) -> dict:
    q1, median, q3 = quartiles(values) if values else (None, None, None)
    return {"unit": unit, **extra, "values": values, "q1": q1, "median": median, "q3": q3}


def workload_record(spec: dict, runs: list[list[str]], traced: list[str]) -> dict:
    """One workload's entry: end-to-end metrics over ``runs`` and the per-layer metrics of ``traced``."""
    reported = [(result, printed_end_to_end(lines)) for lines in runs
                for result in [parse_run(lines)[0]] if result is not None]
    done = [result for result, _ in reported]
    attempted = sum(r["attempted"] for r in done)
    failed = sum(r["failed"] for r in done)
    end_to_end = {gate["name"]: _spread(gate["unit"], [r["metrics"][gate["name"]]["value"] for r in done],
                                        better=gate["better"]) for gate in spec["end_to_end"]}
    for name in dict.fromkeys(name for _, printed in reported for name in printed):
        if name not in end_to_end:
            seen = [printed[name] for _, printed in reported if name in printed]
            end_to_end[name] = _spread(seen[0][1], [value for value, _ in seen])
    trace_result = parse_run(traced)[0]
    return {
        "runs": len(runs),
        "runs_reported": len(done),
        "failed_ratio": failed / attempted if attempted else None,
        "end_to_end": end_to_end,
        "per_layer": trace_result["metrics"] if trace_result else None,
    }


def bench_record(label: str, spec: dict, seed: int, workloads: dict, tier1: list[str]) -> dict:
    """The ``BENCH_<label>.json`` document; ``workloads`` maps a name to (untraced runs, traced run)."""
    envs = [parse_run(traced)[1] for _, traced in workloads.values()]
    return {
        "label": label,
        "seed": seed,
        "run_seconds": spec["run_seconds"],
        "environment": next((env for env in envs if env is not None), None),
        "tier1": parse_pytest(tier1),
        "workloads": {name: workload_record(spec, runs, traced) for name, (runs, traced) in workloads.items()},
    }


def run_tier1(checkout: Path) -> list[str]:
    environ = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(checkout / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(TIER1, cwd=checkout, capture_output=True, text=True, env=environ)
    return proc.stdout.splitlines()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Record a checkout's benchmark figures in BENCH_<label>.json.")
    parser.add_argument("checkout", type=Path)
    parser.add_argument("--label", required=True)
    parser.add_argument("--runs", type=int, default=5, help="untraced runs per workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=Path("."))
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    workloads = {}
    for entry in spec["workloads"]:
        name = entry["name"]
        runs = []
        for k in range(args.runs):
            runs.append(run_lines(checkout, name, args.seed, seconds, trace=0))
            print(f"{name}: run {k + 1}/{args.runs} {'done' if runs[-1] else 'FAILED'}", flush=True)
        traced = run_lines(checkout, name, args.seed, seconds, trace=1)
        print(f"{name}: traced run {'done' if traced else 'FAILED'}", flush=True)
        workloads[name] = (runs, traced)
    tier1 = run_tier1(checkout)
    record = bench_record(args.label, spec, args.seed, workloads, tier1)
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}: Tier-1 {record['tier1']}")
    complete = all(w["runs_reported"] == w["runs"] and w["per_layer"] is not None
                   for w in record["workloads"].values())
    return 0 if complete and record["tier1"] is not None else 1


if __name__ == "__main__":
    sys.exit(main())
