#!/usr/bin/env python3
"""Run one checkout's full protocol once and record it in ``PROTOCOL_<label>.json``.

Usage::

    python tools/protocol.py CHECKOUT --label LABEL

Runs ``python -m cryptoforecast.cli run --config configs/paper.cfg`` of
CHECKOUT's ``src/`` in one fresh process, with the BLAS thread variables
set to one thread as ``tools/gate_set.py`` sets them, and its artifacts in
a temporary directory.  It writes ``PROTOCOL_<label>.json`` into the
current directory, holding:

* the run's exit code, wall time, CPU time and max RSS (``os.wait4``);
* the environment the bits depend on: numpy version, BLAS build and the
  thread variables, read in a process started with the same environment;
* the sha256 of the run's ``comparison.json``;
* per run, its normalized RMSE and price MAPE against the criterion-7
  bands, read from CHECKOUT's ``tests/test_acceptance.py``.

Exit status is 0 when the run exited 0, 1 when it did not (its stderr's
tail is printed, and the record is written if ``comparison.json`` was), 2
on bad arguments.  A run outside its band is recorded, not an error.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from gate_set import THREAD_VARS  # noqa: E402

BANDS = ("NORM_RMSE_BAND", "MAPE_BANDS")  # criterion 7's assignments in tests/test_acceptance.py
_ENV_PROBE = """import json, os, numpy as np
blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
                  "threads": {k: os.environ.get(k) for k in %r}, "nproc": len(os.sched_getaffinity(0))}))
""" % (THREAD_VARS,)


def read_bands(test_module: Path) -> dict:
    """``{name: value}`` of the band constants that ``test_module`` assigns at its top level."""
    bands = {}
    for node in ast.parse(test_module.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            if node.targets[0].id in BANDS:
                bands[node.targets[0].id] = ast.literal_eval(node.value)
    missing = [name for name in BANDS if name not in bands]
    if missing:
        raise ValueError(f"{test_module} assigns no {', '.join(missing)}")
    return bands


def band_rows(comparison: dict, bands: dict) -> list[dict]:
    """One entry per compared run: its two band metrics, their ceilings, and whether it is inside both."""
    rows = []
    for row in comparison["rows"]:
        rmse, mape = row["normalized"]["rmse"], row["price"]["mape"]
        rmse_band, mape_band = bands["NORM_RMSE_BAND"], bands["MAPE_BANDS"].get(row["asset"])
        inside = rmse <= rmse_band and mape_band is not None and mape <= mape_band
        rows.append({"asset": row["asset"], "cell_kind": row["cell_kind"], "normalized_rmse": rmse,
                     "rmse_band": rmse_band, "price_mape": mape, "mape_band": mape_band, "inside": inside})
    return rows


def run_timed(command: list[str], env: dict, cwd: Path, stderr_path: Path) -> dict:
    """Run ``command`` to its end; its exit code, wall time and ``os.wait4`` resource use."""
    start = time.perf_counter()
    with open(stderr_path, "wb") as stderr:
        proc = subprocess.Popen(command, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=stderr)
        _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen must not wait again
    return {
        "exit_code": proc.returncode,
        "wall_s": round(wall, 3),
        "cpu_s": round(usage.ru_utime + usage.ru_stime, 3),
        "max_rss_mb": round(usage.ru_maxrss / 1024, 1),  # ru_maxrss is in KiB on Linux
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout")
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    checkout = Path(args.checkout).resolve()
    config = checkout / "configs" / "paper.cfg"
    tests = checkout / "tests" / "test_acceptance.py"
    for path in (checkout / "src" / "cryptoforecast", config, tests):
        if not path.exists():
            print(f"error: {checkout} has no {path.relative_to(checkout)}", file=sys.stderr)
            return 2
    try:
        bands = read_bands(tests)
    except (SyntaxError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), **dict.fromkeys(THREAD_VARS, "1")}
    probe = subprocess.run([sys.executable, "-c", _ENV_PROBE], env=env, capture_output=True, text=True, check=True)
    record = {"label": args.label, "config": "configs/paper.cfg", "environment": json.loads(probe.stdout)}
    with tempfile.TemporaryDirectory(prefix="protocol-") as tmp:
        out = Path(tmp) / "run"
        command = [sys.executable, "-m", "cryptoforecast.cli", "run", "--config", str(config), "--out", str(out)]
        record["process"] = run_timed(command, env, checkout, Path(tmp) / "stderr.txt")
        if record["process"]["exit_code"] != 0:
            print((Path(tmp) / "stderr.txt").read_text()[-4000:], file=sys.stderr)
        if not (out / "comparison.json").is_file():
            return 1
        data = (out / "comparison.json").read_bytes()
    record["comparison_sha256"] = hashlib.sha256(data).hexdigest()
    comparison = json.loads(data)
    record["failures"] = comparison["failures"]
    record["runs"] = band_rows(comparison, bands)
    record["all_inside"] = all(run["inside"] for run in record["runs"]) and not comparison["failures"]
    path = Path(f"PROTOCOL_{args.label}.json")
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    for run in record["runs"]:
        verdict = "inside" if run["inside"] else "OUTSIDE"
        print(f"{run['asset']}/{run['cell_kind']}: rmse {run['normalized_rmse']:.4f} (<= {run['rmse_band']}) "
              f"mape {run['price_mape']:.2f}% (<= {run['mape_band']}) {verdict}")
    print(f"wrote {path} ({record['process']['wall_s']:.0f} s)")
    return 1 if record["process"]["exit_code"] != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
