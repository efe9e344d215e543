"""Repository tools under tools/."""

import argparse
import importlib.util
import json
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_artifacts = load_tool("compare_artifacts")


def write_tree(root: Path, files: dict):
    for name, data in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


def test_identical_trees_exit_zero(tmp_path, capsys):
    files = {"comparison.json": b"{}\n", "BTC_lstm/checkpoint.json": b"[1.0]\n"}
    write_tree(tmp_path / "a", files)
    write_tree(tmp_path / "b", files)
    assert compare_artifacts.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert "identical: 2 file(s) compared" in capsys.readouterr().out


def test_differences_listed_and_exit_nonzero(tmp_path, capsys):
    write_tree(tmp_path / "a", {"same.txt": b"x", "run/eval.json": b"0.1", "only_a.csv": b""})
    write_tree(tmp_path / "b", {"same.txt": b"x", "run/eval.json": b"0.2", "run/only_b.csv": b""})
    assert compare_artifacts.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == ["only in A only_a.csv", "only in B run/only_b.csv", "differs run/eval.json"]
    assert out[3] == "3 difference(s): 4 file(s) compared"


def test_missing_directory_exit_two(tmp_path, capsys):
    (tmp_path / "a").mkdir()
    assert compare_artifacts.main([str(tmp_path / "a"), str(tmp_path / "nope")]) == 2
    assert "not a directory" in capsys.readouterr().err


def test_json_difference_path_on_stderr(tmp_path, capsys):
    ckpt_a = {"version": 1, "layers": [{"u_c": [0.0] * 40}, {"u_c": [0.0] * 40}]}
    ckpt_b = {"version": 1, "layers": [{"u_c": [0.0] * 40}, {"u_c": [0.0] * 37 + [1e-17, 0.0, 5.0]}]}
    write_tree(tmp_path / "a", {"run/checkpoint.json": json.dumps(ckpt_a).encode(), "notes.txt": b"a"})
    write_tree(tmp_path / "b", {"run/checkpoint.json": json.dumps(ckpt_b).encode(), "notes.txt": b"b"})
    assert compare_artifacts.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "differs notes.txt",
        "differs run/checkpoint.json",
        "2 difference(s): 2 file(s) compared",
    ]
    assert captured.err.splitlines() == [
        *("--- A/notes.txt", "+++ B/notes.txt", "@@ -1 +1 @@", "-a", "+b"),  # a text file's unified diff
        "run/checkpoint.json: first difference at layers[1].u_c[37]",
    ]


def test_text_difference_shown_as_a_unified_diff_on_stderr(tmp_path, capsys):
    page = "usage: cryptoforecast prepare [-h] --config CONFIG [--seed SEED] [--out OUT]\n\noptions:\n"
    page += "  --config CONFIG  experiment config path\n  --seed SEED      override the master seed\n"
    page += "  --out OUT        override the output directory\n"
    lines = "".join(f"{k}\n" for k in range(100))
    a = {"help_prepare.txt": page.encode(), "long.txt": lines.encode(), "blob.bin": b"\xff\x00"}
    without_seed = page.replace(" [--seed SEED]", "").replace("  --seed SEED      override the master seed\n", "")
    b = {"help_prepare.txt": without_seed.encode(), "long.txt": lines.replace("\n", "x\n").encode()}
    b["blob.bin"] = b"\xff\x01"
    write_tree(tmp_path / "a", a)
    write_tree(tmp_path / "b", b)
    assert compare_artifacts.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    err = capsys.readouterr().err.splitlines()
    help_diff = [
        "--- A/help_prepare.txt",
        "+++ B/help_prepare.txt",
        "@@ -1,6 +1,5 @@",
        "-usage: cryptoforecast prepare [-h] --config CONFIG [--seed SEED] [--out OUT]",
        "+usage: cryptoforecast prepare [-h] --config CONFIG [--out OUT]",
        " ",
        " options:",
        "   --config CONFIG  experiment config path",
        "-  --seed SEED      override the master seed",
        "   --out OUT        override the output directory",
    ]
    # blob.bin is not UTF-8: named on stdout only; long.txt's diff is cut to 40 lines
    assert err[:10] == help_diff
    assert err[10:13] == ["--- A/long.txt", "+++ B/long.txt", "@@ -1,100 +1,100 @@"] and len(err) == 10 + 40


def test_first_json_difference_cases():
    first = compare_artifacts.first_json_difference
    assert first({"a": [1, 2.0], "n": float("nan")}, {"a": [1, 2.0], "n": float("nan")}) is None
    assert first({"a": 1}, {"a": 1.0}) == "a"
    assert first({"a": [1]}, {"a": [1, 2]}) == "a[1]"
    assert first({"a": 1}, {"a": 1, "b": {"c": 2}}) == "b"
    assert first({"x": {"y": True}}, {"x": {"y": 1}}) == "x.y"
    assert first(3, 4) == "(root)"


bench_ab = load_tool("bench_ab")


def test_bench_ab_summary_of_a_clear_gain():
    pairs = [(100.0 + k, 90.0 + k) for k in range(10)]  # change 10 lower in every pair
    s = bench_ab.summarize(pairs, "lower", 0.1)
    assert s["parent"] == {"q1": 102.25, "median": 104.5, "q3": 106.75}
    assert s["change"] == {"q1": 92.25, "median": 94.5, "q3": 96.75}
    assert s["parent_iqr"] == 4.5
    assert s["delta"] == -10.0
    assert (s["wins"], s["losses"], s["pairs"]) == (10, 0, 10)
    assert s["gain"]
    assert not bench_ab.summarize(pairs, "higher", 0.1)["gain"]


def test_bench_ab_gain_needs_nine_in_ten_wins_and_more_than_the_parent_iqr():
    eight_wins = [(100.0, 80.0)] * 8 + [(100.0, 120.0)] * 2
    assert bench_ab.summarize(eight_wins, "lower", 0.1)["wins"] == 8
    assert not bench_ab.summarize(eight_wins, "lower", 0.1)["gain"]
    nine_wins_one_tie = [(100.0, 80.0)] * 9 + [(100.0, 100.0)]
    s = bench_ab.summarize(nine_wins_one_tie, "lower", 0.1)
    assert (s["wins"], s["losses"], s["gain"]) == (9, 0, True)
    wide_parent = [(50.0 + 10 * k, 49.0 + 10 * k) for k in range(10)]  # 1 better, IQR 45
    s = bench_ab.summarize(wide_parent, "lower", 0.1)
    assert s["wins"] == 10 and s["parent_iqr"] == 45.0 and not s["gain"]
    s = bench_ab.summarize([(2.0, 3.0)], "higher", 0.1)
    assert s["parent"] == {"q1": 2.0, "median": 2.0, "q3": 2.0} and not s["gain"]
    s = bench_ab.summarize([(100.0, 80.0)] * 9, "lower", 0.1)  # won every pair, but fewer than ten
    assert (s["wins"], s["pairs"], s["gain"]) == (9, 9, False)


def test_bench_ab_worse_mirrors_gain():
    pairs = [(100.0 + k, 110.0 + k) for k in range(10)]  # change 10 higher in every pair
    s = bench_ab.summarize(pairs, "lower", 0.1)
    assert (s["wins"], s["losses"], s["gain"], s["worse"]) == (0, 10, False, True)
    s = bench_ab.summarize(pairs, "higher", 0.1)
    assert (s["gain"], s["worse"]) == (True, False)
    eight_losses = [(100.0, 120.0)] * 8 + [(100.0, 80.0)] * 2
    assert not bench_ab.summarize(eight_losses, "lower", 0.1)["worse"]
    nine_losses_one_tie = [(100.0, 120.0)] * 9 + [(100.0, 100.0)]
    assert bench_ab.summarize(nine_losses_one_tie, "lower", 0.1)["worse"]
    wide_parent = [(50.0 + 10 * k, 51.0 + 10 * k) for k in range(10)]  # 1 worse, IQR 45
    s = bench_ab.summarize(wide_parent, "lower", 0.1)
    assert s["losses"] == 10 and not s["worse"]
    s = bench_ab.summarize([(100.0, 120.0)] * 8 + [None, None], "lower", 0.1)
    assert (s["losses"], s["worse"]) == (8, False)
    s = bench_ab.summarize([(100.0, 120.0)] * 9, "lower", 0.1)  # lost every pair, but fewer than ten
    assert (s["losses"], s["pairs"], s["worse"]) == (9, 9, False)


def test_bench_ab_beyond_bound_reads_the_medians_against_the_metric_bound():
    # parent median 100 (IQR 2): a change median of 111 is beyond a 10% bound, not a 15% one
    pairs = [(99.0 + k % 3, 111.0) for k in range(10)]
    assert bench_ab.summarize(pairs, "lower", 0.1)["beyond_bound"]
    assert not bench_ab.summarize(pairs, "lower", 0.15)["beyond_bound"]
    assert not bench_ab.summarize(pairs, "higher", 0.1)["beyond_bound"]
    assert bench_ab.summarize([(100.0 - k % 3, 89.0) for k in range(10)], "higher", 0.1)["beyond_bound"]
    # worse in one pair only, but the medians set the flag, as the no-regression rule reads them
    one_loss = [(100.0, 100.0)] * 9 + [(100.0, 200.0)]
    s = bench_ab.summarize(one_loss, "lower", 0.1)
    assert (s["losses"], s["worse"], s["beyond_bound"]) == (1, False, False)


def test_bench_ab_unresolved_when_the_parent_spreads_wider_than_the_bound():
    # parent runs 80-120: IQR 20 of a median 100, wider than a 10% bound, narrower than 25%
    wide = [(p, 100.0) for p in (80.0, 90.0, 90.0, 90.0, 100.0, 100.0, 110.0, 110.0, 110.0, 120.0)]
    s = bench_ab.summarize(wide, "lower", 0.1)
    assert s["parent_iqr"] == 20.0 and s["unresolved"] and not s["beyond_bound"]
    assert not bench_ab.summarize(wide, "lower", 0.25)["unresolved"]
    # unless every change run beats every parent run, for either direction of better
    all_below = [(p, 79.0 - k) for k, (p, _) in enumerate(wide)]
    assert not bench_ab.summarize(all_below, "lower", 0.1)["unresolved"]
    assert bench_ab.summarize(all_below, "higher", 0.1)["unresolved"]
    one_overlaps = all_below[:9] + [(120.0, 80.5)]
    assert bench_ab.summarize(one_overlaps, "lower", 0.1)["unresolved"]


def test_bench_ab_counts_a_pair_with_a_failed_run_as_not_won(tmp_path, monkeypatch, capsys):
    # the change wins all 8 pairs that report; 2 pairs lose a run, so 8 of 10 pairs are won
    spec = {"run_seconds": 1, "end_to_end": [{"name": "run_wall_cal", "better": "lower", "bound": 0.15}]}
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(spec))
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append(checkout.name)
        pair = (len(calls) - 1) // 2
        if pair in (3, 7) and checkout.name == "change":
            return None
        value = 100.0 + pair if checkout.name == "parent" else 80.0
        return {"failed": 0, "metrics": {"run_wall_cal": {"value": value}}}

    monkeypatch.setattr(bench_ab, "run_once", run_once)
    assert bench_ab.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w", "--seed", "1"]) == 1
    out = capsys.readouterr().out
    assert "change better in 8/10 pairs (worse in 0, 2 failed); gain: no; worse: no;" in out
    assert "; beyond bound: no; unresolved: no" in out
    assert "2 pair(s) with a failed run" in out
    s = bench_ab.summarize([(100.0, 80.0)] * 8 + [None, None], "lower", 0.1)
    assert (s["pairs"], s["wins"], s["failed_pairs"], s["gain"]) == (10, 8, 2, False)
    assert s["parent"]["median"] == 100.0
    # below ten pairs no verdict is printed, however one-sided the pairs
    calls.clear()
    assert bench_ab.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w", "--seed", "1",
                          "--pairs", "3"]) == 0
    out = capsys.readouterr().out
    assert "change better in 3/3 pairs (worse in 0, 0 failed); too few pairs (3 < 10); beyond bound: no;" in out
    assert "gain:" not in out and "worse:" not in out


bench = load_tool("bench")


def result_line(values: dict, attempted=9, failed=0) -> str:
    metrics = {name: {"value": value, "unit": "x"} for name, value in values.items()}
    return json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics})


def canned_run(cal: float, rss: float = 50.0, setup: float = 0.2) -> list[str]:
    return ["workload train_small: 6 passes", "  run_wall_cal   4000 cal",
            result_line({"setup_s": setup, "run_wall_cal": cal, "peak_rss_mb": rss})]


def test_bench_record_from_canned_lines():
    spec = {"run_seconds": 30, "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "run_wall_cal", "unit": "cal", "better": "lower", "bound": 0.15},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]}
    env = {"git_sha": "abc", "numpy": "2.4.6"}
    traced = ["env " + json.dumps(env), "per-layer, per traced pass:",
              result_line({"cells.calls": 8000.0, "training.adam_step.s": 0.1})]
    runs = [canned_run(c) for c in (4100.0, 4000.0, 4300.0, 3900.0, 4200.0)]
    runs.append([])  # a run that printed nothing
    tier1 = ["....", "FAILED tests/test_x.py::test_y", "1 failed, 329 passed, 2 deselected in 127.31s (0:02:07)"]
    record = bench.bench_record("pr6", spec, 1, {"train_small": (runs, traced)}, tier1)

    assert record["label"] == "pr6" and record["seed"] == 1 and record["run_seconds"] == 30
    assert record["environment"] == env
    assert record["tier1"] == {"wall_s": 127.31, "summary": "1 failed, 329 passed, 2 deselected", "durations": {}}
    small = record["workloads"]["train_small"]
    assert (small["runs"], small["runs_reported"], small["failed_ratio"]) == (6, 5, 0.0)
    cal = small["end_to_end"]["run_wall_cal"]
    assert cal["values"] == [4100.0, 4000.0, 4300.0, 3900.0, 4200.0]
    assert (cal["q1"], cal["median"], cal["q3"]) == (4000.0, 4100.0, 4200.0)
    assert (cal["unit"], cal["better"]) == ("cal", "lower")
    assert small["end_to_end"]["peak_rss_mb"]["median"] == 50.0
    assert small["per_layer"] == {"cells.calls": {"value": 8000.0, "unit": "x"},
                                  "training.adam_step.s": {"value": 0.1, "unit": "x"}}


def test_bench_record_without_results():
    spec = {"run_seconds": 30, "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower"}]}
    record = bench.bench_record("x", spec, 2, {"score_ckpt": ([[], ["no json"]], [])}, ["collected 0 items"])
    assert record["environment"] is None and record["tier1"] is None
    score = record["workloads"]["score_ckpt"]
    assert (score["runs_reported"], score["failed_ratio"], score["per_layer"]) == (0, None, None)
    assert score["end_to_end"]["setup_s"]["median"] is None
    assert bench.parse_pytest(["== 3 passed in 1.50s =="]) == {"wall_s": 1.5, "summary": "3 passed", "durations": {}}


def test_parse_pytest_reads_the_slowest_durations():
    lines = [
        "........",
        "============================= slowest 5 durations ==============================",
        "51.70s call     tests/test_acceptance.py::test_criterion_6_training_converges[lstm]",
        "15.40s call     tests/test_acceptance.py::test_criterion_1_gradcheck",
        "1.25s setup    tests/test_acceptance.py::test_criterion_6_training_converges[lstm]",
        "0.90s teardown tests/test_fuzz.py::test_checkpoint_documents",
        "(2 durations < 0.005s hidden.  Use -vv to show these durations.)",
        "559 passed, 2 deselected in 99.83s (0:01:39)",
    ]
    assert bench.parse_pytest(lines) == {
        "wall_s": 99.83,
        "summary": "559 passed, 2 deselected",
        "durations": {
            "tests/test_acceptance.py::test_criterion_6_training_converges[lstm]": 52.95,
            "tests/test_acceptance.py::test_criterion_1_gradcheck": 15.4,
            "tests/test_fuzz.py::test_checkpoint_documents": 0.9,
        },
    }
    assert bench.TIER1[-1] == "--durations=5"


def printed_run(wall_s: float, projected: float, rss: float) -> list[str]:
    """An untraced train_paper run's output, printed as perfbench prints it."""
    metrics = [("setup_s", 0.25, "s"), ("run_wall_cal", 860.0, "cal"), ("run_wall_s", wall_s, "s"),
               ("calibration_unit_ms", 12.2, "ms"), ("score_windows_per_s", 1234.5, "1/s"),
               ("peak_rss_mb", rss, "MB"), ("train_windows_per_s", 456.789, "1/s"), ("val_loss", 0.00123457, "mse"),
               ("protocol_projected_min", projected, "min"), ("failed_ratio", 0.0, "ratio")]
    return (["env {}", "workload train_paper: 3 passes (0 traced), 27 operations attempted, 0 failed",
             "request cal per pass: [860.1, 859.9]", "end-to-end (gated: setup_s, run_wall_cal, peak_rss_mb):"]
            + [f"  {name:<44} {value:>14.6g} {unit}" for name, value, unit in metrics]
            + [result_line({"setup_s": 0.2512345, "run_wall_cal": 860.04321, "peak_rss_mb": rss})])


def test_bench_record_keeps_every_printed_end_to_end_metric():
    spec = {"run_seconds": 30, "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower"}, {"name": "run_wall_cal", "unit": "cal", "better": "lower"},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower"}]}
    runs = [printed_run(10.5, 74.0, 150.0), printed_run(10.25, 73.9, 151.0), printed_run(11.0, 74.2, 152.0)]
    # a traced run prints per-layer lines of the same shape; none of them is an end-to-end metric
    traced = ["per-layer, per traced pass:", "  cells.calls    8000 count", result_line({"cells.calls": 8000.0})]
    e2e = bench.bench_record("x", spec, 5, {"train_paper": (runs, traced)}, [])["workloads"]["train_paper"]["end_to_end"]

    assert list(e2e) == ["setup_s", "run_wall_cal", "peak_rss_mb", "run_wall_s", "calibration_unit_ms",
                         "score_windows_per_s", "train_windows_per_s", "val_loss", "protocol_projected_min",
                         "failed_ratio"]
    assert e2e["run_wall_cal"]["values"] == [860.04321] * 3  # gated: the result document's full precision
    assert e2e["run_wall_cal"]["better"] == "lower" and "better" not in e2e["run_wall_s"]
    assert e2e["run_wall_s"] == {"unit": "s", "values": [10.5, 10.25, 11.0], "q1": 10.375, "median": 10.5, "q3": 10.75}
    assert e2e["protocol_projected_min"]["median"] == 74.0 and e2e["protocol_projected_min"]["unit"] == "min"
    assert e2e["train_windows_per_s"]["values"] == [456.789] * 3 and e2e["val_loss"]["values"] == [0.00123457] * 3
    assert bench.printed_end_to_end(traced) == {}


def test_printed_end_to_end_reads_evaluate_percentiles_and_skips_failed_runs():
    printed = ["end-to-end (gated: setup_s):", "  evaluate_ms.p50   123.456 ms", "  evaluate_ms.p90   2e+03 ms",
               "  evaluate_calls    9 count"]
    assert bench.printed_end_to_end(printed + ["{}", "  after_the_block   1 s"]) == {
        "evaluate_ms.p50": (123.456, "ms"), "evaluate_ms.p90": (2000.0, "ms"), "evaluate_calls": (9.0, "count")}
    spec = {"run_seconds": 30, "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower"}]}
    failed = printed[:1] + ["  evaluate_ms.p50   999 ms", "  stray_metric   1 s"]  # printed, then no result document
    record = bench.workload_record(spec, [printed + [result_line({"setup_s": 0.3})], failed], [])
    assert record["runs_reported"] == 1
    assert list(record["end_to_end"]) == ["setup_s", "evaluate_ms.p50", "evaluate_ms.p90", "evaluate_calls"]
    assert record["end_to_end"]["evaluate_ms.p50"]["values"] == [123.456]


gate_set = load_tool("gate_set")


def test_gate_set_configs_are_valid_and_cover_the_gate_shapes():
    from cryptoforecast.experiment import validate_config

    configs = {name: validate_config(text) for name, text in gate_set.gate_configs().items()}
    assert set(configs) == {"all_quick", "all_paper", "all_quick3", "all_quick_b7", "all_quick_h53",
                            "all_paper_full", "all_quick_h53_full", "unpinned"}
    for name, config in configs.items():
        assert config.architectures == ("lstm", "gru", "bilstm") and config.epochs == (1 if name == "unpinned" else 2)
        assert [a.symbol for a in config.assets] == ["BTC", "ETH", "LTC"]
    shapes = {name: (c.lookback, c.hidden_units, c.layers, c.batch_size) for name, c in configs.items()}
    assert shapes == {"all_quick": (20, 8, 2, 8), "all_paper": (60, 100, 2, 32), "all_quick3": (20, 8, 3, 8),
                      "all_quick_b7": (20, 8, 2, 7), "all_quick_h53": (20, 53, 2, 8),
                      "all_paper_full": (60, 100, 2, 32), "all_quick_h53_full": (20, 53, 2, 8),
                      "unpinned": (60, 16, 2, 32)}
    for name, subdir in (("all_paper_full", "full/"), ("all_quick_h53_full", "full/"), ("unpinned", "rows200/")):
        assert all(str(a.csv_path).startswith(subdir) for a in configs[name].assets)
    assert gate_set.unpinned_steps(Path("inputs")) == [("train_unpinned", (
        "train", "--config", str(Path("inputs", "unpinned.cfg")), "--asset", "BTC", "--arch", "lstm",
        "--out", "train_unpinned"))]


def test_gate_set_covers_every_report_path_of_the_cli():
    """Each command that prints or writes a report runs with ``--out`` and, for the reports, without it."""
    steps = dict(gate_set.gate_steps(Path("checkout"), Path("inputs")))
    assert len(steps) == 22 and steps["prepare"][-2:] == ("--out", "prepare")
    assert "--out" not in steps["prepare_no_out"] and steps["prepare_no_out"][:3] == steps["prepare"][:3]
    assert steps["train"] == ("train", "--config", str(Path("inputs", "all_quick.cfg")), "--asset", "BTC",
                              "--arch", "gru", "--out", "train")
    assert steps["evaluate_BTC_bilstm_no_out"] == steps["evaluate_BTC_bilstm"][:-2]
    for arch in ("lstm", "gru", "bilstm"):  # the odd-width checkpoints, scored on the whole BTC fixture
        assert steps[f"evaluate_h53_BTC_{arch}"] == (
            "evaluate", "--config", str(Path("inputs", "all_quick_h53_full.cfg")), "--asset", "BTC",
            "--checkpoint", f"all_quick_h53/BTC_{arch}/checkpoint.json", "--out", f"evaluate_h53/BTC_{arch}")
    assert all(argv[-2] == "--out" for name, argv in steps.items() if not name.endswith("_no_out"))


def test_gate_set_pins_the_help_of_the_program_and_of_every_command():
    from cryptoforecast.cli import build_parser

    commands = next(a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert dict(gate_set.help_steps()) == {"help": ("--help",), **{f"help_{c}": (c, "--help") for c in commands}}


def test_gate_set_rejects_bad_arguments(tmp_path, capsys):
    assert gate_set.main([]) == 2
    assert gate_set.main([str(tmp_path), str(tmp_path / "out")]) == 2  # no src/cryptoforecast
    assert "has no src/cryptoforecast" in capsys.readouterr().err
    assert gate_set.main([str(TOOLS.parent), str(tmp_path)]) == 2  # the output tree exists
    assert "already exists" in capsys.readouterr().err


protocol = load_tool("protocol")


def test_protocol_records_one_run_of_the_checkouts_paper_config(tmp_path, monkeypatch, capsys):
    from test_acceptance import MAPE_BANDS, NORM_RMSE_BAND

    checkout = tmp_path / "checkout"
    (checkout / "configs").mkdir(parents=True)
    (checkout / "fixtures").mkdir()
    for name in ("src", "tests"):
        (checkout / name).symlink_to(TOOLS.parent / name)
    lines = (TOOLS.parent / "fixtures" / "btc_usd.csv").read_text().splitlines(keepends=True)
    (checkout / "fixtures" / "btc_usd.csv").write_text("".join(lines[:201]))
    (checkout / "configs" / "paper.cfg").write_text(
        "lookback = 10\nhidden_units = 4\nlayers = 1\nepochs = 1\narchitectures = lstm, gru\n"
        "[asset.BTC]\ncsv = ../fixtures/btc_usd.csv\n"
    )
    monkeypatch.chdir(tmp_path)
    assert protocol.main([str(checkout), "--label", "t"]) == 0
    record = json.loads((tmp_path / "PROTOCOL_t.json").read_text())
    assert record["label"] == "t" and record["failures"] == [] and record["process"]["exit_code"] == 0
    assert record["process"]["wall_s"] > 0 and record["process"]["cpu_s"] > 0 and record["process"]["max_rss_mb"] > 0
    assert record["environment"]["threads"] == dict.fromkeys(gate_set.THREAD_VARS, "1")
    assert {"numpy", "blas", "nproc"} <= set(record["environment"])
    assert len(record["comparison_sha256"]) == 64
    assert [(r["asset"], r["cell_kind"]) for r in record["runs"]] == [("BTC", "lstm"), ("BTC", "gru")]
    for run in record["runs"]:
        assert (run["rmse_band"], run["mape_band"]) == (NORM_RMSE_BAND, MAPE_BANDS["BTC"])
        assert run["inside"] == (run["normalized_rmse"] <= NORM_RMSE_BAND and run["price_mape"] <= MAPE_BANDS["BTC"])
    assert record["all_inside"] == all(run["inside"] for run in record["runs"])
    assert capsys.readouterr().out.splitlines()[-1].startswith("wrote PROTOCOL_t.json")


def test_protocol_rejects_a_checkout_it_cannot_run(tmp_path, capsys):
    assert protocol.main([str(tmp_path), "--label", "t"]) == 2
    assert "has no src/cryptoforecast" in capsys.readouterr().err
    tests = tmp_path / "tests" / "test_acceptance.py"
    for path in (tmp_path / "src" / "cryptoforecast", tmp_path / "configs" / "paper.cfg", tests):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.touch()
    tests.write_text("NORM_RMSE_BAND = 0.025\n")
    assert protocol.main([str(tmp_path), "--label", "t"]) == 2
    assert "assigns no MAPE_BANDS" in capsys.readouterr().err


unreached = load_tool("unreached")

SMALL_SOURCE = '''"""A module docstring."""
import math


def sign(x):
    """A function docstring."""
    if x >= 0:
        result = 1
    else:
        result = -1
    return result


VALUE = sign(math.pi)
'''


def test_unreached_lists_the_else_branch_that_never_ran(tmp_path):
    path = tmp_path / "small.py"
    path.write_text(SMALL_SOURCE)
    # the definition, the import and both docstrings are not listed
    assert unreached.statements(SMALL_SOURCE) == [7, 8, 10, 11, 14]
    hits = set()
    outer = sys.gettrace()  # the tool's own tracer, when the suite runs under it
    sys.settrace(unreached.line_tracer(str(tmp_path), hits))
    try:
        exec(compile(SMALL_SOURCE, str(path), "exec"), {})
    finally:
        sys.settrace(outer)
    assert unreached.unreached(path, hits) == [(10, "result = -1")]


def test_unreached_rejects_bad_arguments(tmp_path, capsys):
    assert unreached.main([]) == 2
    assert unreached.main([str(tmp_path)]) == 2  # no src/cryptoforecast
    assert "has no src/cryptoforecast" in capsys.readouterr().err
