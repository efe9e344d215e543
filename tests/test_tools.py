"""Repository tools under tools/."""

import importlib.util
import json
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
    assert captured.err.splitlines() == ["run/checkpoint.json: first difference at layers[1].u_c[37]"]


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
    s = bench_ab.summarize(pairs, "lower")
    assert s["parent"] == {"q1": 102.25, "median": 104.5, "q3": 106.75}
    assert s["change"] == {"q1": 92.25, "median": 94.5, "q3": 96.75}
    assert s["parent_iqr"] == 4.5
    assert s["delta"] == -10.0
    assert (s["wins"], s["losses"], s["pairs"]) == (10, 0, 10)
    assert s["gain"]
    assert not bench_ab.summarize(pairs, "higher")["gain"]


def test_bench_ab_gain_needs_nine_in_ten_wins_and_more_than_the_parent_iqr():
    eight_wins = [(100.0, 80.0)] * 8 + [(100.0, 120.0)] * 2
    assert bench_ab.summarize(eight_wins, "lower")["wins"] == 8
    assert not bench_ab.summarize(eight_wins, "lower")["gain"]
    nine_wins_one_tie = [(100.0, 80.0)] * 9 + [(100.0, 100.0)]
    s = bench_ab.summarize(nine_wins_one_tie, "lower")
    assert (s["wins"], s["losses"], s["gain"]) == (9, 0, True)
    wide_parent = [(50.0 + 10 * k, 49.0 + 10 * k) for k in range(10)]  # 1 better, IQR 45
    s = bench_ab.summarize(wide_parent, "lower")
    assert s["wins"] == 10 and s["parent_iqr"] == 45.0 and not s["gain"]
    s = bench_ab.summarize([(2.0, 3.0)], "higher")
    assert s["parent"] == {"q1": 2.0, "median": 2.0, "q3": 2.0} and s["gain"]
