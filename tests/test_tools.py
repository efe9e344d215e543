"""Repository tools under tools/."""

import importlib.util
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
