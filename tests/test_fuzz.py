"""Property-based fuzzing of the input boundaries.

Bad input at a boundary must fail with a ``ForecastError`` subclass, never
another exception.  Examples are derandomized and bounded, so every run
checks the same inputs.
"""

import contextlib
import io
import json
import tempfile
from datetime import date, timedelta
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cryptoforecast import (
    CheckpointError, ConfigError, ExperimentConfig, ForecastError, cli, experiment, validate_config,
)
from cryptoforecast.experiment import AssetSpec, PreparedAsset
from cryptoforecast.network import ArchSpec, ModelParams, init_params, model_from_dict, model_to_dict

DOCUMENTS = {
    kind: json.dumps(model_to_dict(init_params(ArchSpec(kind, layers=2, hidden_units=2), seed=1)))
    for kind in ("lstm", "gru", "bilstm")
}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=5,
)


def node_paths(node, path=()):
    """``(path, is a number in an array)`` of every node below the root, the root itself included."""
    yield path, False
    if isinstance(node, dict):
        for key, value in node.items():
            yield from node_paths(value, (*path, key))
    elif isinstance(node, list):
        for k, value in enumerate(node):
            if isinstance(value, (dict, list)):
                yield from node_paths(value, (*path, k))
            else:
                yield (*path, k), True


@st.composite
def junk_documents(draw):
    """A small v1 document with one node replaced by a JSON value of another type."""
    doc = json.loads(DOCUMENTS[draw(st.sampled_from(sorted(DOCUMENTS)))])
    paths = list(node_paths(doc))
    structure = [path for path, element in paths if not element]
    elements = [path for path, element in paths if element]
    path = draw(st.sampled_from(structure) | st.sampled_from(elements))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]] if path else doc
    junk = draw(JSON_VALUES.filter(lambda value: type(value) is not type(old)))
    if not path:
        return junk
    parent[path[-1]] = junk
    return doc


def with_seed(seed):
    doc = json.loads(DOCUMENTS["lstm"])
    doc["seed"] = seed
    return doc


@settings(derandomize=True, max_examples=400, deadline=None)
@given(junk_documents())
@example(with_seed([1]))  # each of these seeds was loaded into the model as is
@example(with_seed({"": 1}))
@example(with_seed(True))
@example(with_seed(1.0))
def test_checkpoint_with_one_junk_node_loads_or_raises_checkpoint_error(doc):
    try:
        model = model_from_dict(doc)
    except CheckpointError:
        return
    assert isinstance(model, ModelParams)
    assert model.seed is None or type(model.seed) is int


CONFIG_VALUES = st.sampled_from(
    ["0", "1", "-1", "2.5", "0.5", "nan", "inf", "-inf", "1e400", "", "lstm, gru", "GRU", "x.csv", "9" * 60]
) | st.text(max_size=8)

CONFIG_LINES = st.one_of(
    st.builds("{} = {}".format, st.sampled_from([*experiment._KEYS, "csv"]), CONFIG_VALUES),
    st.builds("[asset.{}]".format, st.text(max_size=4)),
    st.sampled_from(["[asset.BTC]", "csv = x.csv", "[assets]", "[", "=", "# comment"]),
    st.text(max_size=12),
)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.lists(CONFIG_LINES, max_size=8))
def test_config_text_validates_or_raises_config_error(lines):
    """Drawn known keys with drawn values, section headers and raw text: a rule whose type does not
    match its key's parser would raise a ``TypeError`` here."""
    try:
        config = validate_config("\n".join(lines))
    except ConfigError:
        return
    assert isinstance(config, ExperimentConfig)


CSV_HEADERS = st.sampled_from(
    [["Date", "Open", "Close"], ["Close", "Date"], ["Date", "Close", "Close"], ["date", "close"]]
)
JUNK_HEADERS = st.lists(st.sampled_from(["Date", "Close", ""]) | st.text(max_size=5), max_size=3)
JUNK_DATES = st.text(max_size=6) | st.sampled_from(
    ["", "2020-02-30", "2020/01/05", "20200105", " 2020-01-05 ", "2020-1-5"]
)
PRICES = st.sampled_from(["1", "2.5", "100", "1e6", " 3 ", '"4"']) | st.floats(0.01, 1e6).map(repr)
JUNK_PRICES = st.sampled_from(["0", "-1", "", "null", "nan", "inf", "-inf", "1e400", "1e-320"]) | st.text(max_size=5)


@st.composite
def csv_files(draw):
    """Bytes of a drawn price CSV.  Mostly a well-formed export of consecutive days, so that most draws
    reach gap repair, the split and windowing; now and then a junk header, a repeated, skipped or
    reversed day, a junk date or price cell, a raw line, an invalid UTF-8 tail."""

    def rare(n):  # about one in n: not a bound of the range, which hypothesis draws more often
        return draw(st.integers(0, n - 1)) == n // 2

    header = draw(JUNK_HEADERS if rare(8) else st.just(["Date", "Close"]) if draw(st.booleans()) else CSV_HEADERS)
    day, lines = date(2020, 1, 1), [",".join(header)]
    for _ in range(draw(st.integers(0, 16))):
        day += timedelta(days=draw(st.sampled_from([0, -1, 2])) if rare(20) else 1)
        day_cell = draw(JUNK_DATES) if rare(40) else day.isoformat()
        cells = (day_cell if name == "Date" else draw(JUNK_PRICES if rare(10) else PRICES) for name in header)
        lines.append(",".join(cells))
    if rare(4):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.text(max_size=12)))  # a raw line, blank ones too
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(lines) + draw(st.sampled_from(["", end]))
    return text.encode() + (draw(st.sampled_from([b"\xff", b"\xc3"])) if rare(10) else b"")


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "prices.csv"


@settings(derandomize=True, max_examples=400, deadline=None)
@given(data=csv_files(), lookback=st.integers(1, 4))
def test_csv_text_prepares_or_raises_forecast_error(csv_path, data, lookback):
    """Drawn headers, dates, price cells and line endings through ``prepare_asset``: ingest, gap repair,
    split, scaling and windowing either prepare the asset or raise a ``ForecastError``."""
    csv_path.write_bytes(data)
    config = ExperimentConfig(assets=(AssetSpec("TST", csv_path),), lookback=lookback, out_dir=csv_path.parent)
    try:
        prepared = experiment.prepare_asset(config, config.assets[0])
    except ForecastError:
        return
    assert isinstance(prepared, PreparedAsset)
    assert len(prepared.train_windows) >= 1 and len(prepared.test_windows) >= 1


@pytest.fixture(scope="module")
def cli_tree(tmp_path_factory):
    """Files the drawn command lines name: a valid tiny config and one whose lookback outruns its 60 days,
    checkpoints of each kind and one taking two inputs per step, a regular file, a binary file, a
    directory, and an output directory whose run directories and checkpoint paths are taken."""
    root = tmp_path_factory.mktemp("cli")
    days = (date(2022, 1, 1) + timedelta(days=k) for k in range(60))
    prices = "".join(f"{d},{50 + k + k % 3 / 2}\n" for k, d in enumerate(days))  # no test price is the train minimum
    (root / "prices.csv").write_text("Date,Close\n" + prices)
    for name, lookback in (("exp.cfg", 3), ("short.cfg", 50)):
        (root / name).write_text(
            f"lookback = {lookback}\nhidden_units = 2\nepochs = 1\narchitectures = gru\nout_dir = {root / 'out'}\n"
            "[asset.TST]\ncsv = prices.csv\n"
        )
    for name, arch in (
        ("lstm.json", ArchSpec("lstm", layers=1, hidden_units=2)),
        ("bilstm.json", ArchSpec("bilstm", layers=1, hidden_units=2)),
        ("gru.json", ArchSpec("gru", layers=2, hidden_units=2)),
        ("two_inputs.json", ArchSpec("lstm", layers=1, hidden_units=2, input_dim=2)),
    ):
        (root / name).write_text(json.dumps(model_to_dict(init_params(arch, seed=1))))
    (root / "plain.txt").write_text("x\n")
    (root / "binary.bin").write_bytes(b"\xff\xfe")
    (root / "adir").mkdir()
    (root / "taken" / "TST_lstm" / "checkpoint.json").mkdir(parents=True)
    (root / "taken" / "TST_gru").write_text("x\n")
    return root


OTHER_PATHS = st.sampled_from(["missing.cfg", "short.cfg", "adir", "plain.txt", "binary.bin", "prices.csv"])


@st.composite
def cli_argvs(draw):
    """argv of one command.  A path is written ``@NAME``, a file of ``cli_tree``; ``@new`` is a missing
    directory.  ``--out`` is a missing directory (or one two levels below), an existing one, a regular
    file, a path below a regular file, or a directory whose run directories are taken."""
    command = draw(st.sampled_from(["prepare", "train", "evaluate", "run", "gradcheck"]))
    argv = [command]
    if command == "gradcheck":  # at most one tiny trial per kind
        for flag, values in (("--trials", [1, 1, 1, 0, -1]), ("--max-hidden", [2, 2, 1]), ("--max-window", [3, 3, 2])):
            argv += [flag, str(draw(st.sampled_from(values)))]
        for flag, values in (
            ("--seed", st.integers(-1, 2**70)),
            ("--epsilon", st.sampled_from(["1e-5", "1e-3", "0", "-1", "nan", "inf"])),
            ("--threshold", st.sampled_from(["1e-4", "1e-30", "0", "nan", "inf"])),
            ("--cell", st.sampled_from(["lstm", "gru", "bilstm"])),
        ):
            if draw(st.booleans()):
                argv += [flag, str(draw(values))]
        return argv
    argv += ["--config", "@" + draw(st.just("exp.cfg") | OTHER_PATHS)]
    if command in ("train", "run") and draw(st.booleans()):
        argv += ["--seed", str(draw(st.integers(-(2**70), 2**70)))]
    if draw(st.booleans()):
        argv += ["--out", draw(st.sampled_from(["@new", "@new/a/b", "@adir", "@plain.txt", "@plain.txt/a", "@taken"]))]
    if command in ("train", "evaluate"):
        argv += ["--asset", draw(st.just("TST") | st.sampled_from(["XXX", ""]))]
    if command == "train":
        argv += ["--arch", draw(st.sampled_from(["lstm", "gru", "bilstm"]))]
    if command == "evaluate":
        names = st.sampled_from(["lstm.json", "bilstm.json", "gru.json", "two_inputs.json"]) | OTHER_PATHS
        argv += ["--checkpoint", "@" + draw(names)]
    return argv


@settings(derandomize=True, max_examples=300, deadline=None)
@given(cli_argvs())
@example(["evaluate", "--config", "@exp.cfg", "--asset", "TST", "--checkpoint", "@two_inputs.json"])
def test_cli_argv_succeeds_or_exits_two_with_forecast_error(cli_tree, argv):
    """Whatever the paths and flag values, ``cli.main`` returns 0, or 2 after printing a ``ForecastError``;
    ``gradcheck`` may return 1 for gradients over its threshold and ``run`` for a recorded failed run."""
    new = Path(tempfile.mkdtemp(dir=cli_tree)) / "new"
    argv = [str(new) + a[4:] if a.startswith("@new") else str(cli_tree / a[1:]) if a[:1] == "@" else a for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code == 0 or (code == 2 and err.getvalue().startswith("error: ")) or (
        code == 1 and argv[0] in ("gradcheck", "run")
    ), (code, err.getvalue())
