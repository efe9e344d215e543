"""Property-based fuzzing of the input boundaries.

Bad input at a boundary must fail with a ``ForecastError`` subclass, never
another exception.  Examples are derandomized and bounded, so every run
checks the same inputs.
"""

import json
from datetime import date, timedelta

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cryptoforecast import CheckpointError, ConfigError, ExperimentConfig, ForecastError, experiment, validate_config
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
