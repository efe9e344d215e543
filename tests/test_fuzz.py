"""Property-based fuzzing of the input boundaries.

Bad input at a boundary must fail with a ``ForecastError`` subclass, never
another exception.  Examples are derandomized and bounded, so every run
checks the same inputs.
"""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cryptoforecast import CheckpointError, ConfigError, ExperimentConfig, experiment, validate_config
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
