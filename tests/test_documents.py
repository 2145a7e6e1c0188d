"""Property tests: random JSON documents into every document parser.

Each parser either returns a usable object or raises its module's error
type, and the CLI maps that error to exit code 1. Documents are either
random JSON values or a valid document with one node replaced by a random
value or removed, so the checks behind the first key lookup are reached.
"""

import csv
import json
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from electre_linkage.cli import ConfigError, build_parser, load_config, main
from electre_linkage.core import ElectreModel, ModelError, classify_batch
from electre_linkage.fellegi_sunter import FsError, FsModel, fs_decide
from electre_linkage.ingest import IngestError, LinkageSchema, load_table
from electre_linkage.metrics import COMPARATOR_KINDS, ComparatorError, make_comparator

DATA = Path(__file__).resolve().parent.parent / "data"

SETTINGS = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# JSON integers have no size limit: those beyond 2**1024 overflow a float
huge_integers = st.integers(2**1024, 2**1100) | st.integers(-(2**1100), -(2**1024))

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | huge_integers | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=10,
)


@st.composite
def one_node_changed(draw, doc):
    """doc with one node, found by a random walk from the root, replaced or removed."""
    if not isinstance(doc, (dict, list)) or not doc or draw(st.integers(0, 3)) == 0:
        return draw(json_values)
    doc = list(doc) if isinstance(doc, list) else dict(doc)
    key = draw(st.sampled_from(sorted(doc) if isinstance(doc, dict) else range(len(doc))))
    if draw(st.integers(0, 4)) == 0:
        del doc[key]
    else:
        doc[key] = draw(one_node_changed(doc[key]))
    return doc


def documents(valid):
    return json_values | one_node_changed(valid)


TOY_SCHEMA = {
    "id_field": "IDENTIFIER",
    "compared_fields": [
        {"field": "NAME", "comparator": "jaro_winkler"},
        {"field": "ADDRESS", "comparator": {"kind": "jaro_winkler", "prefix_scale": 0.1,
                                            "prefix_cap": 4}},
        {"field": "AGE", "comparator": {"kind": "absolute_difference_normalized",
                                        "cap": 10}},
    ],
    "missing_tokens": ["", "NA"],
    "uppercase": True,
    "delimiter": ",",
}

MODEL = {
    "criteria": [
        {"name": "NAME", "direction": "gain", "weight": 1.0, "q": 0.05, "p": 0.2, "v": None},
        {"name": "AGE", "direction": "cost", "weight": 2.0, "q": 0.0, "p": 0.1, "v": 0.5},
    ],
    "profiles": [[0.45, 0.8], [0.8, 0.45]],
    "lambda": 0.6,
    "epsilon": 0.01,
}

FS_MODEL = {
    "m_probs": [0.9, 0.8],
    "u_probs": [0.1, 0.3],
    "agreement_thresholds": [0.88, 0.88],
    "lower": -1.0,
    "upper": 2.0,
}

CONFIG = {
    "dataset_a": str(DATA / "toy_a.csv"),
    "dataset_b": str(DATA / "toy_b.csv"),
    "schema": TOY_SCHEMA,
    "label_policy": "two_class",
    "weights": [1.0, 1.0, 1.0],
    "calibration": {"epsilon": 0.01, "q_fraction": 0.05, "p_fraction": 0.15,
                    "grid_step": 0.05, "procedure": "pessimistic"},
    "split": {"train_fraction": 0.5, "seed": 0},
    "output_dir": "out",
}


@SETTINGS
@given(documents(MODEL))
def test_model_document(doc):
    try:
        model = ElectreModel.from_json(json.dumps(doc))
    except ModelError:
        return
    classify_batch(model, np.full((1, model.m), 0.5))


@SETTINGS
@given(documents(FS_MODEL))
def test_fs_model_document(doc):
    try:
        model = FsModel.from_json(json.dumps(doc))
    except FsError:
        return
    fs_decide(model, np.full((1, model.field_count), 0.5))


# each number node of MODEL and FS_MODEL, by its path in the messages
MODEL_NUMBERS = {
    **{f"criteria[{i}].{key}": ("criteria", i, key)
       for i in range(2) for key in ("weight", "q", "p", "v")},
    **{f"profiles[{i}][{j}]": ("profiles", i, j) for i in range(2) for j in range(2)},
    "lambda": ("lambda",), "epsilon": ("epsilon",),
}
FS_NUMBERS = {
    **{f"{key}[{i}]": (key, i) for key in ("m_probs", "u_probs", "agreement_thresholds")
       for i in range(2)},
    "lower": ("lower",), "upper": ("upper",),
}
CONFIG_NUMBERS = {
    **{f"calibration.{key}": ("calibration", key)
       for key in ("epsilon", "q_fraction", "p_fraction", "grid_step")},
    "split.train_fraction": ("split", "train_fraction"),
    **{f"weights[{i}]": ("weights", i) for i in range(3)},
}
not_numbers = (st.text(max_size=6) | st.booleans() | st.lists(st.integers(), max_size=2)
               | st.dictionaries(st.text(max_size=3), st.integers(), max_size=2)
               | st.sampled_from([float("nan"), 10**400]))


def replaced(doc, keys, value):
    """A deep copy of doc with the node at keys set to value."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return doc


def parse_config(text):
    """The run config that `ingest --config` reads from a file of text."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(text, encoding="utf-8")
        return load_config(build_parser().parse_args(["ingest", "--config", str(path)]))


@pytest.mark.parametrize("parse, error, valid, numbers", [
    (ElectreModel.from_json, ModelError, MODEL, MODEL_NUMBERS),
    (FsModel.from_json, FsError, FS_MODEL, FS_NUMBERS),
    (parse_config, ConfigError, CONFIG, CONFIG_NUMBERS),
], ids=["model", "fs_model", "config"])
@SETTINGS
@given(data=st.data())
def test_a_value_of_another_type_is_named_by_its_path(parse, error, valid, numbers, data):
    path = data.draw(st.sampled_from(sorted(numbers)))
    value = data.draw(not_numbers | st.none() if not path.endswith(".v") else not_numbers)
    with pytest.raises(error, match=rf"^malformed [a-z ]*document: {re.escape(path)}: "
                                    r"expected a (finite )?number, got "):
        parse(json.dumps(replaced(valid, numbers[path], value)))


def parse_schema(text):
    return LinkageSchema.from_dict(json.loads(text))


@pytest.mark.parametrize("parse, error, valid, objects", [
    (ElectreModel.from_json, ModelError, MODEL, {"": (), "criteria[0]": ("criteria", 0),
                                                 "criteria[1]": ("criteria", 1)}),
    (FsModel.from_json, FsError, FS_MODEL, {"": ()}),
    (parse_schema, IngestError, TOY_SCHEMA, {
        "": (), **{f"compared_fields[{i}]": ("compared_fields", i) for i in range(3)},
        **{f"compared_fields[{i}].comparator": ("compared_fields", i, "comparator")
           for i in (1, 2)}}),
    (parse_config, ConfigError, CONFIG, {"": (), "calibration": ("calibration",),
                                         "split": ("split",)}),
], ids=["model", "fs_model", "schema", "config"])
@SETTINGS
@given(data=st.data())
def test_an_unknown_key_is_refused(parse, error, valid, objects, data):
    """A key the document's writer does not write, at any level, is refused with the
    key and the path of its object in the message."""
    path = data.draw(st.sampled_from(sorted(objects)))
    node = valid
    for key in objects[path]:
        node = node[key]
    key = data.draw(st.text(max_size=6).filter(lambda k: k not in node))
    doc = replaced(valid, (*objects[path], key), data.draw(json_values))
    where = f"{re.escape(path)}: " if path else ""
    with pytest.raises(error, match=rf"^malformed [a-z ]*document: {where}"
                                    rf"unknown key {re.escape(repr(key))}$"):
        parse(json.dumps(doc))


@pytest.mark.parametrize("doc, message", [
    ({**MODEL, "lamda": 0.7}, "malformed model document: unknown key 'lamda'"),
    ({**MODEL, "criteria": [{**MODEL["criteria"][0], "wieght": 2}]},
     "malformed model document: criteria[0]: unknown key 'wieght'"),
    ({**MODEL, "criteria": [MODEL["criteria"][0], {**MODEL["criteria"][1], "weight": "1"}]},
     "malformed model document: criteria[1].weight: expected a finite number, got '1'"),
    ({**MODEL, "profiles": [[None, 0.8], [0.8, 0.45]]},
     "malformed model document: profiles[0][0]: expected a finite number, got None"),
    ({**MODEL, "criteria": [MODEL["criteria"][0], 7]},
     "malformed model document: criteria[1]: expected an object, got 7"),
    ({**MODEL, "criteria": [{"name": "NAME", "weight": 1.0, "q": 0.05}]},
     "model document missing key criteria[0].p"),
])
def test_model_document_messages(doc, message):
    with pytest.raises(ModelError) as refused:
        ElectreModel.from_json(json.dumps(doc))
    assert str(refused.value) == message


def schema_field(i, **changes):
    """TOY_SCHEMA with compared field i changed."""
    fields = [dict(field) for field in TOY_SCHEMA["compared_fields"]]
    fields[i].update(changes)
    return {**TOY_SCHEMA, "compared_fields": fields}


SCHEMA_MESSAGES = [
    ({**TOY_SCHEMA, "uppercse": False}, "malformed schema document: unknown key 'uppercse'"),
    (schema_field(1, comparator={"kind": "jaro_winkler", "prefx_scale": 0.2}),
     "malformed schema document: compared_fields[1].comparator: unknown key 'prefx_scale'"),
    (schema_field(0, wieght=2), "malformed schema document: compared_fields[0]: unknown key "
                                "'wieght'"),
    (schema_field(0, comparator=5),
     "malformed schema document: compared_fields[0].comparator: expected an object, got 5"),
    (schema_field(2, comparator={"kind": "exact", "cap": 0}),
     "malformed schema document: compared_fields[2].comparator: comparator needs cap > 0, "
     "integer prefix_cap >= 0 and prefix_scale >= 0 with prefix_scale * prefix_cap <= 1, "
     "got 0.1, 0, 4"),
    ({**TOY_SCHEMA, "missing_tokens": "NA"},
     "malformed schema document: missing_tokens: expected a list, got 'NA'"),
    (schema_field(1, comparator={"cap": 3}),
     "schema document missing key compared_fields[1].comparator.kind"),
]


@pytest.mark.parametrize("doc, message", SCHEMA_MESSAGES)
def test_schema_document_messages(doc, message):
    with pytest.raises(IngestError) as refused:
        LinkageSchema.from_dict(doc)
    assert str(refused.value) == message


@pytest.mark.parametrize("doc, message", SCHEMA_MESSAGES[:4])
def test_a_refused_schema_document_exits_1(tmp_path, capsys, doc, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**config(tmp_path), "schema": doc}))
    assert main(["ingest", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_comparator_entry_names_its_key():
    with pytest.raises(ComparatorError) as refused:
        make_comparator({"kind": "jaro_winkler", "prefx_scale": 0.2})
    assert str(refused.value) == "malformed comparator entry: unknown key 'prefx_scale'"


@pytest.mark.parametrize("doc", [MODEL, FS_MODEL])
def test_a_model_document_reads_back_to_its_bytes(doc):
    model = (ElectreModel if doc is MODEL else FsModel).from_json(json.dumps(doc, indent=2))
    assert model.to_json() == json.dumps(doc, indent=2)


@SETTINGS
@given(documents(TOY_SCHEMA))
def test_schema_document(doc):
    try:
        schema = LinkageSchema.from_dict(doc)
    except IngestError:
        return
    for _, comparator in schema.compared_fields:
        try:
            similarity = comparator.compare("12", "13")
        except ComparatorError:
            continue
        assert 0.0 <= similarity <= 1.0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, delimiter=schema.delimiter)
            writer.writerow([schema.id_field, *schema.field_names])
            writer.writerow(["r1", *["12"] * len(schema.field_names)])
        try:
            load_table(path, schema, "A")
        except IngestError:
            pass


numbers = st.integers(-10, 10) | st.floats(-2, 2) | st.floats() | huge_integers | st.booleans()
WORD_PAIRS = [("MARTHA", "MARHTA"), ("DWAYNE", "DUANE"), ("ABCD", "ABCE"), ("12", "13"),
              ("1.5", "2"), ("", "A")]


@SETTINGS
@given(
    st.fixed_dictionaries(
        {"kind": st.sampled_from(COMPARATOR_KINDS)},
        optional={"prefix_scale": numbers, "prefix_cap": numbers, "cap": numbers},
    )
)
def test_comparator_entry(spec):
    # a schema's comparator entry: any accepted parameters keep similarities in [0, 1]
    try:
        comparator = make_comparator(spec)
    except ComparatorError:
        return
    for x, y in WORD_PAIRS:
        try:
            similarity = comparator.compare(x, y)
        except ComparatorError:
            continue
        assert 0.0 <= similarity <= 1.0


def config(tmp):
    return {**CONFIG, "output_dir": str(Path(tmp) / "out")}


@pytest.mark.filterwarnings("ignore:category C2 has no training examples")
def test_valid_config_trains():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(config(tmp)))
        assert main(["train", "--config", str(path)]) == 0


@pytest.mark.filterwarnings("ignore:category C2 has no training examples")
@SETTINGS
@given(st.data())
def test_config_document(data):
    # relative output paths in a random document land in the temporary directory
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            doc = data.draw(documents(config(tmp)))
            Path("cfg.json").write_text(json.dumps(doc))
            assert main(["train", "--config", "cfg.json"]) in (0, 1)
        finally:
            os.chdir(cwd)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                         ids=["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("path", sorted(CONFIG_NUMBERS))
def test_a_config_nan_or_infinity_is_named_by_its_path(path, value):
    # these used to load, to be refused later by calibration or Criterion with no path
    with pytest.raises(ConfigError) as refused:
        parse_config(json.dumps(replaced(CONFIG, CONFIG_NUMBERS[path], value)))
    assert str(refused.value) == (f"malformed config document: {path}: "
                                  f"expected a finite number, got {value!r}")


@pytest.mark.parametrize("parse, text, message", [
    (ElectreModel.from_json, '{"lambda": 0.6, "lambda": 0.9}',
     "malformed model document: repeated key 'lambda'"),
    (FsModel.from_json, '{"lower": -1.0, "upper": 2.0, "lower": 1.0}',
     "malformed baseline model document: repeated key 'lower'"),
], ids=["model", "fs_model"])
def test_a_repeated_key_is_refused(parse, text, message):
    # the last value used to win
    with pytest.raises(ValueError) as refused:
        parse(text)
    assert str(refused.value) == message


def inputs(tmp):
    """A valid file of each input kind under tmp; the run config names the schema and
    dataset A files, and the model has the toy schema's three criteria."""
    paths = {kind: tmp / name for kind, name in [
        ("config", "cfg.json"), ("schema", "schema.json"), ("model", "model.json"),
        ("dataset", "a.csv"), ("classified", "classified.csv")]}
    paths["config"].write_text(json.dumps({**config(tmp), "schema": str(paths["schema"]),
                                           "dataset_a": str(paths["dataset"])}))
    paths["schema"].write_text(json.dumps(TOY_SCHEMA))
    criteria = [{"name": field["field"], "weight": 1.0, "q": 0.05, "p": 0.2}
                for field in TOY_SCHEMA["compared_fields"]]
    paths["model"].write_text(json.dumps({"criteria": criteria, "profiles": [[0.5] * 3],
                                          "lambda": 0.7}))
    # past the 8 KB a text file decodes at a time, so a bad byte lies past the first read
    with open(paths["dataset"], "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["IDENTIFIER", "NAME", "ADDRESS", "AGE"])
        writer.writerows([f"u{k}", f"NAME {k}", f"{k} MAIN STREET", k % 90] for k in range(900))
    with open(paths["classified"], "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id_a", "id_b", "assigned", "truth"])
        writer.writerows([f"a{k}", f"b{k}", "C1", "C1"] for k in range(900))
    return paths


def run_on(paths, kind) -> int:
    """The exit code of the command that reads the input of the given kind."""
    command = {"model": ["classify", "--model", paths["model"]],
               "classified": ["evaluate", "--classified", paths["classified"]]}
    return main([str(x) for x in (*command.get(kind, ["ingest"]), "--config", paths["config"])])


@pytest.mark.parametrize("kind, text, message", [
    ("config", '{"split": {"seed": 1, "seed": 2}}',
     "malformed config document: {path}: repeated key 'seed'"),
    ("schema", '{"compared_fields": [{"field": "NAME", "comparator": "exact", "field": "AGE"}]}',
     "malformed schema document: {path}: repeated key 'field'"),
    ("model", '{"criteria": [], "profiles": [], "lambda": 0.6, "lambda": 0.9}',
     "malformed model document: {path}: repeated key 'lambda'"),
], ids=["config", "schema", "model"])
def test_a_repeated_key_in_a_file_is_refused(tmp_path, capsys, kind, text, message):
    # the last value used to win: {"split": {"seed": 1, "seed": 2}} trained with seed 2
    paths = inputs(tmp_path)
    paths[kind].write_text(text)
    assert run_on(paths, kind) == 1
    assert capsys.readouterr().err == f"error: {message.format(path=paths[kind])}\n"


def test_the_inputs_are_valid(tmp_path):
    paths = inputs(tmp_path)
    assert [run_on(paths, kind) for kind in ("dataset", "model", "classified")] == [0, 0, 0]


@pytest.mark.parametrize("kind", ["config", "schema", "model", "dataset", "classified"])
def test_a_byte_that_is_not_utf8_names_the_file(tmp_path, capsys, kind):
    # each used to print only "'utf-8' codec can't decode byte 0xff in position N", where
    # N counted from the start of an 8 KB buffer of a CSV file
    paths = inputs(tmp_path)
    data = paths[kind].read_bytes()
    csv_file = kind in ("dataset", "classified")
    # a CSV file's bad byte starts a line past the first 8 KB; a JSON file's, a string
    at = data.index(b"\n", 12_000) + 1 if csv_file else data.index(b'"') + 1
    paths[kind].write_bytes(data[:at] + b"\xff" + data[at:])
    assert run_on(paths, kind) == 1
    if csv_file:
        message = f"{paths[kind]}: not UTF-8: invalid start byte b'\\xff'"
    else:
        message = (f"malformed {kind} document: {paths[kind]}: not UTF-8: 'utf-8' codec "
                   f"can't decode byte 0xff in position {at}: invalid start byte")
    assert capsys.readouterr().err == f"error: {message}\n"
