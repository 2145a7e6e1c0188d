"""Property tests: random JSON documents into every document parser.

Each parser either returns a usable object or raises its module's error
type, and the CLI maps that error to exit code 1. Documents are either
random JSON values or a valid document with one node replaced by a random
value or removed, so the checks behind the first key lookup are reached.
"""

import csv
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from electre_linkage.cli import main
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
    return {
        "dataset_a": str(DATA / "toy_a.csv"),
        "dataset_b": str(DATA / "toy_b.csv"),
        "schema": TOY_SCHEMA,
        "label_policy": "two_class",
        "weights": [1.0, 1.0, 1.0],
        "calibration": {"epsilon": 0.01, "q_fraction": 0.05, "p_fraction": 0.15,
                        "grid_step": 0.05, "procedure": "pessimistic"},
        "split": {"train_fraction": 0.5, "seed": 0},
        "output_dir": str(Path(tmp) / "out"),
    }


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
