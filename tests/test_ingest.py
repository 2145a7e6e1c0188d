from pathlib import Path

import pytest

from electre_linkage.ingest import (
    IngestError,
    LinkageSchema,
    census_schema,
    load_table,
    toy_schema,
    true_links,
)
from electre_linkage.metrics import Comparator

DATA = Path(__file__).resolve().parent.parent / "data"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestSchema:
    def test_id_field_not_compared(self):
        with pytest.raises(IngestError):
            LinkageSchema(
                compared_fields=(("ID", Comparator("exact")),), id_field="ID"
            )

    def test_round_trip(self):
        schema = census_schema()
        back = LinkageSchema.from_dict(schema.to_dict())
        assert back == schema

    def test_malformed_document_is_ingest_error(self):
        good = toy_schema().to_dict()
        field = good["compared_fields"][0]
        for bad in (
            [good],
            {**good, "compared_fields": [{"field": "NAME"}]},
            {**good, "compared_fields": 7},
            {**good, "compared_fields": [{**field, "comparator": 3}]},
            {**good, "compared_fields": [{**field, "comparator": {"kind": "jaro", "cap": 0}}]},
            {**good, "compared_fields": [{**field, "field": ["NAME"]}]},
            {**good, "missing_tokens": 5},
            {**good, "missing_tokens": "NA"},
            {**good, "uppercase": "no"},
            {**good, "delimiter": ";;"},
        ):
            with pytest.raises(IngestError):
                LinkageSchema.from_dict(bad)

    def test_normalization(self):
        schema = toy_schema()
        assert schema.normalize("  john   a  smith ") == "JOHN A SMITH"


class TestLoadTable:
    def test_toy_files(self):
        schema = toy_schema()
        table, report = load_table(DATA / "toy_a.csv", schema, "A")
        assert report.read == 3
        assert report.dropped == 0
        assert len(table) == 3
        assert table.records[0][1]["NAME"] == "JOHN A SMITH"

    def test_missing_value_dropped(self, tmp_path):
        path = write(
            tmp_path,
            "t.csv",
            "IDENTIFIER,NAME,ADDRESS,AGE\n"
            "u1,John,16 Main,20\n"
            "u2,Jane,,30\n"
            "u3,Jim,NA,40\n",
        )
        table, report = load_table(path, toy_schema(), "A")
        assert (report.read, report.dropped, report.retained) == (3, 2, 1)
        assert table.ids() == ["u1"]

    def test_empty_file_with_header(self, tmp_path):
        path = write(tmp_path, "t.csv", "IDENTIFIER,NAME,ADDRESS,AGE\n")
        table, report = load_table(path, toy_schema(), "A")
        assert len(table) == 0
        assert report.read == 0

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "t.csv", "IDENTIFIER,NAME,AGE\nu1,John,20\n")
        with pytest.raises(IngestError, match="ADDRESS"):
            load_table(path, toy_schema(), "A")

    def test_duplicate_column(self, tmp_path):
        # the record used to take its NAME from the second NAME column
        path = write(
            tmp_path, "t.csv",
            "DS,IDENTIFIER,NAME,ADDRESS,AGE,NAME\nA,u1,John,16 Main,20,BOB\n",
        )
        with pytest.raises(IngestError, match=r"t\.csv: column 'NAME' appears more than once"):
            load_table(path, toy_schema(), "A")

    def test_duplicate_identifier(self, tmp_path):
        path = write(
            tmp_path,
            "t.csv",
            "IDENTIFIER,NAME,ADDRESS,AGE\nu1,John,16 Main,20\nu1,Jane,17 Oak,30\n",
        )
        with pytest.raises(IngestError, match="u1"):
            load_table(path, toy_schema(), "A")

    def test_short_row(self, tmp_path):
        path = write(
            tmp_path, "t.csv", "IDENTIFIER,NAME,ADDRESS,AGE\nu1,John\n"
        )
        with pytest.raises(IngestError, match=":2"):
            load_table(path, toy_schema(), "A")

    def test_error_names_physical_line(self, tmp_path):
        # a blank line and a two-line quoted field used to put this at ":4"
        path = write(
            tmp_path, "t.csv",
            "IDENTIFIER,NAME,ADDRESS,AGE\nu1,John,16 Main,20\n"
            'u2,Jane,"17 Oak\nApt 2",30\n\nu3,Joe\n',
        )
        with pytest.raises(IngestError, match=":6: row has fewer fields"):
            load_table(path, toy_schema(), "A")

    def test_long_row(self, tmp_path):
        path = write(
            tmp_path, "t.csv",
            "IDENTIFIER,NAME,ADDRESS,AGE\nu1,John,16 Main,20\nu2,Jane,17 Oak,30,extra\n",
        )
        with pytest.raises(IngestError, match=":3: row has more fields"):
            load_table(path, toy_schema(), "A")

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError):
            load_table(tmp_path / "nope.csv", toy_schema(), "A")

    def test_deterministic(self):
        schema = toy_schema()
        t1, _ = load_table(DATA / "toy_a.csv", schema, "A")
        t2, _ = load_table(DATA / "toy_a.csv", schema, "A")
        assert t1 == t2


class TestTrueLinks:
    def test_toy_links(self):
        schema = toy_schema()
        a, _ = load_table(DATA / "toy_a.csv", schema, "A")
        b, _ = load_table(DATA / "toy_b.csv", schema, "B")
        assert true_links(a, b) == {("u1", "u1"), ("u2", "u2")}

    def test_disjoint(self, tmp_path):
        schema = toy_schema()
        p1 = write(tmp_path, "a.csv", "IDENTIFIER,NAME,ADDRESS,AGE\nu1,A,B,1\n")
        p2 = write(tmp_path, "b.csv", "IDENTIFIER,NAME,ADDRESS,AGE\nu9,C,D,2\n")
        a, _ = load_table(p1, schema, "A")
        b, _ = load_table(p2, schema, "B")
        assert true_links(a, b) == set()
