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

from oracles import ref_load_table

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
        assert table.columns[schema.field_names.index("NAME")][0] == "JOHN A SMITH"

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
        assert table.ids == ("u1",)

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

    @pytest.mark.parametrize("line", [1, 3])
    def test_field_past_the_csv_size_limit(self, tmp_path, line):
        # csv.Error is not a ValueError: every command used to exit 2 on it
        rows = ["IDENTIFIER,NAME,ADDRESS,AGE", "u1,John,16 Main,20", "u2,Jane,17 Oak,30"]
        rows[line - 1] += "0" * 131_072  # its last field is one past csv's size limit
        path = write(tmp_path, "t.csv", "\n".join(rows) + "\n")
        with pytest.raises(IngestError, match=f"t\\.csv:{line}: field larger than field limit"):
            load_table(path, toy_schema(), "A")

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError):
            load_table(tmp_path / "nope.csv", toy_schema(), "A")

    def test_deterministic(self):
        schema = toy_schema()
        t1, _ = load_table(DATA / "toy_a.csv", schema, "A")
        t2, _ = load_table(DATA / "toy_a.csv", schema, "A")
        assert t1 == t2


HEADER = "IDENTIFIER,NAME,ADDRESS,AGE\n"

# (file text, schema): each is loaded by load_table and by the dict-per-row reference
REFERENCE_FILES = {
    "blank lines": (HEADER + "\nu1,John,16 Main,20\n\n\nu2,Jane,17 Oak,30\n\n", toy_schema()),
    "blank first line": ("\n" + HEADER + "u1,John,16 Main,20\n", toy_schema()),
    "empty file": ("", toy_schema()),
    "header only, CRLF": (HEADER.replace("\n", "\r\n"), toy_schema()),
    "CRLF rows": ((HEADER + "u1,John,16 Main,20\nu2,Jane,NA,30\n").replace("\n", "\r\n"),
                  toy_schema()),
    "short row": (HEADER + "u1,John,16 Main,20\nu2,Jane\n", toy_schema()),
    "short row after blank lines": (HEADER + "u1,John,16 Main,20\n\n\nu2,Jane,1\n",
                                    toy_schema()),
    "long row": (HEADER + "u1,John,16 Main,20\nu2,Jane,17 Oak,30,extra,\n", toy_schema()),
    "empty row of one field": (HEADER + 'u1,John,16 Main,20\n""\n', toy_schema()),
    "quoted delimiters": (HEADER + 'u1,"Smith, John","16 Main, Apt 2",20\n'
                                   '"u,2",Jane,"17 Oak",30\n', toy_schema()),
    "quoted newlines then a short row": (
        HEADER + 'u1,"John\nA","16 Main\n\nApt 2",20\n\nu2,"Jane\r\nB"\n', toy_schema()),
    "quoted newlines then a duplicate id": (
        HEADER + 'u1,John,"16 Main\nApt 2",20\nu2,Jane,17 Oak,30\n\n'
                 'u1,"Joe\nJr",18 Elm,40\n', toy_schema()),
    "duplicate ids": (HEADER + "u1,John,16 Main,20\nu2,Jane,17 Oak,30\n u1 ,Jim,18 Elm,40\n",
                      toy_schema()),
    "duplicate id on a dropped row": (HEADER + "u1,John,16 Main,20\nu1,Jane,NA,30\n",
                                      toy_schema()),
    "missing tokens with spaces": (
        HEADER + "u1,John,16 Main,20\nu2, NA ,17 Oak,30\nu3,Jim,  ,40\n NA ,Joe,18 Elm,50\n"
                 "u5,  joe   q  public ,  19   elm ,60\n", toy_schema()),
    "other delimiter, no uppercase": (
        "AGE;IDENTIFIER;NAME;ADDRESS\n20;u1;John  A;16 Main, Apt 2\n30;u2;jane;-\n"
        '40;u3;"Jim;Bo";NA\n',
        LinkageSchema(compared_fields=toy_schema().compared_fields, delimiter=";",
                      uppercase=False, missing_tokens=("-", "NA"))),
    "tab delimiter, short row": ("IDENTIFIER\tNAME\tADDRESS\tAGE\nu1\tJohn\t16 Main\n",
                                 LinkageSchema(compared_fields=toy_schema().compared_fields,
                                               delimiter="\t")),
    "repeated column not compared": (
        "NOTE,IDENTIFIER,NAME,NOTE,ADDRESS,AGE\nx,u1,John,y,16 Main,20\nx,u2,Jane,,NA,30\n",
        toy_schema()),
    "repeated column not compared, short row": (
        "NOTE,IDENTIFIER,NAME,NOTE,ADDRESS,AGE\nx,u1,John,y,16 Main\n", toy_schema()),
    "repeated compared column": (
        "IDENTIFIER,NAME,ADDRESS,AGE,NAME\nu1,John,16 Main,20,Bob\n", toy_schema()),
    "missing column": ("IDENTIFIER,NAME,AGE\nu1,John,20\n", toy_schema()),
}


def load_outcome(loader, path, schema):
    """(table, report) on success, or the IngestError message."""
    try:
        return loader(path, schema, "A")
    except IngestError as exc:
        return str(exc)


@pytest.mark.parametrize("name", REFERENCE_FILES)
def test_load_table_matches_dict_reader(tmp_path, name):
    text, schema = REFERENCE_FILES[name]
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    got = load_outcome(load_table, path, schema)
    assert got == load_outcome(ref_load_table, path, schema)


def test_reference_files_load_and_fail_in_every_way(tmp_path):
    outcomes = []
    for text, schema in REFERENCE_FILES.values():
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        outcomes.append(load_outcome(ref_load_table, path, schema))
    errors = " ".join(o for o in outcomes if isinstance(o, str))
    for what in ("fewer fields", "more fields", "duplicate identifier",
                 "missing required column", "appears more than once"):
        assert what in errors
    assert sum(not isinstance(o, str) for o in outcomes) == 8


def test_byte_order_mark_is_not_part_of_the_header(tmp_path):
    # the mark used to be read into the first column name: missing column 'IDENTIFIER'
    text = HEADER + "u1,John,16 Main,20\nu2,Jane,NA,30\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(text.encode("utf-8-sig"))
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    table, report = load_table(marked, toy_schema(), "A")
    want_table, want_report = load_table(plain, toy_schema(), "A")
    assert table == want_table and table.ids == ("u1",)
    assert (report.read, report.dropped) == (want_report.read, want_report.dropped)


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
