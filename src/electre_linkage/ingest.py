"""Dataset loading: schema validation, normalization, missing-value policy."""

from __future__ import annotations

import csv
from dataclasses import dataclass

from .core import _DocumentReader
from .metrics import Comparator, make_comparator

__all__ = [
    "LinkageSchema",
    "RecordTable",
    "LoadReport",
    "IngestError",
    "load_table",
    "true_links",
    "census_schema",
    "toy_schema",
]

DEFAULT_MISSING_TOKENS = ("", "NA")


class IngestError(ValueError):
    pass


@dataclass(frozen=True)
class LinkageSchema:
    compared_fields: tuple[tuple[str, Comparator], ...]
    id_field: str = "IDENTIFIER"
    missing_tokens: tuple[str, ...] = DEFAULT_MISSING_TOKENS
    uppercase: bool = True
    delimiter: str = ","

    def __post_init__(self):
        if not self.compared_fields:
            raise IngestError("schema needs at least one compared field")
        names = [f for f, _ in self.compared_fields]
        if not all(isinstance(x, str) for x in (*names, self.id_field, *self.missing_tokens)):
            raise IngestError("schema field names and missing tokens must be strings")
        if not isinstance(self.uppercase, bool):
            raise IngestError(f"schema uppercase must be true or false, got {self.uppercase!r}")
        try:
            csv.reader([], delimiter=self.delimiter)
        except (TypeError, csv.Error) as exc:
            raise IngestError(f"bad delimiter {self.delimiter!r}: {exc}") from exc
        if self.id_field in names:
            raise IngestError(f"id field {self.id_field!r} may not be compared")
        if len(set(names)) != len(names):
            raise IngestError("duplicate compared field names")

    @property
    def field_names(self) -> list[str]:
        return [f for f, _ in self.compared_fields]

    def normalize(self, value: str) -> str:
        v = " ".join(value.strip().split())
        return v.upper() if self.uppercase else v

    def is_missing(self, value: str) -> bool:
        return value.strip() in self.missing_tokens

    def to_dict(self) -> dict:
        return {
            "id_field": self.id_field,
            "compared_fields": [
                {"field": f, "comparator": {"kind": c.kind, "prefix_scale": c.prefix_scale,
                                            "prefix_cap": c.prefix_cap, "cap": c.cap}}
                for f, c in self.compared_fields
            ],
            "missing_tokens": list(self.missing_tokens),
            "uppercase": self.uppercase,
            "delimiter": self.delimiter,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LinkageSchema":
        """The schema of a document with the keys to_dict writes (all but compared_fields
        may be left out, and a comparator may be its kind alone). An unknown or missing key
        and a node of the wrong shape are an IngestError naming its path."""
        doc = _DocumentReader(IngestError, "schema document")
        optional = {"id_field": cls.id_field, "missing_tokens": list(cls.missing_tokens),
                    "uppercase": cls.uppercase, "delimiter": cls.delimiter}
        entries, id_field, missing, uppercase, delimiter = doc.keys(
            d, "", ("compared_fields",), optional)
        fields = []
        for path, entry in doc.items(entries, "compared_fields"):
            name, spec = doc.keys(entry, path, ("field", "comparator"), {})
            fields.append((name, make_comparator(spec, doc, f"{path}.comparator")))
        missing = tuple(token for _, token in doc.items(missing, "missing_tokens"))
        return cls(tuple(fields), id_field, missing, uppercase, delimiter)


@dataclass(frozen=True)
class LoadReport:
    path: str
    source_label: str
    read: int
    dropped: int

    @property
    def retained(self) -> int:
        return self.read - self.dropped

    def lines(self) -> list[str]:
        return [
            f"{self.source_label}: {self.read} read",
            f"{self.source_label}: {self.dropped} dropped (missing values)",
            f"{self.source_label}: {self.retained} retained",
        ]


@dataclass(frozen=True)
class RecordTable:
    """Retained record i is ids[i], with value columns[f][i] in the schema's compared field f."""

    ids: tuple[str, ...]
    columns: tuple[tuple[str, ...], ...]

    def __len__(self) -> int:
        return len(self.ids)


def census_schema() -> LinkageSchema:
    """Default schema for the synthetic census layout."""
    fields = (
        ("SURNAME", Comparator("jaro_winkler")),
        ("NAME", Comparator("jaro_winkler")),
        ("LASTCODE", Comparator("exact")),
        ("NUMCODE", Comparator("absolute_difference_normalized")),
        ("STREET", Comparator("jaro_winkler")),
    )
    return LinkageSchema(compared_fields=fields)


def toy_schema() -> LinkageSchema:
    """Schema for the 3x3 name/address/age example tables."""
    fields = (
        ("NAME", Comparator("jaro_winkler")),
        ("ADDRESS", Comparator("jaro_winkler")),
        ("AGE", Comparator("absolute_difference_normalized")),
    )
    return LinkageSchema(compared_fields=fields)


def csv_rows(reader, error, path):
    """The rows of a csv.reader of the file at path. A csv.Error, not a ValueError (a field
    past csv's size limit, a NUL byte before Python 3.11), is raised as error naming the
    file and its line. A byte that is not UTF-8 is raised as error naming the file alone:
    the decode runs on buffers ahead of the rows read."""
    try:
        yield from reader
    except csv.Error as exc:
        raise error(f"{path}:{reader.line_num}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8: {exc.reason} {exc.object[exc.start:exc.end]!r}") from None


def load_table(path, schema: LinkageSchema, source_label: str):
    """Read a delimited file into a RecordTable, dropping incomplete records.

    Columns are read by their position in the header; blank lines are
    skipped, and a leading UTF-8 byte order mark is not part of the header.
    Errors name the physical line a record ends on. Returns (RecordTable,
    LoadReport).
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise IngestError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh, delimiter=schema.delimiter)
        rows = csv_rows(reader, IngestError, path)
        header = next(rows, [])
        required = [schema.id_field, *schema.field_names]
        for col in required:
            if col not in header:
                raise IngestError(f"{path}: missing required column {col!r}")
            if header.count(col) > 1:
                raise IngestError(f"{path}: column {col!r} appears more than once")
        id_at = header.index(schema.id_field)
        field_at = [header.index(f) for f in schema.field_names]
        width = len(header)
        read = dropped = 0
        columns = [[] for _ in field_at]
        seen = {}  # the line of each retained id, in table order
        for row in rows:
            if not row:
                continue
            if len(row) != width:
                side = "fewer" if len(row) < width else "more"
                raise IngestError(f"{path}:{reader.line_num}: row has {side} fields than header")
            read += 1
            rid = row[id_at].strip()
            if schema.is_missing(rid) or any(schema.is_missing(row[at]) for at in field_at):
                dropped += 1
                continue
            if rid in seen:
                raise IngestError(f"{path}: duplicate identifier {rid!r} on lines "
                                  f"{seen[rid]} and {reader.line_num}")
            seen[rid] = reader.line_num
            for column, at in zip(columns, field_at):
                column.append(schema.normalize(row[at]))
    table = RecordTable(tuple(seen), tuple(map(tuple, columns)))
    return table, LoadReport(str(path), source_label, read, dropped)


def true_links(a: RecordTable, b: RecordTable) -> set[tuple[str, str]]:
    """Cross pairs sharing an identifier; identifiers are unique per table."""
    ids_b = set(b.ids)
    return {(rid, rid) for rid in a.ids if rid in ids_b}
