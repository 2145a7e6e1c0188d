"""Dataset loading: schema validation, normalization, missing-value policy."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

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
        try:
            fields = tuple(
                (entry["field"], make_comparator(entry["comparator"]))
                for entry in d["compared_fields"]
            )
            missing = tuple(d.get("missing_tokens", DEFAULT_MISSING_TOKENS))
            options = {k: d[k] for k in ("id_field", "uppercase", "delimiter") if k in d}
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise IngestError(f"malformed schema document: {exc!r}") from exc
        return cls(compared_fields=fields, missing_tokens=missing, **options)


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
    source_label: str
    field_names: tuple[str, ...]
    records: tuple[tuple[str, dict], ...] = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.records)

    def ids(self) -> list[str]:
        return [rid for rid, _ in self.records]


def census_schema(**overrides) -> LinkageSchema:
    """Default schema for the synthetic census layout."""
    fields = (
        ("SURNAME", Comparator("jaro_winkler")),
        ("NAME", Comparator("jaro_winkler")),
        ("LASTCODE", Comparator("exact")),
        ("NUMCODE", Comparator("absolute_difference_normalized")),
        ("STREET", Comparator("jaro_winkler")),
    )
    return LinkageSchema(compared_fields=fields, **overrides)


def toy_schema(**overrides) -> LinkageSchema:
    """Schema for the 3x3 name/address/age example tables."""
    fields = (
        ("NAME", Comparator("jaro_winkler")),
        ("ADDRESS", Comparator("jaro_winkler")),
        ("AGE", Comparator("absolute_difference_normalized")),
    )
    return LinkageSchema(compared_fields=fields, id_field="IDENTIFIER", **overrides)


def load_table(path, schema: LinkageSchema, source_label: str):
    """Read a delimited file into a RecordTable, dropping incomplete records.

    Returns (RecordTable, LoadReport).
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise IngestError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.DictReader(fh, delimiter=schema.delimiter)
        header = reader.fieldnames or []
        required = [schema.id_field, *schema.field_names]
        for col in required:
            if col not in header:
                raise IngestError(f"{path}: missing required column {col!r}")
        read = dropped = 0
        records = []
        seen = {}
        for row in reader:
            lineno = reader.line_num
            if any(v is None for v in row.values()):
                raise IngestError(f"{path}:{lineno}: row has fewer fields than header")
            if None in row:
                raise IngestError(f"{path}:{lineno}: row has more fields than header")
            read += 1
            rid = row[schema.id_field].strip()
            if schema.is_missing(rid) or any(
                schema.is_missing(row[f]) for f in schema.field_names
            ):
                dropped += 1
                continue
            if rid in seen:
                raise IngestError(
                    f"{path}: duplicate identifier {rid!r} on lines {seen[rid]} and {lineno}"
                )
            seen[rid] = lineno
            values = {f: schema.normalize(row[f]) for f in schema.field_names}
            records.append((rid, values))
    table = RecordTable(source_label, tuple(schema.field_names), tuple(records))
    return table, LoadReport(str(path), source_label, read, dropped)


def true_links(a: RecordTable, b: RecordTable) -> set[tuple[str, str]]:
    """Cross pairs sharing an identifier; identifiers are unique per table."""
    ids_b = set(b.ids())
    return {(rid, rid) for rid in a.ids() if rid in ids_b}
