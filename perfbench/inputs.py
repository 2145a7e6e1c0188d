"""Workload definitions and their seeded input files.

The program under test only ever sees the CSV files written here. Their
content is a function of the workload and the seed; describe() reads the
files back without the package, so the expected pair counts used by the
output checks do not come from the code being checked.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

from electre_linkage import datagen

MISSING_TOKENS = ("", "NA")
COMPARED_FIELDS = ("SURNAME", "NAME", "LASTCODE", "NUMCODE", "STREET")
ID_FIELD = "IDENTIFIER"
TRAIN_SEED_OFFSET = 1_000_003


@dataclass(frozen=True)
class Size:
    n_a: int
    n_b: int
    links: int


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                      # "train" or "classify"
    size: Size
    model_size: Size | None = None    # classify: files the model is trained on in set-up


WORKLOADS = {
    w.name: w
    for w in (
        # the paper's experiment: calibration, split, FS fit and per-pair objects
        Workload("paper-train", "train", Size(449, 392, 327)),
        # ~1.7x the paper's cross product through classify: pair building, the
        # writer and memory grow with the pairs; no calibration runs
        Workload("large-classify", "classify", Size(560, 520, 408),
                 model_size=Size(200, 175, 146)),
    )
}


def _write(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def write_pair(size: Size, seed: int, path_a, path_b):
    rows_a, rows_b = datagen.generate_tables(
        n_a=size.n_a, n_b=size.n_b, n_links=size.links, seed=seed
    )
    _write(path_a, rows_a)
    _write(path_b, rows_b)


def make_inputs(workload: Workload, seed: int, workdir):
    """Write the workload's input files; returns {role: path}."""
    paths = {"a": workdir / "a.csv", "b": workdir / "b.csv"}
    write_pair(workload.size, seed, paths["a"], paths["b"])
    if workload.model_size is not None:
        paths["train_a"] = workdir / "train_a.csv"
        paths["train_b"] = workdir / "train_b.csv"
        write_pair(workload.model_size, seed + TRAIN_SEED_OFFSET,
                   paths["train_a"], paths["train_b"])
    return paths


def _retained(path):
    """(rows read, retained rows) with the ingest rules: drop incomplete rows."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    keep = [
        r for r in rows
        if all(r.get(f, "").strip() not in MISSING_TOKENS for f in (ID_FIELD, *COMPARED_FIELDS))
    ]
    return len(rows), keep


def describe(path_a, path_b) -> dict:
    """Input facts recorded with every result."""
    read_a, keep_a = _retained(path_a)
    read_b, keep_b = _retained(path_b)
    ids_b = {r[ID_FIELD].strip() for r in keep_b}

    def distinct(rows, f):
        return len({" ".join(r[f].split()).upper() for r in rows})

    return {
        "records_a": read_a,
        "records_b": read_b,
        "rows_dropped_a": read_a - len(keep_a),
        "rows_dropped_b": read_b - len(keep_b),
        "pairs": len(keep_a) * len(keep_b),
        "links": sum(1 for r in keep_a if r[ID_FIELD].strip() in ids_b),
        "distinct_values": {
            f: [distinct(keep_a, f), distinct(keep_b, f)] for f in COMPARED_FIELDS
        },
    }
