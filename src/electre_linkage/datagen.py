"""Synthetic census-style dataset generator.

Produces two delimited files with an overlapping population; records on the
B side of a true link carry configurable typo noise. Used for smoke tests
and for end-to-end evaluation when the original census extract is not
available.
"""

from __future__ import annotations

import csv
import random
import string

__all__ = ["generate_pair_files", "generate_tables"]

SURNAMES = [
    "SMITH", "JOHNSON", "WILLIAMS", "BROWN", "JONES", "GARCIA", "MILLER",
    "DAVIS", "RODRIGUEZ", "MARTINEZ", "HERNANDEZ", "LOPEZ", "GONZALEZ",
    "WILSON", "ANDERSON", "THOMAS", "TAYLOR", "MOORE", "JACKSON", "MARTIN",
    "LEE", "PEREZ", "THOMPSON", "WHITE", "HARRIS", "SANCHEZ", "CLARK",
    "RAMIREZ", "LEWIS", "ROBINSON", "WALKER", "YOUNG", "ALLEN", "KING",
    "WRIGHT", "SCOTT", "TORRES", "NGUYEN", "HILL", "FLORES", "GREEN",
    "ADAMS", "NELSON", "BAKER", "HALL", "RIVERA", "CAMPBELL", "MITCHELL",
    "CARTER", "ROBERTS",
]
NAMES = [
    "JAMES", "MARY", "ROBERT", "PATRICIA", "JOHN", "JENNIFER", "MICHAEL",
    "LINDA", "DAVID", "ELIZABETH", "WILLIAM", "BARBARA", "RICHARD", "SUSAN",
    "JOSEPH", "JESSICA", "THOMAS", "SARAH", "CHARLES", "KAREN", "CHRISTOPHER",
    "NANCY", "DANIEL", "LISA", "MATTHEW", "BETTY", "ANTHONY", "MARGARET",
    "MARK", "SANDRA", "DONALD", "ASHLEY", "STEVEN", "KIMBERLY", "PAUL",
    "EMILY", "ANDREW", "DONNA", "JOSHUA", "MICHELLE",
]
STREETS = [
    "MAIN STREET", "OAK AVENUE", "MAPLE DRIVE", "CEDAR LANE", "PARK ROAD",
    "ELM STREET", "WASHINGTON AVENUE", "LAKE DRIVE", "HILL ROAD",
    "RIVER LANE", "CHURCH STREET", "HIGH STREET", "MILL ROAD",
    "SPRING STREET", "FRANKLIN AVENUE", "HIGHLAND DRIVE", "FOREST LANE",
    "SUNSET BOULEVARD", "RIDGE ROAD", "VALLEY VIEW DRIVE", "COLLEGE STREET",
    "PINE STREET", "DOGWOOD CIRCLE", "JEFFERSON AVENUE", "MEADOW LANE",
]

FIELDNAMES = ["DS", "IDENTIFIER", "SURNAME", "NAME", "LASTCODE", "NUMCODE", "STREET"]
MISSING_RATE = 0.01  # share of records with one name or street blanked


def _typo(word: str, rng: random.Random) -> str:
    """One random character-level edit: swap, substitute, delete or insert."""
    if len(word) < 2:
        return word + rng.choice(string.ascii_uppercase)
    op = rng.randrange(4)
    i = rng.randrange(len(word) - 1)
    if op == 0:  # transpose neighbors
        return word[:i] + word[i + 1] + word[i] + word[i + 2:]
    if op == 1:  # substitute
        return word[:i] + rng.choice(string.ascii_uppercase) + word[i + 1:]
    if op == 2:  # delete
        return word[:i] + word[i + 1:]
    return word[:i] + rng.choice(string.ascii_uppercase) + word[i:]


def generate_tables(
    n_a: int = 449,
    n_b: int = 392,
    n_links: int = 327,
    seed: int = 0,
    typo_rate: float = 0.18,
):
    """Build the row dicts for both files. Linked records share IDENTIFIER."""
    if min(n_a, n_b, n_links) < 0:
        raise ValueError(f"sizes must be nonnegative, got {n_a}, {n_b} and {n_links} links")
    if n_links > min(n_a, n_b):
        raise ValueError("cannot have more links than records on either side")
    if not 0 <= typo_rate <= 1:  # also false for nan
        raise ValueError(f"typo rate must lie in [0, 1], got {typo_rate}")
    rng = random.Random(seed)

    def person(idx):
        return {
            "IDENTIFIER": f"P{idx:05d}",
            "SURNAME": rng.choice(SURNAMES),
            "NAME": rng.choice(NAMES),
            "LASTCODE": rng.choice(string.ascii_uppercase),
            "NUMCODE": str(rng.randrange(1, 999)),
            "STREET": rng.choice(STREETS),
        }

    total = n_a + n_b - n_links
    people = [person(i) for i in range(total)]
    rows_a = []
    for p in people[:n_a]:
        rows_a.append({"DS": "A", **p})

    rows_b = []
    linked = people[:n_links]
    fresh = people[n_a:]
    for p in linked:
        q = dict(p)
        for fname in ("SURNAME", "NAME", "STREET"):
            if rng.random() < typo_rate:
                q[fname] = _typo(q[fname], rng)
        if rng.random() < typo_rate / 2:
            q["LASTCODE"] = rng.choice(string.ascii_uppercase)
        if rng.random() < typo_rate / 2:
            q["NUMCODE"] = str(max(1, int(q["NUMCODE"]) + rng.choice([-2, -1, 1, 2])))
        rows_b.append({"DS": "B", **q})
    for p in fresh:
        rows_b.append({"DS": "B", **p})
    rng.shuffle(rows_b)

    for rows in (rows_a, rows_b):
        for row in rows:
            if rng.random() < MISSING_RATE:
                row[rng.choice(["SURNAME", "NAME", "STREET"])] = ""
    return rows_a, rows_b


def _write(path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=FIELDNAMES)
        writer.writeheader()
        writer.writerows(rows)


def generate_pair_files(path_a, path_b, **kwargs) -> None:
    rows_a, rows_b = generate_tables(**kwargs)
    _write(path_a, rows_a)
    _write(path_b, rows_b)
