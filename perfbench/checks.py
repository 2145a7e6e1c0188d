"""Output checks run after each job, outside its timing.

A job passes when the CLI exited with 0 and these hold:
- every electre_model.json reloads through ElectreModel.from_json;
- classified.csv has a header plus exactly one row per cross pair, and the
  links are exactly the rows labelled C3;
- a sample of classified rows, re-assigned with the straight-from-the-
  definition evaluators in tests/oracles.py, matches the assigned and
  sigma_b* columns. The sample is seeded random rows plus the rows whose
  credibility lies nearest the cutting level, where an assignment error
  would show first.
"""

from __future__ import annotations

import csv
import hashlib
import heapq
import json
from pathlib import Path

from electre_linkage.core import ElectreModel, ModelError

SIGMA_TOLERANCE = 1e-9
ORACLE_RANDOM = 100    # seeded random rows re-assigned per job
ORACLE_NEAR_CUT = 100  # rows with a sigma nearest lambda re-assigned per job


class CheckError(Exception):
    pass


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_model(path: Path) -> str:
    """Reload the model file; returns its sha256."""
    if not path.is_file():
        raise CheckError(f"{path.name} was not written")
    try:
        ElectreModel.from_json(path.read_text(encoding="utf-8"))
    except (ModelError, ValueError, TypeError) as exc:
        raise CheckError(f"{path.name} does not reload: {exc}") from exc
    return sha256(path)


class _Oracle:
    """Reference pessimistic assignment for one model document."""

    def __init__(self, model_path: Path):
        # imported here: it pulls in scipy, which set-up should not pay for
        from oracles import ref_assign, ref_credibility

        self.ref_assign, self.ref_credibility = ref_assign, ref_credibility
        doc = json.loads(model_path.read_text(encoding="utf-8"))
        crits = doc["criteria"]
        self.signs = [1.0 if c.get("direction", "gain") == "gain" else -1.0 for c in crits]
        self.qs = [c["q"] for c in crits]
        self.ps = [c["p"] for c in crits]
        self.vs = [c.get("v") for c in crits]
        self.ws = [c["weight"] for c in crits]
        self.lam = doc["lambda"]
        self.profiles = [self._orient(row) for row in doc["profiles"]]

    def _orient(self, values):
        return [float(x) * s for x, s in zip(values, self.signs)]

    def check_row(self, row, m):
        perf = self._orient(row[2:2 + m])
        sigmas = [float(x) for x in row[2 + m:2 + m + len(self.profiles)]]
        for h, (prof, got) in enumerate(zip(self.profiles, sigmas), start=1):
            want = self.ref_credibility(perf, prof, self.qs, self.ps, self.vs, self.ws)
            if abs(want - got) > SIGMA_TOLERANCE:
                raise CheckError(f"pair {row[0]},{row[1]}: sigma_b{h} {got!r}, oracle {want!r}")
        want = self.ref_assign(perf, self.profiles, self.qs, self.ps, self.vs, self.ws,
                               self.lam, "pessimistic")
        if row[-2] != f"C{want}":
            raise CheckError(f"pair {row[0]},{row[1]}: assigned {row[-2]}, oracle C{want}")


def check_classified(path: Path, model_path: Path, pairs: int, links: int, rng) -> dict:
    """Check classified.csv; returns its sha256 and the share of correct rows."""
    if not path.is_file():
        raise CheckError("classified.csv was not written")
    sample = set(rng.sample(range(pairs), min(ORACLE_RANDOM, pairs)))
    oracle = _Oracle(model_path)
    nprof = len(oracle.profiles)
    near_cut = []  # heap of (-distance to lambda, row, line): the nearest rows kept
    h = hashlib.sha256()
    rows = correct = truth_links = 0
    with open(path, "rb") as fh:
        first = fh.readline()
        h.update(first)
        header = next(csv.reader([first.decode("utf-8")]), [])
        m = sum(1 for col in header if col.startswith("sim_"))
        if header[:2] != ["id_a", "id_b"] or header[-2:] != ["assigned", "truth"] or m == 0:
            raise CheckError(f"unexpected classified.csv header {header}")
        for line in fh:
            h.update(line)
            fields = line.rstrip(b"\r\n").rsplit(b",", 2 + nprof)
            sigmas, assigned, truth = fields[-2 - nprof:-2], fields[-2], fields[-1]
            correct += assigned == truth
            truth_links += truth == b"C3"
            if rows in sample:
                oracle.check_row(next(csv.reader([line.decode("utf-8")])), m)
            else:
                item = (-min(abs(float(x) - oracle.lam) for x in sigmas), rows, line)
                if len(near_cut) < ORACLE_NEAR_CUT:
                    heapq.heappush(near_cut, item)
                elif item > near_cut[0]:
                    heapq.heapreplace(near_cut, item)
            rows += 1
    for _, _, line in near_cut:
        oracle.check_row(next(csv.reader([line.decode("utf-8")])), m)
    if rows != pairs:
        raise CheckError(f"classified.csv has {rows} rows for {pairs} cross pairs")
    if truth_links != links:
        raise CheckError(f"classified.csv labels {truth_links} pairs C3 for {links} links")
    return {"sha256": h.hexdigest(), "accuracy": correct / rows if rows else 0.0}
