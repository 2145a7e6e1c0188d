"""Smoke test of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench/test_smoke.py -q

It is kept out of the package's test suite (pyproject's testpaths) because it
exercises the benchmark, not the package.
"""

import csv
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run  # first: it puts the checkout's src/ and tests/ on sys.path
import inputs
from inputs import Size
from tracing import LAYERS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {
    "paper-train": Size(30, 26, 20),
    "large-classify": Size(40, 36, 25),
}
COUNTS = (
    "metrics.compare_calls",
    "linkage.build_pairs.calls",
    "core.classify_batch.calls",
    "linkage.pair_matrix.calls",
    "fellegi_sunter.log_ratio.calls",
)


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    for name, size in TINY.items():
        w = inputs.WORKLOADS[name]
        model = Size(30, 26, 20) if w.model_size else None
        monkeypatch.setitem(inputs.WORKLOADS, name, dataclasses.replace(w, size=size, model_size=model))
    monkeypatch.setattr(run, "WORKDIR", tmp_path)
    return tmp_path


def test_benchmark_json_matches_the_metrics_printed():
    assert [w["name"] for w in SPEC["workloads"]] == list(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", list(TINY))
def test_end_to_end_metrics_print_by_name_with_unit(tiny, capsys, workload):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    for name, unit in run.END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert any(line.startswith(f"{name} ") and line.split()[2] == unit for line in lines)
    assert any(line.startswith("error_rate 0 ratio") for line in lines)


def test_traced_run_covers_every_layer_and_counts_repeat(tiny):
    seen = set()
    for workload in TINY:
        first, _, record = run.run(workload, 5, 0, True)
        again, _, _ = run.run(workload, 5, 0, True)
        assert first["correct"] and set(first["metrics"]) == set(run.PER_LAYER)
        values = {name: m["value"] for name, m in first["metrics"].items()}
        # the spans partition the job: layer self times add up to its wall time
        layers = sum(values[f"{layer}.self_s"] for layer in LAYERS)
        assert layers == pytest.approx(values["trace.job_s"], rel=0.01, abs=1e-3)
        for name in COUNTS:
            assert again["metrics"][name]["value"] == values[name]
        seen |= {span["name"].split(".", 1)[0] for span in record["spans"]}
    assert seen == set(LAYERS)


def test_bad_input_raises_error_rate_instead_of_crashing(tiny, monkeypatch, capsys):
    make_inputs = run.make_inputs

    def without_surname(workload, seed, workdir):
        paths = make_inputs(workload, seed, workdir)
        with open(paths["a"], newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        with open(paths["a"], "w", newline="", encoding="utf-8") as fh:
            fields = [f for f in rows[0] if f != "SURNAME"]
            writer = csv.DictWriter(fh, fieldnames=fields, extrasaction="ignore")
            writer.writeheader()
            writer.writerows(rows)
        return paths

    monkeypatch.setattr(run, "make_inputs", without_surname)
    for workload in TINY:
        assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        result = json.loads(lines[-1])
        assert not result["correct"]
        assert result["failed"] >= 1
        assert any("missing required column 'SURNAME'" in line for line in lines)


def test_wrong_assignments_fail_the_oracle_check(tiny, monkeypatch):
    from electre_linkage import linkage

    classify_batch = linkage.classify_batch

    def one_category_up(model, X, procedure="pessimistic"):
        cats, sigma = classify_batch(model, X, procedure)
        return (cats % model.category_count) + 1, sigma

    monkeypatch.setattr(linkage, "classify_batch", one_category_up)
    result, lines, _ = run.run("large-classify", 3, 0, False)
    assert not result["correct"] and result["failed"] >= 1
    assert any("oracle" in line for line in lines)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "paper-train",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
