"""The README's "Library use" snippet runs as written on generated census files."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from electre_linkage.datagen import generate_pair_files

README = Path(__file__).resolve().parent.parent / "README.md"


def library_snippet() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


@pytest.mark.filterwarnings("ignore:category C2 has no training examples")
def test_library_use_snippet_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    generate_pair_files("a.csv", "b.csv", n_a=80, n_b=70, n_links=50, seed=0)
    namespace = {}
    exec(compile(library_snippet(), str(README), "exec"), namespace)
    assert 0.9 < float(capsys.readouterr().out) <= 1.0
    # the baseline fitted once per agreement pattern equals the one from the matrix
    fit_fs, train = namespace["fit_fs"], namespace["train"]
    assert namespace["baseline"] == fit_fs(train.X, train.y)
