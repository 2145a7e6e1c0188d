"""Byte identity of every CLI output file on a small seeded census run.

The digests were recorded from the code before pairs became per-field
(values, int32 index) columns, under both label policies and both assignment
procedures. A change to any output byte (model documents, reports,
classified pairs, sweeps, the run config or the generated inputs) fails here.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from electre_linkage.cli import main

INPUTS = {
    "a.csv": "d99df4885f07b834f8c34bd5d2c64b06e920cfa529c794a9fa1ce7e039b91c3f",
    "b.csv": "6474f7ea6c8123ebe8a5d30e0f83cac9ac9f055313efe7a4d437dffec640c42b",
    "ingest_report.txt": "d30eec8d95cba29e5d4a94a9477288fab98f68aef0c2783246291f1a4d3cdef5",
}
TWO_CLASS = {
    "classified.csv": "fa486ddc47b522023d46c5f0e8f7def1d5e5792497e86071bf064000237801af",
    "electre_model.json": "574b19d6c5d28f35db807f36739a160a945158f1277c034077cdc37f0bd44e03",
    "eval_report.json": "50aeec89b0231b05b57fa03c167e6bea81c4a37ab68be55f61bca6e185d3e1e9",
    "eval_report.txt": "43c66c7bbb04360016d5b13a9f1cca2959d2b2ab4758f3ab9e69e0f4106786bc",
    "fs_model.json": "9511b5753823bb05c57fb0c048ca9e79f5a59fbf31a8442608cd50d91ccb9ee3",
}
BANDED = {
    "classified.csv": "b0a712ade987b2118c51352e0fec80889cd006d797a70524d531e02eabbcd7bc",
    "electre_model.json": "9305a092c323b6941d49e122d30f2903966f7579e8e18cd4e58a16c748e38288",
    "eval_report.json": "0cfd8073b128fd8a21a8a531fbd90364965f384300f8dbfabedb7fa0eee7198d",
    "eval_report.txt": "584ba104a02a657e8a5404562ceb726ba340ac94276ebeed33b516860a03f799",
    "fs_model.json": "8b07914a94cf7d8d38d04341cc560f15cb4a5ffeae3fd38e751d0c80dc733d03",
}
GOLDEN = {
    ("two_class", "pessimistic"): {
        **INPUTS, **TWO_CLASS,
        "calibration_report.txt":
            "a752062872e2507fd998b8384099b96bd8af32495d230ce52c07c0ad1851382d",
        "run_config.json": "00ab599bac1b5fe83a5ec59f661d4b67d3f5f8d0dae450134596a2f37821c9fb",
        "sweep.csv": "cb2df554561a5712f858ae171b7bca623487edec9494e8a8b005d8666cf0c2ec",
        "sweep.txt": "91fe60cd2cc9228ad5e20352ee0937445efeba7a5fe85a88eb58e7cf49fe214e",
    },
    ("two_class", "optimistic"): {
        **INPUTS, **TWO_CLASS,
        "calibration_report.txt":
            "dec94ac08837bcd2072419b676df6699e6f3ccc935d7fa8948d7e0a671b0373b",
        "run_config.json": "4f039febfdd4b7d030c37031b78dcb89d9c7fcb0d6a67b53fc1ab1f3b1c6b275",
        "sweep.csv": "2b858079bbf26471f995358bc994d0ee5e530e08b00bbe35af0d347e057967e0",
        "sweep.txt": "f88efd5dc1e1f5208c21e9a1760da22d6665d299de88b872663564e00d21e17e",
    },
    ("banded", "pessimistic"): {
        **INPUTS, **BANDED,
        "calibration_report.txt":
            "adf901f761d535c3fcdd13ace81f590f723cb0951a7f92d4071d05f420110f70",
        "run_config.json": "5206dc92862d8707c2be4fa7bea1d667c3e20e3f76e440150fcc225bbc56d83d",
        "sweep.csv": "29d7972b9bbfb92ddf47f7bf2f9f69fdd4b4ee3c4618fc3e547f8e16a13bdcf9",
        "sweep.txt": "f5b8702170cccf147169a831e546084a37e8385e0de1206a7d362d55dc0e74e5",
    },
    ("banded", "optimistic"): {
        **INPUTS, **BANDED,
        "calibration_report.txt":
            "3f7dd9d4372ee796a50b994568e5d5e823b94038c3322a4de1dab36ba1ecf0d1",
        "run_config.json": "7b9989d9277a8c647805aab2ea235d0e50212d1d8648a90a8329fbff20cfbd67",
        "sweep.csv": "8517697ab7ce0554e92d06cb366e356220018a524c95e50a4bf9a832f96da89a",
        "sweep.txt": "50f6d2fc146aaa0a09701086ab004a39b5911a54f8dbcb212cd3cbf91d9a172c",
    },
}


@pytest.mark.filterwarnings("ignore:category C2 has no training examples")
@pytest.mark.parametrize("policy, procedure", list(GOLDEN))
def test_cli_outputs_keep_their_bytes(tmp_path, monkeypatch, capsys, policy, procedure):
    monkeypatch.chdir(tmp_path)  # relative paths, so run_config.json is the same anywhere
    Path("out").mkdir()
    assert main(["generate", "--out-a", "out/a.csv", "--out-b", "out/b.csv", "--seed", "12",
                 "--n-a", "80", "--n-b", "70", "--links", "50"]) == 0
    Path("run.json").write_text(json.dumps({"calibration": {"procedure": procedure}}))
    common = ["--config", "run.json", "--dataset-a", "out/a.csv", "--dataset-b", "out/b.csv",
              "--output-dir", "out", "--label-policy", policy]
    assert main(["ingest", *common]) == 0
    assert main(["train", *common]) == 0
    assert main(["classify", *common, "--model", "out/electre_model.json"]) == 0
    assert main(["evaluate", *common, "--classified", "out/classified.csv"]) == 0
    assert main(["sweep", *common, "--model", "out/electre_model.json"]) == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(Path("out").iterdir())}
    assert digests == GOLDEN[policy, procedure]
