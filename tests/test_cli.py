import csv
import json
import random
import tracemalloc
from pathlib import Path

import pytest

from electre_linkage.cli import main
from electre_linkage.ingest import census_schema

from oracles import ref_evaluate

DATA = Path(__file__).resolve().parent.parent / "data"
CENSUS = census_schema().field_names  # a model's criteria are named as the fields


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    a, b = root / "a.csv", root / "b.csv"
    code = main(
        [
            "generate",
            "--out-a", str(a),
            "--out-b", str(b),
            "--n-a", "80",
            "--n-b", "70",
            "--links", "60",
            "--seed", "5",
        ]
    )
    assert code == 0
    return a, b


def run(args):
    return main([str(x) for x in args])


class TestGenerateAndIngest:
    def test_ingest_report(self, small_dataset, tmp_path, capsys):
        a, b = small_dataset
        code = run(["ingest", "--dataset-a", a, "--dataset-b", b,
                    "--output-dir", tmp_path / "out"])
        assert code == 0
        out = capsys.readouterr().out
        assert "A: 80 read" in out
        assert "B: 70 read" in out
        assert (tmp_path / "out" / "ingest_report.txt").exists()
        assert (tmp_path / "out" / "run_config.json").exists()

    def test_rerun_identical(self, small_dataset, tmp_path):
        a, b = small_dataset
        for sub in ("o1", "o2"):
            assert run(["ingest", "--dataset-a", a, "--dataset-b", b,
                        "--output-dir", tmp_path / sub]) == 0
        r1 = (tmp_path / "o1" / "ingest_report.txt").read_text()
        r2 = (tmp_path / "o2" / "ingest_report.txt").read_text()
        assert r1 == r2

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        code = run(["ingest", "--dataset-a", tmp_path / "nope.csv",
                    "--dataset-b", tmp_path / "nope2.csv",
                    "--output-dir", tmp_path / "out"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--n-a", "--n-b", "--links"])
    def test_negative_size_is_usage_error(self, tmp_path, capsys, flag):
        # --links -1 used to write a B file of 31 rows with duplicate identifiers
        sizes = {"--n-a": "10", "--n-b": "10", "--links": "5", flag: "-1"}
        code = run(["generate", "--out-a", tmp_path / "a.csv", "--out-b", tmp_path / "b.csv",
                    *(x for item in sizes.items() for x in item)])
        assert code == 1
        assert "sizes must be nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "b.csv").exists()

    @pytest.mark.parametrize("rate", ["5", "nan", "-0.1"])
    def test_typo_rate_outside_unit_interval_is_usage_error(self, tmp_path, capsys, rate):
        # 5 used to act as "always" and nan as "never", both exiting 0
        code = run(["generate", "--out-a", tmp_path / "a.csv", "--out-b", tmp_path / "b.csv",
                    "--n-a", "10", "--n-b", "10", "--links", "5", "--typo-rate", rate])
        assert code == 1
        assert "typo rate must lie in [0, 1]" in capsys.readouterr().err
        assert not (tmp_path / "a.csv").exists()


class TestPipeline:
    def test_train_classify_evaluate_sweep(self, small_dataset, tmp_path, capsys):
        a, b = small_dataset
        out = tmp_path / "run"
        base = ["--dataset-a", a, "--dataset-b", b, "--output-dir", out,
                "--seed", "3", "--train-fraction", "0.5"]

        assert run(["train", *base]) == 0
        model_file = out / "electre_model.json"
        assert model_file.exists()
        assert (out / "fs_model.json").exists()
        report = (out / "calibration_report.txt").read_text()
        assert "chosen lambda" in report

        assert run(["classify", *base, "--model", model_file]) == 0
        classified = out / "classified.csv"
        with open(classified, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) > 0
        snapshot = json.loads((out / "run_config.json").read_text())
        assert snapshot["split"]["seed"] == 3

        assert run(["evaluate", *base, "--classified", classified]) == 0
        rep = json.loads((out / "eval_report.json").read_text())
        assert rep["total"] == len(rows)
        assert 0.9 <= rep["accuracy"] <= 1.0

        assert run(["sweep", *base, "--model", model_file,
                    "--grid", "0.5,0.7,0.85"]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            sweep_rows = list(csv.DictReader(fh))
        assert [r["lambda"] for r in sweep_rows] == ["0.5", "0.7", "0.85"]

    def test_toy_classify_has_nine_rows(self, tmp_path):
        out = tmp_path / "toy"
        cfg = {
            "dataset_a": str(DATA / "toy_a.csv"),
            "dataset_b": str(DATA / "toy_b.csv"),
            "schema": {
                "id_field": "IDENTIFIER",
                "compared_fields": [
                    {"field": "NAME", "comparator": "jaro_winkler"},
                    {"field": "ADDRESS", "comparator": "jaro_winkler"},
                    {"field": "AGE", "comparator": {
                        "kind": "absolute_difference_normalized", "cap": 10}},
                ],
            },
            "output_dir": str(out),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        model = {
            "criteria": [
                {"name": "NAME", "direction": "gain", "weight": 1.0, "q": 0.05,
                 "p": 0.2, "v": None},
                {"name": "ADDRESS", "direction": "gain", "weight": 1.0, "q": 0.05,
                 "p": 0.2, "v": None},
                {"name": "AGE", "direction": "gain", "weight": 1.0, "q": 0.05,
                 "p": 0.2, "v": None},
            ],
            "profiles": [[0.45, 0.45, 0.45], [0.8, 0.8, 0.8]],
            "lambda": 0.6,
            "epsilon": 0.01,
        }
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model))
        assert run(["classify", "--config", cfg_path, "--model", model_path]) == 0
        with open(out / "classified.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9
        by_pair = {(r["id_a"], r["id_b"]): r["assigned"] for r in rows}
        assert by_pair[("u1", "u1")] == "C3"

    @pytest.mark.parametrize("side", ["a", "b"])
    def test_empty_side_gives_empty_output(self, tmp_path, side):
        empty = tmp_path / f"empty_{side}.csv"
        empty.write_text("DS,IDENTIFIER,NAME,ADDRESS,AGE\n")
        out = tmp_path / "out"
        model = {
            "criteria": [
                {"name": "NAME", "weight": 1.0, "q": 0.0, "p": 0.1, "v": None},
                {"name": "ADDRESS", "weight": 1.0, "q": 0.0, "p": 0.1, "v": None},
                {"name": "AGE", "weight": 1.0, "q": 0.0, "p": 0.1, "v": None},
            ],
            "profiles": [[0.5, 0.5, 0.5]],
            "lambda": 0.5,
        }
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model))
        cfg = {
            "dataset_a": str(empty if side == "a" else DATA / "toy_a.csv"),
            "dataset_b": str(empty if side == "b" else DATA / "toy_b.csv"),
            "schema": {
                "id_field": "IDENTIFIER",
                "compared_fields": [
                    {"field": "NAME", "comparator": "jaro_winkler"},
                    {"field": "ADDRESS", "comparator": "jaro_winkler"},
                    {"field": "AGE", "comparator": "absolute_difference_normalized"},
                ],
            },
            "output_dir": str(out),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run(["classify", "--config", cfg_path, "--model", model_path]) == 0
        assert (out / "classified.csv").read_bytes() == (
            b"id_a,id_b,sim_NAME,sim_ADDRESS,sim_AGE,assigned,truth\r\n")

    def test_corrupt_model_file(self, small_dataset, tmp_path, capsys):
        a, b = small_dataset
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        code = run(["classify", "--dataset-a", a, "--dataset-b", b,
                    "--output-dir", tmp_path / "out", "--model", bad])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("document", [
        '{"criteria": [{"name": "g", "weight": 1.0, "q": 0.0, "p": 0.1}], '
        '"profiles": [[0.5]], "lambda": "0.7"}',
        "[]",
        # well formed, but one criterion for the census schema's five fields
        '{"criteria": [{"name": "g", "weight": 1.0, "q": 0.0, "p": 0.1}], '
        '"profiles": [[0.5]], "lambda": 0.7}',
        # five criteria, with a profile value that float() would parse (refused before
        # their names are read)
        '{"criteria": [' + ", ".join(
            f'{{"name": "g{j}", "weight": 1.0, "q": 0.0, "p": 0.1}}' for j in range(5))
        + '], "profiles": [[" 0.4 ", 0.4, 0.4, 0.4, 0.4]], "lambda": 0.7}',
    ])
    def test_malformed_model_is_usage_error(self, small_dataset, tmp_path, capsys, document):
        a, b = small_dataset
        bad = tmp_path / "bad.json"
        bad.write_text(document)
        code = run(["classify", "--dataset-a", a, "--dataset-b", b,
                    "--output-dir", tmp_path / "out", "--model", bad])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("document", [
        [1, 2],
        {"split": 5},
        {"schema": 7},
        {"schema": {"compared_fields": [{"field": "NAME"}]}},
        {"unknown_key": 3},
        {"calibration": {"typo": 3}},
        {"split": {"train_fraction": 0.5, "seeds": 1}},
    ])
    def test_malformed_config_is_usage_error(self, small_dataset, tmp_path, capsys, document):
        # each of these used to exit 2 with "internal error"
        a, b = small_dataset
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(document))
        code = run(["train", "--config", cfg_path, "--dataset-a", a, "--dataset-b", b,
                    "--output-dir", tmp_path / "out"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_schema_file_not_json_is_usage_error(self, small_dataset, tmp_path, capsys):
        # used to print only json's "Expecting property name ...", naming no file
        a, b = small_dataset
        schema_path = tmp_path / "schema.json"
        schema_path.write_text("{not json")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"schema": str(schema_path)}))
        code = run(["train", "--config", cfg_path, "--dataset-a", a, "--dataset-b", b,
                    "--output-dir", tmp_path / "out"])
        assert code == 1
        assert f"error: malformed schema document: {schema_path}: not valid JSON: Expecting " \
            "property name" in capsys.readouterr().err

    @pytest.mark.parametrize("document, message", [
        ({"unknown_key": 3}, "unknown key 'unknown_key'"),
        ({"calibration": {"epsilon": 0.01, "typo": 3}},
         "error: malformed config document: calibration: unknown key 'typo'\n"),
    ], ids=["top", "section"])
    def test_unknown_config_key_is_named(self, small_dataset, tmp_path, capsys, document,
                                         message):
        # these used to train and exit 0, ignoring the key
        a, b = small_dataset
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(document))
        code = run(["train", "--config", cfg_path, "--dataset-a", a, "--dataset-b", b,
                    "--output-dir", tmp_path / "out"])
        assert code == 1
        assert message in capsys.readouterr().err

    def test_grid_step_past_the_grid_bound_is_usage_error(self, small_dataset, tmp_path,
                                                          capsys):
        # 0.5 + 1e-300 == 0.5: train used to loop forever building the lambda grid
        a, b = small_dataset
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"calibration": {"grid_step": 1e-300}}))
        code = run(["train", "--config", cfg_path, "--dataset-a", a, "--dataset-b", b,
                    "--output-dir", tmp_path / "out"])
        assert code == 1
        assert "cutting levels" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["classify", "sweep"])
    def test_model_past_three_categories_is_usage_error(self, small_dataset, tmp_path,
                                                        capsys, command):
        # classify used to write C4 rows that evaluate then refused
        a, b = small_dataset
        model = {"criteria": [{"name": name, "weight": 1.0, "q": 0.0, "p": 0.1}
                              for name in CENSUS],
                 "profiles": [[0.3] * 5, [0.6] * 5, [0.9] * 5], "lambda": 0.75}
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model))
        out = tmp_path / "out"
        code = run([command, "--dataset-a", a, "--dataset-b", b, "--output-dir", out,
                    "--model", model_path])
        assert code == 1
        assert "model has 4 categories" in capsys.readouterr().err
        assert not (out / "classified.csv").exists()

    @pytest.mark.parametrize("command", ["classify", "sweep"])
    def test_model_not_fitting_the_schema_is_usage_error(self, small_dataset, tmp_path,
                                                        capsys, command):
        # criteria of other names, or of the fields' names in another order, used to be
        # applied to the fields by position, with exit 0
        a, b = small_dataset
        for names, order in ((list("ABCDE"), ""),
                             (CENSUS[::-1], " (the same names in another order)")):
            model = {"criteria": [{"name": name, "weight": 1.0, "q": 0.0, "p": 0.1}
                                  for name in names], "profiles": [[0.5] * 5], "lambda": 0.7}
            model_path = tmp_path / "model.json"
            model_path.write_text(json.dumps(model))
            out = tmp_path / "out"
            code = run([command, "--dataset-a", a, "--dataset-b", b, "--output-dir", out,
                        "--model", model_path])
            assert code == 1
            assert capsys.readouterr().err == (
                f"error: {model_path}: model criteria {names} are not the schema's compared "
                f"fields {CENSUS}{order}\n")
            assert not (out / "classified.csv").exists()

    def test_two_category_model_round_trip(self, small_dataset, tmp_path):
        # a model of C1 and C2 classifies, and evaluate reads what classify wrote
        a, b = small_dataset
        model = {"criteria": [{"name": name, "weight": 1.0, "q": 0.0, "p": 0.1}
                              for name in CENSUS],
                 "profiles": [[0.6] * 5], "lambda": 0.75}
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model))
        base = ["--dataset-a", a, "--dataset-b", b, "--output-dir", tmp_path / "out"]
        assert run(["classify", *base, "--model", model_path]) == 0
        with open(tmp_path / "out" / "classified.csv", newline="") as fh:
            assigned = {row["assigned"] for row in csv.DictReader(fh)}
        assert assigned <= {"C1", "C2"} and assigned
        assert run(["evaluate", *base, "--classified", tmp_path / "out" / "classified.csv"]) == 0
        assert run(["sweep", *base, "--model", model_path]) == 0

    @pytest.mark.parametrize("path", [("criteria", 0, "weight"), ("criteria", 1, "q"),
                                      ("criteria", 2, "p"), ("profiles", 0, 3), ("epsilon",)],
                             ids=["weight", "q", "p", "profile", "epsilon"])
    def test_model_number_beyond_a_float_is_usage_error(self, small_dataset, tmp_path,
                                                         capsys, path):
        # JSON integers have no size limit; these used to exit 2 with an OverflowError
        a, b = small_dataset
        model = {
            "criteria": [{"name": name, "weight": 1.0, "q": 0.0, "p": 0.1, "v": None}
                         for name in CENSUS],
            "profiles": [[0.5] * 5],
            "lambda": 0.7,
            "epsilon": 0.01,
        }
        node = model
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = 10**400
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model))
        code = run(["classify", "--dataset-a", a, "--dataset-b", b, "--output-dir",
                    tmp_path / "out", "--model", model_path])
        assert code == 1
        assert "error: malformed model document" in capsys.readouterr().err

    @pytest.mark.parametrize("document", [
        {"weights": [1, 1, 1, 1, 10**400]},
        {"calibration": {"epsilon": 10**400}},
        {"schema": {"compared_fields": [
            {"field": "NUMCODE", "comparator": {"kind": "exact", "cap": 10**400}}]}},
        {"schema": {"compared_fields": [
            {"field": "NAME", "comparator": {"kind": "jaro_winkler", "prefix_scale": -10**400}}]}},
    ], ids=["weights", "epsilon", "cap", "prefix_scale"])
    def test_config_number_beyond_a_float_is_usage_error(self, small_dataset, tmp_path,
                                                          capsys, document):
        # these used to exit 2 with an OverflowError
        a, b = small_dataset
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(document))
        code = run(["train", "--config", cfg_path, "--dataset-a", a, "--dataset-b", b,
                    "--output-dir", tmp_path / "out"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "OverflowError" not in err

    @pytest.mark.parametrize("path, value", [
        (("criteria", 0, "weight"), True), (("criteria", 1, "q"), False),
        (("lambda",), True), (("epsilon",), True), (("profiles", 0, 3), True),
    ], ids=["weight", "q", "lambda", "epsilon", "profile"])
    def test_model_boolean_is_usage_error(self, small_dataset, tmp_path, capsys, path, value):
        # JSON true and false load as 1 and 0; these used to classify and exit 0
        a, b = small_dataset
        model = {
            "criteria": [{"name": name, "weight": 1.0, "q": 0.0, "p": 0.1, "v": None}
                         for name in CENSUS],
            "profiles": [[0.5] * 5],
            "lambda": 0.7,
            "epsilon": 0.01,
        }
        node = model
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model))
        code = run(["classify", "--dataset-a", a, "--dataset-b", b, "--output-dir",
                    tmp_path / "out", "--model", model_path])
        assert code == 1
        assert "number" in capsys.readouterr().err

    @pytest.mark.parametrize("document, message", [
        ({"weights": [True] * 5}, "weights[0]: expected a finite number, got True"),
        ({"calibration": {"epsilon": True}},
         "calibration.epsilon: expected a finite number, got True"),
        ({"split": {"seed": True}}, "split.seed: expected an integer, got True"),
    ], ids=["weights", "epsilon", "seed"])
    def test_config_boolean_is_usage_error(self, small_dataset, tmp_path, capsys, document,
                                           message):
        # these used to train and exit 0, `weights` writing "weight": true into the model
        a, b = small_dataset
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(document))
        code = run(["train", "--config", cfg_path, "--dataset-a", a, "--dataset-b", b,
                    "--output-dir", tmp_path / "out"])
        assert code == 1
        assert capsys.readouterr().err == f"error: malformed config document: {message}\n"

    @pytest.mark.parametrize("header, row, message", [
        ("id_a,id_b,sim_NAME,truth", "a1,b1,0.9,C2", ": needs one 'assigned' column, has 0"),
        ("id_a,id_b,sim_NAME,assigned", "a1,b1,0.9,C2", ": needs one 'truth' column, has 0"),
        ("id_a,id_b,truth,assigned", "x,z,C1", ":2: pair has no assigned category"),
        ("id_a,id_b,truth,assigned", "x,z,,C1", ":2: pair has no truth label"),
        ("id_a,id_b,assigned,truth", "x,z,C1", ":2: pair has no truth label"),
        ("id_a,id_b,truth,assigned", "x,z,C1,C9",
         ":2: pair has category 'C9', not one of C1, C2, C3"),
        ("id_a,id_b,truth,assigned", "x,z,-4,C1",
         ":2: pair has category '-4', not one of C1, C2, C3"),
        ("id_a,id_b,truth,assigned", "x,z,C2,3",
         ":2: pair has category '3', not one of C1, C2, C3"),
        ("id_a,id_b,truth,assigned", "x,z,CC3,C3",
         ":2: pair has category 'CC3', not one of C1, C2, C3"),
        ("id_a,id_b,assigned,truth,truth", "x,y,C1,C3,C1", ": needs one 'truth' column, has 2"),
        ("id_a,assigned,id_b,assigned,truth", "x,C1,y,C2,C3",
         ": needs one 'assigned' column, has 2"),
    ], ids=["assigned", "truth", "short_row", "empty_truth", "short_truth", "assigned_C9",
            "truth_-4", "assigned_3", "truth_CC3", "truth_twice", "assigned_twice"])
    def test_classified_file_without_column(self, small_dataset, tmp_path, capsys, header,
                                            row, message):
        # each used to exit 2: "internal error: 'assigned'" for the file without the
        # column, "internal error: list index out of range" for the short row; the
        # categories outside C1..C3 were parsed as integers and evaluated, exit 0, and
        # a repeated column was read at its first place, exit 0. Each message names the
        # file, and the line where there is one, as load_table's do.
        a, b = small_dataset
        classified = tmp_path / "classified.csv"
        classified.write_text(header + "\n" + row + "\n")
        code = run(["evaluate", "--dataset-a", a, "--dataset-b", b, "--output-dir",
                    tmp_path / "out", "--classified", classified])
        assert code == 1
        assert capsys.readouterr().err == f"error: {classified}{message}\n"

    def test_sweep_lambda_outside_domain(self, small_dataset, tmp_path, capsys):
        a, b = small_dataset
        model = {
            "criteria": [{"name": name, "weight": 1.0, "q": 0.0, "p": 0.1, "v": None}
                         for name in CENSUS],
            "profiles": [[0.5] * 5],
            "lambda": 0.7,
        }
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model))
        code = run(["sweep", "--dataset-a", a, "--dataset-b", b, "--output-dir",
                    tmp_path / "out", "--model", model_path, "--grid", "0.4"])
        assert code == 1
        assert "cutting level" in capsys.readouterr().err

    @pytest.mark.parametrize("grid, item", [("0.5,,0.7", "''"), ("0.5,0.7x", "'0.7x'"),
                                             ("", "''")])
    def test_sweep_grid_names_the_item_it_cannot_read(self, small_dataset, tmp_path, capsys,
                                                      grid, item):
        a, b = small_dataset
        base = ["--dataset-a", a, "--dataset-b", b, "--output-dir", tmp_path / "out"]
        assert run(["train", *base]) == 0
        capsys.readouterr()
        code = run(["sweep", *base, "--model", tmp_path / "out" / "electre_model.json",
                    "--grid", grid])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --grid: ") and err.endswith(f" {item}\n")

    def test_banded_policy_builds_pairs_once(self, small_dataset, tmp_path, monkeypatch):
        from electre_linkage import cli

        calls = []
        build_pairs = cli.build_pairs

        def counting(*args):
            calls.append(args)
            return build_pairs(*args)

        monkeypatch.setattr(cli, "build_pairs", counting)
        a, b = small_dataset
        out = tmp_path / "banded"
        assert run(["train", "--dataset-a", a, "--dataset-b", b, "--output-dir", out,
                    "--label-policy", "banded", "--seed", "3"]) == 0
        assert len(calls) == 1
        assert (out / "electre_model.json").exists()

    @pytest.mark.parametrize("policy, gathers", [("two_class", 0), ("banded", 0)])
    def test_classify_gathers_performances_at_most_once(self, small_dataset, tmp_path,
                                                         monkeypatch, policy, gathers):
        """classify runs the kernel on kernel rows alone; banded labeling fits and scores
        the baseline once per agreement pattern."""
        from electre_linkage.linkage import PairBlock

        a, b = small_dataset
        base = ["--dataset-a", a, "--dataset-b", b, "--output-dir", tmp_path / policy,
                "--label-policy", policy, "--seed", "3"]
        assert run(["train", *base]) == 0
        calls = []
        gather = PairBlock.X.fget

        def counting(block):
            calls.append(block)
            return gather(block)

        monkeypatch.setattr(PairBlock, "X", property(counting))
        assert run(["classify", *base, "--model", tmp_path / policy / "electre_model.json"]) == 0
        assert len(calls) == gathers

    @pytest.mark.parametrize("policy, reads", [("two_class", 1), ("banded", 2)])
    def test_classify_reads_the_pair_layout_once_per_use(self, small_dataset, tmp_path,
                                                          monkeypatch, policy, reads):
        """The writer numbers the rows it writes from the block's cell tables, and banded
        labeling does too: one core.distinct_rows call per use, and no pair is read by its
        position (core.pair_values)."""
        from electre_linkage import core, fellegi_sunter, linkage

        a, b = small_dataset
        base = ["--dataset-a", a, "--dataset-b", b, "--output-dir", tmp_path / policy,
                "--label-policy", policy, "--seed", "3"]
        assert run(["train", *base]) == 0
        calls, numbered = [], []
        pair_values, distinct_rows = core.pair_values, core.distinct_rows
        for module in (core, linkage):
            monkeypatch.setattr(module, "pair_values", lambda fields, rows: calls.append(
                len(rows)) or pair_values(fields, rows))
        for module in (core, fellegi_sunter):
            monkeypatch.setattr(module, "distinct_rows", lambda fields, states: numbered.append(
                len(fields[0][0]) * len(fields[0][1])) or distinct_rows(fields, states))
        assert run(["classify", *base, "--model", tmp_path / policy / "electre_model.json"]) == 0
        assert calls == []
        assert len(numbered) == reads and len(set(numbered)) == 1  # each of the whole block

    def test_unknown_procedure_writes_no_file(self, small_dataset, tmp_path, capsys):
        a, b = small_dataset
        out = tmp_path / "out"
        assert run(["train", "--dataset-a", a, "--dataset-b", b, "--output-dir", out]) == 0
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"calibration": {"procedure": "sideways"}}))
        code = run(["classify", "--config", cfg_path, "--dataset-a", a, "--dataset-b", b,
                    "--output-dir", out, "--model", out / "electre_model.json"])
        assert code == 1
        assert capsys.readouterr().err == ("error: malformed config document: calibration."
                                           "procedure: expected one of pessimistic, optimistic, "
                                           "got 'sideways'\n")
        assert not (out / "classified.csv").exists()

    @pytest.mark.parametrize("policy", ["two_class", "banded"])
    def test_train_gathers_no_performances(self, small_dataset, tmp_path, monkeypatch, policy):
        """train calibrates and fits the baseline from counts: no (n, m) matrix is gathered."""
        from electre_linkage.calibration import TrainingSet
        from electre_linkage.linkage import PairBlock

        a, b = small_dataset
        calls = []
        for cls in (PairBlock, TrainingSet):
            gather = cls.X.fget
            monkeypatch.setattr(cls, "X", property(
                lambda self, gather=gather: calls.append(self) or gather(self)))
        assert run(["train", "--dataset-a", a, "--dataset-b", b, "--output-dir",
                    tmp_path / policy, "--label-policy", policy, "--seed", "3"]) == 0
        assert calls == []

    @pytest.mark.parametrize("command", ["classify", "sweep"])
    def test_non_positive_epsilon_is_usage_error(self, small_dataset, tmp_path, capsys,
                                                 command):
        # epsilon -1 used to load, with profiles reversed: the two procedures then
        # disagreed about which category a pair belongs to
        a, b = small_dataset
        model = {"criteria": [{"name": name, "weight": 1.0, "q": 0.0, "p": 0.1}
                              for name in CENSUS],
                 "profiles": [[0.8] * 5, [0.4] * 5], "lambda": 0.75, "epsilon": -1.0}
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model))
        code = run([command, "--dataset-a", a, "--dataset-b", b, "--output-dir",
                    tmp_path / "out", "--model", model_path])
        assert code == 1
        assert "epsilon must be a positive finite number" in capsys.readouterr().err

    def test_optimistic_classify(self, small_dataset, tmp_path):
        from electre_linkage.core import ElectreModel, classify_batch
        from electre_linkage.ingest import census_schema, load_table
        from electre_linkage.linkage import build_pairs

        a, b = small_dataset
        out = tmp_path / "optimistic"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"calibration": {"procedure": "optimistic"}}))
        base = ["--config", cfg_path, "--dataset-a", a, "--dataset-b", b,
                "--output-dir", out, "--seed", "3"]
        assert run(["train", *base]) == 0
        model_file = out / "electre_model.json"
        assert run(["classify", *base, "--model", model_file]) == 0
        with open(out / "classified.csv", newline="") as fh:
            assigned = [row["assigned"] for row in csv.DictReader(fh)]
        schema = census_schema()
        block = build_pairs(load_table(a, schema, "A")[0], load_table(b, schema, "B")[0], schema)
        model = ElectreModel.from_json(model_file.read_text())
        cats, _ = classify_batch(model, block.X, "optimistic")
        assert assigned == [f"C{c}" for c in cats.tolist()]

    def test_infeasible_epsilon_surfaced(self, small_dataset, tmp_path, capsys):
        a, b = small_dataset
        cfg = {
            "dataset_a": str(a),
            "dataset_b": str(b),
            "calibration": {"epsilon": 5.0},
            "output_dir": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = run(["train", "--config", cfg_path])
        assert code == 1
        assert "epsilon=5.0" in capsys.readouterr().err


def write_labels(path, cells):
    """A classified file with one row per (truth, assigned) label pair."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id_a", "id_b", "sim_NAME", "sigma_b1", "assigned", "truth"])
        for k, (truth, assigned) in enumerate(cells):
            writer.writerow([f"a{k}", f"b{k}", 0.5, 0.25, assigned, truth])


class TestEvaluateFile:
    def test_report_matches_per_pair_count(self, tmp_path):
        rng = random.Random(3)
        labels = ["C1", "C2", "C3"]
        # a missed link, then a false link: first-seen order is not sorted order
        cells = [("C3", "C1"), ("C1", "C3")]
        cells += [(rng.choice(labels), rng.choice(labels)) for _ in range(500)]
        classified, out = tmp_path / "classified.csv", tmp_path / "out"
        write_labels(classified, cells)
        assert run(["evaluate", "--output-dir", out, "--classified", classified]) == 0
        ref = ref_evaluate([int(p[1:]) for _, p in cells], [int(t[1:]) for t, _ in cells])
        assert list(ref.contingency)[:2] == [(3, 1), (1, 3)]
        expected = {
            "accuracy": ref.accuracy,
            "contingency": {f"{t},{p}": c for (t, p), c in ref.contingency.items()},
            "precision_c3": ref.precision_c3,
            "recall_c3": ref.recall_c3,
            "missed_links": ref.missed_links,
            "false_links": ref.false_links,
            "total": ref.total,
            "lambda": None,
            "procedure": "",
        }
        assert (out / "eval_report.json").read_bytes() == json.dumps(expected, indent=2).encode()
        assert (out / "eval_report.txt").read_text() == "\n".join(ref.lines()) + "\n"

    def test_field_past_the_csv_size_limit_is_usage_error(self, tmp_path, capsys):
        # csv.Error is not a ValueError: this used to exit 2 as an internal error
        classified = tmp_path / "classified.csv"
        write_labels(classified, [("C1", "C1"), ("C3", "C" + "3" * 131_072), ("C1", "C2")])
        assert run(["evaluate", "--output-dir", tmp_path / "out",
                    "--classified", classified]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {classified}:3: field larger than field limit")
        assert not (tmp_path / "out" / "eval_report.txt").exists()

    def test_peak_memory_flat_in_rows(self, tmp_path, capsys):
        """The rows stream into (truth, assigned) cells: 4x the rows, about the same peak."""
        peaks = []
        for n in (20_000, 80_000):
            classified = tmp_path / f"classified_{n}.csv"
            write_labels(classified, [("C3", "C3") if k % 50 == 0 else
                                      ("C1", "C2" if k % 7 else "C1") for k in range(n)])
            tracemalloc.start()
            try:
                assert run(["evaluate", "--output-dir", tmp_path / "out",
                            "--classified", classified]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert f"pairs evaluated: {n}" in capsys.readouterr().out
        assert peaks[1] - peaks[0] < 128 * 1024, peaks
