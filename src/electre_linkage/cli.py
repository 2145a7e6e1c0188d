"""Command-line pipeline: ingest, train, classify, evaluate, sweep, generate.

Every command takes a JSON run config; flags override config values and the
effective config is snapshotted into the output directory so runs can be
reproduced exactly.

Exit codes: 0 success, 1 data or config error, 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import json
import reprlib
import sys
import warnings
from pathlib import Path

from . import datagen, linkage
from .calibration import calibrate
from .core import PROCEDURES, ElectreModel, ModelError, _DocumentReader
from .evaluation import EvalReport, EvaluationError, lambda_sweep, split
from .fellegi_sunter import agreement_patterns, fit_patterns
from .ingest import IngestError, LinkageSchema, census_schema, csv_rows, load_table, true_links
from .linkage import build_pairs, label_pairs, write_classified

# every module's error type (IngestError, ModelError, ...) is a ValueError
USAGE_ERRORS = (ValueError, OSError)

CATEGORIES = {"C1": 1, "C2": 2, "C3": 3}  # the labels of a classified file

DEFAULT_CONFIG = {
    "dataset_a": "",
    "dataset_b": "",
    "schema": "census",
    "label_policy": "two_class",
    "weights": None,
    "calibration": {"epsilon": 0.01, "q_fraction": 0.05, "p_fraction": 0.15, "grid_step": 0.05,
                    "procedure": "pessimistic"},
    "split": {"train_fraction": 0.5, "seed": 0},
    "output_dir": "runs/out",
}
# the values a config key may take, where not every value of its type will do
CHOICES = {"label_policy": linkage.LABEL_POLICIES, "procedure": PROCEDURES}


class ConfigError(ValueError):
    """A run config that is not an object of the expected sections and types."""


def load_config(args) -> dict:
    """The --config document over DEFAULT_CONFIG, then the flags over both."""
    doc = _DocumentReader(ConfigError, "config document")
    user = doc.parse(Path(args.config).read_bytes(), args.config) if args.config else {}
    cfg = _config_section(doc, user, "", DEFAULT_CONFIG)
    for key in ("dataset_a", "dataset_b", "output_dir", "label_policy"):
        if getattr(args, key):
            cfg[key] = getattr(args, key)
    for key in ("seed", "train_fraction"):
        if getattr(args, key) is not None:
            cfg["split"][key] = getattr(args, key)
    return cfg


def _config_section(doc, node, path: str, defaults: dict) -> dict:
    """The values of a config object, its defaults' where absent. A section is read as
    this object is; a float is any finite number, and the weights null or a list of them;
    any other value has its default's type (the schema may also be an object), and a
    label policy or procedure is one of its CHOICES."""
    section = {}
    for (key, default), value in zip(defaults.items(), doc.keys(node, path, (), defaults)):
        at = f"{path}.{key}" if path else key
        if isinstance(default, dict):
            value = _config_section(doc, value, at, default)
        elif key == "weights" and value is not None:
            value = [doc.number(x, item) for item, x in doc.items(value, at)]
        elif isinstance(default, float):
            value = doc.number(value, at)
        elif isinstance(value, bool) or not isinstance(
                value, (str, dict) if key == "schema" else type(default)):
            kind = {str: "a string", int: "an integer"}[type(default)]
            raise doc.refuse(at, f"expected {kind}{' or an object' if key == 'schema' else ''}, "
                                 f"got {reprlib.repr(value)}")
        elif key in CHOICES and value not in CHOICES[key]:
            raise doc.refuse(at, f"expected one of {', '.join(CHOICES[key])}, got {value!r}")
        section[key] = value
    return section


def get_schema(cfg) -> LinkageSchema:
    spec = cfg.get("schema", "census")
    if spec == "census":
        return census_schema()
    if isinstance(spec, str):
        spec = _DocumentReader(IngestError, "schema document").parse(Path(spec).read_bytes(), spec)
    return LinkageSchema.from_dict(spec)


def outdir(cfg) -> Path:
    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    (out / "run_config.json").write_text(json.dumps(cfg, indent=2), encoding="utf-8")
    return out


def run_command(args) -> int:
    """The run config, the schema if the command reads the datasets, the output
    directory, in that order; then the command's own step."""
    cfg = load_config(args)
    schema = get_schema(cfg) if args.reads_data else None
    return args.step(args, cfg, schema, outdir(cfg))


def _tables(cfg, schema) -> list:
    """(table, load report) of dataset A, then of dataset B."""
    return [load_table(cfg[f"dataset_{side.lower()}"], schema, side) for side in "AB"]


def _labeled_pairs(cfg, schema):
    (table_a, _), (table_b, _) = _tables(cfg, schema)
    block = build_pairs(table_a, table_b, schema)
    return label_pairs(block, true_links(table_a, table_b), cfg["label_policy"])


def _split_pairs(cfg, schema):
    """(training set, test block) of the labeled pairs, split as the config says."""
    return split(_labeled_pairs(cfg, schema), **cfg["split"])


def _model(args, schema) -> ElectreModel:
    """The --model document, refused unless it fits a classified file and the schema."""
    doc = _DocumentReader(ModelError, "model document")
    model = ElectreModel.from_dict(doc.parse(Path(args.model).read_bytes(), args.model))
    if model.category_count > len(CATEGORIES):
        raise ModelError(f"model has {model.category_count} categories; a classified file "
                         f"holds at most {len(CATEGORIES)}: {', '.join(CATEGORIES)}")
    names, fields = [c.name for c in model.criteria], schema.field_names
    if names != fields:
        order = " (the same names in another order)" if sorted(names) == sorted(fields) else ""
        raise ModelError(f"{args.model}: model criteria {names} are not the schema's compared "
                         f"fields {fields}{order}")
    return model


def cmd_ingest(args, cfg, schema, out) -> int:
    lines = [line for _, report in _tables(cfg, schema) for line in report.lines()]
    (out / "ingest_report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    return 0


def cmd_train(args, cfg, schema, out) -> int:
    train, _ = _split_pairs(cfg, schema)
    with warnings.catch_warnings():
        if cfg["label_policy"] == "two_class":  # two-class labels never hold C2
            warnings.filterwarnings("ignore", "category C2 has no training examples", UserWarning)
        model, solution, curve = calibrate(train, cfg["weights"],
                                           criterion_names=schema.field_names, **cfg["calibration"])
    fs = fit_patterns(*agreement_patterns(train.fields), train.labels)
    (out / "electre_model.json").write_text(model.to_json(), encoding="utf-8")
    (out / "fs_model.json").write_text(fs.to_json(), encoding="utf-8")
    lines = [
        f"training pairs: {len(train)}",
        f"LP objective: {solution.objective!r}",
        "profiles (one row per boundary, columns follow the schema fields):",
    ]
    for row in model.profiles.values:
        lines.append("  " + "  ".join(f"{v:.6f}" for v in row))
    lines.append(f"chosen lambda: {model.cutting_level}")
    lines.append("lambda grid accuracy:")
    for lam, acc in curve:
        lines.append(f"  {lam:.2f}  {acc:.6f}")
    (out / "calibration_report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines[:6]))
    print(f"models written to {out}")
    return 0


def cmd_classify(args, cfg, schema, out) -> int:
    model = _model(args, schema)
    labeled = _labeled_pairs(cfg, schema)
    dest = out / "classified.csv"
    write_classified(dest, labeled, model, cfg["calibration"]["procedure"], schema.field_names)
    print(f"{len(labeled)} pairs classified -> {dest}")
    return 0


def cmd_evaluate(args, cfg, schema, out) -> int:
    cells = {}  # (truth, assigned) -> pair count, in the order first seen
    path = args.classified
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = csv_rows(reader, EvaluationError, path)
        header = next(rows, [])
        for col in ("assigned", "truth"):
            if header.count(col) != 1:
                raise EvaluationError(f"{path}: needs one {col!r} column, has {header.count(col)}")
        ia, it = header.index("assigned"), header.index("truth")
        for row in rows:
            if not row:
                continue
            if len(row) <= it or not row[it]:
                raise EvaluationError(f"{path}:{reader.line_num}: pair has no truth label")
            if len(row) <= ia:
                raise EvaluationError(f"{path}:{reader.line_num}: pair has no assigned category")
            try:
                p, t = CATEGORIES[row[ia]], CATEGORIES[row[it]]
            except KeyError as exc:
                raise EvaluationError(
                    f"{path}:{reader.line_num}: pair has category {exc.args[0]!r}, "
                    f"not one of {', '.join(CATEGORIES)}") from None
            cells[t, p] = cells.get((t, p), 0) + 1
    report = EvalReport.from_contingency(cells)
    text = "\n".join(report.lines()) + "\n"
    (out / "eval_report.txt").write_text(text, encoding="utf-8")
    (out / "eval_report.json").write_text(
        json.dumps(report.to_dict(), indent=2), encoding="utf-8"
    )
    print(text, end="")
    return 0


def cmd_sweep(args, cfg, schema, out) -> int:
    model = _model(args, schema)
    try:
        grid = [float(x) for x in args.grid.split(",")]
    except ValueError as exc:  # float names the item it cannot read
        raise EvaluationError(f"--grid: {exc}") from None
    test = _split_pairs(cfg, schema)[1]
    reports = lambda_sweep(test, model, grid, cfg["calibration"]["procedure"])
    lines = ["lambda  accuracy  missed_links  false_links"]
    for rep in reports:
        lines.append(
            f"{rep.cutting_level:.2f}    {rep.accuracy:.6f}  "
            f"{rep.missed_links:<12d}  {rep.false_links}"
        )
    (out / "sweep.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    with open(out / "sweep.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "accuracy"])
        for rep in reports:
            writer.writerow([rep.cutting_level, rep.accuracy])
    print("\n".join(lines))
    return 0


def cmd_generate(args) -> int:
    datagen.generate_pair_files(args.out_a, args.out_b, n_a=args.n_a, n_b=args.n_b,
                                n_links=args.links, seed=args.seed, typo_rate=args.typo_rate)
    print(f"wrote {args.out_a} and {args.out_b}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="electre-linkage",
        description="Record linkage by Electre Tri ordinal sorting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, step, summary, reads_data=True):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="JSON run config")
        p.add_argument("--dataset-a", dest="dataset_a")
        p.add_argument("--dataset-b", dest="dataset_b")
        p.add_argument("--output-dir", dest="output_dir")
        p.add_argument("--label-policy", dest="label_policy", choices=linkage.LABEL_POLICIES)
        p.add_argument("--seed", type=int)
        p.add_argument("--train-fraction", dest="train_fraction", type=float)
        p.set_defaults(func=run_command, step=step, reads_data=reads_data)
        return p

    command("ingest", cmd_ingest, "load and validate both datasets")
    command("train", cmd_train, "calibrate the sorting model and baseline")
    command("classify", cmd_classify, "classify the full cross product").add_argument(
        "--model", required=True, help="Electre model JSON file")
    command("evaluate", cmd_evaluate, "score a classified-pairs file",
            reads_data=False).add_argument("--classified", required=True)
    p = command("sweep", cmd_sweep, "accuracy over a lambda grid on the test split")
    p.add_argument("--model", required=True)
    p.add_argument("--grid", default="0.5,0.55,0.6,0.65,0.7,0.75,0.8,0.85,0.9,0.95,1.0")

    p = sub.add_parser("generate", help="write a synthetic dataset pair")
    p.add_argument("--out-a", required=True)
    p.add_argument("--out-b", required=True)
    p.add_argument("--n-a", type=int, default=449)
    p.add_argument("--n-b", type=int, default=392)
    p.add_argument("--links", type=int, default=327)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--typo-rate", type=float, default=0.18)
    p.set_defaults(func=cmd_generate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - invariant violations exit with 2
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
