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
import sys
from pathlib import Path

from . import datagen, linkage
from .calibration import calibrate
from .core import ElectreModel, ModelError, kernel_rows
from .evaluation import EvalReport, EvaluationError, lambda_sweep, split
from .fellegi_sunter import agreement_patterns, fit_patterns
from .ingest import IngestError, LinkageSchema, census_schema, load_table, true_links
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
    "calibration": {
        "epsilon": 0.01,
        "q_fraction": 0.05,
        "p_fraction": 0.15,
        "grid_step": 0.05,
        "procedure": "pessimistic",
    },
    "split": {"train_fraction": 0.5, "seed": 0},
    "output_dir": "runs/out",
}


class ConfigError(ValueError):
    """A run config that is not an object of the expected sections and types."""


def load_config(args) -> dict:
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    source = args.config or "defaults"
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            try:
                user = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{source}: not valid JSON: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError(f"{source}: a run config must be a JSON object")
        for key, value in user.items():
            if key not in cfg:
                raise ConfigError(f"{source}: unknown key {key!r}")
            if isinstance(cfg[key], dict):
                if not isinstance(value, dict):
                    raise ConfigError(f"{source}: section {key!r} must be a JSON object")
                for name in value:
                    if name not in cfg[key]:
                        raise ConfigError(f"{source}: unknown key {name!r} in section {key!r}")
                cfg[key].update(value)
            else:
                cfg[key] = value
    for key in ("dataset_a", "dataset_b", "output_dir", "label_policy"):
        if getattr(args, key):
            cfg[key] = getattr(args, key)
    for key in ("seed", "train_fraction"):
        if getattr(args, key) is not None:
            cfg["split"][key] = getattr(args, key)
    _check_types(cfg, DEFAULT_CONFIG, source)
    return cfg


def _is_number(value) -> bool:
    """A float, or an int a float can hold: JSON allows integers of any size.
    JSON true and false load as ints, and are not numbers here."""
    if isinstance(value, bool):
        return False
    return isinstance(value, float) or isinstance(value, int) and abs(value) <= sys.float_info.max


def _check_types(section: dict, defaults: dict, source: str) -> None:
    """Each value has its default's type, any number for a float; the schema
    may also be an object and the weights a list of numbers."""
    for key, default in defaults.items():
        value = section[key]
        if isinstance(default, dict):
            _check_types(value, default, source)
            continue
        if key == "weights":
            ok = value is None or isinstance(value, list) and all(map(_is_number, value))
        elif isinstance(default, float):
            ok = _is_number(value)
        else:
            ok = not isinstance(value, bool) and isinstance(
                value, (str, dict) if key == "schema" else type(default))
        if not ok:
            raise ConfigError(f"{source}: {key} has the wrong type: {value!r}")


def get_schema(cfg) -> LinkageSchema:
    spec = cfg.get("schema", "census")
    if spec == "census":
        return census_schema()
    if isinstance(spec, str):
        with open(spec, encoding="utf-8") as fh:
            try:
                spec = json.load(fh)
            except json.JSONDecodeError as exc:
                raise IngestError(f"{spec}: schema file is not valid JSON: {exc}") from exc
    return LinkageSchema.from_dict(spec)


def outdir(cfg) -> Path:
    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    snapshot = out / "run_config.json"
    snapshot.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
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


def _model(args) -> ElectreModel:
    """The --model document, with at most the categories a classified file holds."""
    model = ElectreModel.from_json(Path(args.model).read_text(encoding="utf-8"))
    if model.category_count > len(CATEGORIES):
        raise ModelError(f"model has {model.category_count} categories; a classified file "
                         f"holds at most {len(CATEGORIES)}: {', '.join(CATEGORIES)}")
    return model


def cmd_ingest(args, cfg, schema, out) -> int:
    lines = [line for _, report in _tables(cfg, schema) for line in report.lines()]
    (out / "ingest_report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    return 0


def cmd_train(args, cfg, schema, out) -> int:
    train, _ = _split_pairs(cfg, schema)
    model, solution, curve = calibrate(train, cfg["weights"], criterion_names=schema.field_names,
                                       **cfg["calibration"])
    fs = fit_patterns(*agreement_patterns(train.columns), train.y)
    (out / "electre_model.json").write_text(model.to_json(), encoding="utf-8")
    (out / "fs_model.json").write_text(fs.to_json(), encoding="utf-8")
    lines = [
        f"training pairs: {len(train.y)}",
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
    model = _model(args)
    labeled = _labeled_pairs(cfg, schema)
    R, kernel_row = kernel_rows(model, labeled.columns())
    # looked up in linkage, where perfbench's smoke test swaps in a faulty classifier
    cats, sigma = linkage.classify_batch(model, R, cfg["calibration"]["procedure"])
    dest = out / "classified.csv"
    write_classified(dest, labeled, kernel_row, cats, sigma, schema.field_names)
    print(f"{len(labeled)} pairs classified -> {dest}")
    return 0


def cmd_evaluate(args, cfg, schema, out) -> int:
    cells = {}  # (truth, assigned) -> pair count, in the order first seen
    with open(args.classified, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        for name in ("assigned", "truth"):
            if header.count(name) != 1:
                raise EvaluationError(f"classified file has "
                                      f"{'a repeated' if name in header else 'no'} {name!r} column")
        ia, it = header.index("assigned"), header.index("truth")
        for row in reader:
            if not row:
                continue
            if len(row) <= it or not row[it]:
                raise EvaluationError("classified file has pairs without truth labels")
            if len(row) <= ia:
                raise EvaluationError(
                    f"classified file line {reader.line_num} has no assigned category")
            try:
                p, t = CATEGORIES[row[ia]], CATEGORIES[row[it]]
            except KeyError as exc:
                raise EvaluationError(
                    f"classified file line {reader.line_num} has category "
                    f"{exc.args[0]!r}, not one of {', '.join(CATEGORIES)}") from None
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
    model = _model(args)
    grid = [float(x) for x in args.grid.split(",")]
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
    datagen.generate_pair_files(
        args.out_a,
        args.out_b,
        n_a=args.n_a,
        n_b=args.n_b,
        n_links=args.links,
        seed=args.seed,
        typo_rate=args.typo_rate,
    )
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
        p.add_argument("--label-policy", dest="label_policy",
                       choices=["two_class", "banded"])
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
