"""Linkage benchmark: the electre-linkage CLI on seeded inputs, end to end.

    python3 perfbench/run.py --workload paper-train --seed 1 --seconds 45 --trace 0

One client in one process runs CLI jobs back to back (a closed loop, each
job starts when the previous one ends) through ``electre_linkage.cli.main``,
the same entry point as the ``electre-linkage`` command. Every job's output
is checked. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones, measured with tracing off; with
``--trace 1`` traced and untraced jobs alternate and the metrics are the
per-layer ones of the median traced job. See perfbench/README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench-work"


def _add_source_paths():
    """Put the checkout's src/ and tests/ first on sys.path, or stop."""
    needed = (ROOT / "src" / "electre_linkage" / "__init__.py", ROOT / "tests" / "oracles.py")
    for path in needed:
        if not path.is_file():
            raise SystemExit(f"perfbench: {path.relative_to(ROOT)} not found; "
                             "run from the root of a checkout of the repository")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]


_add_source_paths()

import numpy  # noqa: E402
import electre_linkage  # noqa: E402
from electre_linkage import cli  # noqa: E402

from checks import CheckError, check_classified, check_model  # noqa: E402
from inputs import WORKLOADS, describe, make_inputs  # noqa: E402
from tracing import LAYERS, Tracer, peak_rss_mb  # noqa: E402

T_IMPORTED = time.perf_counter()

SETUP_REPEATS = 3
MAX_ERRORS_SHOWN = 10

# name -> unit; BENCHMARK.json lists the same names
END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "pairs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "accuracy": "ratio",
}
PER_LAYER = {
    "metrics.compare_calls": "count",
    "metrics.compare.self_s": "s",
    "linkage.sim_cache_hit_ratio": "ratio",
    "linkage.build_pairs.calls": "count",
    "linkage.build_pairs.self_s": "s",
    "linkage.label_pairs.self_s": "s",
    "linkage.label_pairs.rss_mb": "MB",
    "linkage.pair_matrix.self_s": "s",
    "linkage.pair_matrix.calls": "count",
    "linkage.write_classified.self_s": "s",
    "linkage.write_classified.mb_per_s": "MB/s",
    "core.classify_batch.self_s": "s",
    "core.classify_batch.calls": "count",
    "core.classify_batch.rows_per_s": "1/s",
    "calibration.estimate_profiles.self_s": "s",
    "calibration.estimate_lambda.self_s": "s",
    "calibration.estimate_thresholds.self_s": "s",
    "fellegi_sunter.fit_fs.self_s": "s",
    "fellegi_sunter.fit_fs.calls": "count",
    "fellegi_sunter.log_ratio.calls": "count",
    "fellegi_sunter.log_ratio.self_s": "s",
    "evaluation.split.self_s": "s",
    "ingest.load_table.self_s": "s",
    "ingest.rows_read": "count",
    "ingest.rows_dropped": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.job_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(tracer: Tracer, traced_job_s: float, untraced_job_s: float) -> dict:
    """Per-layer metrics of one traced job."""
    self_s = tracer.self_times()
    count = tracer.counters

    def rate(amount, name):
        seconds = self_s.get(name, 0.0)
        return amount / seconds if seconds > 0 else 0.0

    compare_calls = count["metrics.compare.calls"]
    similarities = count["linkage.build_pairs.items"] * count["linkage.build_pairs.fields"]
    values = {
        "metrics.compare_calls": compare_calls,
        "linkage.sim_cache_hit_ratio": 1 - compare_calls / similarities if similarities else 0.0,
        "linkage.label_pairs.rss_mb": count["linkage.label_pairs.rss_mb"],
        "linkage.write_classified.mb_per_s": rate(
            count["linkage.write_classified.bytes"] / 2**20, "linkage.write_classified"),
        "core.classify_batch.rows_per_s": rate(
            count["core.classify_batch.rows"], "core.classify_batch"),
        "ingest.rows_read": count["ingest.rows_read"],
        "ingest.rows_dropped": count["ingest.rows_dropped"],
        **{f"{layer}.self_s": s for layer, s in tracer.layer_self_times().items()},
        "trace.job_s": traced_job_s,
        "trace.overhead_s": traced_job_s - untraced_job_s,
    }
    for name in PER_LAYER:
        if name not in values and name.endswith(".self_s"):
            values[name] = self_s.get(name[: -len(".self_s")], 0.0)
        elif name not in values and name.endswith(".calls"):
            values[name] = count[name]
    return values


class Run:
    """One benchmark run: set-up, the closed loop of jobs, checks, metrics."""

    def __init__(self, workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(seed)  # picks the rows the oracle re-assigns
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.hashes = {}
        self.jobs = []
        self.accuracy = None
        self.paths = None
        self.facts = None

    # --- CLI calls ---

    def cli(self, argv, tracer=None):
        """Run one CLI job; returns (exit code, seconds, stderr text)."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = tracer.call(cli.main, argv) if tracer else cli.main(argv)
            except SystemExit as exc:  # argparse rejects its arguments this way
                code = exc.code if isinstance(exc.code, int) else 1
            seconds = time.perf_counter() - start
        return code, seconds, err.getvalue().strip()

    def record_hash(self, name, digest):
        self.hashes.setdefault(name, []).append(digest)

    def argv(self, command, out: Path, a, b):
        argv = [command, "--dataset-a", str(a), "--dataset-b", str(b),
                "--output-dir", str(out), "--label-policy", "two_class"]
        if command == "classify":
            argv += ["--model", str(self.model_path)]
        return argv

    # --- set-up ---

    @property
    def model_path(self) -> Path:
        if self.workload.command == "classify":
            return self.workdir / "model" / "electre_model.json"
        return self.workdir / "out" / "electre_model.json"

    def prepare(self) -> float:
        """Write the inputs and, for classify, train its model; returns seconds."""
        start = time.perf_counter()
        self.paths = make_inputs(self.workload, self.seed, self.workdir)
        code = err = None
        if self.workload.model_size is not None:
            code, _, err = self.cli(self.argv("train", self.workdir / "model",
                                              self.paths["train_a"], self.paths["train_b"]))
        seconds = time.perf_counter() - start
        if code is not None:
            self.check("set-up train", code, err, lambda: self.record_hash(
                "electre_model.json", check_model(self.model_path)))
        return seconds

    # --- jobs ---

    def check(self, what, code, err, checker) -> bool:
        """Count a failed call: a nonzero exit code or an output check that fails."""
        if code != 0:
            problem = f"exit code {code}: {err.splitlines()[-1] if err else ''}"
        else:
            try:
                checker()
                return True
            # a malformed output file surfaces as a parse or lookup error
            except (CheckError, OSError, ValueError, KeyError, IndexError) as exc:
                problem = f"{type(exc).__name__}: {exc}"
        self.failed += 1
        self.errors.append(f"{what}: {problem}")
        return False

    def check_outputs(self, out: Path):
        if self.workload.command == "train":
            self.record_hash("electre_model.json", check_model(out / "electre_model.json"))
            return
        result = check_classified(out / "classified.csv", self.model_path,
                                  self.facts["pairs"], self.facts["links"], self.rng)
        self.record_hash("classified.csv", result["sha256"])
        self.accuracy = result["accuracy"]

    def job(self, traced: bool):
        out = self.workdir / "out"
        argv = self.argv(self.workload.command, out, self.paths["a"], self.paths["b"])
        job_id = len(self.jobs)
        tracer = Tracer(job_id) if traced else None
        if tracer:
            with tracer:
                code, seconds, err = self.cli(argv, tracer)
        else:
            code, seconds, err = self.cli(argv)
        ok = self.check(f"job {job_id}", code, err, lambda: self.check_outputs(out))
        self.jobs.append({"traced": traced, "seconds": seconds, "exit": code, "ok": ok,
                          "tracer": tracer})

    def train_accuracy(self):
        """Apply the trained model to the held-out split through `sweep`."""
        model = self.model_path
        if not model.is_file():
            return
        lam = json.loads(model.read_text(encoding="utf-8"))["lambda"]
        sweep = self.workdir / "sweep"
        argv = self.argv("sweep", sweep, self.paths["a"], self.paths["b"])
        argv += ["--model", str(model), "--grid", repr(lam)]

        def read():
            with open(sweep / "sweep.csv", encoding="utf-8") as fh:
                rows = list(fh)[1:]
            if len(rows) != 1:
                raise CheckError(f"sweep.csv has {len(rows)} rows for one lambda")
            self.accuracy = float(rows[0].split(",")[1])

        code, _, err = self.cli(argv)
        self.check("accuracy sweep", code, err, read)

    # --- the whole run ---

    def execute(self, seconds: float, trace: bool) -> dict:
        setup = [self.prepare() for _ in range(SETUP_REPEATS)]
        self.facts = describe(self.paths["a"], self.paths["b"])
        loop_start = time.perf_counter()
        while True:
            self.job(traced=trace and len(self.jobs) % 2 == 1)
            if len(self.jobs) == 1:
                # the peak of a process that has run one job, as a CLI process does;
                # later repeats would add allocator growth that varies with their count
                peak_rss = peak_rss_mb()
            enough = not trace or len(self.jobs) >= 2
            if enough and time.perf_counter() - loop_start >= seconds:
                break
        if self.workload.command == "train" and not trace:
            self.train_accuracy()
        for name, digests in self.hashes.items():
            if len(set(digests)) > 1:
                self.errors.append(f"{name} differs between repeats: {sorted(set(digests))}")

        untraced = [j["seconds"] for j in self.jobs if not j["traced"]]
        job_s = statistics.median(untraced)
        if trace:
            traced = sorted((j for j in self.jobs if j["traced"]), key=lambda j: j["seconds"])
            median_job = traced[(len(traced) - 1) // 2]
            values = layer_metrics(median_job["tracer"], median_job["seconds"], job_s)
            units = PER_LAYER
        else:
            values = {
                "setup_s": (T_IMPORTED - T_START) + statistics.median(setup),
                "job_s": job_s,
                "pairs_per_s": self.facts["pairs"] / job_s,
                "peak_rss_mb": peak_rss,
                "accuracy": self.accuracy if self.accuracy is not None else 0.0,
            }
            units = END_TO_END
        return {
            "correct": not self.errors and (trace or self.accuracy is not None),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
            "detail": {
                "setup_seconds": setup,
                "jobs": [{k: v for k, v in j.items() if k != "tracer"} for j in self.jobs],
            },
        }


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "electre_linkage": electre_linkage.__version__,
        "platform": platform.platform(),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool, workdir: Path = None):
    """Run one workload; returns (result line dict, report lines, record dict)."""
    workload = WORKLOADS[workload_name]
    workdir = workdir or WORKDIR
    data = workdir / f"{workload_name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(data, ignore_errors=True)
    data.mkdir(parents=True)
    bench = Run(workload, seed, data)
    try:
        result = bench.execute(seconds, trace)
    finally:
        shutil.rmtree(data, ignore_errors=True)
    detail = result.pop("detail")
    record = {
        "workload": workload_name, "seed": seed, "trace": int(trace),
        "input": bench.facts, "environment": environment(),
        "sha256": {name: digests[0] for name, digests in bench.hashes.items()},
        "errors": bench.errors, **detail, "result": result,
        "spans": [s.to_dict() for j in bench.jobs if j["tracer"] for s in j["tracer"].spans],
    }
    results = workdir / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{data.name}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return result, report_lines(record, bench), record


def report_lines(record: dict, bench: Run) -> list:
    result = record["result"]
    facts = record["input"]
    jobs = [j for j in bench.jobs if not j["traced"]]
    lines = [
        f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}",
        "input " + json.dumps(facts, sort_keys=True),
        "environment " + json.dumps(record["environment"], sort_keys=True),
    ]
    for name, digests in bench.hashes.items():
        agree = len(set(digests)) == 1
        lines.append(f"sha256 {name} {digests[0]} ({len(digests)} repeats, "
                     f"{'identical' if agree else 'DIFFERENT'})")
    for name, metric in result["metrics"].items():
        note = f"  (median of {len(jobs)} untraced jobs)" if name == "job_s" else ""
        lines.append(f"{name} {metric['value']:.6g} {metric['unit']}{note}")
    rate = result["failed"] / result["attempted"]
    lines.append(f"error_rate {rate:.6g} ratio  ({result['failed']} failed of "
                 f"{result['attempted']} attempted)")
    lines += [f"error: {e}" for e in bench.errors[:MAX_ERRORS_SHOWN]]
    if len(bench.errors) > MAX_ERRORS_SHOWN:
        lines.append(f"error: ... {len(bench.errors) - MAX_ERRORS_SHOWN} more in the run record")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help='one workload, or "all" to run each in turn')
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name], lines, _ = run(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{n}": m for w, r in results.items() for n, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
