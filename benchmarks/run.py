#!/usr/bin/env python3
"""uttrank benchmark: seeded CLI workloads through ``uttrank.cli.dispatch``.

Run from the repository root:

    python3 benchmarks/run.py --workload qf40 --seed 1 --seconds 12 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 12 --trace 1

A run first sets up its corpus (``uttrank synth``, several times, outside the
timed flow), then repeats whole rounds of the flow ``train pairwise -> train
listwise -> extract -> eval`` until ``--seconds`` have passed, checks the last
round's outputs with independent recomputations (benchmarks/checks.py), and
prints one JSON object as its last line. With ``--trace 0`` it reports the
end-to-end metrics of BENCHMARK.json (medians over rounds); with ``--trace 1``
it traces one set-up and one round (benchmarks/spans.py) and reports the
per-layer metrics. ``--workload all`` runs every workload in its own process.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    splits: dict  # meetings per split: train, validation, test
    utterances: int
    epochs: int
    synth_extra: tuple[str, ...] = ()  # further uttrank synth flags

    def synth_argv(self, out: Path, seed: int) -> list[str]:
        counts = [str(self.splits[s]) for s in ("train", "validation", "test")]
        return [
            "synth", "--out-dir", str(out), "--seed", str(seed),
            "--instances", counts[0], "--validation-instances", counts[1],
            "--test-instances", counts[2], "--utterances", str(self.utterances),
            *self.synth_extra,
        ]


WORKLOADS = {
    # The ROADMAP reference size; per-row scorer forward/backward dominates.
    "qf40": Workload(splits={"train": 200, "validation": 20, "test": 50}, utterances=40, epochs=10),
    # 4x longer transcripts and 4x more test meetings: featurization and
    # extraction weigh most, pools hold 48 candidates.
    "long160": Workload(splits={"train": 50, "validation": 5, "test": 200}, utterances=160, epochs=10),
    # 30-40-token utterances against 80-word summaries, short training:
    # the pure-Python LCS of ROUGE-L dominates.
    "longtext": Workload(
        splits={"train": 100, "validation": 10, "test": 50},
        utterances=40,
        epochs=3,
        synth_extra=("--min-tokens", "30", "--max-tokens", "40", "--summary-words", "80"),
    ),
}


@dataclass(frozen=True)
class FlowConfig:
    """Pipeline settings passed on every command line and used by the checks."""

    sample_size: int = 10
    per_sample_top: int = 3
    top_k: int = 10
    token_budget: int = 1024
    listwise_k: int = 10
    objectives: tuple[str, ...] = ("pairwise+listwise", "pairwise", "bce", "mse")


FLOW = FlowConfig()
SETUP_REPEATS = 5
STEPS = ("train_ranker", "train_reranker", "extract", "eval")
# Primary outputs hashed per round; manifests carry timestamps and are left out.
OUTPUTS = {
    "train_ranker": "ranker/model.json",
    "train_reranker": "reranker/model.json",
    "extract": "extract/extractions.jsonl",
    "eval": "eval/report.json",
}


def flow_argv(workload: Workload, data: Path, out: Path) -> dict[str, list[str]]:
    """The argv a user would type for each step of one round."""
    pipeline = ["--sample-size", str(FLOW.sample_size), "--per-sample-top", str(FLOW.per_sample_top)]
    selection = ["--top-k", str(FLOW.top_k), "--token-budget", str(FLOW.token_budget)]
    epochs = ["--epochs", str(workload.epochs)]
    train = ["train", "--corpus", str(data / "train.jsonl"), *epochs, *pipeline]
    return {
        "train_ranker": [*train, "--out-dir", str(out / "ranker"), "--objective", "pairwise"],
        "train_reranker": [
            *train, "--out-dir", str(out / "reranker"), "--objective", "listwise",
            "--stage1-model", str(out / "ranker" / "model.json"),
            "--listwise-k", str(FLOW.listwise_k),
        ],
        "extract": [
            "extract", "--corpus", str(data / "test.jsonl"),
            "--model", str(out / "ranker" / "model.json"),
            "--reranker", str(out / "reranker" / "model.json"),
            "--out-dir", str(out / "extract"), *pipeline, *selection,
        ],
        "eval": [
            "eval", "--train-corpus", str(data / "train.jsonl"),
            "--validation-corpus", str(data / "validation.jsonl"),
            "--test-corpus", str(data / "test.jsonl"),
            "--out-dir", str(out / "eval"), "--objectives", ",".join(FLOW.objectives),
            "--listwise-k", str(FLOW.listwise_k), *epochs, *pipeline, *selection,
        ],
    }


def sha256(path: Path) -> str | None:
    if not path.is_file():
        return None
    return hashlib.sha256(path.read_bytes()).hexdigest()


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library bundled with NumPy, if any."""
    import numpy

    for path in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
    }


def report_summary(report_path: Path) -> dict:
    """report.json rows rounded to 1e-9, for later behaviour-unchanged comparisons.

    Prints the aggregate columns and a SHA-256 over every rounded row,
    per-instance columns included. A reference only, not a gate.
    """
    if not report_path.is_file():
        return {}

    def rnd(value):
        if isinstance(value, float):
            return round(value, 9)
        if isinstance(value, list):
            return [rnd(v) for v in value]
        return value

    rows = [
        {key: rnd(value) for key, value in row.items()}
        for row in json.loads(report_path.read_text(encoding="utf-8"))["rows"]
    ]
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode("utf-8")).hexdigest()
    aggregate = [{k: v for k, v in row.items() if not k.endswith("_per_instance")} for row in rows]
    return {"report_rows_1e-9": aggregate, "report_rows_1e-9_sha256": digest}


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    from uttrank.cli import dispatch

    import checks
    import spans

    workload = WORKLOADS[name]
    run_dir = WORK / f"{name}-{seed}-{os.getpid()}"
    data = run_dir / "data-0"
    tracer = spans.Tracer() if traced else None

    def call(argv: list[str]) -> tuple[int, float]:
        sink = io.StringIO()  # eval prints its table; the result line must come last
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                if tracer is None:
                    code = dispatch(argv)
                else:
                    with tracer.command(f"cli.{argv[0]}"):
                        code = dispatch(argv)
        except Exception:  # a crash fails this command, as exit code 1 would
            traceback.print_exc()
            code = 1
        return code, time.perf_counter() - start

    failures = checks.Failures()
    attempted = 0
    setup_times = []
    rounds = []
    try:
        with tracer.installed() if tracer else contextlib.nullcontext():
            synth_digests = []
            for repeat in range(1 if traced else SETUP_REPEATS):
                # A fresh directory each time: truncating files just written
                # can wait on writeback, which a first synth never pays.
                target = run_dir / f"data-{repeat}"
                attempted += 1
                code, elapsed = call(workload.synth_argv(target, seed))
                setup_times.append(elapsed)
                synth_digests.append([sha256(target / f"{s}.jsonl") for s in workload.splits])
                if code != 0 or synth_digests[-1] != synth_digests[0]:
                    failures.add("synth", f"set-up {len(setup_times)}: exit {code}, or corpus differs")
                if repeat:
                    # Deleted before writeback starts, so the copy's disk I/O
                    # does not land in the timed flow.
                    shutil.rmtree(target)

            begin = time.perf_counter()
            while True:
                out = run_dir / f"round-{len(rounds)}"
                times, codes = {}, {}
                flow_start = time.perf_counter()
                for step, argv in flow_argv(workload, data, out).items():
                    codes[step], times[step] = call(argv)
                times["flow"] = time.perf_counter() - flow_start
                digests = {step: sha256(out / rel) for step, rel in OUTPUTS.items()}
                rounds.append({"times": times, "codes": codes, "digests": digests, "out": out})
                attempted += len(STEPS) + workload.splits["test"]
                if traced or time.perf_counter() - begin >= seconds:
                    break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        last = rounds[-1]
        checks.check_round(failures, data, last["out"], FLOW, seed, workload.splits, workload.utterances)
        # Set-up runs write the same corpus, so a failed corpus check fails them all.
        failed = len(setup_times) if "synth" in failures.by_op else 0
        checked_steps = {op for op in failures.by_op if op in STEPS}
        bad_instances = sum(1 for op in failures.by_op if isinstance(op, tuple))
        first = rounds[0]["digests"]
        for r in rounds:
            bad = {s for s in STEPS if r["codes"][s] != 0 or r["digests"][s] != first[s]}
            for step in sorted(bad):
                failures.add(step, "non-zero exit, or output differs from the first round")
            failed += len(bad | checked_steps)
            failed += workload.splits["test"] if r["codes"]["extract"] != 0 else bad_instances

        if traced:
            metrics = tracer.layer_metrics()
            tracer.write(WORK / f"trace-{name}.npz")
        else:
            def median(key):
                return statistics.median(r["times"][key] for r in rounds)

            metrics = {
                "setup_s": statistics.median(setup_times),
                "train_ranker_s": median("train_ranker"),
                "train_reranker_s": median("train_reranker"),
                "extract_instances_per_s": statistics.median(
                    workload.splits["test"] / r["times"]["extract"] for r in rounds
                ),
                "eval_s": median("eval"),
                "flow_s": median("flow"),
                "peak_rss_mb": peak_rss_mb,
            }
        info = {
            "workload": name,
            "seed": seed,
            "traced": traced,
            "rounds": len(rounds),
            "setup_s": setup_times,
            "round_times_s": [r["times"] for r in rounds],
            "output_sha256": first,
            **report_summary(last["out"] / OUTPUTS["eval"]),
            "machine": machine_facts(),
            "failures": failures.sample(),
        }
        return {"info": info, "attempted": attempted, "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def load_metric_table(traced: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if traced else "end_to_end"]


def print_result(name: str, result: dict, traced: bool) -> None:
    table = load_metric_table(traced)
    missing = [m["name"] for m in table if m["name"] not in result["metrics"]]
    if missing:
        raise SystemExit(f"benchmark bug: metrics {missing} were not measured")
    info = result["info"]
    print(json.dumps(info, sort_keys=True))
    for m in table:
        print(f"{name} {m['name']} = {result['metrics'][m['name']]:.6g} {m['unit']}")
    print(f"{name} operations: attempted {result['attempted']}, failed {result['failed']}")
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in table},
    }
    print(json.dumps(line))


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is not cumulative."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "uttrank" / "__init__.py").is_file():
        print(f"error: no uttrank sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"  # before NumPy loads; children inherit it
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    import uttrank

    if Path(uttrank.__file__).resolve().parent != SRC / "uttrank":
        print(f"error: imported uttrank from {uttrank.__file__}, not {SRC}", file=sys.stderr)
        return 2
    traced = bool(args.trace)
    result = run_workload(args.workload, args.seed, args.seconds, traced)
    print_result(args.workload, result, traced)
    return 0


if __name__ == "__main__":
    sys.exit(main())
