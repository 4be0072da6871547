"""themerank benchmark: four paper-shaped workloads, one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. The run generates the workload's corpus from the seed, writes it
with ``themerank.corpus.write_appeals``/``write_themes``, times set-up in
fresh interpreters, then starts one measured process (measure.py) that runs
the workload for S seconds and checks its outputs. It prints every metric by
name and unit, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gen
from hostspeed import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RUN_LIMIT_S = 170
SETUP_REPEATS = 7

_PREPROCESS = {"core_start_markers": [gen.CORE_START], "core_end_markers": [gen.CORE_END]}
HEADLINE = {
    "preprocess": {"remove_terms": True, **_PREPROCESS},
    "representation": "guided_lexrank",
    "summary": {"size": 15},
    "similarity": "bm25",
    "k": 6,
}


@dataclass(frozen=True)
class Workload:
    kind: str  # "cell": classify_corpus + evaluate_run; "grid": themerank grid
    parallel: int
    shape: gen.CorpusShape
    config: dict
    expected_cells: int = 1
    batches: int = 1  # classify_corpus calls per pass, each closed by a host reference
    stream: int = 0  # keeps the corpora of two workloads apart for one seed


# why each workload exists: BENCHMARK.json and README.md
WORKLOADS = {
    "cell-guided": Workload(
        "cell", 1, gen.CorpusShape(110, 1, 15000), HEADLINE, stream=1, batches=5,
    ),
    "grid-paper": Workload(
        "grid", 2, gen.CorpusShape(28, 1, 15000),
        {**HEADLINE, "grid": {
            "preprocess": ["remove", "keep"],
            "representations": ["guided_lexrank", "lexrank", "fulltext"],
            "summary_sizes": [10, 15, 30],
            "similarity_methods": ["bm25"],
        }},
        expected_cells=14, stream=2,
    ),
    "long-tail": Workload(
        "cell", 2, gen.CorpusShape(15, 20000, gen.PUBLISHED_MAX_WORDS), HEADLINE, stream=3,
    ),
    "fulltext-cosine": Workload(
        "cell", 1, gen.CorpusShape(160, 1, 15000),
        {"preprocess": {"remove_terms": False, **_PREPROCESS}, "representation": "fulltext",
         "similarity": "cosine", "embeddings": "tfidf", "k": 6},
        stream=4, batches=4,
    ),
}

def metric_units(section: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list[str], timeout: float) -> str:
    """Run a child in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(
        [sys.executable, *argv], cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"error: {argv[0]} did not finish within {timeout:.0f}s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # reap any worker it left behind
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"error: {argv[0]} exited with {proc.returncode}")
    return out


def write_corpus(workload: Workload, seed: int, workdir: Path) -> dict:
    from themerank import corpus

    themes, appeals = gen.make_corpus(workload.shape, seed * 16 + workload.stream)
    paths = {
        "themes": workdir / "themes.csv",
        "appeals": workdir / "appeals.csv",
        "records": workdir / "records.json",
        "config": workdir / "config.json",
    }
    corpus.write_themes(paths["themes"], [corpus.ThemeRecord(i, t) for i, t in themes])
    corpus.write_appeals(paths["appeals"], [corpus.AppealRecord(i, t, g) for i, t, g in appeals])
    paths["records"].write_text(json.dumps(appeals, ensure_ascii=False), encoding="utf-8")
    paths["config"].write_text(json.dumps(workload.config, ensure_ascii=False), encoding="utf-8")
    print("corpus_stats", json.dumps(gen.corpus_stats(themes, appeals), sort_keys=True))
    return {k: str(v) for k, v in paths.items()}


def setup_seconds(paths: dict, deadline: float) -> tuple[float, float]:
    """Median fresh-interpreter set-up time at reference speed, and raw,
    after one untimed warm-up that fills the bytecode and file caches."""
    probe = [str(HERE / "setup_probe.py"), paths["config"], paths["themes"], paths["appeals"]]
    run_child(probe, deadline - time.monotonic())
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        seconds, reference = map(float, run_child(probe, deadline - time.monotonic()).split()[-2:])
        raw.append(seconds)
        scaled.append(seconds * REFERENCE_S / reference)
    return statistics.median(scaled), statistics.median(raw)


def machine_facts() -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "themerank" / "__init__.py").is_file():
        print(f"error: no themerank sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    deadline = time.monotonic() + RUN_LIMIT_S
    workload = WORKLOADS[args.workload]
    print("machine", json.dumps(machine_facts(), sort_keys=True))
    print(f"workload {args.workload} kind={workload.kind} parallel={workload.parallel} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        paths = write_corpus(workload, args.seed, workdir)
        setup = (None, None) if args.trace else setup_seconds(paths, deadline)
        spec = {
            **paths, "workdir": str(workdir), "kind": workload.kind, "parallel": workload.parallel,
            "expected_cells": workload.expected_cells, "batches": workload.batches, "seconds": args.seconds, "trace": args.trace,
            "spans_out": str(WORK / f"spans-{args.workload}.jsonl"),
        }
        (workdir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        out = run_child([str(HERE / "measure.py"), str(workdir / "spec.json")], deadline - time.monotonic() - 2)
        measured = json.loads(out.strip().splitlines()[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return report(args, workload, measured, setup)


def report(args, workload: Workload, measured: dict, setup: tuple) -> int:
    values = measured["values"]
    attempted, failed = measured["attempted"], measured["failed"]
    units = metric_units("per_layer" if args.trace else "end_to_end")
    if not args.trace:
        values["setup_s"], raw_setup = setup
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values}
    absent = [name for name in units if name not in values]

    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    if absent:
        print("absent (function removed by a refactor):", " ".join(absent))
    if measured["missing"]:
        print("missing bindings:", " ".join(measured["missing"]))
    for note in measured["notes"]:
        print("note:", note)
    if not args.trace:
        print(f"host speed factor {values['host_speed']:.4g}: timings above are at reference speed; raw "
              f"setup_s {raw_setup:.6g} s, appeals_per_s {values['raw_appeals_per_s']:.6g} 1/s")
        if workload.kind == "grid":
            print(f"grid_s {values['grid_s']:.6g} s (median grid wall time at reference speed)")
        rejected = measured["appeals"] if measured["load_error"] else 0
        print(f"failed_frac {rejected / measured['appeals']:.6g} ratio "
              f"({rejected} of {measured['appeals']} appeals in a file load_appeals rejected"
              + (f": {measured['load_error']})" if rejected else ")"))
        print(f"passes {values['passes']}, latency samples {values['latency_samples']}")
    else:
        print(f"trace check: stage self times sum to {values['trace.stage_sum_ms']:.4g} ms/appeal; "
              f"untraced {values['trace.untraced_ms']:.4g} ms, overhead {values['trace.overhead_ms']:.4g} ms "
              f"over {values['trace.appeals']:g} traced appeal classifications")
    print("checks", json.dumps(measured["checks"], sort_keys=True))

    correct = all(measured["checks"].values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
