"""The measured process of one benchmark run; started by run.py.

It loads the generated corpus through the public API, runs the workload's
passes for the requested number of seconds and prints one JSON object on
its last line: the measured values, the counts and the correctness checks.
Running it in a fresh process keeps the generator out of its peak RSS.

Usage: python3 measure.py SPEC.json
"""

from __future__ import annotations

import csv
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

from themerank import cli, config, corpus, metrics, ranking, textproc

from gen import CSV_FIELD_LIMIT
from hostspeed import REFERENCE_S, reference_seconds
from spans import APPEAL_SPAN, TraceSummary, Tracer


class LatencyLog:
    """Wall time of every ``classify_appeal`` call, from this process and
    from the pool workers it forks (they inherit the append-only file)."""

    def __init__(self, path: Path):
        self.path = path
        self.fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_APPEND, 0o644)

    def install(self) -> None:
        classify = ranking.classify_appeal

        def timed(*args, **kwargs):
            start = time.perf_counter()
            result = classify(*args, **kwargs)
            os.write(self.fd, b"%.9f\n" % (time.perf_counter() - start))
            return result

        ranking.classify_appeal = timed

    def drain(self) -> list[float]:
        with open(self.path, encoding="ascii") as handle:
            values = [float(line) for line in handle]
        os.ftruncate(self.fd, 0)
        return values


class HostClock:
    """Host-speed references taken between segments of measured work."""

    def __init__(self, latency: LatencyLog):
        self.latency = latency
        self.last = reference_seconds()
        self.factors: list[float] = []
        self.samples: list[float] = []  # latencies at reference speed

    def segment(self, seconds: float) -> float:
        """Close a segment that took ``seconds``: time the reference again and
        return the segment's time at reference speed, taking the host speed
        as the mean of the references on both sides. The segment's latency
        samples are scaled the same way."""
        now = reference_seconds()
        factor = REFERENCE_S / ((self.last + now) / 2)
        self.last = now
        self.factors.append(factor)
        self.samples += [value * factor for value in self.latency.drain()]
        return seconds * factor


class Run:
    def __init__(self, spec: dict):
        self.spec = spec
        self.workdir = Path(spec["workdir"])
        self.checks: dict[str, bool] = {}
        self.notes: list[str] = []
        self.attempted = 0
        self.failed = 0
        merged = config.load_run_config(spec["config"])
        self.pipeline = config.build_pipeline(merged)
        self.cells = len(list(config.build_grid(merged).cells())) if spec["kind"] == "grid" else 1

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    def load(self) -> None:
        """Read the corpus files the way a user does; keep the generator's
        records when the loader rejects the file."""
        spec = self.spec
        self.catalog = corpus.load_themes(spec["themes"])
        with open(spec["records"], encoding="utf-8") as handle:
            generated = [corpus.AppealRecord(i, text, gold) for i, text, gold in json.load(handle)]
        self.load_error = None
        try:
            loaded = corpus.load_appeals(spec["appeals"])
        except (corpus.CorpusError, csv.Error) as exc:
            # the loader defect this workload exposes; every appeal of the
            # rejected file counts as failed, and the run goes on with the
            # generator's records so that every layer is still measured
            self.load_error = f"{type(exc).__name__}: {exc}"
            loaded = None
        # a rejected file passes only when it holds a field past csv's limit
        over_limit = any(len(r.raw_text) > CSV_FIELD_LIMIT for r in generated)
        self.check("load_round_trip", loaded == generated or (loaded is None and over_limit))
        self.records = generated
        self.gold = corpus.gold_labels(self.records, self.catalog)
        self.check("gold_resolves", len(self.gold) == len(self.records))

    # -- one pass over the workload -------------------------------------

    def cell_pass(self, parallel: int, clock: "HostClock | None" = None):
        """classify_corpus + evaluate_run over the corpus. With a clock the
        corpus goes in ``batches`` calls, each closed by a host reference."""
        batches = self.spec["batches"] if clock else 1
        size = -(-len(self.records) // batches)
        results, wall, scaled = [], 0.0, 0.0
        for first in range(0, len(self.records), size):
            start = time.perf_counter()
            got, failures = ranking.classify_corpus(
                self.records[first : first + size], self.catalog, self.pipeline, parallel=parallel
            )
            results += got
            self.check("every_appeal_ranked", not failures)
            if first + size >= len(self.records):
                report = metrics.evaluate_run(results, self.gold, self.pipeline.k)
            elapsed = time.perf_counter() - start
            wall += elapsed
            scaled += clock.segment(elapsed) if clock else elapsed
        self.attempted += len(self.records)
        self.failed += len(self.records) - len(results)
        self.check("every_appeal_ranked", len(results) == len(self.records))
        return wall, scaled, (report.recall_at_k, report.map_at_k), results

    def grid_pass(self, parallel: int, clock: "HostClock | None" = None):
        """``themerank grid`` through cli.main. With a clock every cell is
        closed by a host reference, taken between cells while no pool runs."""
        spec = self.spec
        outdir = self.workdir / "grid-out"
        argv = [
            "grid", "--appeals", spec["appeals"], "--themes", spec["themes"],
            "--config", spec["config"], "--parallel", str(parallel), "--out", str(outdir),
        ]
        cells, references = [], []
        run_cell = cli._run_cell
        if clock:
            def measured_cell(*args, **kwargs):
                start = time.perf_counter()
                result = run_cell(*args, **kwargs)
                elapsed = time.perf_counter() - start
                cells.append((elapsed, clock.segment(elapsed)))
                references.append(time.perf_counter() - start - elapsed)
                return result

            cli._run_cell = measured_cell
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                code = cli.main(argv)
        finally:
            cli._run_cell = run_cell
        wall = time.perf_counter() - start - sum(references)
        scaled = wall
        if clock:
            rest = wall - sum(raw for raw, _ in cells)
            scaled = sum(s for _, s in cells) + clock.segment(rest)
        self.check("grid_exit_0", code == 0)
        rows = []
        summary = outdir / "grid_summary.csv"
        if summary.is_file():
            with open(summary, encoding="utf-8", newline="") as handle:
                rows = list(csv.DictReader(handle))
        shutil.rmtree(outdir, ignore_errors=True)
        self.check("grid_rows", len(rows) == self.cells == self.spec["expected_cells"])
        self.attempted += self.units()
        self.failed += sum(int(r["failures"] or 0) if r["recall_at_k"] else len(self.records) for r in rows)
        self.check("grid_no_failed_cell", all(r["failures"] == "0" and r["recall_at_k"] for r in rows))
        if not rows or not all(r["recall_at_k"] for r in rows):
            return wall, scaled, (0.0, 0.0), None
        recall = statistics.fmean(float(r["recall_at_k"]) for r in rows)
        mean_ap = statistics.fmean(float(r["map_at_k"]) for r in rows)
        return wall, scaled, (recall, mean_ap), None

    def one_pass(self, parallel: int, clock: "HostClock | None" = None):
        if self.spec["kind"] == "grid":
            return self.grid_pass(parallel, clock)
        return self.cell_pass(parallel, clock)

    def units(self) -> int:
        """Appeal classifications per pass: appeals times grid cells."""
        return len(self.records) * self.cells

    # -- end-to-end run ---------------------------------------------------

    def parallel_bytes_check(self, serial_results) -> None:
        """rankings.csv at parallel 1 and at parallel 2 must be byte-identical."""
        texts = []
        for parallel, results in ((1, serial_results), (2, self.cell_pass(2)[3])):
            path = self.workdir / f"rankings-p{parallel}.csv"
            ranking.write_rankings(path, results, self.gold)
            texts.append(path.read_bytes())
        self.check("rankings_identical_parallel_1_2", texts[0] == texts[1])

    def end_to_end(self, latency: LatencyLog) -> dict:
        """Passes at the workload's parallelism for the requested seconds,
        timed at reference speed (see hostspeed.py)."""
        spec = self.spec
        clock = HostClock(latency)
        walls, scaled_walls, qualities = [], [], []
        started = time.perf_counter()
        while len(walls) < 2 or time.perf_counter() - started < spec["seconds"]:
            wall, scaled, quality, results = self.one_pass(spec["parallel"], clock)
            walls.append(wall)
            scaled_walls.append(scaled)
            qualities.append(quality)
            if len(walls) == 1 and spec["kind"] == "cell" and spec["parallel"] == 1:
                self.parallel_bytes_check(results)
                latency.drain()
                clock.last = reference_seconds()
        samples = clock.samples
        self.check("quality_repeats_exactly", len(set(qualities)) == 1)
        self.check("latency_samples", len(samples) == self.units() * len(walls))
        deciles = statistics.quantiles(samples, n=10)
        return {
            "appeals_per_s": self.units() / statistics.median(scaled_walls),
            "latency_p50_ms": 1000 * statistics.median(samples),
            "latency_p90_ms": 1000 * deciles[8],
            "recall_at_6": qualities[0][0],
            "map_at_6": qualities[0][1],
            "raw_appeals_per_s": self.units() / statistics.median(walls),
            "grid_s": statistics.median(scaled_walls),
            "host_speed": statistics.median(clock.factors),
            "passes": len(walls),
            "latency_samples": len(samples),
        }

    # -- traced run -------------------------------------------------------

    def traced(self, tracer: Tracer) -> dict:
        """Per-layer numbers at parallel 1, from the benchmark's own files.

        One traced pass through the workload's own path gives the
        once-per-batch functions. Then every appeal, under every cell
        configuration of the workload, is classified untraced and traced
        back to back until the seconds are spent: the traced calls give the
        per-appeal stages, and each pair gives the tracing overhead free of
        the host's slow drift in speed."""
        tracer.enabled = True
        self.one_pass(1)
        tracer.enabled = False
        batch = tracer.summary()

        first = len(tracer.spans)
        merged = config.load_run_config(self.spec["config"])
        if self.spec["kind"] == "grid":
            pipelines = [config.cell_config(self.pipeline, cell) for cell in config.build_grid(merged).cells()]
        else:
            pipelines = [self.pipeline]
        prepared = [ranking.prepare_themes(self.catalog, pipeline) for pipeline in pipelines]
        untraced, traced = [], []
        started = time.perf_counter()
        while not traced or time.perf_counter() - started < self.spec["seconds"]:
            for record in self.records:
                for pipeline, themes in zip(pipelines, prepared):
                    for enabled, times in ((False, untraced), (True, traced)):
                        tracer.enabled = enabled
                        start = time.perf_counter()
                        ranking.classify_appeal(record, self.catalog, pipeline, themes)
                        times.append(time.perf_counter() - start)
        tracer.enabled = False

        layers = layer_metrics(batch, tracer.summary(first), tracer.installed)
        layers.update(self.rule_breakdown())
        layers["trace.untraced_ms"] = 1000 * statistics.fmean(untraced)
        layers["trace.traced_ms"] = 1000 * statistics.fmean(traced)
        layers["trace.overhead_ms"] = layers["trace.traced_ms"] - layers["trace.untraced_ms"]
        return layers

    def rule_breakdown(self, repeats: int = 2) -> dict:
        """Cost of each removal rule and of stopword removal on their own,
        as single-rule ``remove_noise`` calls minus a call with no rule."""
        pre = self.pipeline.preprocess
        names = ["textproc.stopwords_ms"] + [f"textproc.rule.{r.name}_ms" for r in pre.removal_patterns]
        if not pre.remove_terms:
            return dict.fromkeys(names, 0.0)
        try:
            base = replace(pre, remove_terms=True, removal_patterns=(), stopwords=frozenset())
            variants = [replace(base, stopwords=pre.stopwords)]
            variants += [replace(base, removal_patterns=(rule,)) for rule in pre.removal_patterns]
            cores = [textproc.extract_core(r.raw_text, pre) for r in self.records]
            totals = [0.0] * len(variants)
            for text in cores:
                empty = _best_of(repeats, textproc.remove_noise, text, base)
                for i, variant in enumerate(variants):
                    totals[i] += _best_of(repeats, textproc.remove_noise, text, variant) - empty
        except (AttributeError, TypeError) as exc:
            self.notes.append(f"per-rule metrics absent, textproc changed shape: {exc}")
            return {}
        return {name: 1000 * total / len(cores) for name, total in zip(names, totals)}


def _best_of(repeats: int, fn, *args) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


# per-appeal self time of the stages inside classify_appeal
_STAGES = {
    "textproc.extract_core_ms": "textproc.extract_core",
    "textproc.remove_noise_ms": "textproc.remove_noise",
    "textproc.segment_ms": "textproc.segment",
    "textproc.tokenize_ms": "textproc.tokenize",
    "lexrank.summarize_ms": "lexrank.summarize",
    "lexrank.graph_ms": "lexrank.graph",
    "lexrank.centrality_ms": "lexrank.centrality",
    "lexrank.guidance_ms": "lexrank.guidance",
    "bm25.score_ms": "bm25.score",
    "similarity.tfidf_ms": "similarity.tfidf",
    "similarity.cosine_ms": "similarity.cosine",
    "ranking.classify_appeal_self_ms": APPEAL_SPAN,
}
# inclusive time per call of the once-per-batch functions
_BATCH = {
    "corpus.load_appeals_ms": "corpus.load_appeals",
    "corpus.load_themes_ms": "corpus.load_themes",
    "ranking.prepare_themes_ms": "ranking.prepare_themes",
    "bm25.build_index_ms": "bm25.build_index",
    "metrics.evaluate_run_ms": "metrics.evaluate_run",
    "ranking.write_rankings_ms": "ranking.write_rankings",
}


def layer_metrics(batch: TraceSummary, stages: TraceSummary, installed: set[str]) -> dict:
    """Per-layer metrics: once-per-batch functions from ``batch``, the
    stages inside classify_appeal, per appeal classification, from ``stages``."""
    appeals = stages.calls[(APPEAL_SPAN, True)]

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for metric, span in _STAGES.items():
        if span in installed:
            out[metric] = 1000 * ratio(stages.self_time[(span, True)], appeals)
    for metric, span in _BATCH.items():
        if span in installed:
            out[metric] = 1000 * ratio(batch.inclusive[(span, False)], batch.calls[(span, False)])
    if "ranking.classify_corpus" in installed:
        key = ("ranking.classify_corpus", False)
        out["ranking.classify_corpus_ms"] = 1000 * ratio(batch.self_time[key], batch.calls[key])
    if "cli.grid_cell" in installed:
        key = ("cli.grid_cell", False)
        out["cli.grid_cell_s"] = ratio(batch.inclusive[key], batch.calls[key])
    if "cli.grid" in installed:
        key = ("cli.grid", False)
        out["cli.grid_self_s"] = ratio(batch.self_time[key], batch.calls[key])
    if "corpus.load_appeals" in installed:
        loads = batch.calls[("corpus.load_appeals", False)]
        out["corpus.bytes_read"] = ratio(batch.counts[("bytes", False)], loads)
        out["corpus.load_errors"] = ratio(batch.failures[("corpus.load_appeals", False)], loads)
    if "textproc.remove_noise" in installed:
        chars_in = stages.counts[("chars_in", True)]
        out["textproc.chars_removed_frac"] = ratio(chars_in - stages.counts[("chars_out", True)], chars_in)
    for metric, count, span in (
        ("textproc.sentences", "sentences", "textproc.segment"),
        ("lexrank.graph_nnz", "nnz", "lexrank.graph"),
        ("lexrank.guidance_queries", "queries", "lexrank.guidance"),
    ):
        if span in installed:
            out[metric] = ratio(stages.counts[(count, True)], appeals)
    if "similarity.cosine" in installed:
        out["similarity.cosine_calls"] = ratio(stages.calls[("similarity.cosine", True)], appeals)
    inside = sum(v for (_, in_appeal), v in stages.self_time.items() if in_appeal)
    out["trace.stage_sum_ms"] = 1000 * ratio(inside, appeals)
    out["trace.appeals"] = appeals
    return out


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def main(argv: list[str]) -> int:
    with open(argv[0], encoding="utf-8") as handle:
        spec = json.load(handle)
    run = Run(spec)
    tracer = Tracer()
    if spec["trace"]:
        tracer.install()
        tracer.enabled = True
        run.load()
        values = run.traced(tracer)
        tracer.write(spec["spans_out"])
    else:
        latency = LatencyLog(run.workdir / "latency.txt")
        latency.install()
        run.load()
        values = run.end_to_end(latency)
        values["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps({
        "values": values,
        "checks": run.checks,
        "attempted": run.attempted,
        "failed": run.failed,
        "load_error": run.load_error,
        "appeals": len(run.records),
        "missing": tracer.missing,
        "notes": run.notes,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
