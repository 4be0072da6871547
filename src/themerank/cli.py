"""Command-line interface: classify, evaluate, grid and stats subcommands.

Data goes to standard output and files; progress goes to standard error.
All reports are machine-readable: flat JSON for metrics, delimited text for
rankings, grid summaries and scatter data.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, fields
from pathlib import Path

from . import config as cfgmod
from . import corpus as corpusmod
from .config import ConfigError, build_pipeline, descriptor, grid_configs, report_fields
from .metrics import MetricReport, evaluate_run
from .ranking import (
    REPRESENTATIONS,
    SIMILARITY_METHODS,
    CorpusOutcome,
    PipelineConfig,
    PipelineError,
    classify_corpus,
    classify_grid,
    write_rankings,
)

# Recorded in every metric report: noise removal runs before sentence
# segmentation throughout this pipeline.
PREPROCESS_ORDER = "noise_removal_before_segmentation"


def _bool_flag(value: str) -> bool:
    lowered = value.lower()
    if lowered in {"1", "true", "yes", "on"}:
        return True
    if lowered in {"0", "false", "no", "off"}:
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {value!r}")


def _worker_count(value: str) -> int:
    if not value.isdecimal() or int(value) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {value!r}")
    return int(value)


def _add_common_flags(parser: argparse.ArgumentParser, cell_flags: bool = True) -> None:
    parser.add_argument("--config", help="run-configuration file (YAML or JSON)")
    parser.add_argument("--k", type=int, help=f"suggestion list length (default {PipelineConfig.k})")
    if cell_flags:  # grid takes these four settings from its axes alone
        parser.add_argument(
            "--representation",
            choices=REPRESENTATIONS,
            help="appeal representation fed to the similarity stage",
        )
        parser.add_argument("--summary-size", type=int, help="sentences kept in the summary")
        parser.add_argument("--similarity", choices=SIMILARITY_METHODS, help="theme scoring method")
        parser.add_argument(
            "--remove-terms",
            type=_bool_flag,
            metavar="BOOL",
            help="enable/disable noise and stopword removal",
        )
    parser.add_argument("--alpha", type=float, help="centrality weight in guided summaries")
    parser.add_argument("--beta", type=float, help="guidance weight in guided summaries")
    parser.add_argument(
        "--embeddings",
        help="embedding file for the cosine path, or 'tfidf' for the built-in fallback",
    )
    parser.add_argument("--out", help="output directory")
    parser.add_argument(
        "--parallel",
        type=_worker_count,
        default=1,
        help="worker processes over appeals (default %(default)s)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="themerank",
        description="Rank catalog themes for long appeal documents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="rank themes for one appeal or a whole file")
    p_classify.add_argument("--appeals", help="delimited appeals file")
    p_classify.add_argument("--appeal-id", help="classify only this appeal id")
    p_classify.add_argument("--text", help="inline appeal text instead of a file")
    p_classify.add_argument("--themes", required=True, help="delimited theme catalog file")
    _add_common_flags(p_classify)
    p_classify.set_defaults(func=cmd_classify)

    p_eval = sub.add_parser("evaluate", help="run one configuration over a labeled corpus")
    p_eval.add_argument("--appeals", required=True)
    p_eval.add_argument("--themes", required=True)
    _add_common_flags(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)

    p_grid = sub.add_parser("grid", help="sweep the experiment grid from the config file")
    p_grid.add_argument("--appeals", required=True)
    p_grid.add_argument("--themes", required=True)
    _add_common_flags(p_grid, cell_flags=False)
    p_grid.set_defaults(func=cmd_grid)

    p_stats = sub.add_parser("stats", help="word-count statistics of a corpus file")
    p_stats.add_argument("--config", help="run-configuration file: its delimiter and appeal_columns")
    p_stats.add_argument("--input", required=True, help="delimited corpus file")
    p_stats.set_defaults(func=cmd_stats)

    return parser


def _merged_config(args) -> dict:
    overrides = {name: getattr(args, name, None) for name in cfgmod.OVERRIDE_PATHS}
    return cfgmod.apply_overrides(cfgmod.load_run_config(args.config), overrides)


def _load_corpus(loader, path: str, merged: dict, section: str):
    """Read a corpus file with the run file's delimiter and the columns its
    ``appeal_columns`` or ``theme_columns`` section names."""
    columns = {f"{role}_col": name for role, name in merged[section].items()}
    return loader(path, delimiter=merged["delimiter"], **columns)


def _outdir(args) -> Path | None:
    """The --out directory, created before any work so a bad path fails fast."""
    if not args.out:
        return None
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def _write_atomic(path: Path, write) -> None:
    """Run ``write`` on a sibling temporary path, then rename it over ``path``,
    so a reader never sees a partial file; on failure the temporary is removed."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_text(path: Path, text: str) -> None:
    _write_atomic(path, lambda tmp: tmp.write_text(text, encoding="utf-8"))


def cmd_classify(args) -> int:
    if args.text is not None and args.appeals is not None:
        raise ConfigError("classify takes --text or --appeals, not both")
    if args.text is None and args.appeals is None:
        raise ConfigError("classify needs --text or --appeals")
    if args.appeal_id is not None and args.appeals is None:
        raise ConfigError("classify --appeal-id needs --appeals")
    merged = _merged_config(args)
    pipeline = build_pipeline(merged)
    outdir = _outdir(args)
    catalog = _load_corpus(corpusmod.load_themes, args.themes, merged, "theme_columns")

    if args.text is not None:
        appeals = [corpusmod.AppealRecord(id="inline", raw_text=args.text)]
    else:
        appeals = _load_corpus(corpusmod.load_appeals, args.appeals, merged, "appeal_columns")
        if args.appeal_id is not None:
            appeals = [a for a in appeals if a.id == args.appeal_id]
            if not appeals:
                raise PipelineError(f"appeal id {args.appeal_id!r} not found in {args.appeals}")

    results, failures = classify_corpus(appeals, catalog, pipeline, parallel=args.parallel)
    for ranked in results:
        print(f"appeal {ranked.appeal_id}")
        print(f"{'rank':>4}  {'theme_id':<16}  score")
        for position, (theme_id, score) in enumerate(ranked.entries, start=1):
            print(f"{position:>4}  {theme_id:<16}  {score:.6f}")
    for failure in failures:
        print(f"failure: {failure}", file=sys.stderr)
    if not results:
        raise PipelineError(f"no appeal ranked ({len(failures)} failed)")

    if outdir is not None:
        gold = corpusmod.gold_labels(appeals, catalog)
        _write_atomic(outdir / "rankings.csv", lambda tmp: write_rankings(tmp, results, gold))
        print(f"wrote {outdir / 'rankings.csv'}", file=sys.stderr)
    return 0


def _report(
    results, failures: list[str], gold: dict, k: int, label: dict, outdir: Path | None, suffix: str = ""
) -> tuple[MetricReport, dict]:
    """Score one classified configuration: evaluate and every grid cell.

    ``label`` names the configuration in the metrics document. With an
    ``outdir``, ``rankings{suffix}.csv`` and ``metrics{suffix}.json`` are
    written there. Returns (report, metrics document).
    """
    if not results and failures:
        raise PipelineError(f"no appeal ranked ({len(failures)} failed; the first: {failures[0]})")
    report = evaluate_run(results, gold, k)
    document = asdict(report)
    document.update(failures=len(failures), preprocess_order=PREPROCESS_ORDER, **label)
    if outdir is not None:
        _write_atomic(outdir / f"rankings{suffix}.csv", lambda tmp: write_rankings(tmp, results, gold))
        _write_text(outdir / f"metrics{suffix}.json", json.dumps(document, sort_keys=True) + "\n")
    return report, document


def cmd_evaluate(args) -> int:
    merged = _merged_config(args)
    pipeline = build_pipeline(merged)
    outdir = _outdir(args)
    catalog = _load_corpus(corpusmod.load_themes, args.themes, merged, "theme_columns")
    appeals = _load_corpus(corpusmod.load_appeals, args.appeals, merged, "appeal_columns")

    started = time.perf_counter()
    results, failures = classify_corpus(appeals, catalog, pipeline, parallel=args.parallel)
    gold = corpusmod.gold_labels(appeals, catalog)
    label = {"config": descriptor(pipeline)}
    report, document = _report(results, failures, gold, pipeline.k, label, outdir)
    elapsed = time.perf_counter() - started
    print(
        f"evaluated {report.query_count} appeals "
        f"({report.skipped} skipped, {len(failures)} failed) in {elapsed:.1f}s",
        file=sys.stderr,
    )
    for failure in failures:
        print(f"failure: {failure}", file=sys.stderr)
    print(json.dumps(document, sort_keys=True))
    return 0


def _slug(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name)


def _run_cell(config: PipelineConfig, outcome: CorpusOutcome, gold: dict, outdir: Path | None):
    """Score and write one classified grid cell; a cell that cannot be scored
    is reported and the grid goes on. Its seconds are its classification
    time plus this step. Returns (report or None, failures, seconds)."""
    started = time.perf_counter()
    name = descriptor(config)
    report = error = None
    try:
        report, _ = _report(
            outcome.results, outcome.failures, gold, config.k, {"cell": name}, outdir, f"_{_slug(name)}"
        )
    except ValueError as exc:
        error = exc
    seconds = outcome.seconds + time.perf_counter() - started
    if error is not None:
        print(f"cell {name}: FAILED after {seconds:.1f}s: {error}", file=sys.stderr)
    else:
        print(f"cell {name}: done in {seconds:.1f}s", file=sys.stderr)
    return report, len(outcome.failures), seconds


# the metric columns of a grid row: MetricReport's fields after k, in its order
METRIC_COLUMNS = tuple(field.name for field in fields(MetricReport))[1:]
GRID_SUMMARY_HEADER = (
    "cell", "preprocess", "representation", "summary_size", "similarity",
    *METRIC_COLUMNS, "failures", "seconds",
)
SCATTER_HEADER = ("cell", "recall_at_k", "map_at_k", "ndcg_at_k")


def _csv_text(rows) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def cmd_grid(args) -> int:
    merged = _merged_config(args)
    configs = grid_configs(merged)  # a bad cell value fails here
    outdir = _outdir(args)
    catalog = _load_corpus(corpusmod.load_themes, args.themes, merged, "theme_columns")
    appeals = _load_corpus(corpusmod.load_appeals, args.appeals, merged, "appeal_columns")

    print(f"grid: {len(configs)} cells over {len(appeals)} appeals", file=sys.stderr)
    outcomes = classify_grid(appeals, catalog, configs, args.parallel)
    gold = corpusmod.gold_labels(appeals, catalog)
    summary, scatter = [GRID_SUMMARY_HEADER], [SCATTER_HEADER]
    for config, outcome in zip(configs, outcomes):
        report, failures, seconds = _run_cell(config, outcome, gold, outdir)
        name = descriptor(config)
        metrics = [""] * len(METRIC_COLUMNS)  # a failed cell keeps its row with empty metric fields
        if report is not None:
            metrics = [getattr(report, field) for field in METRIC_COLUMNS]
            scatter.append([name, *(getattr(report, field) for field in SCATTER_HEADER[1:])])
        summary.append([name, *report_fields(config), *metrics, failures, f"{seconds:.3f}"])

    summary_text = _csv_text(summary)
    print(summary_text, end="")
    if outdir is not None:
        _write_text(outdir / "grid_summary.csv", summary_text)
        _write_text(outdir / "scatter.csv", _csv_text(scatter))
        print(f"wrote {outdir / 'grid_summary.csv'} and {outdir / 'scatter.csv'}", file=sys.stderr)
    return 0


def cmd_stats(args) -> int:
    merged = cfgmod.load_run_config(args.config)
    records = _load_corpus(corpusmod.load_appeals, args.input, merged, "appeal_columns")
    print(json.dumps(asdict(corpusmod.corpus_stats(records)), sort_keys=True))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, csv.Error, BrokenProcessPool) as exc:
        # every load, config and I/O failure, and a worker process that died:
        # one line and exit 1, no traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
