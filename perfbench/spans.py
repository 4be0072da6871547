"""Spans around calls into themerank, recorded from outside the package.

The tracer replaces a public function at the module binding the pipeline
calls it through (``themerank.ranking.summarize``, not
``themerank.lexrank.summarize``, because ``ranking`` imported the name).
Spans stay in memory until the run ends. A span's self time is its duration
minus the time its child spans cover, so the self times of the spans under
one ``classify_appeal`` add up to that call's duration.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field

APPEAL_SPAN = "ranking.classify_appeal"


def _nnz(args, result):
    return {"nnz": result.weights.nnz}


def _sentences(args, result):
    return {"sentences": len(result)}


def _chars(args, result):
    return {"chars_in": len(args[0]), "chars_out": len(result)}


def _queries(args, result):
    return {"queries": sum(1 for tokens in args[0] if tokens)}


def _bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute, span name, counter): every binding the pipeline and
# the CLI call through. The same function may sit behind several bindings.
BINDINGS = (
    ("themerank.corpus", "load_appeals", "corpus.load_appeals", _bytes),
    ("themerank.corpus", "load_themes", "corpus.load_themes", _bytes),
    ("themerank.ranking", "extract_core", "textproc.extract_core", None),
    ("themerank.ranking", "remove_noise", "textproc.remove_noise", _chars),
    ("themerank.ranking", "segment_sentences", "textproc.segment", _sentences),
    ("themerank.ranking", "tokenize", "textproc.tokenize", None),
    ("themerank.lexrank", "tokenize", "textproc.tokenize", None),
    ("themerank.ranking", "summarize", "lexrank.summarize", None),
    ("themerank.lexrank", "similarity_matrix", "lexrank.graph", _nnz),
    ("themerank.lexrank", "centrality", "lexrank.centrality", None),
    ("themerank.lexrank", "guidance_scores", "lexrank.guidance", _queries),
    ("themerank.ranking", "build_index", "bm25.build_index", None),
    ("themerank.similarity", "scores_for_all", "bm25.score", None),
    ("themerank.ranking", "tfidf_vectors", "similarity.tfidf", None),
    ("themerank.ranking", "cosine", "similarity.cosine", None),
    ("themerank.ranking", "prepare_themes", "ranking.prepare_themes", None),
    ("themerank.ranking", "classify_appeal", APPEAL_SPAN, None),
    ("themerank.ranking", "classify_corpus", "ranking.classify_corpus", None),
    ("themerank.cli", "classify_corpus", "ranking.classify_corpus", None),
    ("themerank.ranking", "write_rankings", "ranking.write_rankings", None),
    ("themerank.cli", "write_rankings", "ranking.write_rankings", None),
    ("themerank.metrics", "evaluate_run", "metrics.evaluate_run", None),
    ("themerank.cli", "evaluate_run", "metrics.evaluate_run", None),
    ("themerank.cli", "_run_cell", "cli.grid_cell", None),
    ("themerank.cli", "cmd_grid", "cli.grid", None),
)


@dataclass
class Span:
    name: str
    parent: int
    start: float
    end: float = 0.0
    failed: bool = False
    counts: dict = field(default_factory=dict)


class Tracer:
    """Wraps the bindings once; records spans only while ``enabled``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self.missing: list[str] = []
        self.installed: set[str] = set()
        self._stack: list[int] = []

    def install(self) -> None:
        for module_name, attr, name, counter in BINDINGS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                # removed by a refactor: its metrics are reported absent
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(name, fn, counter))
            self.installed.add(name)

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = Span(name, self._stack[-1] if self._stack else -1, 0.0)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if counter is not None:
                    try:
                        span.counts = counter(args, result)
                    except (AttributeError, TypeError, OSError):
                        pass  # failed call, or a refactor changed the shape

        return traced

    def summary(self, first: int = 0) -> "TraceSummary":
        """Self and inclusive time per span name over ``spans[first:]``,
        split by whether the span ran inside an appeal's classification."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans[first:]:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        in_appeal = {}
        out = TraceSummary()
        for i in range(first, len(self.spans)):
            span = self.spans[i]
            inside = span.name == APPEAL_SPAN or in_appeal.get(span.parent, False)
            in_appeal[i] = inside
            duration = span.end - span.start
            key = (span.name, inside)
            out.calls[key] += 1
            out.inclusive[key] += duration
            out.self_time[key] += duration - child_time[i]
            out.failures[key] += span.failed
            for count, value in span.counts.items():
                out.counts[(count, inside)] += value
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps([span.name, span.parent, span.start, span.end, span.failed, span.counts]) + "\n")


@dataclass
class TraceSummary:
    calls: dict = field(default_factory=lambda: defaultdict(int))
    inclusive: dict = field(default_factory=lambda: defaultdict(float))
    self_time: dict = field(default_factory=lambda: defaultdict(float))
    failures: dict = field(default_factory=lambda: defaultdict(int))
    counts: dict = field(default_factory=lambda: defaultdict(float))
