"""The benchmark's tracer wraps package functions at named module bindings;
a binding a refactor drops would only read 0 in a traced run, and so would
one the pipeline no longer calls through. Loading the tracer's table by
path, without running the benchmark, catches both here."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from themerank.corpus import AppealRecord, ThemeCatalog, ThemeRecord
from themerank.ranking import PipelineConfig, classify_appeal

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# the bindings the headline cell (PipelineConfig's defaults) calls per appeal
HEADLINE_STAGES = (
    ("themerank.ranking", "extract_core"),
    ("themerank.ranking", "remove_noise"),
    ("themerank.ranking", "segment_sentences"),
    ("themerank.ranking", "summarize"),
    ("themerank.lexrank", "tokenize"),
    ("themerank.lexrank", "similarity_matrix"),
    ("themerank.lexrank", "centrality"),
    ("themerank.lexrank", "guidance_scores"),
)

HEADLINE_CATALOG = ThemeCatalog(
    [
        ThemeRecord("T1", "prescrição intercorrente execução fiscal"),
        ThemeRecord("T2", "honorários advocatícios sucumbência recursal"),
    ]
)
HEADLINE_APPEAL = AppealRecord(
    "A1",
    "A execução fiscal ficou parada por anos. "
    "Discute-se a prescrição intercorrente da execução. "
    "Os honorários advocatícios seguem a sucumbência.",
)


@pytest.fixture
def bindings(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look their module up
    spec.loader.exec_module(spans)
    assert spans.BINDINGS
    return spans.BINDINGS


def test_every_traced_binding_resolves(bindings):
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in bindings
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_headline_cell_calls_through_its_traced_bindings(bindings, monkeypatch):
    traced = {(module, attr) for module, attr, _, _ in bindings}
    assert [stage for stage in HEADLINE_STAGES if stage not in traced] == []

    calls = dict.fromkeys(HEADLINE_STAGES, 0)

    def counted(stage, fn):
        def wrapper(*args, **kwargs):
            calls[stage] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module_name, attr in HEADLINE_STAGES:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, counted((module_name, attr), getattr(module, attr)))

    assert classify_appeal(HEADLINE_APPEAL, HEADLINE_CATALOG, PipelineConfig()).entries
    assert {f"{m}.{a}": n for (m, a), n in calls.items() if n == 0} == {}


def test_headline_counters_read_non_zero(bindings, monkeypatch):
    # the tracer drops a counter's errors, so a counter that no longer fits
    # its binding's arguments or result reads 0 in a traced run; here it raises
    counts = {}

    def counting(fn, counter):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            for name, value in counter(args, result).items():
                counts[name] = counts.get(name, 0) + value
            return result

        return wrapper

    for module_name, attr, _, counter in bindings:
        if counter is not None and (module_name, attr) in HEADLINE_STAGES:
            module = importlib.import_module(module_name)
            monkeypatch.setattr(module, attr, counting(getattr(module, attr), counter))

    assert classify_appeal(HEADLINE_APPEAL, HEADLINE_CATALOG, PipelineConfig()).entries
    assert set(counts) == {"chars_in", "chars_out", "sentences", "nnz", "queries"}
    assert {name: value for name, value in counts.items() if not value > 0} == {}
