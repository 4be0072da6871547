"""The benchmark's tracer wraps package functions at named module bindings;
a binding a refactor drops would only read 0 in a traced run. Loading the
tracer's table by path, without running the benchmark, catches it here."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_binding_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look their module up
    spec.loader.exec_module(spans)
    assert spans.BINDINGS
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in spans.BINDINGS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
