"""Names that code outside `src` reads: the package's exports and the benchmark
tracer's targets.  Deleting or renaming one fails here in about a second."""

import importlib.util
import sys
from pathlib import Path

import intsing

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_exported_name_resolves():
    assert [name for name in intsing.__all__ if not hasattr(intsing, name)] == []


def test_every_benchmark_target_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for metric, (module, attr) in tracing.TARGETS.items():
        try:
            tracing._resolve(module, attr)
        except (ImportError, AttributeError, KeyError):
            missing.append(metric)
    assert missing == []
