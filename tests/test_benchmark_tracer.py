"""The benchmark's per-layer tracer still finds every function it times.

``perfbench/tracing.py`` rebinds module attributes of the package by name and
raises when one is gone, so a renamed or deleted function fails here rather
than only in a traced benchmark run.
"""

import importlib
from pathlib import Path

from decisive import pipeline

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_binds_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    decide = pipeline.decide
    with tracing.Tracer().installed():
        assert pipeline.decide is not decide
    assert pipeline.decide is decide
