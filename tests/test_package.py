"""The package's public names, and the names the bench tracer wraps."""

from __future__ import annotations

import importlib
from pathlib import Path

import stylauth


def test_every_public_name_resolves():
    missing = [name for name in stylauth.__all__ if not hasattr(stylauth, name)]
    assert missing == []
    assert len(set(stylauth.__all__)) == len(stylauth.__all__)


def test_every_name_the_bench_wraps_resolves(monkeypatch):
    # install raises AttributeError for a wrapped name the package lost
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    layers = importlib.import_module("layers")
    tracer = importlib.import_module("tracer").Tracer()
    try:
        layers.install(tracer)
    finally:
        tracer.uninstall()
