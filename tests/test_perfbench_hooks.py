"""The benchmark's tracer hooks package functions by name. A refactor
that renames or deletes a hooked function silently turns its layer
into an absent one; this test pins the set of absent layers: the
unprotected baseline, folded into the sweep contraction, and the
validation of the deleted `tensor` state containers."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_benchmark_layer_but_the_baseline_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    tracer = importlib.import_module("tracer")
    monkeypatch.delitem(sys.modules, "tracer")
    layers = {layer for _, _, layer in tracer.HOOKS}
    installed = {
        layer for module, path, layer in tracer.HOOKS if tracer._resolve(module, path)
    }
    assert layers - installed == {"teleport.baseline", "tensor.mixed_state"}
