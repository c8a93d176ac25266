"""The benchmark's tracer hooks package functions by name. A refactor
that renames or deletes a hooked function silently turns its layer
into an absent one; these tests pin the set of absent layers (only the
validation of the deleted `tensor` state containers; the unprotected
baseline is the sweep's named `unprotected_baseline` step) and the
counts a traced surface reports in each mode."""

import importlib
import sys
from pathlib import Path

import pytest

from wmteleport import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
ABSENT = {"tensor.mixed_state"}


@pytest.fixture
def tracer(monkeypatch):
    """perfbench's tracer module, imported read-only and forgotten after."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    module = importlib.import_module("tracer")
    monkeypatch.delitem(sys.modules, "tracer")
    return module


def test_every_benchmark_layer_but_the_tensor_layer_resolves(tracer):
    layers = {layer for _, _, layer in tracer.HOOKS}
    installed = {
        layer for module, path, layer in tracer.HOOKS if tracer._resolve(module, path)
    }
    assert layers - installed == ABSENT


# 200 x 200 cells: three sweep blocks and ten CSV blocks. The serialize
# count reads each `_csv` return value as text, so it equals the file
# size only if `_csv` returns str and the header goes through it.
_N = 200


def _traced_surface(tracer, out, mode):
    with tracer.Tracer() as traced:
        rc = cli.main(["surface", "--protocol", "II", "--channel", "bfc", "--r", "0.5",
                       "--mode", mode, "--resolution", str(_N), "--out", str(out)])
    assert rc == 0
    _, calls = traced.self_times()
    assert calls["sweep.branch_build"] > 1 and calls["cli.serialize"] > 1
    assert traced.counts["cli.serialize.bytes"] == out.stat().st_size
    assert traced.absent == ABSENT
    return traced.counts["sweep.branch_build.bytes_out"]


def test_traced_surface_counts_match_its_output(tracer, tmp_path, capsys):
    # a cell builds only its outcome-0 pair of branches, 8 floats
    assert _traced_surface(tracer, tmp_path / "surface.csv", "physical") == 64 * _N * _N


def test_traced_paper_surface_builds_only_the_outcome_zero_pair(tracer, tmp_path, capsys):
    assert _traced_surface(tracer, tmp_path / "surface.csv", "paper") == 64 * _N * _N
