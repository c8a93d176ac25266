"""Outside-in layer tracer for the wmteleport benchmark.

The tracer wraps functions of the package from the benchmark's side;
nothing under `src/` knows it exists. Because `from .x import y` copies
the binding into the importing module, each hook names the module where
the function is *looked up*, not where it is defined. A hook whose
target no longer exists is reported as absent instead of failing, so
the benchmark keeps running after a refactor deletes a layer.

Spans are kept in memory as flat records and written out at the end of
the run. A span's self time is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import importlib
import json
import math
from collections import Counter, defaultdict
from time import perf_counter

_CHECKS = (
    ("povm_completeness", "povm_completeness"),
    ("reversal_completeness", "reversal_completeness"),
    ("kraus_completeness", "kraus_completeness"),
    ("eta_orthonormality", "eta_orthonormality"),
    ("probability_sums", "probability_sums"),
    ("r0_limits", "r0_limits"),
    ("mode_coincidence", "mode_coincidence"),
    ("global_phase", "global_phase_invariance"),
    ("design_vs_quadrature", "design_vs_quadrature"),
)

# (module under wmteleport, attribute path, layer). Several lookup
# sites may feed one layer.
HOOKS = (
    ("cli", "_csv", "cli.serialize"),
    ("cli", "manifest_json", "cli.serialize"),
    ("cli", "_write_text", "cli.write"),
    ("cli", "build_manifest", "reproduce.build_manifest"),
    ("cli", "run_checks", "checks.run_checks"),
    ("cli", "sweep", "sweep.sweep"),
    ("reproduce", "fmax_curve", "sweep.fmax_curve"),
    ("sweep", "sweep", "sweep.sweep"),
    ("sweep", "_branch_slab", "sweep.branch_build"),
    ("sweep", "_fidelity_slab", "sweep.contract"),
    ("sweep", "_slab_argmax", "sweep.argmax"),
    ("sweep", "unprotected_baseline", "teleport.baseline"),
    ("checks", "protect", "pipeline.protect"),
    ("pipeline", "branch_operators", "operators.branch_operators"),
    ("checks", "teleport", "teleport.teleport"),
    ("teleport", "teleport", "teleport.teleport"),
    ("checks", "input_fidelities", "teleport.input_fidelities"),
    ("tensor", "MixedState.__post_init__", "tensor.mixed_state"),
) + tuple(("checks", f"_check_{fn}", f"checks.{name}") for fn, name in _CHECKS)

ROOT_LAYER = "cli.main"
# Every layer a span can carry: the hooked ones, plus refinement
# windows, which are `sweep` calls told apart by their caller.
LAYERS = frozenset(layer for _, _, layer in HOOKS) | {"sweep.refine"}
SCALAR_LAYERS = (
    "pipeline.protect",
    "operators.branch_operators",
    "teleport.teleport",
    "teleport.input_fidelities",
    "teleport.baseline",
    "tensor.mixed_state",
)
SWEEP_CORE = ("sweep.branch_build", "sweep.contract")


def _resolve(module: str, path: str):
    """(owner, attribute, value) for a hook target, or None if gone."""
    try:
        owner = importlib.import_module(f"wmteleport.{module}")
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
    value = getattr(owner, attr, None)
    if not callable(value):
        return None
    return owner, attr, value


class Tracer:
    """Install hooks on entry, record spans while installed, restore on
    exit. `wall` sums the time spent inside the `with` blocks."""

    def __init__(self):
        # One record per span: [layer, parent index, start, end, op].
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.absent: set[str] = set()
        self.op = -1
        self.wall = 0.0
        self._entered = 0.0
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._coarse: dict[int, object] = {}

    def _open(self, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, parent, 0.0, 0.0, self.op])
        self._stack.append(idx)
        self.spans[idx][2] = perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = perf_counter()
        self._stack.pop()

    def call(self, layer: str, fn, *args, **kwargs):
        """Run fn inside a span of its own (the op root)."""
        idx = self._open(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrap(self, layer: str, fn):
        after = getattr(self, "_after_" + layer.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            name = layer
            if layer == "sweep.sweep":
                name = self._sweep_kind()
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(idx, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _sweep_kind(self) -> str:
        """Inside fmax_curve, the first sweep is the coarse grid and
        every later one a refinement window."""
        parent = self._stack[-1] if self._stack else -1
        if parent >= 0 and parent in self._coarse:
            return "sweep.refine"
        return "sweep.sweep"

    def _after_sweep_sweep(self, idx, result) -> None:
        parent = self.spans[idx][1]
        if self.spans[idx][0] == "sweep.sweep" and parent >= 0 \
                and self.spans[parent][0] == "sweep.fmax_curve":
            self._coarse[parent] = result

    def _after_sweep_fmax_curve(self, idx, points) -> None:
        coarse = self._coarse.pop(idx, None)
        if coarse is None:
            return
        for point, (_, _, coarse_max) in zip(points, coarse.argmax):
            if not math.isnan(coarse_max):
                self.counts["sweep.refine.run"] += 1
                self.counts["sweep.refine.raised"] += point.fmax > coarse_max

    def _after_sweep_branch_build(self, idx, out) -> None:
        self.counts["sweep.branch_build.bytes_out"] += out.nbytes

    def _after_sweep_contract(self, idx, out) -> None:
        self.counts["sweep.contract.cells"] += out.size
        self.counts["sweep.nan_cells"] += int(out.size - (out == out).sum())

    def _after_cli_serialize(self, idx, text) -> None:
        self.counts["cli.serialize.bytes"] += len(text.encode("utf-8"))

    def __enter__(self):
        installed = set()
        for module, path, layer in HOOKS:
            found = _resolve(module, path)
            if found is None:
                continue
            owner, attr, fn = found
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(layer, fn))
            installed.add(layer)
        # A layer is absent only if none of its lookup sites exist.
        self.absent = {layer for _, _, layer in HOOKS} - installed
        self._entered = perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall += perf_counter() - self._entered
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)
        return False

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Total self seconds and call count per layer."""
        child = [0.0] * len(self.spans)
        for _, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        seconds: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for (layer, _, t0, t1, _), c in zip(self.spans, child):
            seconds[layer] += (t1 - t0) - c
            calls[layer] += 1
        return dict(seconds), calls

    def inclusive_times(self) -> dict[str, float]:
        total: dict[str, float] = defaultdict(float)
        for layer, _, t0, t1, _ in self.spans:
            total[layer] += t1 - t0
        return dict(total)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["layer", "parent", "start", "end", "op"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
