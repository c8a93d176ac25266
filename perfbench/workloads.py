"""The three benchmark workloads: the ops each one runs and the
checks its outputs must pass.

An op is one user-visible `wmteleport` subcommand, run in-process
through `wmteleport.cli.main(argv)`. Ops write their outputs into a
work directory; every output is checked after the timed region, so
checking costs no op time.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())
# Largest deviation a recomputed or frozen value may show.
TOL = 1e-12


@dataclass
class Op:
    kind: str
    argv: list[str]
    expect_rc: int
    out: Path | None = None
    params: dict = field(default_factory=dict)
    seconds: float = math.nan
    rc: object = None
    stdout: str = ""
    sha256: str = ""
    problem: str | None = None
    traced: bool = False
    twin: Op | None = None

    def copy(self) -> Op:
        """The same op, writing its output to a file of its own."""
        out = self.out and self.out.with_name("twin-" + self.out.name)
        argv = [str(out) if out and a == str(self.out) else a for a in self.argv]
        return Op(self.kind, argv, self.expect_rc, out, dict(self.params))

    def summary(self) -> dict:
        argv = [Path(a).name if self.out and a == str(self.out) else a for a in self.argv]
        return {"argv": argv, "s": self.seconds, "rc": self.rc, "traced": self.traced,
                "sha256": self.sha256, "problem": self.problem}


@dataclass
class Verification:
    """What the output checks found across a run."""

    max_abs_dev: float = 0.0
    oracle_cells: int = 0

    def deviation(self, got: float, want: float, oracle: bool = False) -> str | None:
        """None if got matches want within TOL; NaN matches only NaN.
        Deviations from the oracle feed `max_abs_dev`."""
        if math.isnan(want) or math.isnan(got):
            return None if math.isnan(want) and math.isnan(got) else f"{got!r} vs {want!r}"
        dev = abs(got - want)
        if oracle:
            self.max_abs_dev = max(self.max_abs_dev, dev)
            self.oracle_cells += 1
        return None if dev <= TOL else f"{got!r} vs {want!r} (|d|={dev:.3g})"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Workload:
    name = ""
    # A run ends only after a whole number of these many ops, so every
    # run times the same mix of ops.
    cycle = 1
    # Digest of the output every op must reproduce byte for byte, if any.
    frozen_sha256: str | None = None

    def verify(self, ops, oracle, found: Verification) -> None:
        """Check every op that ran cleanly; an unreadable output fails
        its op rather than the benchmark."""
        for op in ops:
            if op.problem is None:
                try:
                    op.problem = self.check(op, oracle, found)
                except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                    op.problem = f"unreadable output: {type(exc).__name__}: {exc}"

    def check(self, op: Op, oracle, found: Verification) -> str | None:
        raise NotImplementedError


class ReferenceTable(Workload):
    """`reproduce --seed`: the nine-target reference table, 12 distinct
    (protocol, channel, r) keys under both modes, each a 101x101 coarse
    slab plus a refinement window."""

    name = "reference_table"
    frozen_sha256 = EXPECTED["reproduce_manifest_sha256"]

    def __init__(self):
        self._verdicts: dict[str, str | None] = {}

    def ops(self, seed: int, workdir: Path):
        for i in itertools.count():
            out = workdir / f"manifest-{i}.json"
            yield Op("reproduce", ["reproduce", "--seed", str(seed), "--out", str(out)],
                     EXPECTED["reproduce_rc"], out)

    def check(self, op: Op, oracle, found: Verification) -> str | None:
        data = op.out.read_bytes()
        op.sha256 = _sha(data)
        if op.sha256 not in self._verdicts:
            self._verdicts[op.sha256] = self._check_manifest(json.loads(data), oracle, found)
        return self._verdicts[op.sha256]

    def _check_manifest(self, manifest: dict, oracle, found: Verification) -> str | None:
        frozen = EXPECTED["reproduce_manifest"]
        for key in ("all_passed", "failures", "supplementary_all_passed"):
            if manifest.get(key) != frozen[key]:
                return f"{key}: {manifest.get(key)!r}, expected {frozen[key]!r}"
        for section in ("targets", "supplementary"):
            got, want = manifest.get(section, []), frozen[section]
            if [e["name"] for e in got] != [e["name"] for e in want]:
                return f"{section}: entries differ from the frozen manifest"
            for entry, ref in zip(got, want):
                name = entry["name"]
                for key in ("passed", "passed_by"):
                    if entry[key] != ref[key]:
                        return f"{name} {key}: {entry[key]!r}, expected {ref[key]!r}"
                bad = found.deviation(entry["baseline"], ref["baseline"])
                bad = bad or found.deviation(
                    entry["baseline"], oracle.baseline(entry["channel"], entry["r"], "physical"),
                    oracle=True)
                if bad:
                    return f"{name} baseline: {bad}"
                names = ("omega", "q") if entry["protocol"] == "I" else ("k1", "k2")
                for mode, block in entry["achieved"].items():
                    fmax = block["fmax"]
                    a, b = (block["params"][n] for n in names)
                    bad = found.deviation(fmax, ref["achieved"][mode]["fmax"])
                    bad = bad or found.deviation(
                        fmax, oracle.fidelity(entry["protocol"], a, b, entry["channel"],
                                              entry["r"], mode), oracle=True)
                    if bad:
                        return f"{name} {mode} fmax: {bad}"
        return None


class InvariantCheck(Workload):
    """`check --seed s` for successive seeds, with one
    `--inject-fault kraus_completeness` op in every pass of five."""

    name = "invariant_check"
    PASS = 5
    cycle = PASS

    def ops(self, seed: int, workdir: Path):
        for i in itertools.count():
            argv = ["check", "--seed", str(seed * 100_000 + i)]
            if i % self.PASS == self.PASS - 1:
                yield Op("fault", argv + ["--inject-fault", "kraus_completeness"],
                         EXPECTED["check_fault_rc"])
            else:
                yield Op("check", argv, 0)

    def check(self, op: Op, oracle, found: Verification) -> str | None:
        op.sha256 = _sha(op.stdout.encode("utf-8"))
        want = EXPECTED["check_fault_lines" if op.kind == "fault" else "check_lines"]
        if op.stdout.splitlines() != want:
            return f"report differs: {op.stdout.splitlines()!r}"
        return None


class DenseSurfaces(Workload):
    """`surface --resolution 401` cycling over protocol x channel x mode,
    with r drawn from the seed; each output is a 160801-row CSV."""

    name = "dense_surfaces"
    RESOLUTION = 401
    SAMPLES = 16
    HEADER = b"axis1,axis2,r,fidelity,baseline"
    COMBOS = [(p, ch, mode) for ch in ("adc", "bfc", "pfc")
              for mode in ("physical", "paper") for p in ("I", "II")]
    cycle = len(COMBOS)

    def ops(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        for i in itertools.count():
            protocol, channel, mode = self.COMBOS[i % len(self.COMBOS)]
            r = str(round(float(rng.uniform(0.05, 0.95)), 3))
            out = workdir / f"surface-{i}.csv"
            argv = ["surface", "--protocol", protocol, "--channel", channel,
                    "--mode", mode, "--r", r, "--resolution", str(self.RESOLUTION),
                    "--out", str(out)]
            yield Op("surface", argv, 0, out,
                     {"protocol": protocol, "channel": channel, "mode": mode,
                      "r": float(r), "sample_seed": [seed, i]})

    def check(self, op: Op, oracle, found: Verification) -> str | None:
        data = op.out.read_bytes()
        op.sha256 = _sha(data)
        lines = data.splitlines()
        n = self.RESOLUTION
        if lines[0] != self.HEADER or len(lines) != 1 + n * n:
            return f"unexpected CSV shape: header {lines[0]!r}, {len(lines)} lines"
        p = op.params
        hi1 = math.pi / 2.0 if p["protocol"] == "I" else 1.0
        axis1, axis2 = np.linspace(0.0, hi1, n), np.linspace(0.0, 1.0, n)
        base = oracle.baseline(p["channel"], p["r"], p["mode"])
        rng = np.random.default_rng(p["sample_seed"])
        corners = [(0, 0), (0, n - 1), (n - 1, 0), (n - 1, n - 1)]
        cells = corners + [tuple(c) for c in rng.integers(0, n, size=(self.SAMPLES, 2))]
        for i1, i2 in cells:
            a, b, r, fid, baseline = map(float, lines[1 + i1 * n + i2].split(b","))
            if r != p["r"]:
                return f"cell ({i1}, {i2}) has r={r!r}, expected {p['r']!r}"
            for label, got, want in (("axis1", a, axis1[i1]), ("axis2", b, axis2[i2])):
                bad = found.deviation(got, float(want))
                if bad:
                    return f"cell ({i1}, {i2}) {label}: {bad}"
            bad = found.deviation(baseline, base, oracle=True)
            if bad:
                return f"cell ({i1}, {i2}) baseline: {bad}"
            bad = found.deviation(fid, oracle.fidelity(p["protocol"], a, b, p["channel"],
                                                       p["r"], p["mode"]), oracle=True)
            if bad:
                return f"cell ({i1}, {i2}) fidelity: {bad}"
        return None


WORKLOADS = {w.name: w for w in (ReferenceTable, InvariantCheck, DenseSurfaces)}
