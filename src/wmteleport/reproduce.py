"""One-shot evaluation of the bundled reference table.

The table lists nine quoted maximum-fidelity values (three channels,
two protocols, decoherence 0.5 and 0.9). Each is re-derived by a full
sweep under both summation modes; a target passes if at least one mode
lands within its tolerance. Both achieved values are always recorded,
so a discrepancy is documented rather than hidden. A few supplementary
checks from the same table (a floor, a baseline match, and the two
phase-flip protocol II values) ride along without counting toward the
nine. The paper's protocol comparison, which the `compare` command
reports, is judged here too: `protocol_verdict` applies the same pass
rule to both protocols' F_max curves. This module is the one place
that decides whether a result bears out the paper.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

import numpy as np

from .operators import PROTOCOL_AXES
from .pipeline import MODES
from .sweep import DEFAULT_RESOLUTION, default_axes, fmax_curve

TOLERANCE = 0.02

_MEASURE_LONG = {
    "haar": "uniform Bloch-sphere (Haar)",
    "polar": "real-arc",
}

_CHANNEL_LONG = {
    "adc": "amplitude damping",
    "bfc": "bit flip",
    "pfc": "phase flip",
}

__all__ = [
    "TOLERANCE",
    "ReferenceTarget",
    "SupplementaryCheck",
    "REFERENCE_TARGETS",
    "SUPPLEMENTARY_CHECKS",
    "build_manifest",
    "manifest_json",
    "manifest_lines",
    "protocol_verdict",
]


@dataclass(frozen=True)
class ReferenceTarget:
    """One quoted maximum-fidelity value to reproduce: kind "value",
    passed when |achieved - expected| <= tolerance."""

    name: str
    protocol: str
    channel: str
    r: float
    expected: float
    tolerance: float = TOLERANCE

    kind = "value"

    @property
    def source(self) -> str:
        return (
            f"reference maximum-fidelity table, protocol {self.protocol}, "
            f"{_CHANNEL_LONG[self.channel]} channel, r={self.r:g}"
        )


@dataclass(frozen=True)
class SupplementaryCheck:
    """A reference-table statement that is not one of the nine point
    values: kind "floor" (achieved >= expected), "matches_baseline"
    (|achieved - baseline| <= tolerance), or "value" (same rule as a
    target)."""

    name: str
    protocol: str
    channel: str
    r: float
    kind: str
    expected: float | None = None
    tolerance: float = TOLERANCE


REFERENCE_TARGETS: tuple[ReferenceTarget, ...] = (
    ReferenceTarget("adc_I_r0.5", "I", "adc", 0.5, 0.999),
    ReferenceTarget("bfc_I_r0.5", "I", "bfc", 0.5, 0.7667),
    ReferenceTarget("bfc_I_r0.9", "I", "bfc", 0.9, 0.58),
    ReferenceTarget("pfc_I_r0.5", "I", "pfc", 0.5, 0.733),
    ReferenceTarget("pfc_I_r0.9", "I", "pfc", 0.9, 0.734),
    ReferenceTarget("adc_II_r0.5", "II", "adc", 0.5, 0.81),
    ReferenceTarget("adc_II_r0.9", "II", "adc", 0.9, 0.754),
    ReferenceTarget("bfc_II_r0.5", "II", "bfc", 0.5, 0.767),
    ReferenceTarget("bfc_II_r0.9", "II", "bfc", 0.9, 0.733),
)

SUPPLEMENTARY_CHECKS: tuple[SupplementaryCheck, ...] = (
    SupplementaryCheck("adc_I_r0.9_floor", "I", "adc", 0.9, "floor", 0.97),
    SupplementaryCheck(
        "bfc_I_r0.9_matches_baseline", "I", "bfc", 0.9, "matches_baseline"
    ),
    SupplementaryCheck("pfc_II_r0.5", "II", "pfc", 0.5, "value", 0.733),
    SupplementaryCheck("pfc_II_r0.9", "II", "pfc", 0.9, "value", 0.733),
)


def _fmax_table(resolution: int, measure: str) -> dict:
    """The FmaxPoint of every (protocol, channel, r, mode) that a target
    or supplementary check names, from one `fmax_curve` per (protocol,
    channel, mode) over that pair's r values. Every r-slab is evaluated
    on its own, so each point is bitwise the single-r curve's."""
    r_values: dict[tuple[str, str], set[float]] = {}
    for entry in REFERENCE_TARGETS + SUPPLEMENTARY_CHECKS:
        r_values.setdefault((entry.protocol, entry.channel), set()).add(entry.r)
    table = {}
    for (protocol, channel), rs in r_values.items():
        for mode in MODES:
            curve = fmax_curve(protocol, channel, r_values=np.array(sorted(rs)),
                               resolution=resolution, mode=mode, measure=measure)
            for point in curve:
                table[protocol, channel, point.r, mode] = point
    return table


def _passes(kind: str, fmax: float, expected, tolerance: float, baseline: float) -> bool:
    """The pass rule of one reference entry or protocol claim for one
    achieved F_max."""
    if kind == "floor":
        return fmax >= expected
    if kind == "matches_baseline":
        return abs(fmax - baseline) <= tolerance
    if kind == "value":
        return abs(fmax - expected) <= tolerance
    raise ValueError(f"unknown reference kind {kind!r}")


# F_max values this close tie when one protocol is claimed to be at or
# above the other: refinement rounding, not a ranking.
_TIE_SLACK = 1e-9


def protocol_verdict(channel: str, rows) -> tuple[bool, str]:
    """Whether the `compare` rows (r, baseline, F_I, F_II) of one
    channel bear out the paper's protocol comparison, and the report
    line. Each claim is judged by `_passes`: amplitude damping, F_I as a
    floor above F_II - 1e-9 at every r >= 0.3; bit flip, F_II as a floor
    above F_I - 1e-9 at the r nearest 0.9 (a tie goes to the higher r);
    phase flip, F_I as a value within TOLERANCE of F_II at every r. A
    NaN F_max fails every claim that reads it."""
    if channel == "adc":
        passed = all(_passes("floor", f_i, f_ii - _TIE_SLACK, TOLERANCE, baseline)
                     for r, baseline, f_i, f_ii in rows if r >= 0.3 - 1e-12)
        claim = "protocol I maximum fidelity stays at or above protocol II for r >= 0.3"
    elif channel == "bfc":
        r, baseline, f_i, f_ii = min(rows, key=lambda row: (abs(row[0] - 0.9), -row[0]))
        passed = _passes("floor", f_ii, f_i - _TIE_SLACK, TOLERANCE, baseline)
        claim = f"protocol II maximum fidelity at r = {r:g} is at or above protocol I"
    elif channel == "pfc":
        passed = all(_passes("value", f_i, f_ii, TOLERANCE, baseline)
                     for _, baseline, f_i, f_ii in rows)
        gap = np.max([abs(f_i - f_ii) for _, _, f_i, f_ii in rows])  # NaN if any is
        claim = (f"the two protocols' maximum fidelities agree within {TOLERANCE:g} "
                 f"at every r (largest gap {gap:.3g})")
    else:
        raise ValueError(f"unknown channel kind {channel!r}")
    return bool(passed), f"{claim}: " + ("confirmed" if passed else "violated")


def _evaluate(entry, table: dict) -> dict:
    """The manifest entry of one target or supplementary check: its
    fields, the achieved F_max and parameters under both modes, the
    baseline, and the modes that pass the entry's rule."""
    n1, n2 = (name for name, _, _ in PROTOCOL_AXES[entry.protocol])
    achieved = {}
    for mode in MODES:
        point = table[entry.protocol, entry.channel, entry.r, mode]
        achieved[mode] = {"fmax": point.fmax,
                          "params": {n1: point.param1, n2: point.param2}}
    baseline = point.baseline
    passed_by = [
        mode
        for mode, block in achieved.items()
        if _passes(entry.kind, block["fmax"], entry.expected, entry.tolerance, baseline)
    ]
    return {**asdict(entry), "achieved": achieved, "baseline": baseline,
            "passed": bool(passed_by), "passed_by": passed_by}


def build_manifest(
    measure: str,
    resolution: int = DEFAULT_RESOLUTION,
    timestamp: bool = True,
) -> dict:
    """Evaluate every target and supplementary check under both modes
    and return the manifest as a plain dict, ready for JSON."""
    table = _fmax_table(resolution, measure)
    targets = [{**_evaluate(tgt, table), "source": tgt.source} for tgt in REFERENCE_TARGETS]
    supplementary = [_evaluate(chk, table) for chk in SUPPLEMENTARY_CHECKS]
    failures = [tgt["name"] for tgt in targets if not tgt["passed"]]
    manifest = {
        "schema": 1,
        "input_measure": measure,
        "mode_policy": "pass if either summation mode lands within tolerance",
        "grids": {
            "resolution": resolution,
            **{
                f"protocol_{protocol}": {
                    name: axis[[0, -1]].tolist()
                    for (name, _, _), axis in zip(axes, default_axes(protocol, 2))
                }
                for protocol, axes in PROTOCOL_AXES.items()
            },
            "refinement": "one 10x local pass around each coarse argmax",
        },
        "targets": targets,
        "supplementary": supplementary,
        "all_passed": not failures,
        "supplementary_all_passed": all(s["passed"] for s in supplementary),
        "failures": failures,
        "notes": [
            "achieved values are recorded for both summation modes; a "
            "target passes if either mode is within tolerance",
            f"averages use the {_MEASURE_LONG[measure]} input measure (see README)",
        ],
    }
    for tgt in targets:
        if not tgt["passed"]:
            relation = (
                "sits close to" if abs(tgt["expected"] - tgt["baseline"]) <= tgt["tolerance"]
                else f"lies more than {tgt['tolerance']:g} from"
            )
            manifest["notes"].append(
                f"{tgt['name']}: neither mode reaches the quoted value "
                f"{tgt['expected']:g}; the quoted value {relation} the "
                f"unprotected baseline {tgt['baseline']:.4f}, while the "
                "sweep maxima are recorded above"
            )
    if timestamp:
        manifest["generated_at"] = datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        )
    return manifest


def manifest_json(manifest: dict) -> str:
    return json.dumps(manifest, sort_keys=True, indent=2) + "\n"


def manifest_lines(manifest: dict) -> list[str]:
    """Human-readable one-line-per-target report for the CLI."""
    lines = []
    for tgt in manifest["targets"]:
        ach = tgt["achieved"]
        status = "PASS" if tgt["passed"] else "FAIL"
        via = f" ({', '.join(tgt['passed_by'])})" if tgt["passed_by"] else ""
        lines.append(
            f"{status} {tgt['name']}: expected {tgt['expected']:g} "
            f"+/- {tgt['tolerance']:g}, paper {ach['paper']['fmax']:.4f}, "
            f"physical {ach['physical']['fmax']:.4f}{via}"
        )
    for chk in manifest["supplementary"]:
        ach = chk["achieved"]
        status = "PASS" if chk["passed"] else "FAIL"
        lines.append(
            f"{status} {chk['name']} [{chk['kind']}]: "
            f"paper {ach['paper']['fmax']:.4f}, "
            f"physical {ach['physical']['fmax']:.4f}"
        )
    n_pass = sum(1 for t in manifest["targets"] if t["passed"])
    lines.append(f"{n_pass}/{len(manifest['targets'])} targets reproduced")
    if manifest["failures"]:
        lines.append("failing targets: " + ", ".join(manifest["failures"]))
    return lines
