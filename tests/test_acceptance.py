"""Acceptance gate: one test per shipping criterion.

Each criterion appears as test_criterion_N_*, so the verbose test log
reads as a per-criterion pass/fail report. Claims that are provably
false under one summation mode are split out as strict xfails right
below the passing form of the same criterion; they document the
boundary of the claim without weakening the gate.
"""

import time

import numpy as np
import pytest

from wmteleport.checks import run_checks
from wmteleport.operators import CHANNEL_KINDS
from wmteleport.pipeline import GHZ_INDICES, protect
from wmteleport.reproduce import TOLERANCE, build_manifest, protocol_verdict
from wmteleport.sweep import default_r_values, fmax_curve
from wmteleport.teleport import average_fidelity

from brute import brute_mc_average, brute_protect
from dense import pure, rho, state_fidelity


LOCUS = (("I", np.pi / 2, 1.0), ("II", 0.0, 0.0))


def _random_tuples(rng, n):
    """Parameter tuples for both protocols, clear of the degenerate
    corners that annihilate the branch sum."""
    out = []
    for _ in range(n // 2):
        out.append(("I", rng.uniform(0.05, np.pi - 0.05), rng.uniform(0.05, 1.0)))
        out.append(("II", rng.uniform(-0.95, 0.95), rng.uniform(-0.95, 0.95)))
    return out


def test_criterion_1_invariant_suite():
    start = time.monotonic()
    lines, ok = run_checks(seed=0)
    elapsed = time.monotonic() - start
    assert ok, "\n".join(lines)
    assert elapsed < 30.0, f"invariant suite took {elapsed:.1f}s"


def test_criterion_2_noiseless_limit_paper_mode():
    rng = np.random.default_rng(2024)
    for params in _random_tuples(rng, 100):
        for kind in CHANNEL_KINDS:
            shared = protect(*params, kind, 0.0, "paper")
            assert abs(average_fidelity(shared, measure="haar") - 1.0) <= 1e-10


@pytest.mark.xfail(
    strict=True,
    reason="in the mixture reading the r=0 shared state is a mixture "
    "of filtered branches, not the resource, so the noiseless average "
    "fidelity stays below 1 off the no-protection locus",
)
def test_criterion_2_noiseless_limit_physical_mode():
    rng = np.random.default_rng(2024)
    for params in _random_tuples(rng, 100):
        for kind in CHANNEL_KINDS:
            shared = protect(*params, kind, 0.0, "physical")
            assert abs(average_fidelity(shared, measure="haar") - 1.0) <= 1e-10


def test_criterion_3_mode_coincidence_single_branch_channels():
    # the two summation semantics agree where only one Kraus branch
    # survives AND the protection stages are trivial; away from the
    # no-protection locus the semantics differ even at r=0 (see the
    # strict xfail below)
    for params in LOCUS:
        for kind in CHANNEL_KINDS:
            a = protect(*params, kind, 0.0, "paper")
            b = protect(*params, kind, 0.0, "physical")
            assert state_fidelity(a, b) >= 1.0 - 1e-10
        a = protect(*params, "bfc", 1.0, "paper")
        b = protect(*params, "bfc", 1.0, "physical")
        assert state_fidelity(a, b) >= 1.0 - 1e-10
        # saturated phase flip has no coherent-sum state to compare:
        # the two branches cancel exactly
        with pytest.raises(ValueError, match="annihilate"):
            protect(*params, "pfc", 1.0, "paper")


@pytest.mark.xfail(
    strict=True,
    reason="coincidence at r=0 and single-branch r=1 holds only on the "
    "no-protection locus; generic parameters separate the coherent sum "
    "from the branch mixture",
)
def test_criterion_3_mode_coincidence_generic_parameters():
    for params in (("I", 0.8, 0.4), ("II", 0.5, 0.3)):
        for kind in CHANNEL_KINDS:
            a = protect(*params, kind, 0.0, "paper")
            b = protect(*params, kind, 0.0, "physical")
            assert state_fidelity(a, b) >= 1.0 - 1e-10


@pytest.fixture(scope="module")
def manifest():
    return build_manifest("polar", resolution=101, timestamp=False)


def test_criterion_4_reference_value_reproduction(manifest):
    # pass-if-either-mode at +/- 0.02; one target misses in both modes
    # and invokes the documented-discrepancy escape: the manifest must
    # carry both achieved values
    assert TOLERANCE == 0.02
    passed = [t["name"] for t in manifest["targets"] if t["passed"]]
    failed = [t["name"] for t in manifest["targets"] if not t["passed"]]
    assert len(passed) == 8
    assert failed == ["adc_II_r0.5"]
    entry = next(t for t in manifest["targets"] if t["name"] == "adc_II_r0.5")
    for mode in ("paper", "physical"):
        value = entry["achieved"][mode]["fmax"]
        assert isinstance(value, float)
        assert abs(value - entry["expected"]) > TOLERANCE
    assert any("adc_II_r0.5" in note for note in manifest["notes"])
    # the supplementary quotes (floor at r=0.9, baseline match, the
    # two phase-flip plateau values) must all hold
    assert manifest["supplementary_all_passed"] is True


def test_criterion_4_failing_target_verified_against_oracle(manifest):
    # before accepting the discrepancy, confirm the pipeline's value at
    # the failing target's own argmax against the independent
    # Monte-Carlo oracle, in both modes
    entry = next(t for t in manifest["targets"] if t["name"] == "adc_II_r0.5")
    rng = np.random.default_rng(41)
    for mode in ("paper", "physical"):
        point = entry["achieved"][mode]["params"]
        k1, k2 = point["k1"], point["k2"]
        claimed = entry["achieved"][mode]["fmax"]
        state = brute_protect("II", k1, k2, "adc", 0.5, mode)
        mc, stderr = brute_mc_average(state, rng, n=100_000, measure="polar")
        assert abs(mc - claimed) <= 3.0 * stderr + 1e-9, (mode, mc, claimed)


def test_criterion_5_dominance_verdicts():
    for kind in CHANNEL_KINDS:
        curve_i, curve_ii = (fmax_curve(protocol, kind, default_r_values(), resolution=101,
                                        mode="physical", measure="polar")
                             for protocol in ("I", "II"))
        rows = [(pi.r, pi.baseline, pi.fmax, pii.fmax) for pi, pii in zip(curve_i, curve_ii)]
        passed, line = protocol_verdict(kind, rows)
        assert passed, line


def test_criterion_6_oracle_equivalence():
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 20:
        proto = rng.choice(["I", "II"])
        if proto == "I":
            a, b = rng.uniform(0.1, np.pi - 0.1), rng.uniform(0.05, 1.0)
        else:
            a, b = rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)
        kind = rng.choice(list(CHANNEL_KINDS))
        r = float(rng.uniform(0.0, 0.9))
        mode = rng.choice(["paper", "physical"])
        point = (proto, a, b, kind, r, mode)
        try:
            shared = protect(*point)
        except ValueError:
            continue
        engine = average_fidelity(shared, measure="haar")
        state = brute_protect(*point)
        mc, stderr = brute_mc_average(state, rng, n=100_000, measure="haar")
        assert abs(engine - mc) <= 3.0 * stderr + 1e-9, (
            proto, a, b, kind, r, mode, engine, mc, stderr,
        )
        checked += 1


def test_criterion_7_phase_flip_support():
    outside = [i for i in range(16) if i not in GHZ_INDICES]
    for params in (("I", 0.8, 0.4), ("II", 0.5, 0.3)):
        for mode in ("paper", "physical"):
            shared = protect(*params, "pfc", 0.6, mode)
            if mode == "paper":
                residual = max(abs(pure(shared)[i]) for i in outside)
            else:
                mixed = rho(shared)
                residual = max(
                    abs(mixed[i, j])
                    for i in range(16)
                    for j in range(16)
                    if i in outside or j in outside
                )
            assert residual < 1e-10
