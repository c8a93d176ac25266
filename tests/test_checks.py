import tracemalloc

import pytest

from wmteleport import checks, cli, pipeline
from wmteleport.checks import FAULT_NAMES, run_checks


def test_all_checks_pass():
    lines, ok = run_checks(seed=0)
    assert ok
    assert all(line.startswith("ok ") for line in lines[:-1])
    assert lines[-1] == "all 9 checks passed"


def test_checks_are_seed_deterministic():
    a, _ = run_checks(seed=7)
    b, _ = run_checks(seed=7)
    assert a == b


def test_fault_injection_is_caught():
    lines, ok = run_checks(seed=0, inject_fault="kraus_completeness")
    assert not ok
    fail_lines = [line for line in lines if line.startswith("FAIL ")]
    assert len(fail_lines) == 1
    assert "kraus_completeness" in fail_lines[0]
    assert lines[-1].endswith("kraus_completeness")


def test_unknown_fault_is_rejected():
    with pytest.raises(ValueError):
        run_checks(seed=0, inject_fault="flux_capacitor")


def test_fault_names_catalogue():
    assert "kraus_completeness" in FAULT_NAMES


def _scaled_normalize(branches, mode):
    """`normalize_branches` with the branches scaled by 1.01 in
    amplitude, so every outcome-probability sum is 1.0201: outside the
    measurement span."""
    normalized, retained, annihilated = pipeline.normalize_branches(branches, mode)
    return 1.01 * normalized, retained, annihilated


def test_raising_check_reports_fail_not_traceback(monkeypatch, capsys):
    monkeypatch.setattr(checks, "normalize_branches", _scaled_normalize)
    lines, ok = run_checks(seed=0)
    assert ok is False
    fail = [line for line in lines if line.startswith("FAIL probability_sums: ")]
    assert len(fail) == 1
    assert "outside the measurement span" in fail[0]
    assert "sum to 1.0201" in fail[0]
    n_failed = sum(line.startswith("FAIL ") for line in lines)
    assert lines[-1].startswith(f"{n_failed} check(s) failed")

    assert cli.main(["check"]) == 1
    out = capsys.readouterr()
    assert "FAIL probability_sums: " in out.out
    assert "Traceback" not in out.out + out.err


def test_check_memory_stays_flat():
    # The quadrature contracts one row of 128 inputs at a time, so the
    # suite traces a few hundred KiB; one design matrix over all 8,192
    # inputs would hold several MiB.
    run_checks(seed=0)
    tracemalloc.start()
    try:
        lines, ok = run_checks(seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ok, lines
    assert peak < 2**20, f"traced peak {peak / 2**20:.2f} MiB"


def test_design_quadrature_gap_is_rounding_only(monkeypatch):
    # `check` prints only "ok design_vs_quadrature"; the gap itself must stay
    # at rounding level, far inside the check's own 1e-9 bound.
    details = []

    def recorded(rng):
        ok, detail = check(rng)
        details.append(detail)
        return ok, detail

    check = checks._check_design_vs_quadrature
    monkeypatch.setattr(checks, "_check_design_vs_quadrature", recorded)
    for seed in range(20):
        assert run_checks(seed=seed)[1]
    gaps = [float(detail.rsplit(" ", 1)[1]) for detail in details]
    assert len(gaps) == 20 and max(gaps) <= 1e-13, details
