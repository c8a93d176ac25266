import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest


SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*args, cwd=None):
    # Put this checkout's src first on an absolute PYTHONPATH, so the child
    # imports the package under test whatever its cwd and whatever else is
    # installed; inherited entries follow it.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "wmteleport.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_check_subcommand_passes():
    proc = run_cli("check")
    assert proc.returncode == 0, proc.stderr
    assert "all 9 checks passed" in proc.stdout


def test_check_seed_runs_are_identical():
    a = run_cli("check", "--seed", "7")
    b = run_cli("check", "--seed", "7")
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0


def test_check_fault_injection_fails_loudly():
    proc = run_cli("check", "--inject-fault", "kraus_completeness")
    assert proc.returncode == 1
    assert "FAIL kraus_completeness" in proc.stdout


def test_surface_csv(tmp_path):
    out = tmp_path / "surface.csv"
    proc = run_cli(
        "surface",
        "--protocol", "I",
        "--channel", "adc",
        "--r", "0.5",
        "--resolution", "11",
        "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    header, rows = read_csv(out)
    assert header == ["axis1", "axis2", "r", "fidelity", "baseline"]
    assert len(rows) == 121
    fidelities = [float(row[3]) for row in rows if row[3] != "nan"]
    assert max(fidelities) > 0.99
    baselines = {row[4] for row in rows}
    assert len(baselines) == 1


def test_surface_round_trips_float_text(tmp_path):
    out = tmp_path / "surface.csv"
    run_cli(
        "surface",
        "--protocol", "II",
        "--channel", "bfc",
        "--r", "0.9",
        "--resolution", "5",
        "--out", str(out),
    )
    _, rows = read_csv(out)
    # %.17g preserves doubles exactly: parse and re-format must agree
    for row in rows[:5]:
        value = float(row[3])
        assert float(f"{value:.17g}") == value


def test_surface_noiseless_paper_mode_is_all_ones(tmp_path):
    out = tmp_path / "surface.csv"
    proc = run_cli(
        "surface",
        "--protocol", "II",
        "--channel", "bfc",
        "--r", "0",
        "--mode", "paper",
        "--resolution", "21",
        "--out", str(out),
    )
    assert proc.returncode == 0
    _, rows = read_csv(out)
    assert len(rows) == 441
    assert all(float(row[3]) == 1.0 for row in rows)


def test_surface_noiseless_protocol_one_has_single_gap(tmp_path):
    out = tmp_path / "surface.csv"
    run_cli(
        "surface",
        "--protocol", "I",
        "--channel", "pfc",
        "--r", "0",
        "--mode", "paper",
        "--resolution", "11",
        "--out", str(out),
    )
    _, rows = read_csv(out)
    missing = [row for row in rows if row[3] == "nan"]
    assert len(missing) == 1
    assert (missing[0][0], missing[0][1]) == ("0", "0")


def test_surface_single_cell(tmp_path):
    out = tmp_path / "one.csv"
    proc = run_cli(
        "surface",
        "--protocol", "I",
        "--channel", "adc",
        "--resolution", "1",
        "--out", str(out),
    )
    assert proc.returncode == 0
    _, rows = read_csv(out)
    assert len(rows) == 1


def test_fmax_csv(tmp_path):
    out = tmp_path / "fmax.csv"
    proc = run_cli(
        "fmax",
        "--protocol", "II",
        "--channel", "pfc",
        "--resolution", "31",
        "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    header, rows = read_csv(out)
    assert header == ["r", "fmax", "param1", "param2", "baseline"]
    assert len(rows) == 21
    by_r = {float(row[0]): float(row[1]) for row in rows}
    np.testing.assert_allclose(by_r[0.5], 11.0 / 15.0, atol=1e-3)
    np.testing.assert_allclose(by_r[0.9], 11.0 / 15.0, atol=1e-3)
    np.testing.assert_allclose(by_r[0.0], 1.0, atol=1e-10)


def test_compare_prints_verdict():
    proc = run_cli("compare", "--channel", "bfc", "--resolution", "21")
    assert proc.returncode == 0, proc.stderr
    assert ": confirmed" in proc.stdout


def test_reproduce_reports_and_exits_nonzero(tmp_path):
    out = tmp_path / "manifest.json"
    proc = run_cli(
        "reproduce", "--resolution", "31", "--seed", "3", "--out", str(out)
    )
    # one reference value is not reproduced by design, so the exit
    # status flags it
    assert proc.returncode == 1
    assert "8/9 targets reproduced" in proc.stdout
    assert "failing targets: adc_II_r0.5" in proc.stdout
    manifest = json.loads(out.read_text())
    assert manifest["failures"] == ["adc_II_r0.5"]
    assert "generated_at" not in manifest


def test_reproduce_seeded_is_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli("reproduce", "--resolution", "11", "--seed", "3", "--out", str(a))
    run_cli("reproduce", "--resolution", "11", "--seed", "3", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_reproduce_unseeded_carries_timestamp(tmp_path):
    out = tmp_path / "stamped.json"
    run_cli("reproduce", "--resolution", "11", "--out", str(out))
    manifest = json.loads(out.read_text())
    assert "generated_at" in manifest


@pytest.mark.parametrize(
    "args",
    [
        ("surface", "--protocol", "I", "--channel", "xyz", "--out", "x.csv"),
        ("surface", "--protocol", "I", "--channel", "adc", "--r", "1.5", "--out", "x.csv"),
        ("surface", "--protocol", "I", "--channel", "adc", "--resolution", "0", "--out", "x.csv"),
        ("fmax", "--protocol", "I", "--channel", "adc", "--resolution", "1", "--out", "x.csv"),
        ("surface", "--protocol", "III", "--channel", "adc", "--out", "x.csv"),
        ("surface", "--protocol", "I", "--channel", "adc", "--mode", "quantum", "--out", "x.csv"),
        ("surface", "--protocol", "I", "--channel", "adc", "--r", "nan", "--out", "x.csv"),
        ("surface", "--protocol", "I", "--channel", "adc", "--r", "inf", "--out", "x.csv"),
    ],
)
def test_bad_arguments_exit_two(args, tmp_path):
    proc = run_cli(*args, cwd=tmp_path)
    assert proc.returncode == 2
    # a usage error, not a child that failed to start
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_unwritable_output_exits_two(tmp_path):
    proc = run_cli(
        "surface",
        "--protocol", "I",
        "--channel", "adc",
        "--resolution", "3",
        "--out", str(tmp_path / "missing_dir" / "x.csv"),
    )
    assert proc.returncode == 2
    assert "error:" in proc.stderr


_SWEEP_COMMANDS = [
    ("surface", "--protocol", "I", "--channel", "adc", "--out", "x.csv"),
    ("fmax", "--protocol", "I", "--channel", "adc", "--out", "x.csv"),
    ("compare", "--channel", "adc"),
    ("reproduce", "--out", "x.json"),
]


class _Reached(Exception):
    pass


@pytest.fixture
def cli_without_sweeps(monkeypatch):
    """The CLI module in-process, with every grid-allocating entry point
    replaced by one that raises, so a budget test never builds a grid."""
    from wmteleport import cli

    def reached(*args, **kwargs):
        raise _Reached

    for name in ("default_grid", "fmax_curve", "compare_protocols", "build_manifest"):
        monkeypatch.setattr(cli, name, reached)
    return cli


@pytest.mark.parametrize("args", _SWEEP_COMMANDS)
def test_resolution_cell_budget(args, cli_without_sweeps, capsys):
    cli = cli_without_sweeps
    side = math.isqrt(cli.MAX_GRID_CELLS)
    for resolution in (side + 1, 10**6):
        with pytest.raises(SystemExit) as exc:
            cli.main([*args, "--resolution", str(resolution)])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
    with pytest.raises(_Reached):
        cli.main([*args, "--resolution", str(side)])
