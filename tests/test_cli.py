import csv
import ctypes
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wmteleport import cli
from wmteleport.operators import CHANNEL_KINDS
from wmteleport.sweep import (
    FmaxPoint,
    default_axes,
    default_r_values,
    fmax_curve,
    sweep,
    unprotected_baseline,
)


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


def reference_csv(header, rows):
    """The row-wise formatter the column-wise block writer must match."""
    return "\n".join([header, *(",".join("%.17g" % v for v in row) for row in rows)]) + "\n"


def assert_same_text(got, want):
    """got == want, failing with the first differing line rather than
    pytest's diff of two texts of up to a few MB, which is very slow."""
    if got == want:
        return
    got_lines, want_lines = got.split("\n"), want.split("\n")
    for i, (line, wanted) in enumerate(zip(got_lines, want_lines)):
        if line != wanted:
            pytest.fail(f"line {i} differs: got {line!r}, want {wanted!r}")
    pytest.fail(f"got {len(got_lines)} lines, want {len(want_lines)}")


_ULPS = [0.1, np.nextafter(0.1, 1.0), np.nextafter(0.1, 0.0), np.nextafter(0.0, 1.0)]
_HOSTILE_COLUMNS = {
    "signed_zeros": [[-0.0, 0.0, -0.0, 0.0], [0.0, -0.0, 0.0, -0.0]],
    "non_finite_and_subnormal": [
        [np.nan, np.inf, -np.inf, 5e-324, -5e-324, -np.nan],
        [5e-324, np.nan, np.nan, -np.inf, 0.0, 1.0],
    ],
    "one_ulp_apart": [_ULPS * 3, _ULPS[::-1] * 3],
    "all_constant": [[0.5] * 7, [np.nan] * 7, [-0.0] * 7],
    "zero_rows": [[], [], []],
    "one_row": [[1.0 / 3.0], [-2.5], [np.nan]],
    "block_boundary": [
        np.linspace(0.0, 1.0, 4097),
        np.repeat([0.25, -0.0, np.nan], [2000, 2000, 97]),
        [1e-300] * 4097,
        np.sqrt(np.arange(4097.0)),
    ],
}


@pytest.mark.parametrize("columns", _HOSTILE_COLUMNS.values(), ids=_HOSTILE_COLUMNS)
def test_csv_matches_row_wise_reference(columns):
    header = ",".join(f"c{i}" for i in range(len(columns)))
    want = reference_csv(header, zip(*(np.asarray(c, dtype=float) for c in columns)))
    assert_same_text("".join(cli._csv_blocks(header, columns)), want)


@given(
    pool=st.lists(st.floats(), min_size=1, max_size=6),
    picks=st.lists(st.lists(st.integers(0, 5), max_size=40), min_size=1, max_size=6),
    block_rows=st.integers(1, 9),
)
def test_csv_matches_reference_on_repeated_values(pool, picks, block_rows):
    # a small pool makes repeats the rule; short blocks cross many boundaries
    n = min(map(len, picks))
    columns = [[pool[i % len(pool)] for i in column[:n]] for column in picks]
    header = ",".join(f"c{i}" for i in range(len(columns)))
    with mock.patch.object(cli, "_CSV_BLOCK_ROWS", block_rows):
        got = "".join(cli._csv_blocks(header, columns))
    assert_same_text(got, reference_csv(header, zip(*columns)))


@pytest.mark.parametrize("block_rows", [1, 7, 4096])
def test_csv_rows_follow_numpy_broadcasting(block_rows):
    # a block may start mid-row of any axis; a column may broadcast along
    # any subset of them
    rng = np.random.default_rng(3)
    columns = [rng.random((3, 1, 1)), rng.random((1, 4, 1)) - 0.5, rng.random((3, 4, 1)),
               rng.random(5), np.array([0.25])]
    rows = zip(*(c.reshape(-1) for c in np.broadcast_arrays(*columns)))
    with mock.patch.object(cli, "_CSV_BLOCK_ROWS", block_rows):
        got = "".join(cli._csv_blocks("a,b,c,d,e", columns))
    assert_same_text(got, reference_csv("a,b,c,d,e", rows))


_TINY = -2.2250738585072014e-308  # the longest `%.17g` text, 24 bytes
# (block rows, columns): with 3 block rows and a trailing axis of 3, each
# block is one index of the leading axis. Within a block a column's
# cells are as wide as its widest text there, so the layout of the
# reused buffer changes with the first column; the (1, n) columns are
# the same in every block and are formatted and placed only once.
_BUFFER_REUSE = {
    "wide_then_narrow": (3, [
        np.array([[_TINY], [0.5], [2.0]]),
        np.array([[np.nan, -0.0, 1e-300]]),
        np.array([[1e-300, 0.25, 0.5], [0.25, 1e-300, 0.5], [0.5, 0.5, 0.5]]),
        np.array(1e22),
    ]),
    "narrow_then_wide": (3, [
        np.array([[2.0], [0.5], [_TINY]]),
        np.array([[-0.0, 1e-300, np.nan]]),
        np.array([[0.5, 0.5, 0.5], [0.25, 0.5, 1e-300], [1e-300, 0.5, _TINY]]),
        np.array(1e22),
    ]),
    # one layout throughout, with a shorter text after a longer one in a cell
    "shorter_in_place": (3, [
        np.array([[1.5], [2.5], [3.5]]),
        np.array([[np.nan, -0.0, 1e22]]),
        np.array([[1e-300, 0.5, 0.5], [0.5, 1e-300, 0.5], [0.5, 0.5, 1e-300]]),
    ]),
    # a trailing axis longer than a block: each block holds one whole index
    "long_trailing_axis": (2, [
        np.array([[0.5], [_TINY], [3.0]]),
        np.array([[np.nan, -0.0, 1e-300, 0.5, 1.0 / 3.0]]),
        np.arange(15.0).reshape(3, 5) / 7.0,
    ]),
}


@pytest.mark.parametrize("block_rows, columns", _BUFFER_REUSE.values(), ids=_BUFFER_REUSE)
def test_reused_block_buffer_keeps_no_stale_bytes(block_rows, columns):
    header = ",".join(f"c{i}" for i in range(len(columns)))
    rows = zip(*(c.reshape(-1) for c in np.broadcast_arrays(*columns)))
    with mock.patch.object(cli, "_CSV_BLOCK_ROWS", block_rows):
        blocks = list(cli._csv_blocks(header, columns))
    assert len(blocks) == 3
    assert_same_text("".join(blocks), reference_csv(header, rows))


def _exactness_values():
    """About 1.1M seeded doubles for the formatter: the bulk, both sides
    of every edge of its exact path, and the values it leaves to `%`."""
    rng = np.random.default_rng(20251019)
    bulk = [
        rng.random(400_000),  # fidelities
        10.0 ** rng.uniform(-4.0, 16.0, 300_000),  # the fixed-notation span
        10.0 ** rng.uniform(-7.0, 19.0, 100_000),  # both ends beyond it
        -rng.random(50_000),  # negatives
        rng.integers(1, 10**6, 50_000) * 10.0 ** rng.integers(0, 11, 50_000),  # integers
    ]
    # Exact ties of the 17-digit rounding: for an odd j below 2**53 and
    # X in [-4, 15], x = j / 2**(17 - X) makes x * 10**(16 - X) = j * 5**(16 - X) / 2.
    ties = []
    for x in range(-4, 16):
        scale = 2 ** (17 - x)
        top = min(10.0 ** (x + 1) * scale, 2.0**53)
        ties.append((2 * rng.integers(int(10.0**x * scale) // 2, int(top) // 2, 3_000) + 1) / scale)
    ties = np.concatenate(ties)
    # powers of ten, where log10 can miss and the exponent steps
    tens = np.array([10.0**k for k in range(-7, 19)] + [float(f"1e{k}") for k in range(-7, 19)])
    edges = np.concatenate([ties, tens, 9.5 * tens, 0.95 * tens])
    near = [np.nextafter(edges, 0.0), edges, np.nextafter(edges, np.inf)]
    axes = [np.linspace(0.0, math.pi / 2, n) for n in (401, 1024)]
    axes += [np.linspace(-1.0, 1.0, n) for n in (401, 1024)]
    special = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
               np.nextafter(2.2250738585072014e-308, 0.0), 1.0, np.nextafter(1.0, 0.0),
               np.nextafter(0.1, 0.0), 1.7976931348623157e308, 2.0**53, 2.0**53 + 2.0,
               100.0, 1200.0, 1e15, 123456789012340.0, 0.5, 0.25, 1e16 - 2.0]
    return np.concatenate([*bulk, *near, *axes, special])


def test_field_text_is_percent_17g():
    values = _exactness_values()
    assert values.size > 1_000_000
    # in CSV-block-sized calls, as the writer makes them
    blocks = np.array_split(values, values.size // cli._CSV_BLOCK_ROWS)
    texts, sizes = zip(*map(cli._field_text, blocks))
    got = np.concatenate(texts).view(f"S{cli._FIELD}")[:, 0]
    want = np.array(list(map("%.17g".__mod__, values.tolist())), dtype=got.dtype)
    wrong = np.flatnonzero(got != want)
    assert wrong.size == 0, [(values[i], got[i], want[i]) for i in wrong[:5]]
    assert np.array_equal(np.concatenate(sizes), np.char.str_len(want))


def test_fidelities_take_the_exact_path():
    # `%` formats only the edge cases, never the bulk: with `_FMT`
    # swapped for repr, a value it formatted would read differently
    values = np.random.default_rng(7).random(cli._CSV_BLOCK_ROWS)
    with mock.patch.object(cli, "_FMT", "%r"):
        got = cli._field_text(values)[0].view(f"S{cli._FIELD}")[:, 0]
    assert (got == np.array(["%.17g" % v for v in values.tolist()], dtype=got.dtype)).all()


def _bits_equal(got, want):
    got, want = np.asarray(got, dtype=float), np.broadcast_to(want, np.shape(got))
    nan = np.isnan(want)
    return np.array_equal(np.isnan(got), nan) and np.array_equal(
        got[~nan].view(np.int64), want[~nan].view(np.int64)
    )


# r = 0 (protocol I) and r = 1 (protocol II: bit flip, and phase flip in
# paper mode) include annihilated cells; 65 x 65 rows cross a CSV block
# boundary.
@pytest.mark.parametrize("r", ["0", "0.37", "1"])
@pytest.mark.parametrize("mode", ["paper", "physical"])
@pytest.mark.parametrize("channel", ["adc", "bfc", "pfc"])
@pytest.mark.parametrize("protocol", ["I", "II"])
def test_surface_fields_are_the_sweep_bits(protocol, channel, mode, r, tmp_path, capsys):
    out = tmp_path / "surface.csv"
    argv = ["surface", "--protocol", protocol, "--channel", channel, "--mode", mode,
            "--r", r, "--resolution", "65", "--out", str(out)]
    assert cli.main(argv) == 0
    axis1, axis2 = default_axes(protocol, 65)
    result = sweep(protocol, axis1, axis2, channel, float(r), mode, "polar")
    _, rows = read_csv(out)
    got = np.array([[float(field) for field in row] for row in rows]).T
    assert _bits_equal(got[0], np.repeat(axis1, axis2.size))
    assert _bits_equal(got[1], np.tile(axis2, axis1.size))
    assert _bits_equal(got[2], float(r))
    assert _bits_equal(got[3], result.fidelity.reshape(-1))
    assert _bits_equal(got[4], unprotected_baseline(channel, float(r), mode, "polar")[0])


# 129 x 129 rows are five CSV blocks. Protocol II at r = 1 (bit flip)
# has an annihilated cell.
@pytest.mark.parametrize("mode", ["paper", "physical"])
@pytest.mark.parametrize("protocol, channel, r", [("I", "adc", "0.37"), ("II", "bfc", "1")])
def test_surface_csv_is_the_row_wise_text(protocol, channel, r, mode, tmp_path, capsys):
    out = tmp_path / "surface.csv"
    n = 129
    assert cli.main(["surface", "--protocol", protocol, "--channel", channel, "--mode", mode,
                     "--r", r, "--resolution", str(n), "--out", str(out)]) == 0
    axis1, axis2 = default_axes(protocol, n)
    result = sweep(protocol, axis1, axis2, channel, float(r), mode, "polar")
    baseline = unprotected_baseline(channel, float(r), mode, "polar")[0]
    rows = zip(np.repeat(axis1, n), np.tile(axis2, n), [float(r)] * n * n,
               result.fidelity.reshape(-1), [baseline] * n * n)
    assert_same_text(out.read_text(), reference_csv("axis1,axis2,r,fidelity,baseline", rows))


def test_fmax_and_compare_csv_match_reference(tmp_path, capsys):
    fmax_out, compare_out = tmp_path / "fmax.csv", tmp_path / "compare.csv"
    # 4-row blocks: the 21 rows are written in six blocks, the last ragged
    with mock.patch.object(cli, "_CSV_BLOCK_ROWS", 4):
        assert cli.main(["fmax", "--protocol", "II", "--channel", "bfc",
                         "--resolution", "11", "--out", str(fmax_out)]) == 0
        assert cli.main(["compare", "--channel", "pfc", "--resolution", "11",
                         "--out", str(compare_out)]) == 0
    points = fmax_curve("II", "bfc", default_r_values(), resolution=11,
                        mode="physical", measure="polar")
    rows = [(p.r, p.fmax, p.param1, p.param2, p.baseline) for p in points]
    assert_same_text(fmax_out.read_text(), reference_csv("r,fmax,param1,param2,baseline", rows))
    curve_i, curve_ii = (fmax_curve(protocol, "pfc", default_r_values(), resolution=11,
                                    mode="physical", measure="polar")
                         for protocol in ("I", "II"))
    rows = [(pi.r, pi.baseline, pi.fmax, pii.fmax) for pi, pii in zip(curve_i, curve_ii)]
    assert_same_text(compare_out.read_text(), reference_csv("r,baseline,fmax_I,fmax_II", rows))


def _spy_on_blocks(monkeypatch):
    """Record each CSV block's buffer capacity and line count, in rows."""
    seen = []
    csv = cli._csv

    def spy(head, columns, start, block):
        text = csv(head, columns, start, block)
        capacity = block.buf.size // (len(columns) * (cli._FIELD + 1))
        seen.append((capacity, text.count("\n") - head.count("\n")))
        return text

    monkeypatch.setattr(cli, "_csv", spy)
    return seen


def test_surface_memory_does_not_grow_with_the_grid(tmp_path, capsys, monkeypatch):
    # The sweep and the CSV work in bounded blocks, so a 301 x 301 surface
    # traces only its 0.7 MiB result above a few MiB of block buffers.
    argv = ["surface", "--protocol", "I", "--channel", "adc", "--r", "0.5"]
    assert cli.main([*argv, "--resolution", "3", "--out", str(tmp_path / "warm.csv")]) == 0
    seen = _spy_on_blocks(monkeypatch)
    tracemalloc.start()
    try:
        rc = cli.main([*argv, "--resolution", "301", "--out", str(tmp_path / "s.csv")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < 8 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"
    # a block of whole axis-1 rows holds at most max(301, block rows) rows
    assert max(max(block) for block in seen) <= max(301, cli._CSV_BLOCK_ROWS)
    assert sum(lines for _, lines in seen) == 301 * 301


# (block rows, shape): blocks of whole leading-axis indices hold at most
# max(trailing size, block rows) rows, and no more than the CSV has (or
# one, for a CSV of no rows).
@pytest.mark.parametrize("block_rows, shape", [(7, (5, 3)), (2, (3, 5)), (4096, (21,)),
                                               (10, (4, 0)), (10, (0,))])
def test_csv_block_rows_are_bounded(block_rows, shape, monkeypatch):
    seen = _spy_on_blocks(monkeypatch)
    columns = [np.arange(math.prod(shape), dtype=float).reshape(shape), np.array(0.5)]
    with mock.patch.object(cli, "_CSV_BLOCK_ROWS", block_rows):
        text = "".join(cli._csv_blocks("a,b", columns))
    tail, size = math.prod(shape[1:]), math.prod(shape)
    assert max(capacity for capacity, _ in seen) <= min(max(tail, block_rows), max(size, 1))
    assert all(lines % max(tail, 1) == 0 for _, lines in seen[:-1])
    rows = zip(*(c.reshape(-1) for c in np.broadcast_arrays(*columns)))
    assert_same_text(text, reference_csv("a,b", rows))


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


_VERDICTS = {
    "adc": "protocol I maximum fidelity stays at or above protocol II for r >= 0.3: confirmed",
    "bfc": "protocol II maximum fidelity at r = 0.9 is at or above protocol I: confirmed",
    "pfc": "the two protocols' maximum fidelities agree within 0.02 at every r (largest gap ",
}


@pytest.mark.parametrize("channel", CHANNEL_KINDS)
def test_compare_verdict_line(channel, capsys):
    assert cli.main(["compare", "--channel", channel]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    if channel == "pfc":
        # the gap's digits vary with the BLAS kernel
        head, _, gap = line.partition("(largest gap ")
        assert head + "(largest gap " == _VERDICTS[channel]
        assert gap.endswith("): confirmed")
    else:
        assert line == _VERDICTS[channel]


def test_compare_nan_row_violates_the_phase_flip_claim(monkeypatch, capsys):
    # a NaN F_max in any row fails the claim and prints a nan gap; the
    # command still exits 0, whatever its verdict
    def fake_curve(protocol, channel, **kwargs):
        fmax = {"I": (0.7, 0.7, 0.7), "II": (0.7, math.nan, 0.7)}[protocol]
        return [FmaxPoint(r, f, 0.0, 0.0, 0.5) for r, f in zip((0.0, 0.5, 1.0), fmax)]

    monkeypatch.setattr(cli, "fmax_curve", fake_curve)
    assert cli.main(["compare", "--channel", "pfc"]) == 0
    assert capsys.readouterr().out == (
        "the two protocols' maximum fidelities agree within 0.02 at every r "
        "(largest gap nan): violated\n"
    )


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


def _openblas_core():
    """The OpenBLAS kernel numpy runs, read from scipy-openblas itself, or
    None where numpy's BLAS is another library or the name is unreadable."""
    if np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"] != "scipy-openblas":
        return None
    try:
        with open("/proc/self/maps") as fh:
            libraries = sorted({line.split()[-1] for line in fh if "scipy_openblas" in line})
    except OSError:
        return None
    for library in libraries:
        corename = getattr(ctypes.CDLL(library), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return None


# SHA-256 of seeded outputs. The amplitudes are a BLAS product, so these
# bytes hold for the OpenBLAS kernels that give them: SkylakeX and Haswell.
_PINNED_SHA256 = {
    ("reproduce", "--seed", "0"):
        "ab6169712d92c09864b37a3a8f00df72465ad14e7bb7f2116983234b6d38d5bb",
    ("surface", "--protocol", "I", "--channel", "adc", "--resolution", "401"):
        "9cbb9eb54f0053dda88fafb4236e135b96e68cafc5dba3ba78f4dfce0d7256e0",
}
_CORE = _openblas_core()


@pytest.mark.skipif(
    _CORE not in ("SkylakeX", "Haswell"),
    reason=f"outputs are pinned under OpenBLAS SkylakeX and Haswell; this BLAS runs {_CORE}",
)
@pytest.mark.parametrize("args", _PINNED_SHA256, ids=lambda args: args[0])
def test_seeded_outputs_keep_their_pinned_bytes(args, tmp_path, capsys):
    out = tmp_path / "out"
    cli.main([*args, "--out", str(out)])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _PINNED_SHA256[args]


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
        ("check", "--seed", "-1"),
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

    for name in ("sweep", "fmax_curve", "build_manifest"):
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
