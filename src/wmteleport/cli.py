"""Command-line driver.

Subcommands
-----------
check      run the invariant suite, exit 0 iff every check passes
surface    sweep one fidelity surface at fixed r, write CSV
fmax       maximum fidelity versus r over the default 21-point grid, CSV
compare    both protocols' F_max curves side by side, verdict on stdout
reproduce  evaluate the bundled reference table, write JSON manifest

Exit codes: 0 success, 1 check or reproduction failure, 2 usage error.
All numeric CSV fields use 17-significant-digit decimals so values
round-trip to the same doubles. A CSV is formatted and written one
block of rows at a time, column by column: within a block, each
distinct value is formatted once. No whole-file text is ever built.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .checks import FAULT_NAMES, run_checks
from .operators import CHANNEL_KINDS, PROTOCOL_AXES
from .pipeline import PipelineMode
from .reproduce import build_manifest, manifest_json, manifest_lines
from .sweep import (
    DEFAULT_RESOLUTION,
    compare_protocols,
    default_grid,
    default_r_values,
    fmax_curve,
    sweep,
)
from .teleport import MEASURES

_FMT = "%.17g"
# Rows formatted and written per block, so the text of at most this many
# rows exists at once.
_CSV_BLOCK_ROWS = 4096

# Largest grid a sweep subcommand accepts. The sweep and the CSV both
# work in bounded blocks, so a surface run's memory grows only with its
# 8 B-per-cell result: a fresh 401x401 surface peaks at ~36 MiB and a
# 1024x1024 one at ~43 MiB (the import alone is ~30 MiB). The limit
# bounds run time: 1024x1024 takes ~3-4 s (2-vCPU x86).
MAX_GRID_CELLS = 1024 * 1024


def _write_text(path: str, texts) -> None:
    """Write each text of the iterable `texts` to `path` as it comes."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(texts)


def _column_text(values: np.ndarray) -> list[str]:
    """`_FMT` text of each float in `values`, formatting each distinct
    bit pattern once. Bits, not values, so -0.0 and 0.0 keep their own
    text."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = list(map(_FMT.__mod__, bits.view(np.float64).tolist()))
    return list(map(texts.__getitem__, inverse.tolist()))


def _csv(head: str, columns) -> str:
    """CSV text of one block: `head` (the header line, or "" after the
    first block), then one line per element of the equal-length 1-D
    float64 `columns`."""
    lines = "\n".join(map(",".join, zip(*map(_column_text, columns))))
    return head + lines + "\n" if lines else head


def _csv_blocks(header: str, columns):
    """CSV text in blocks of `_CSV_BLOCK_ROWS` rows, the header line with
    the first: one row per element of the columns' common broadcast
    shape, in C order. Broadcasting lets an axis or a constant stand for
    a whole column without being copied out."""
    cols = np.broadcast_arrays(*(np.asarray(c, dtype=np.float64) for c in columns))
    head = header + "\n"
    # at least one block, so a CSV with no rows still gets its header
    for start in range(0, max(cols[0].size, 1), _CSV_BLOCK_ROWS):
        yield _csv(head, [c.flat[start:start + _CSV_BLOCK_ROWS] for c in cols])
        head = ""


def _seed(text: str) -> int:
    """argparse type of `check --seed`: numpy's generators take only
    non-negative integer seeds."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _add_common(sub, protocol=True):
    if protocol:
        sub.add_argument("--protocol", required=True, choices=tuple(PROTOCOL_AXES))
    sub.add_argument("--channel", required=True, type=str.lower, choices=CHANNEL_KINDS)
    sub.add_argument("--mode", choices=tuple(m.value for m in PipelineMode), default="physical")
    sub.add_argument("--measure", choices=MEASURES, default="polar")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wmteleport",
        description="weak-measurement-protected teleportation sweeps",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_check = subs.add_parser("check", help="run the invariant suite")
    p_check.add_argument("--seed", type=_seed, default=0)
    p_check.add_argument("--inject-fault", choices=FAULT_NAMES, default=None)

    p_surface = subs.add_parser("surface", help="fidelity surface at fixed r")
    _add_common(p_surface)
    p_surface.add_argument("--r", type=float, default=0.5)
    p_surface.add_argument("--resolution", type=int, default=DEFAULT_RESOLUTION)
    p_surface.add_argument("--out", required=True)

    p_fmax = subs.add_parser("fmax", help="maximum fidelity versus r")
    _add_common(p_fmax)
    p_fmax.add_argument("--resolution", type=int, default=DEFAULT_RESOLUTION)
    p_fmax.add_argument("--out", required=True)

    p_compare = subs.add_parser(
        "compare", help="protocol I versus protocol II F_max curves"
    )
    _add_common(p_compare, protocol=False)
    p_compare.add_argument("--resolution", type=int, default=DEFAULT_RESOLUTION)
    p_compare.add_argument("--out", default=None)

    p_repro = subs.add_parser(
        "reproduce", help="evaluate the bundled reference table"
    )
    p_repro.add_argument("--resolution", type=int, default=DEFAULT_RESOLUTION)
    p_repro.add_argument("--measure", choices=MEASURES, default="polar")
    p_repro.add_argument("--out", required=True)
    p_repro.add_argument(
        "--seed",
        type=int,
        default=None,
        help="fix for byte-identical output (drops the timestamp)",
    )
    return parser


def _check_resolution(parser, resolution: int, minimum: int) -> None:
    if resolution < minimum:
        parser.error(f"--resolution must be at least {minimum}")
    if resolution * resolution > MAX_GRID_CELLS:
        parser.error(
            f"--resolution {resolution} gives {resolution * resolution} grid "
            f"cells, above the limit of {MAX_GRID_CELLS}"
        )


def _cmd_check(args) -> int:
    lines, ok = run_checks(seed=args.seed, inject_fault=args.inject_fault)
    print("\n".join(lines))
    return 0 if ok else 1


def _cmd_surface(args, parser) -> int:
    _check_resolution(parser, args.resolution, 1)
    if not 0.0 <= args.r <= 1.0:
        parser.error("--r must lie in [0, 1]")
    grid = default_grid(args.protocol, [args.r], args.resolution, args.mode)
    result = sweep(grid, args.channel, args.measure)
    columns = (
        grid.axis1[:, None, None],
        grid.axis2[None, :, None],
        grid.r_values,
        result.fidelity,
        result.baseline,
    )
    _write_text(args.out, _csv_blocks("axis1,axis2,r,fidelity,baseline", columns))
    print(f"wrote {args.out}")
    return 0


def _cmd_fmax(args, parser) -> int:
    _check_resolution(parser, args.resolution, 2)
    points = fmax_curve(
        args.protocol,
        args.channel,
        r_values=default_r_values(),
        resolution=args.resolution,
        mode=args.mode,
        measure=args.measure,
    )
    columns = zip(*((p.r, p.fmax, p.param1, p.param2, p.baseline) for p in points))
    _write_text(args.out, _csv_blocks("r,fmax,param1,param2,baseline", columns))
    print(f"wrote {args.out}")
    return 0


def _cmd_compare(args, parser) -> int:
    _check_resolution(parser, args.resolution, 2)
    comparison = compare_protocols(
        args.channel,
        r_values=default_r_values(),
        resolution=args.resolution,
        mode=args.mode,
        measure=args.measure,
    )
    if args.out is not None:
        columns = zip(*comparison.rows)
        _write_text(args.out, _csv_blocks("r,baseline,fmax_I,fmax_II", columns))
        print(f"wrote {args.out}")
    print(comparison.verdict_text)
    return 0


def _cmd_reproduce(args, parser) -> int:
    _check_resolution(parser, args.resolution, 2)
    manifest = build_manifest(
        resolution=args.resolution,
        measure=args.measure,
        timestamp=args.seed is None,
    )
    _write_text(args.out, [manifest_json(manifest)])
    print("\n".join(manifest_lines(manifest)))
    print(f"wrote {args.out}")
    return 0 if manifest["all_passed"] else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "surface":
            return _cmd_surface(args, parser)
        if args.command == "fmax":
            return _cmd_fmax(args, parser)
        if args.command == "compare":
            return _cmd_compare(args, parser)
        return _cmd_reproduce(args, parser)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
