"""Command-line driver.

Subcommands
-----------
check      run the invariant suite, exit 0 iff every check passes
surface    sweep one fidelity surface at fixed r, write CSV
fmax       maximum fidelity versus r over the default 21-point grid, CSV
compare    both protocols' F_max curves side by side, verdict on stdout
reproduce  evaluate the bundled reference table, write JSON manifest

Exit codes: 0 success, 1 check or reproduction failure, 2 usage error.
`compare` exits 0 whatever its verdict; its last line, from
`reproduce.protocol_verdict`, says whether the paper's claim for the
channel is confirmed or violated.
All numeric CSV fields are the `%.17g` text of their value, so values
round-trip to the same doubles. A CSV is formatted and written one
block of whole leading-axis rows at a time, and no whole-file text is
ever built. A block formats only the values it touches (an axis value
once, not once per row), in one numpy pass whose bytes are those of
`%.17g`; only edge cases, such as exact rounding ties, zeros and
non-finite values, go through `%` one value at a time. A column
constant along the leading axis (a surface's axis2, r and baseline)
is formatted once per file. Every cell of a block is as wide as its
column's widest text there.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .checks import FAULT_NAMES, run_checks
from .operators import CHANNEL_KINDS, PROTOCOL_AXES
from .pipeline import MODES
from .reproduce import build_manifest, manifest_json, manifest_lines, protocol_verdict
from .sweep import (
    DEFAULT_RESOLUTION,
    default_axes,
    default_r_values,
    fmax_curve,
    sweep,
    unprotected_baseline,
)
from .teleport import MEASURES

_FMT = "%.17g"
# Bytes of one formatted value: the longest `_FMT` text is 24 bytes
# (-2.2250738585072014e-308).
_FIELD = 24
_WORD = "<u8"
# Rows formatted and written per block, so the text of at most this many
# rows exists at once; more when one index of the leading axis spans more.
_CSV_BLOCK_ROWS = 4096

# Largest grid a sweep subcommand accepts. The sweep and the CSV both
# work in bounded blocks, so a surface run's memory grows only with its
# 8 B-per-cell result: a fresh 401x401 or 1024x1024 surface peaks at
# ~44 MiB, most of it the import. The limit bounds run time: a fresh
# 1024x1024 surface takes ~0.35-0.4 s after the import (2-vCPU x86), of
# which ~0.1 s is the sweep in either mode and most of the rest the CSV
# text.
MAX_GRID_CELLS = 1024 * 1024


def _write_text(path: str, texts) -> None:
    """Write each text of the iterable `texts` to `path` as it comes."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(texts)


@functools.cache
def _text_tables():
    """Lookup tables of `_field_text`, built on the first CSV block."""
    # per four-digit group 0-9999: its ASCII bytes in string order as a
    # little-endian word, and its trailing zeros
    group = np.arange(10000, dtype=np.uint64)
    ascii4 = sum((group // 10**(3 - i) % 10 + ord("0")) << (8 * i) for i in range(4))
    zeros4 = sum((group % 10**i == 0) for i in range(1, 5)).astype(np.int64)
    # 10**k, exact as a double for k <= 22
    pow10 = np.array([float(10**k) for k in range(23)])
    # keep[:, n]: the three words that mask the first n bytes of a text
    keep = np.tril(np.full((_FIELD + 1, _FIELD), 0xFF, np.uint8), -1)
    keep = keep.view(_WORD).T.copy()
    # Per decimal exponent X: the "0." or point bytes; the mask of the
    # digits before the point; the shift that places the digits after
    # it. X = 16 stands for every value with no fraction digits left,
    # which prints no point.
    prefix = np.zeros((21, _FIELD), np.uint8)
    before = np.zeros((21, 3), _WORD)
    shifts = np.zeros(21, int)
    for x in range(-4, 17):
        if x < 0:
            prefix[x + 4, :1 - x] = ord("0")
            prefix[x + 4, 1] = ord(".")
            shifts[x + 4] = 8 * (1 - x)
        else:
            if x < 16:
                prefix[x + 4, x + 1] = ord(".")
            before[x + 4] = keep[:, x + 1]
            shifts[x + 4] = 8
    return (ascii4.astype(_WORD), zeros4, pow10, keep,
            prefix.view(_WORD)[:, :, None], before[:, :, None], shifts.tolist())


def _two_product(v: np.ndarray, s: np.ndarray):
    """(p, e) with p = fl(v * s) and p + e = v * s exactly: Dekker's
    product of Veltkamp-split factors (Numer. Math. 18, 224, 1971)."""
    p = v * s
    c = 134217729.0 * v  # 2**27 + 1
    vh = c - (c - v)
    vl = v - vh
    c = 134217729.0 * s
    sh = c - (c - s)
    sl = s - sh
    return p, ((vh * sh - p) + vh * sl + vl * sh) + vl * sl


def _below(p: np.ndarray, e: np.ndarray, bound: float) -> np.ndarray:
    """Whether the exact p + e lies below `bound`."""
    return (p < bound) | ((p == bound) & (e < 0))


def _divmod(a: np.ndarray, d: int):
    """np.divmod by a constant, from numpy's multiply-and-shift division."""
    q = a // d
    return q, a - q * d


def _lay_out(words: np.ndarray, prefix, before, shift: int, out=None) -> np.ndarray:
    """The (3, n) little-endian digit strings `words` laid out for one
    decimal exponent: the digits `before` masks stay, `prefix` adds "0."
    or the point, and the rest move `shift` bits (8 to 40) to the end."""
    whole = words & before
    rest = words ^ whole
    text = np.bitwise_or(whole, prefix, out=out)
    text |= rest << shift
    text[1:] |= rest[:-1] >> (64 - shift)
    return text


def _field_text(values: np.ndarray):
    """`_FMT` text of each float of `values`, NUL-padded to `_FIELD`
    bytes, as the rows of an (n, `_FIELD`) uint8 matrix, and the length
    of each text.

    A value in [1e-5, 1e17) takes an exact numpy path: its decimal
    exponent X, then D = round(x * 10**(16 - X)), its 17
    significant digits, from Dekker's exact product. Those print in the
    fixed notation `%.17g` uses for X in [-4, 16], without trailing
    fraction zeros, laid out once per exponent the block has. Exact
    ties in that rounding, X outside [-4, 16], negative values, zeros,
    subnormals and non-finite values are formatted one by one."""
    ascii4, zeros4, pow10, keep, prefix, before, shifts = _text_tables()
    n = values.size
    fast = (values >= 1e-5) & (values < 1e17)
    mag = np.where(fast, values, 1.0)
    x = np.minimum(np.floor(np.log10(mag)), 16).astype(np.int64)
    p, e = _two_product(mag, pow10[16 - x])
    # log10 can miss by one next to a power of ten: one correction step
    off = np.flatnonzero((p <= 1e16) | (p >= 1e17))
    if off.size:
        po, eo = p[off], e[off]
        x[off] += ~_below(po, eo, 1e17)
        x[off] -= _below(po, eo, 1e16)
        xo = x[off]
        po, eo = _two_product(mag[off], pow10[np.clip(16 - xo, 0, 22)])
        p[off], e[off] = po, eo
        fast[off] &= (xo >= -4) & ~_below(po, eo, 1e16) & _below(po, eo, 1e17)
    # p >= 1e16 > 2**53 is an integer, so round(p + e) = p + rint(e).
    # Rounding up to 10**17 would step the exponent; no double in range
    # lies that close below a power of ten, and `%` would take it.
    r = np.rint(e)
    fast &= np.abs(e - r) != 0.5
    digits = p.astype(np.int64) + r.astype(np.int64)
    fast &= (x >= -4) & (x <= 16) & (digits < 10**17)
    # the 17 digits as bytes 0-16 of three little-endian words
    head8, tail9 = _divmod(digits, 10**9)
    tail8, digit16 = _divmod(tail9, 10)
    words = np.empty((3, n), _WORD)
    for word, eight in zip(words, (head8, tail8)):
        q, m = _divmod(eight, 10**4)
        np.left_shift(ascii4[m], 32, out=word)
        word |= ascii4[q]
    np.add(digit16, ord("0"), out=words[2], casting="unsafe")
    # the last digit printed: trailing zeros of the fraction drop
    last = np.full(n, 16)
    ends = np.flatnonzero(digit16 == 0)
    if ends.size:
        def zeros8(eight):
            q, m = _divmod(eight, 10**4)
            return zeros4[m] + (m == 0) * zeros4[q]
        tail = tail8[ends]
        last[ends] = 15 - zeros8(tail) - (tail == 0) * zeros8(head8[ends])
    np.maximum(last, x, out=last)
    words &= keep.take(last + 1, axis=1)
    size = last + 1 + (last > x) - np.minimum(x, 0)
    key = np.where(last > x, x, 16) + 4
    key[~fast] = 0
    # one layout per exponent: the commonest over all values, the rest by group
    counts = np.bincount(key, minlength=21)
    common = int(counts.argmax())
    out = np.empty((n, 3), _WORD)
    _lay_out(words, prefix[common], before[common], shifts[common], out=out.T)
    for k in np.flatnonzero(counts).tolist():
        if k != common:
            group = np.flatnonzero(key == k)
            out[group] = _lay_out(words[:, group], prefix[k], before[k], shifts[k]).T
    slow = np.flatnonzero(~fast)
    if slow.size:
        texts = [_FMT % v for v in values[slow].tolist()]
        out.view(f"S{_FIELD}")[slow, 0] = texts
        size[slow] = list(map(len, texts))
    return out.view(np.uint8), size


class _Block:
    """A CSV file's reused block buffer. A block is `step` indices of the
    leading axis of `shape`, `rows` = `step * tail` rows, laid out as
    (rows, W) uint8: per column a cell as wide as its widest text in the
    block, the text NUL-padded, then a comma or newline. Dropping the
    NULs leaves the CSV text."""

    def __init__(self, shape, columns: int):
        self.shape = shape
        self.tail = math.prod(shape[1:])
        self.step = max(1, min(shape[0], _CSV_BLOCK_ROWS // max(self.tail, 1)))
        self.rows = self.step * self.tail
        self.buf = np.empty(self.rows * columns * (_FIELD + 1), np.uint8)
        # per column: its texts, their widest length and their own shape
        self.texts = [None] * columns
        self.widths = None


def _csv(head: str, columns, start: int, block: _Block) -> str:
    """CSV text of one block: `head` (the header line, or "" after the
    first block), then one line for each row of the leading-axis
    indices `start` to `start + block.step` of the float64 `columns`
    broadcast to `block.shape`, in C order. Only the values the block
    touches are formatted, all in one call. A column constant along the
    leading axis has the same texts in every block: the first block
    formats them, and later ones place them again only if widths change."""
    parts = [c[start:start + block.step] for c in columns]
    rows = (min(start + block.step, block.shape[0]) - start) * block.tail
    if not rows:
        return head
    text, size = _field_text(np.concatenate([part.reshape(-1) for part in parts]))
    end = 0
    for j, part in enumerate(parts):
        if part.size:
            stop = end + part.size
            block.texts[j] = text[end:stop], int(size[end:stop].max()), part.shape
            end = stop
    widths = [width for _, width, _ in block.texts]
    raw = block.buf[:block.rows * (sum(widths) + len(widths))].reshape(block.rows, -1)[:rows]
    ends = np.cumsum(widths) + np.arange(len(widths))
    relaid = widths != block.widths
    if relaid:
        block.widths = widths
        raw[:, ends] = ord(",")
        raw[:, -1] = ord("\n")
    for (texts, width, shape), part, stop in zip(block.texts, parts, ends):
        if relaid or part.size:
            cells = raw[:, stop - width:stop].view(f"V{width}").reshape(-1, *block.shape[1:])
            cells[...] = texts[:, :width].view(f"V{width}").reshape(shape)
    raw = raw.reshape(-1)
    return head + str(raw[raw != 0], "ascii")


def _csv_blocks(header: str, columns):
    """CSV text in blocks of whole indices of the leading axis, about
    `_CSV_BLOCK_ROWS` rows each, the header line with the first: one row
    per element of the columns' common broadcast shape, in C order.
    Broadcasting lets an axis or a constant stand for a whole column
    without being copied out or formatted per row."""
    columns = [np.ascontiguousarray(c, dtype=np.float64) for c in columns]
    shape = np.broadcast_shapes((1,), *(c.shape for c in columns))
    columns = [c.reshape((1,) * (len(shape) - c.ndim) + c.shape) for c in columns]
    block = _Block(shape, len(columns))
    head = header + "\n"
    # at least one block, so a CSV with no rows still gets its header
    for start in range(0, max(shape[0], 1), block.step):
        yield _csv(head, columns, start, block)
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
    sub.add_argument("--mode", choices=MODES, default="physical")
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
    axis1, axis2 = default_axes(args.protocol, args.resolution)
    result = sweep(args.protocol, axis1, axis2, args.channel, args.r, args.mode, args.measure)
    columns = (
        axis1[:, None, None],
        axis2[None, :, None],
        [args.r],
        result.fidelity,
        unprotected_baseline(args.channel, args.r, args.mode, args.measure),
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
    curve_i, curve_ii = (
        fmax_curve(
            protocol,
            args.channel,
            r_values=default_r_values(),
            resolution=args.resolution,
            mode=args.mode,
            measure=args.measure,
        )
        for protocol in ("I", "II")
    )
    rows = [(pi.r, pi.baseline, pi.fmax, pii.fmax) for pi, pii in zip(curve_i, curve_ii)]
    if args.out is not None:
        _write_text(args.out, _csv_blocks("r,baseline,fmax_I,fmax_II", zip(*rows)))
        print(f"wrote {args.out}")
    print(protocol_verdict(args.channel, rows)[1])
    return 0


def _cmd_reproduce(args, parser) -> int:
    _check_resolution(parser, args.resolution, 2)
    manifest = build_manifest(
        args.measure,
        resolution=args.resolution,
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
