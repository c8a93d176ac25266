"""Grid sweeps and maximization of average fidelity.

Evaluation is exhaustive grid search over the two protection
parameters at each decoherence value, followed by one local
refinement pass (a 10x finer window around the coarse argmax).
A sweep takes plain values in the order of `pipeline.protect`,
`sweep(protocol, axis1, axis2, channel, r_values, mode, measure)`, and
checks them once per call; `default_axes` gives a protocol's default
axes. Each slab (one r value) is evaluated in blocks of whole axis-1
rows, about 16k cells each, so memory stays bounded whatever the grid
size; a 101x101 slab is one block. A block's branch matrices are one
einsum of the per-axis factors that `pipeline.branch_operators`,
which also serves `protect`, multiplies: in both modes only the
outcome-0 pair g_00, g_01 of a cell (64 B). Outcome 1 is the entry
reversal of the pair, g_1j = sigma_x g_0j sigma_x, which
`_fidelity_slab` reads from the pair itself (see there). The branch
matrices are contracted against one small design matrix per input
measure, amplitudes first and squares last, and the block's fidelities
go in place into the result. Every cell is computed on its own, so the
block size moves no bits. The package's one unprotected baseline,
`unprotected_baseline`, contracts the bare Kraus operators the same way;
`sweep` does not compute it, its callers do. This module holds numerics
only: whether a curve bears out one of the paper's claims is judged in
`reproduce`.

A block is stored entries-major, shape (4, K, n1, n2): the flattened
2x2 entry 2b + c first, the branch next, the cells last, so that every
step of the contraction is a numpy call along the cells rather than a
short inner loop per cell. The steps keep the bits of the earlier
(cells, K, 4) row layout, whose per-cell reductions they write out:
each cell's norm in the order of `np.einsum` on a numpy built for two
lanes without FMA (X86_V2), whatever SIMD build runs it now, and each
branch's sum of squared amplitudes in the order of numpy's pairwise
sum. The amplitudes, V^T times a batch of columns, are the one step
whose bits depend on the BLAS kernel (ROADMAP direction 3). The einsum
writes a zero product as +0.0, never -0.0; an entry is only squared
after linear combinations, so no fidelity depends on the sign.

The result is stored slab-major, shape (n_r, n1, n2), so each r-slab is
contiguous: its blocks are contracted into it and its argmax is one
scan. `SweepResult.fidelity` is a read-only (n1, n2, n_r) view of it.

Each thread keeps one workspace: a flat buffer each for the branch
matrices (8 floats a cell), the paper-mode coherent sum (4), the
per-branch amplitude sums (2), each cell's norm and numerator (2), and
one batch of amplitudes (F x 4,096 floats), which every block writes
through `out=`; the norm is summed in two lanes in the last two.
A buffer grows to the largest block it has served, never past one
`_BLOCK_CELLS` block (3 MiB in all); a larger block, one axis-1 row
wider than that, gets fresh arrays. No view of the workspace leaves
`sweep`: the fidelities are a fresh array. With the polar measure a
101x101 slab takes about 0.55-0.7 ms, a 401x401 slab 7-10.5 ms and a
1024x1024 slab 53-74 ms, paper mode the faster (best of 5 on a 2-vCPU
x86 machine, numpy 2.4.6 with OpenBLAS); cells agree with `protect` +
`average_fidelity` run cell by cell to about 1e-15.

Cells whose parameters annihilate every branch (which happens at
degenerate corners such as omega=0 with q=0) are recorded as NaN and
excluded from the argmax rather than aborting the sweep.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .operators import PROTOCOL_AXES, check_parameters, kraus_set
from .pipeline import ZERO_NORM_TOL, _branch_factors, _check_mode
from .teleport import MEASURES, _overlap_matrix, design_inputs

DEFAULT_RESOLUTION = 101
DEFAULT_R_COUNT = 21

_DEFAULT_SPANS = {
    "I": ((0.0, math.pi / 2.0), (0.0, 1.0)),
    "II": ((0.0, 1.0), (0.0, 1.0)),
}

__all__ = [
    "DEFAULT_RESOLUTION",
    "DEFAULT_R_COUNT",
    "SweepResult",
    "FmaxPoint",
    "default_axes",
    "default_r_values",
    "sweep",
    "unprotected_baseline",
    "fmax_curve",
]


def _validate_axis(name: str, values) -> np.ndarray:
    """A nonempty, finite, strictly ascending 1-D axis as a read-only
    float copy, so the caller's own array stays writable; the caller
    checks its range."""
    arr = np.array(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"axis {name} must be a nonempty 1-D array")
    if not np.isfinite(arr).all():
        raise ValueError(f"axis {name} must be finite")
    if arr.size > 1 and not (np.diff(arr) > 0).all():
        raise ValueError(f"axis {name} must be strictly ascending")
    arr.setflags(write=False)
    return arr


def default_r_values() -> np.ndarray:
    return np.linspace(0.0, 1.0, DEFAULT_R_COUNT)


def default_axes(protocol: str, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """The default sweep axes, `resolution` points each: omega in
    [0, pi/2] and q in [0, 1] for protocol I, K1 and K2 in [0, 1] for
    protocol II."""
    if protocol not in _DEFAULT_SPANS:
        raise ValueError(f"unknown protocol kind {protocol!r}")
    if resolution < 1:
        raise ValueError("resolution must be at least 1")
    (lo1, hi1), (lo2, hi2) = _DEFAULT_SPANS[protocol]
    return np.linspace(lo1, hi1, resolution), np.linspace(lo2, hi2, resolution)


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Fidelity over a grid. `fidelity[i1, i2, ir]` follows the sweep's
    axes and r values; annihilated cells hold NaN. `argmax[ir]` is
    (axis1 value, axis2 value, F_max) at the lowest flat index among
    cells within 1e-15 of the slab maximum, or (nan, nan, nan) if the
    whole slab is missing. F_max is the value at that cell."""

    fidelity: np.ndarray
    argmax: tuple[tuple[float, float, float], ...]


# Cells per sweep block: 1 MiB of branch matrices (64 B a cell). A
# 101x101 slab stays one block; much smaller blocks cost more numpy
# calls and page faults per slab.
_BLOCK_CELLS = 16384


# Each thread's workspace (see the module docstring). Reusing its buffers
# keeps glibc from handing every slab's temporaries back to the kernel
# and faulting them in again on the next slab. They are keyed by name,
# not by shape, so coarse slabs and refinement windows share one buffer
# each instead of fragmenting the heap.
_workspace = threading.local()


def _scratch(name: str, shape: tuple[int, ...], cells: int) -> np.ndarray:
    """A scratch array of `shape` for a block of `cells` cells: a view of
    the first elements of this thread's buffer `name`, valid until the
    next block asks for it. A block larger than `_BLOCK_CELLS` gets a
    fresh array, so the workspace never holds more than one such block."""
    size = math.prod(shape)
    if cells > _BLOCK_CELLS:
        return np.empty(shape)
    buf = getattr(_workspace, name, None)
    if buf is None or buf.size < size:
        buf = np.empty(size)
        setattr(_workspace, name, buf)
    return buf[:size].reshape(shape)


def _branch_slab(
    protocol: str, axis1: np.ndarray, axis2: np.ndarray, channel: str, r: float
) -> np.ndarray:
    """The outcome-0 branch pair g_00, g_01 at one r over the block's
    axis-1 values `axis1` and all of `axis2`, entries-major: shape
    (4, 2, n1, n2), the flattened 2x2 entry 2b + c first, the branch
    next. Written into the workspace from the factors of
    `pipeline._branch_factors`, each transposed first (8 x n, so the
    copy is small); `_fidelity_slab` reads the outcome-1 pair from it."""
    n1, n2 = axis1.size, axis2.size
    left, right = _branch_factors(protocol, axis1[:, None], axis2, channel, r)
    # factor column 4j + e to row 2e + j
    left = left.reshape(n2, 2, 4).transpose(2, 1, 0).reshape(8, n2)
    right = right.reshape(n1, 2, 4).transpose(2, 1, 0).reshape(8, n1)
    out = _scratch("branches", (8, n1, n2), n1 * n2)
    np.einsum("ei,ej->eij", right, left, out=out)
    return out.reshape(4, 2, n1, n2)


# Columns of branch matrices per matmul: keeps the amplitude batch,
# F x 4,096 floats (0.5 or 1 MiB), in cache.
_BATCH_COLUMNS = 4096


def _design_matrix(measure: str) -> np.ndarray:
    """`teleport._overlap_matrix` of the measure's design inputs for real
    branches: real and imaginary columns, all-zero ones dropped, shape
    (4, F) with F = 32 (haar) or 16 (polar). Adding 0.0 turns -0.0 into
    0.0, so V's bits do not depend on the order of the products that
    build it. Read-only."""
    v = _overlap_matrix(design_inputs(measure))
    v = np.concatenate([v.real, v.imag], axis=1) + 0.0
    v = np.ascontiguousarray(v[:, (v != 0.0).any(axis=0)])
    v.setflags(write=False)
    return v


# Each measure's design matrix, built once at import.
_DESIGN_MATRICES = {measure: _design_matrix(measure) for measure in MEASURES}


def _ordered_sum(terms: list[np.ndarray], out: np.ndarray) -> np.ndarray:
    """((t0 + t1) + t2) + ... into `out`; a single term is returned as it is."""
    acc = terms[0]
    for term in terms[1:]:
        acc = np.add(acc, term, out=out)
    return acc


def _entry_norm(g: np.ndarray, acc: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Each cell's sum of squares over the 4K entries of g, shape
    (4, K, cells), in the order of `np.einsum("xkc,xkc->x")` over
    (cells, K, 4) rows on a numpy built for two double lanes
    without FMA (X86_V2): entry i = 4k + c goes to lane i % 2; each block
    of 8 is added into the lanes last entry first, a remainder first
    entry first; then lane 0 + lane 1. For K = 2 that is
    (p0 + (p2 + (p4 + p6))) + (p1 + (p3 + (p5 + p7))). Entries 2j, 2j + 1
    are the rows g[c:c + 2, k], so each step adds one such pair to `acc`
    through `tmp`, both (2, cells). Returns acc[0]."""
    pairs = [g[c:c + 2, k] for k in range(g.shape[1]) for c in (0, 2)]
    full = len(pairs) - len(pairs) % 4
    order = [j for b in range(0, full, 4) for j in (b + 3, b + 2, b + 1, b)]
    order += range(full, len(pairs))
    np.multiply(pairs[order[0]], pairs[order[0]], out=acc)
    for j in order[1:]:
        acc += np.multiply(pairs[j], pairs[j], out=tmp)
    return np.add(acc[0], acc[1], out=acc[0])


def _row_sum(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Each column's sum of a, shape (F, n) with F a multiple of 8 up to
    128, into `out`: numpy's pairwise sum of F values written out across
    the columns, so it equals `np.add.reduce(a.T, axis=1)` bit for bit.
    r_j = ((a_j + a_{j+8}) + a_{j+16}) + ..., then
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), built in a's own
    first 8 rows."""
    r = a[:8]
    for j in range(8, a.shape[0], 8):
        r += a[j:j + 8]
    r[0::2] += r[1::2]
    r[0::4] += r[2::4]
    return np.add(r[0], r[4], out=out)


def _fidelity_slab(
    branches: np.ndarray, mode: str, measure: str, mirrored: bool = False, out=None
) -> np.ndarray:
    """Average fidelity over one (n1, n2) block of flattened branch
    matrices, entries-major: shape (4, K, n1, n2), entry 2b + c first.
    Paper mode sums the K branches in order, ((g_0 + g_1) + g_2) + ...,
    before squaring, physical mode squares each branch; amplitudes are
    always formed first and squared last, which keeps coherent sums that
    nearly cancel accurate.

    `mirrored` says the K branches are a cell's outcome-0 pair g_00, g_01
    alone. Its outcome-1 pair is g_1j = sigma_x g_0j sigma_x
    (g_1j[b, c] = g_0j[1 - b, 1 - c], the entry axis reversed). Paper
    mode appends the reversed pair to the sum, in branch order. In
    physical mode the outcome-1 pair is not formed: both design input
    sets and the outcome basis with its corrections map to themselves
    under sigma_x up to phases, so it adds the same fidelity numerator
    num_0 and the same norm den_0 as the outcome-0 pair. F = num_0 / den_0
    is then the four-branch fidelity, and the retained norm, the success
    probability, is 2 den_0: a cell is NaN when 2 den_0 < ZERO_NORM_TOL.
    Every step runs along the cells (see the module docstring). The
    fidelities are written into `out`, an (n1, n2) array, if given."""
    inputs = design_inputs(measure)  # checks the measure
    v = _DESIGN_MATRICES[measure]
    _, nk, n1, n2 = branches.shape
    cells = n1 * n2
    g = branches.reshape(4, nk, cells)
    if mode == "paper":
        terms = [g[:, k] for k in range(nk)]
        if mirrored:
            terms += [term[::-1] for term in terms]
        g = _ordered_sum(terms, _scratch("coherent", (4, cells), cells))[:, None]
        nk = 1
    sums = _scratch("sums", (2, cells), cells)
    sq = _scratch("sq", (max(nk, 2) * cells,), cells)
    den = _entry_norm(g, sums, sq[:2 * cells].reshape(2, cells))
    den *= 0.5
    # columns in (branch, cell) order
    columns = g.reshape(4, nk * cells)
    f = v.shape[1]
    amp = _scratch("amp", (f * min(columns.shape[1], _BATCH_COLUMNS),), cells)
    for start in range(0, columns.shape[1], _BATCH_COLUMNS):
        batch = columns[:, start:start + _BATCH_COLUMNS]
        a = amp[:f * batch.shape[1]].reshape(f, batch.shape[1])
        np.matmul(v.T, batch, out=a)
        np.multiply(a, a, out=a)
        _row_sum(a, out=sq[start:start + batch.shape[1]])
    # each cell's branch terms summed in order, ((s0 + s1) + s2) + s3
    per_branch = sq[:nk * cells].reshape(nk, cells)
    num = _ordered_sum(list(per_branch), sums[1])
    num /= len(inputs)
    # 2 den_0 < tol exactly when den_0 < tol / 2: halving is exact
    tol = ZERO_NORM_TOL / 2.0 if mirrored and mode == "physical" else ZERO_NORM_TOL
    out = np.empty((n1, n2)) if out is None else out
    out.fill(np.nan)
    np.divide(num.reshape(n1, n2), den.reshape(n1, n2), out=out,
              where=(den >= tol).reshape(n1, n2))
    return np.clip(out, 0.0, 1.0, out=out)


# Cells this close to the slab maximum tie: plateau ulps are rounding noise.
_TIE_TOL = 1e-15


def _slab_argmax(
    axis1: np.ndarray, axis2: np.ndarray, slab: np.ndarray
) -> tuple[float, float, float]:
    top = np.fmax.reduce(slab, axis=None)  # NaN only for an all-NaN slab
    if math.isnan(top):
        return (math.nan, math.nan, math.nan)
    flat = int(np.argmax(slab >= top - _TIE_TOL))
    i1, i2 = divmod(flat, slab.shape[1])
    return (float(axis1[i1]), float(axis2[i2]), float(slab[i1, i2]))


def sweep(
    protocol: str, axis1, axis2, channel: str, r_values, mode: str, measure: str
) -> SweepResult:
    """Average fidelity at every cell of the grid axis1 x axis2 at each r
    value, plus per-r argmax. Each axis must be nonempty, finite,
    strictly ascending and inside its range in `PROTOCOL_AXES`; the r
    values likewise inside [0, 1], a bare float being one r value.
    Deterministic; near-ties (within 1e-15) go to the lowest flat
    index."""
    check_parameters(protocol, axis1, axis2)
    _check_mode(mode)
    (name1, _, _), (name2, _, _) = PROTOCOL_AXES[protocol]
    axis1 = _validate_axis(name1, axis1)
    axis2 = _validate_axis(name2, axis2)
    r_values = _validate_axis("r", np.atleast_1d(r_values))
    if r_values[0] < 0.0 or r_values[-1] > 1.0:
        raise ValueError("axis r must lie within [0, 1]")
    n1, n2 = axis1.size, axis2.size
    step = max(1, _BLOCK_CELLS // n2)
    fidelity = np.empty((r_values.size, n1, n2))
    argmax = []
    for ir, r in enumerate(r_values):
        for start in range(0, n1, step):
            rows = slice(start, start + step)
            branches = _branch_slab(protocol, axis1[rows], axis2, channel, float(r))
            _fidelity_slab(branches, mode, measure, mirrored=True, out=fidelity[ir, rows])
        argmax.append(_slab_argmax(axis1, axis2, fidelity[ir]))
    fidelity.setflags(write=False)
    return SweepResult(np.moveaxis(fidelity, 0, -1), tuple(argmax))


def unprotected_baseline(channel: str, r_values, mode: str, measure: str) -> np.ndarray:
    """Average fidelity with every protection stage replaced by the
    identity, at each of the r values: the channel's Kraus operators go
    through the same contraction as the protected branches, under the
    mode's summation semantics. A bare float is one r value; an empty
    sequence raises ValueError. Read-only, shape (len(r_values),)."""
    _check_mode(mode)
    r_values = np.atleast_1d(np.asarray(r_values, dtype=float))
    if r_values.ndim != 1 or r_values.size == 0:
        raise ValueError("axis r must be a nonempty 1-D array")
    kraus = np.stack(
        [kraus_set(channel, float(r)).reshape(2, 4).T for r in r_values], axis=-1
    )
    baseline = _fidelity_slab(kraus[..., None], mode, measure)[:, 0]
    baseline.setflags(write=False)
    return baseline


@dataclass(frozen=True)
class FmaxPoint:
    r: float
    fmax: float
    param1: float
    param2: float
    baseline: float


def _refined_axis(axis: np.ndarray, value: float, lo: float, hi: float) -> np.ndarray:
    idx = int(np.argmin(np.abs(axis - value)))
    w_lo = float(axis[max(idx - 1, 0)])
    w_hi = float(axis[min(idx + 1, axis.size - 1)])
    w_lo, w_hi = max(w_lo, lo), min(w_hi, hi)
    if w_hi - w_lo <= 0.0:
        return np.array([w_lo])
    return np.linspace(w_lo, w_hi, 21)


def fmax_curve(
    protocol: str,
    channel: str,
    r_values,
    resolution: int = DEFAULT_RESOLUTION,
    *,
    mode: str,
    measure: str,
) -> list[FmaxPoint]:
    """Maximum average fidelity versus decoherence over the default
    parameter domain: coarse grid search, then one 10x refinement
    around each coarse argmax, which replaces the coarse optimum only
    when it is higher by more than 1e-15. Finer resolutions never lower
    the reported maximum."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2 per axis")
    r_values = np.atleast_1d(r_values)
    axis1, axis2 = default_axes(protocol, resolution)
    coarse = sweep(protocol, axis1, axis2, channel, r_values, mode, measure)
    baseline = unprotected_baseline(channel, r_values, mode, measure)
    (lo1, hi1), (lo2, hi2) = _DEFAULT_SPANS[protocol]
    points = []
    for ir, r in enumerate(r_values):
        a1, a2, fmax = coarse.argmax[ir]
        if math.isnan(fmax):
            points.append(
                FmaxPoint(float(r), math.nan, math.nan, math.nan, float(baseline[ir]))
            )
            continue
        window = _refined_axis(axis1, a1, lo1, hi1), _refined_axis(axis2, a2, lo2, hi2)
        f1, f2, fine_max = sweep(protocol, *window, channel, r, mode, measure).argmax[0]
        if not math.isnan(fine_max) and fine_max > fmax + _TIE_TOL:
            a1, a2, fmax = f1, f2, fine_max
        points.append(
            FmaxPoint(float(r), float(fmax), float(a1), float(a2), float(baseline[ir]))
        )
    return points
