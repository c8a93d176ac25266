import itertools
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from brute import brute_baseline, brute_fidelities_batch, brute_protect
from wmteleport import sweep as sweep_module
from wmteleport.checks import _quadrature_grid
from wmteleport.operators import (
    CHANNEL_KINDS,
    CORRECTIONS,
    PAULI_I,
    PAULI_X,
    PAULI_Z,
    PROTOCOL_AXES,
)
from wmteleport.pipeline import ZERO_NORM_TOL, branch_operators, normalize_branches, protect
from wmteleport.reproduce import protocol_verdict
from wmteleport.sweep import (
    DEFAULT_RESOLUTION,
    _DESIGN_MATRICES,
    _branch_slab,
    _fidelity_slab,
    _slab_argmax,
    _validate_axis,
    default_axes,
    default_r_values,
    fmax_curve,
    sweep,
    unprotected_baseline,
)
from wmteleport.teleport import ETA_STATES, average_fidelity, design_inputs


def _honest_cell(protocol, a, b, kind, r, mode, measure):
    """Single grid cell through the object pipeline, no vectorization."""
    try:
        shared = protect(protocol, a, b, kind, r, mode)
    except ValueError:
        return np.nan
    return average_fidelity(shared, measure=measure)


def _sweep_default(protocol, r_values, resolution, mode, kind, measure):
    """A sweep over the protocol's default axes."""
    return sweep(protocol, *default_axes(protocol, resolution), kind, r_values, mode, measure)


def test_grid_validation():
    ok = np.array([0.0, 1.0])
    for protocol, axis1, axis2, r_values, match in [
        ("I", np.array([0.2, 0.1]), ok, [0.0], "axis omega must be strictly ascending"),
        ("I", np.array([0.0, 0.0]), ok, [0.0], "axis omega must be strictly ascending"),
        ("I", np.array([0.0, 4.0]), ok, [0.0], "omega must be in"),
        ("II", ok, np.array([-1.5, 0.0]), [0.0], "k2 must be in"),
        ("II", ok, np.array([0.0, np.inf]), [0.0], "k2 must be in"),
        ("I", np.array([np.nan, 1.0]), ok, [0.0], "omega must be in"),
        ("I", ok, ok, [1.2], "axis r must lie within"),
        ("I", ok, ok, [-0.1], "axis r must lie within"),
        ("I", ok, ok, [0.5, 0.3], "axis r must be strictly ascending"),
        ("I", ok, ok, [np.nan], "axis r must be finite"),
        ("I", ok, ok, [], "axis r must be a nonempty"),
        ("I", np.array([]), ok, [0.5], "axis omega must be a nonempty"),
        ("II", ok, np.array([[0.0, 0.5]]), [0.5], "axis k2 must be a nonempty 1-D"),
        ("III", ok, ok, [0.5], "unknown protocol"),
    ]:
        with pytest.raises(ValueError, match=match):
            sweep(protocol, axis1, axis2, "adc", r_values, "physical", "polar")
    with pytest.raises(ValueError, match="unknown protocol"):
        default_axes("III", 3)
    with pytest.raises(ValueError, match="resolution"):
        default_axes("I", 0)


def test_grid_copies_the_caller_axes():
    # the sweep validates its own read-only copies; the caller's arrays
    # stay writable and are never written
    axes = np.linspace(0.0, 1.0, 5), np.array([0.5]), np.array([0.5])
    before = [arr.copy() for arr in axes]
    sweep("I", axes[0], axes[1], "adc", axes[2], "physical", "polar")
    for arr, old in zip(axes, before):
        assert arr.flags.writeable and np.array_equal(arr, old)
        assert not _validate_axis("omega", arr).flags.writeable


def test_grid_axis_names_fill_in():
    # axis errors name the protocol's axes, as in `PROTOCOL_AXES`
    for protocol, (name1, name2) in [("I", ("omega", "q")), ("II", ("k1", "k2"))]:
        axis1, axis2 = default_axes(protocol, 3)
        assert axis1.shape == axis2.shape == (3,)
        with pytest.raises(ValueError, match=f"axis {name1} must"):
            sweep(protocol, axis1[::-1], axis2, "adc", [0.5], "physical", "polar")
        with pytest.raises(ValueError, match=f"axis {name2} must"):
            sweep(protocol, axis1, axis2[::-1], "adc", [0.5], "physical", "polar")
    result = sweep("II", axis1, axis2, "adc", [0.5], "physical", "polar")
    assert result.fidelity.shape == (3, 3, 1)
    # the mode goes through the pipeline's one mode check, as in
    # `protect`: exact names only, no case folding
    sweep("I", axis1, axis2, "adc", [0.5], "paper", "polar")
    with pytest.raises(ValueError, match="unknown mode"):
        sweep("I", axis1, axis2, "adc", [0.5], "PAPER", "polar")


def test_single_point_noiseless_grid():
    result = sweep("I", np.array([np.pi / 2]), np.array([1.0]), "adc", np.array([0.0]),
                   "physical", "polar")
    assert result.fidelity.shape == (1, 1, 1)
    np.testing.assert_almost_equal(result.fidelity[0, 0, 0], 1.0, decimal=12)


@pytest.mark.parametrize("mode", ["paper", "physical"])
@pytest.mark.parametrize("kind", CHANNEL_KINDS)
@pytest.mark.parametrize("protocol", ["I", "II"])
def test_sweep_matches_honest_evaluation(mode, kind, protocol):
    axis1, axis2 = default_axes(protocol, 4)
    r_values = np.array([0.0, 0.5])
    result = sweep(protocol, axis1, axis2, kind, r_values, mode, "polar")
    for i, a in enumerate(axis1):
        for j, b in enumerate(axis2):
            for k, r in enumerate(r_values):
                honest = _honest_cell(
                    protocol, float(a), float(b), kind, float(r), mode, "polar"
                )
                got = result.fidelity[i, j, k]
                if np.isnan(honest):
                    assert np.isnan(got), (a, b, r)
                else:
                    np.testing.assert_allclose(got, honest, atol=1e-12)


@pytest.mark.parametrize("measure", ["haar", "polar"])
@pytest.mark.parametrize("kind", CHANNEL_KINDS)
@pytest.mark.parametrize("protocol", ["I", "II"])
def test_physical_sweep_matches_four_branch_fidelity(protocol, kind, measure):
    # the sweep contracts only each cell's outcome-0 pair; `protect` keeps
    # all four branches. Random full-range axes with their endpoints, where
    # corners annihilate every branch.
    rng = np.random.default_rng(23)
    axes = [np.sort(rng.uniform(lo, hi, 9)) for _, lo, hi in PROTOCOL_AXES[protocol]]
    for axis, (_, lo, hi) in zip(axes, PROTOCOL_AXES[protocol]):
        axis[[0, -1]] = lo, hi
    r_values = np.array([0.0, rng.uniform(), 1.0])
    got = sweep(protocol, *axes, kind, r_values, "physical", measure).fidelity
    grid = np.meshgrid(*axes, indexing="ij")
    for k, r in enumerate(r_values):
        dead = normalize_branches(branch_operators(protocol, *grid, kind, r), "physical")[2]
        want = np.full(dead.shape, np.nan)
        live = [axis[~dead] for axis in grid]
        want[~dead] = average_fidelity(protect(protocol, *live, kind, r, "physical"), measure)
        assert np.array_equal(np.isnan(got[:, :, k]), dead)
        np.testing.assert_allclose(got[:, :, k], want, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("kind", CHANNEL_KINDS)
def test_physical_sweep_annihilates_by_the_full_retained_norm(kind):
    # At omega = w, q = 0 and r = 0 the outcome-0 pair keeps
    # sin(w/2)**2 / 2 and all four branches twice that, and the paper-mode
    # coherent sum sin(w/2) I keeps sin(w/2)**2 too: in both modes a cell
    # is NaN exactly when `protect` finds the four branches annihilated.
    omega = 2.0 * np.arcsin(np.sqrt(np.array([0.6, 1.5]) * ZERO_NORM_TOL))
    for mode in ("physical", "paper"):
        got = sweep("I", omega, np.array([0.0]), kind, 0.0, mode, "polar").fidelity
        assert math.isnan(got[0, 0, 0])
        with pytest.raises(ValueError, match="annihilate"):
            protect("I", omega[0], 0.0, kind, 0.0, mode)
        assert got[1, 0, 0] == pytest.approx(
            average_fidelity(protect("I", omega[1], 0.0, kind, 0.0, mode), "polar"),
            rel=0.0, abs=1e-15,
        )


def _entries_major(branches):
    """A (n1, n2, K, 2, 2) or (n1, n2, K, 4) branch stack in the sweep's
    block layout, (4, K, n1, n2) with the flattened entry 2b + c first."""
    return np.ascontiguousarray(branches.reshape(*branches.shape[:3], 4).transpose(3, 2, 0, 1))


@pytest.mark.parametrize("measure", ["haar", "polar"])
@pytest.mark.parametrize("kind", CHANNEL_KINDS)
@pytest.mark.parametrize("protocol", ["I", "II"])
def test_paper_sweep_is_the_four_branch_contraction(protocol, kind, measure):
    # The sweep builds only each cell's outcome-0 pair and adds the
    # reversed pair to the coherent sum; the reference is the same
    # contraction over the four branches that `branch_operators` builds.
    rng = np.random.default_rng(24)
    spans = PROTOCOL_AXES[protocol]
    random_axes = [np.sort(rng.uniform(lo, hi, 9)) for _, lo, hi in spans]
    for axis, (_, lo, hi) in zip(random_axes, spans):
        axis[[0, -1]] = lo, hi
    r_values = np.array([0.0, 0.3, 0.5, 0.9, 1.0])
    for axes in (default_axes(protocol, DEFAULT_RESOLUTION), random_axes):
        got = sweep(protocol, *axes, kind, r_values, "paper", measure).fidelity
        for k, r in enumerate(r_values):
            four = branch_operators(protocol, axes[0][:, None], axes[1], kind, r)
            want = _fidelity_slab(_entries_major(four), "paper", measure)
            assert np.array_equal(got[:, :, k], want, equal_nan=True), (axes[0].size, r)


def test_sweep_haar_measure_matches_honest_evaluation():
    axis1, axis2 = default_axes("II", 3)
    result = sweep("II", axis1, axis2, "bfc", np.array([0.4]), "physical", "haar")
    for i, a in enumerate(axis1):
        for j, b in enumerate(axis2):
            honest = _honest_cell("II", float(a), float(b), "bfc", 0.4, "physical", "haar")
            np.testing.assert_allclose(result.fidelity[i, j, 0], honest, atol=1e-12)


def test_sweep_is_deterministic():
    a = _sweep_default("I", np.array([0.3, 0.8]), 9, "physical", "adc", "polar")
    b = _sweep_default("I", np.array([0.3, 0.8]), 9, "physical", "adc", "polar")
    assert a.fidelity.tobytes() == b.fidelity.tobytes()
    assert a.argmax == b.argmax


def test_argmax_record():
    axis1, axis2 = default_axes("I", 11)
    result = sweep("I", axis1, axis2, "adc", np.array([0.5]), "physical", "polar")
    a, b, best = result.argmax[0]
    slab = result.fidelity[:, :, 0]
    np.testing.assert_almost_equal(best, np.nanmax(slab), decimal=15)
    i = int(np.argmin(np.abs(axis1 - a)))
    j = int(np.argmin(np.abs(axis2 - b)))
    np.testing.assert_almost_equal(slab[i, j], best, decimal=15)


@pytest.mark.parametrize("mode", ["paper", "physical"])
@pytest.mark.parametrize("kind", CHANNEL_KINDS)
@pytest.mark.parametrize("protocol", ["I", "II"])
def test_fmax_is_one_without_noise(mode, kind, protocol):
    point = fmax_curve(
        protocol, kind, r_values=np.array([0.0]), resolution=21, mode=mode, measure="polar"
    )[0]
    assert abs(point.fmax - 1.0) <= 1e-10


def test_noiseless_protocol_one_surface_has_one_missing_cell():
    # omega=0, q=0 annihilates both branch sums even with no noise; in
    # the coherent-sum reading every other cell is exactly noiseless
    result = _sweep_default("I", np.array([0.0]), 21, "paper", "adc", "polar")
    slab = result.fidelity[:, :, 0]
    assert np.isnan(slab[0, 0])
    assert np.count_nonzero(np.isnan(slab)) == 1
    np.testing.assert_allclose(slab[~np.isnan(slab)], 1.0, atol=1e-10)


def test_noiseless_physical_surface_peaks_only_at_the_locus():
    # the mixture reading keeps a sub-unit plateau off the locus
    slab = _sweep_default("I", np.array([0.0]), 21, "physical", "adc", "polar").fidelity[:, :, 0]
    np.testing.assert_allclose(slab[-1, -1], 1.0, atol=1e-12)
    assert np.nanmin(slab) < 1.0 - 1e-6


def test_noiseless_protocol_two_paper_surface_is_all_ones():
    result = _sweep_default("II", np.array([0.0]), 21, "paper", "bfc", "polar")
    np.testing.assert_allclose(result.fidelity[:, :, 0], 1.0, atol=1e-10)


def test_refinement_never_lowers_the_coarse_maximum():
    r_values = np.array([0.3, 0.6, 0.9])
    for protocol, kind in [("I", "adc"), ("II", "bfc")]:
        coarse = _sweep_default(protocol, r_values, 21, "physical", kind, "polar")
        points = fmax_curve(protocol, kind, r_values=r_values, resolution=21,
                            mode="physical", measure="polar")
        for k, point in enumerate(points):
            coarse_max = np.nanmax(coarse.fidelity[:, :, k])
            assert point.fmax >= coarse_max - 1e-12


def test_finer_nested_grid_never_loses_fidelity():
    # linspace(lo, hi, 51) is a strict subset of linspace(lo, hi, 101)
    r = np.array([0.5])
    for resolution_pair in [(26, 51)]:
        lo_res, hi_res = resolution_pair
        lo_max = np.nanmax(_sweep_default("I", r, lo_res, "physical", "adc", "polar").fidelity)
        hi_max = np.nanmax(_sweep_default("I", r, hi_res, "physical", "adc", "polar").fidelity)
        assert hi_max >= lo_max - 1e-12


def test_damping_protocol_one_reference_surface():
    # full-width omega grid; the optimum sits near total filtering
    result = sweep("I", np.linspace(0.0, np.pi, 101), np.linspace(0.0, 1.0, 101), "adc",
                   np.array([0.5]), "physical", "polar")
    assert abs(np.nanmax(result.fidelity) - 0.999) <= 0.02


def test_bit_flip_protocol_two_reference_surface():
    result = sweep("II", np.linspace(-1.0, 1.0, 101), np.linspace(-1.0, 1.0, 101), "bfc",
                   np.array([0.9]), "physical", "polar")
    assert abs(np.nanmax(result.fidelity) - 0.733) <= 0.02


def test_bit_flip_negation_symmetry():
    # flipping the signs of both strengths relabels the two outcomes
    axis = np.linspace(-1.0, 1.0, 11)
    slab = sweep("II", axis, axis, "bfc", np.array([0.6]), "physical", "polar").fidelity[:, :, 0]
    np.testing.assert_allclose(slab, slab[::-1, ::-1], atol=1e-12)


def _retained(protocol, axis1, axis2, kind, r_values, mode):
    """Retained norm of every cell of a grid, shape (n1, n2, len(r_values))."""
    return np.stack([
        normalize_branches(branch_operators(protocol, axis1[:, None], axis2, kind, r), mode)[1]
        for r in r_values
    ], axis=-1)


@pytest.mark.parametrize("kind", CHANNEL_KINDS)
def test_protocol_one_is_protocol_two_in_other_coordinates(kind):
    # The chart K1 = cos(omega), K2 = (q**2 - 1) / (q**2 + 1) carries
    # protocol I's measurement onto protocol II's, and its reversal onto
    # protocol II's times sqrt(1 + q**2). The fidelity ignores that common
    # scale and the retained norm carries it squared. Protocol I's default
    # domain maps onto the K2 <= 0 half of the square K1 in [0, 1].
    omega, q = np.linspace(0.0, np.pi / 2.0, 40), np.linspace(0.0, 1.0, 30)
    k1, k2 = np.cos(omega[::-1]), (q**2 - 1.0) / (q**2 + 1.0)  # cos descends
    r_values = np.array([0.0, 0.5, 1.0])
    kept = 0
    for mode in ("paper", "physical"):
        retained_i = _retained("I", omega, q, kind, r_values, mode)
        retained_ii = _retained("II", k1, k2, kind, r_values, mode)[::-1]
        for measure in ("haar", "polar"):
            f_i = sweep("I", omega, q, kind, r_values, mode, measure).fidelity
            f_ii = sweep("II", k1, k2, kind, r_values, mode, measure).fidelity[::-1]
            # the NaN threshold differs by the factor 1 + q**2, so cells
            # near annihilation are left out by their retained norm
            keep = (np.isfinite(f_i) & np.isfinite(f_ii)
                    & (retained_i >= 1e-12) & (retained_ii >= 1e-12))
            np.testing.assert_allclose(f_i[keep], f_ii[keep], rtol=0.0, atol=1e-13)
            # near omega = 0, 1 - K1 keeps only ~1e-13 relative accuracy;
            # a paper-mode sum that nearly cancels keeps less, at tiny norms
            scaled = (1.0 + q**2)[:, None] * retained_ii
            np.testing.assert_allclose(retained_i[keep], scaled[keep], rtol=1e-13, atol=1e-15)
            kept += int(keep.sum())
    assert kept >= 0.9 * 4 * f_i.size


@pytest.mark.xfail(
    strict=True,
    reason="the measurement and reversal stages bracket the damping "
    "channel asymmetrically, so swapping their strengths changes the "
    "surface despite all operators being diagonal",
)
def test_damping_strength_swap_symmetry_paper_mode():
    axis = np.linspace(0.0, 1.0, 11)
    slab = sweep("II", axis, axis, "adc", np.array([0.5]), "paper", "polar").fidelity[:, :, 0]
    np.testing.assert_allclose(slab, slab.T, atol=1e-12)


@pytest.mark.parametrize("mode", ["paper", "physical"])
def test_bit_flip_protocol_one_cannot_beat_baseline_at_high_noise(mode):
    point = fmax_curve(
        "I", "bfc", r_values=np.array([0.9]), resolution=51, mode=mode, measure="polar"
    )[0]
    np.testing.assert_allclose(point.fmax, 0.58, atol=1e-9)
    np.testing.assert_allclose(point.baseline, 0.58, atol=1e-12)


def test_paper_mode_phase_flip_surface_is_one_where_defined():
    result = _sweep_default("I", np.array([0.5]), 21, "paper", "pfc", "polar")
    slab = result.fidelity[:, :, 0]
    assert np.isnan(slab).any()
    np.testing.assert_allclose(slab[~np.isnan(slab)], 1.0, atol=1e-10)
    point = fmax_curve("I", "pfc", r_values=np.array([0.5]), resolution=21, mode="paper",
                       measure="polar")[0]
    np.testing.assert_allclose(point.fmax, 1.0, atol=1e-10)


def test_fmax_point_parameters_evaluate_to_fmax():
    point = fmax_curve("II", "adc", r_values=np.array([0.5]), resolution=31,
                       mode="physical", measure="polar")[0]
    shared = protect("II", point.param1, point.param2, "adc", 0.5, "physical")
    np.testing.assert_allclose(
        average_fidelity(shared, measure="polar"), point.fmax, atol=1e-12
    )


def test_default_r_values():
    r = default_r_values()
    assert r.shape == (21,)
    np.testing.assert_almost_equal(r[0], 0.0)
    np.testing.assert_almost_equal(r[-1], 1.0)


@pytest.mark.parametrize("kind", CHANNEL_KINDS)
def test_protocol_comparison_verdicts(kind):
    curve_i, curve_ii = (fmax_curve(protocol, kind, default_r_values(), resolution=31,
                                    mode="physical", measure="polar")
                         for protocol in ("I", "II"))
    rows = [(pi.r, pi.baseline, pi.fmax, pii.fmax) for pi, pii in zip(curve_i, curve_ii)]
    passed, line = protocol_verdict(kind, rows)
    assert passed, line
    assert line.endswith(": confirmed")
    assert len(rows) == 21


def test_sweep_rejects_unknown_channel_and_measure():
    with pytest.raises(ValueError, match="unknown channel"):
        _sweep_default("I", np.array([0.5]), 3, "physical", "xyz", "polar")
    with pytest.raises(ValueError, match="unknown measure"):
        _sweep_default("I", np.array([0.5]), 3, "physical", "adc", "cube")


@pytest.mark.parametrize("measure", ["cube", ["haar"], ("polar",), None],
                         ids=["string", "list", "tuple", "none"])
def test_every_entry_point_rejects_a_bad_measure(measure):
    # a list once reached an lru_cache keyed on the measure and raised
    # TypeError: unhashable type
    g = protect("I", 0.7, 0.5, "bfc", 0.3, "physical")
    for consume in (
        lambda: _sweep_default("I", [0.5], 3, "physical", "adc", measure),
        lambda: unprotected_baseline("adc", 0.5, "physical", measure),
        lambda: fmax_curve("I", "adc", [0.5], resolution=3, mode="physical", measure=measure),
        lambda: design_inputs(measure),
        lambda: average_fidelity(g, measure),
    ):
        with pytest.raises(ValueError, match="unknown measure"):
            consume()


def test_slab_argmax_takes_lowest_index_among_near_ties():
    axis1, axis2 = np.array([0.0, 0.5]), np.array([0.0, 0.5, 1.0])
    slab = np.array([[np.nan, 0.5, 1.0 - 1e-16], [1.0, 1.0, 0.2]])
    assert _slab_argmax(axis1, axis2, slab) == (0.0, 1.0, 1.0 - 1e-16)
    slab[0, 2] = 1.0 - 1e-14
    assert _slab_argmax(axis1, axis2, slab) == (0.5, 0.0, 1.0)


def _isnan_nanmax_argmax(axis1, axis2, slab):
    """The argmax rule written with `np.isnan(slab).all()` and
    `np.nanmax`: the lowest flat index within 1e-15 of the slab maximum."""
    if np.isnan(slab).all():
        return (math.nan, math.nan, math.nan)
    flat = int(np.argmax(slab >= np.nanmax(slab) - 1e-15))
    i1, i2 = divmod(flat, slab.shape[1])
    return (float(axis1[i1]), float(axis2[i2]), float(slab[i1, i2]))


def _argmax_slab(case):
    rng = np.random.default_rng(27)
    if case == "nan_at_the_maximum":
        slab = rng.random((6, 7))
        slab.flat[np.argsort(slab, axis=None)[-2:]] = np.nan  # the two largest
        return slab
    if case == "plateau_within_1e-15":
        # 1 - k ulp-sized steps: ties and near-misses around the top,
        # and a first cell exactly 1e-15 below it, which still ties
        slab = 1.0 - rng.integers(0, 20, (6, 7)) * 1.1e-16
        slab[0, 0], slab[-1, -1] = 1.0 - 1e-15, 1.0
        return slab
    if case == "strided":
        big = 0.5 + rng.integers(0, 12, (12, 21, 3)) * 1e-16
        big[0, 0, 1] = np.nan
        return big[::2, ::3, 1]
    return np.full((6, 7), np.nan)


@pytest.mark.parametrize(
    "case", ["nan_at_the_maximum", "plateau_within_1e-15", "strided", "all_nan"]
)
def test_slab_argmax_is_the_isnan_nanmax_rule(case):
    slab = _argmax_slab(case)
    axis1, axis2 = np.linspace(0.0, 1.0, slab.shape[0]), np.linspace(0.0, 1.0, slab.shape[1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _slab_argmax(axis1, axis2, slab)
        want = _isnan_nanmax_argmax(axis1, axis2, slab)
    assert np.array_equal(got, want, equal_nan=True)
    assert math.isnan(got[2]) == (case == "all_nan")


@pytest.mark.parametrize("mode", ["paper", "physical"])
def test_sweep_result_is_a_read_only_view_of_its_r_slabs(mode):
    # omega = 0 with q = 0 is annihilated at r = 0
    axis1, axis2 = np.linspace(0.0, math.pi / 2.0, 9), np.linspace(0.0, 1.0, 7)
    r_values = [0.0, 0.45, 1.0]
    result = sweep("I", axis1, axis2, "adc", r_values, mode, "polar")
    fidelity = result.fidelity
    assert fidelity.shape == (9, 7, 3)
    assert fidelity.base.shape == (3, 9, 7) and fidelity.base.flags.c_contiguous
    assert np.isnan(fidelity[0, 0, 0])
    for ir, r in enumerate(r_values):
        single = sweep("I", axis1, axis2, "adc", r, mode, "polar")
        assert fidelity[:, :, ir].tobytes() == single.fidelity[:, :, 0].tobytes()
        assert result.argmax[ir] == single.argmax[0]
    for array in (fidelity, fidelity.base):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0, 0] = 0.5
    for buf in vars(sweep_module._workspace).values():
        assert not any(np.shares_memory(fidelity[:, :, ir], buf) for ir in range(3))


def _multiply_branch_slab(protocol, axis1, axis2, channel, r):
    """`_branch_slab` built with a broadcast `np.multiply`, which keeps
    the sign of a zero product."""
    n1, n2 = axis1.size, axis2.size
    left, right = sweep_module._branch_factors(protocol, axis1[:, None], axis2, channel, r)
    left = left.reshape(n2, 2, 4).transpose(2, 1, 0).reshape(8, n2)
    right = right.reshape(n1, 2, 4).transpose(2, 1, 0).reshape(8, n1)
    return np.multiply(right[:, :, None], left[:, None, :]).reshape(4, 2, n1, n2)


def _negative_zeros(x):
    return int(((x == 0.0) & np.signbit(x)).sum())


def test_branch_slab_equals_the_broadcast_product_up_to_the_sign_of_zeros(monkeypatch):
    rng = np.random.default_rng(27)
    factors = {}
    for name, n in (("left", 13), ("right", 11)):
        x = rng.normal(size=(n, 8))
        picks = rng.random((n, 8))
        x[picks < 0.15] = 0.0
        x[(picks >= 0.15) & (picks < 0.3)] = -0.0
        x[(picks >= 0.3) & (picks < 0.4)] *= 1e-310  # subnormal
        factors[name] = x
    monkeypatch.setattr(
        sweep_module, "_branch_factors", lambda *args: (factors["left"], factors["right"])
    )
    args = ("I", np.zeros(11), np.zeros(13), "adc", 0.5)
    want = _multiply_branch_slab(*args)
    got = _branch_slab(*args)
    assert _negative_zeros(want) > 0
    assert ((want != 0.0) & (np.abs(want) < np.finfo(float).tiny)).any()
    assert np.array_equal(got, want)
    nonzero = want != 0.0
    assert np.array_equal(np.signbit(got[nonzero]), np.signbit(want[nonzero]))


@pytest.mark.parametrize("mode", ["paper", "physical"])
@pytest.mark.parametrize("protocol, channel, axis1, r_values", [
    # the pfc Kraus operators hold a -0.0 at r = 0
    ("I", "pfc", np.linspace(0.0, math.pi / 2.0, 9), [0.0]),
    ("II", "pfc", np.linspace(-1.0, 1.0, 9), [0.0]),
    # an axis that starts at -0.0
    ("I", "adc", np.array([-0.0, 0.4, 1.1, 1.5]), [0.0, 0.5, 1.0]),
    ("I", "bfc", np.array([-0.0, 0.4, 1.1, 1.5]), [0.0, 0.5, 1.0]),
    ("II", "pfc", np.array([-0.0, 0.3, 0.9]), [0.0, 0.5, 1.0]),
])
def test_signed_zero_branch_entries_move_no_fidelity(
    protocol, channel, axis1, r_values, mode, monkeypatch
):
    axis2 = np.concatenate([[-0.0], np.linspace(0.1, 1.0, 6)])
    assert _negative_zeros(_multiply_branch_slab(protocol, axis1, axis2, channel, r_values[0])) > 0
    for measure in ("haar", "polar"):
        got = sweep(protocol, axis1, axis2, channel, r_values, mode, measure)
        with monkeypatch.context() as patch:
            patch.setattr(sweep_module, "_branch_slab", _multiply_branch_slab)
            want = sweep(protocol, axis1, axis2, channel, r_values, mode, measure)
        assert got.fidelity.tobytes() == want.fidelity.tobytes()
        assert got.argmax == want.argmax


def test_refinement_keeps_the_coarse_optimum_on_a_plateau():
    # paper-mode phase flip under protocol I is 1 wherever it is defined;
    # the reported optimum is the first defined coarse cell, whatever the
    # refinement window's rounding noise says
    axis1, axis2 = default_axes("I", 21)
    slab = sweep("I", axis1, axis2, "pfc", np.array([0.5]), "paper", "polar").fidelity[:, :, 0]
    i1, i2 = divmod(int(np.flatnonzero(~np.isnan(slab))[0]), slab.shape[1])
    point = fmax_curve("I", "pfc", r_values=np.array([0.5]), resolution=21, mode="paper",
                       measure="polar")[0]
    assert (point.param1, point.param2) == (axis1[i1], axis2[i2])
    assert point.fmax == slab[i1, i2]


_THETA = math.asin(math.sqrt(8.0 / 15.0))
_S = 1.0 / math.sqrt(2.0)
_DESIGNS = {
    "polar": np.array(
        [[math.cos(a / 2.0), math.sin(a / 2.0)]
         for a in (_THETA, -_THETA, math.pi - _THETA, math.pi + _THETA)],
        dtype=complex,
    ),
    "haar": np.array(
        [[1, 0], [0, 1], [_S, _S], [_S, -_S], [_S, 1j * _S], [_S, -1j * _S]],
        dtype=complex,
    ),
}


def _oracle_cell(protocol, a, b, kind, r, mode, measure):
    """Design-averaged fidelity from the brute-force oracle, NaN where it
    finds every branch annihilated."""
    try:
        state = brute_protect(protocol, a, b, kind, r, mode)
    except ValueError:
        return math.nan
    return float(brute_fidelities_batch(state, _DESIGNS[measure]).mean())


def _assert_grid_matches_oracle(protocol, axis1, axis2, kind, r_values, mode, measure):
    fidelity = sweep(protocol, axis1, axis2, kind, r_values, mode, measure).fidelity
    for (i1, i2, ir), got in np.ndenumerate(fidelity):
        want = _oracle_cell(protocol, float(axis1[i1]), float(axis2[i2]),
                            kind, float(r_values[ir]), mode, measure)
        if math.isnan(want):
            assert math.isnan(got), (i1, i2, ir)
        else:
            assert abs(got - want) <= 1e-12, (i1, i2, ir, got, want)


@pytest.mark.parametrize("measure", ["haar", "polar"])
@pytest.mark.parametrize("mode", ["paper", "physical"])
@pytest.mark.parametrize("kind", CHANNEL_KINDS)
def test_sweep_baseline_matches_scalar_baseline(kind, mode, measure):
    """The baseline over all r at once against the brute-force oracle's,
    one r at a time; an F_max curve reports exactly that baseline."""
    r_values = np.array([0.0, 0.3, 0.5, 0.9, 1.0])
    baseline = unprotected_baseline(kind, r_values, mode, measure)
    assert baseline.shape == (5,) and not baseline.flags.writeable
    for r, got in zip(r_values, baseline):
        state = brute_baseline(kind, float(r), mode)
        want = brute_fidelities_batch(state, _DESIGNS[measure]).mean()
        assert abs(got - want) <= 1e-12, (r, got, want)
    points = fmax_curve("I", kind, r_values, resolution=2, mode=mode, measure=measure)
    np.testing.assert_array_equal([point.baseline for point in points], baseline)


def test_baseline_r_values_are_checked():
    with pytest.raises(ValueError, match="axis r"):
        unprotected_baseline("bfc", [], "physical", "polar")
    one = unprotected_baseline("bfc", 0.5, "physical", "polar")
    assert one.shape == (1,)
    np.testing.assert_array_equal(one, unprotected_baseline("bfc", [0.5], "physical", "polar"))
    # a sweep's r axis follows the channel's range rule: no slack past 1
    with pytest.raises(ValueError, match="axis r"):
        sweep("I", [0.5], [0.5], "bfc", [1.0 + 5e-13], "physical", "polar")
    # and, as here, a bare float is one r value
    bare = sweep("I", [0.5], [0.5], "bfc", 0.5, "physical", "polar")
    assert bare.fidelity.shape == (1, 1, 1)
    curve = fmax_curve("I", "bfc", 0.5, 3, mode="physical", measure="polar")
    assert [(point.r, point.baseline) for point in curve] == [(0.5, one[0])]


def test_phase_flip_coherent_sum_near_cancellation_matches_oracle():
    # At high phase-flip noise the paper-mode branch sum nearly cancels
    # (at r = 1 it is (q cos(w/2) - sin(w/2)) I), so fidelity is 1 wherever
    # it is defined. Squaring branches before summing them loses this to
    # cancellation between large terms; amplitudes formed first do not.
    r_values = np.array([0.9, 0.95, 1.0])
    _assert_grid_matches_oracle("I", *default_axes("I", 11), "pfc", r_values, "paper", "polar")
    omega = 1.2
    locus = math.tan(omega / 2.0)
    near = locus * (1.0 + np.array([-1e-2, -1e-4, -1e-6, 1e-6, 1e-4, 1e-2]))
    _assert_grid_matches_oracle("I", np.array([omega]), near, "pfc", r_values, "paper", "polar")


def _degenerate(values, lo, hi):
    return st.one_of(st.sampled_from(values), st.floats(lo, hi))


@given(
    protocol=st.sampled_from(["I", "II"]),
    kind=st.sampled_from(CHANNEL_KINDS),
    mode=st.sampled_from(["paper", "physical"]),
    measure=st.sampled_from(["haar", "polar"]),
    omega=_degenerate([0.0, math.pi], 0.0, math.pi),
    q=_degenerate([0.0, 1.0], 0.0, 1.0),
    k1=_degenerate([-1.0, 1.0], -1.0, 1.0),
    k2=_degenerate([-1.0, 1.0], -1.0, 1.0),
    r=_degenerate([0.0, 1.0], 0.0, 1.0),
)
def test_fidelity_slab_matches_oracle_at_degenerate_parameters(
    protocol, kind, mode, measure, omega, q, k1, k2, r
):
    a, b = (omega, q) if protocol == "I" else (k1, k2)
    branches = _branch_slab(protocol, np.array([a]), np.array([b]), kind, r)
    # the block is the outcome-0 pair of `branch_operators`, entries-major
    pair = branch_operators(protocol, np.array([[a]]), np.array([b]), kind, r)[:, :, :2]
    assert np.array_equal(branches, _entries_major(pair))
    got = _fidelity_slab(branches, mode, measure, mirrored=True)[0, 0]
    want = _oracle_cell(protocol, a, b, kind, r, mode, measure)
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert abs(got - want) <= 1e-12


# The row layout's norm is np.einsum's, whose order the sweep writes out
# as it runs on a numpy built for two double lanes without FMA.
_EINSUM_TWO_LANES = pytest.mark.skipif(
    np.show_config(mode="dicts")["SIMD Extensions"]["baseline"] != ["X86_V2"],
    reason="the written-out norm order is einsum's on a numpy built for X86_V2",
)


def _spread(rng, shape):
    """Signed values whose magnitudes spread over 1e-8 to 1e4, about one in
    ten of them zero."""
    x = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8.0, 4.0, shape)
    x[rng.random(shape) < 0.1] = 0.0
    return x


def _row_layout_slab(rows, mode, measure, mirrored=False):
    """The contraction over blocks in the (n1, n2, K, 4) row layout that
    the sweep used before its blocks went entries-major: einsum norms,
    `rows @ V` in 4,096-row batches and numpy's pairwise sum of each
    row's squared amplitudes."""
    n1, n2, nk = rows.shape[:3]
    cells = n1 * n2
    g = rows.reshape(cells, nk, 4)
    if mode == "paper":
        terms = [g[:, k] for k in range(nk)]
        if mirrored:
            terms += [term[:, ::-1] for term in terms]
        coherent = terms[0].copy()
        for term in terms[1:]:
            coherent += term
        g = coherent[:, None]
    den = np.einsum("xkc,xkc->x", g, g)
    den *= 0.5
    flat = g.reshape(-1, 4)
    sq = np.empty(flat.shape[0])
    for start in range(0, flat.shape[0], 4096):
        a = flat[start:start + 4096] @ _DESIGN_MATRICES[measure]
        np.add.reduce(a * a, axis=1, out=sq[start:start + 4096])
    per_branch = sq.reshape(cells, -1)
    num = per_branch[:, 0].copy()
    for k in range(1, per_branch.shape[1]):
        num += per_branch[:, k]
    num /= len(design_inputs(measure))
    tol = ZERO_NORM_TOL / 2.0 if mirrored and mode == "physical" else ZERO_NORM_TOL
    out = np.full(cells, np.nan)
    np.divide(num, den, out=out, where=den >= tol)
    return np.clip(out, 0.0, 1.0).reshape(n1, n2)


# A 1 x 1 grid, and a 4,097-cell block whose last amplitude batch is one
# column: BLAS takes a one-column product through gemv rather than gemm.
@_EINSUM_TWO_LANES
@pytest.mark.parametrize("shape", [(7, 9), (1, 1), (1, 4097)])
def test_fidelity_slab_is_the_row_layout_contraction_bit_for_bit(shape):
    rng = np.random.default_rng(26)
    for nk, mirrored, mode, measure in itertools.product(
        [1, 2, 4], [False, True], ["paper", "physical"], ["haar", "polar"]
    ):
        rows = _spread(rng, (*shape, nk, 4))
        corners = shape != (1, 1)
        if corners:
            # NaN corners, away from the last cell: an annihilated cell
            # and one whose norm is below 1e-16
            rows[0, 0] = 0.0
            rows[0, 1] = rng.uniform(-1e-9, 1e-9, (nk, 4))
        want = _row_layout_slab(rows, mode, measure, mirrored)
        if corners:
            assert np.isnan(want[0, :2]).all()
        assert not np.isnan(want[-1, -1])
        got = _fidelity_slab(_entries_major(rows), mode, measure, mirrored)
        assert np.array_equal(got, want, equal_nan=True), (nk, mirrored, mode, measure)


@pytest.mark.parametrize("f", [16, 32])
def test_row_sum_is_numpy_pairwise_sum(f):
    a = _spread(np.random.default_rng(f), (4099, f)) ** 2
    want = np.add.reduce(a, axis=1)
    got = sweep_module._row_sum(np.ascontiguousarray(a.T), np.empty(4099))
    assert np.array_equal(got, want)


@_EINSUM_TWO_LANES
@pytest.mark.parametrize("nk", [1, 2, 4])
def test_entry_norm_is_einsum_order_on_two_lanes(nk):
    x = _spread(np.random.default_rng(nk), (4099, nk, 4))
    want = np.einsum("xkc,xkc->x", x, x)
    acc, tmp = np.empty((2, 4099)), np.empty((2, 4099))
    got = sweep_module._entry_norm(np.ascontiguousarray(x.transpose(2, 1, 0)), acc, tmp)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("measure", ["haar", "polar"])
def test_design_matrix_matches_resource_written_out(measure):
    """V built from the shared eta-psi0 constant equals, bit for bit, V
    built from the resource's four amplitudes written out (B as column)."""
    psi0 = np.zeros((8, 2))
    for idx in (0b0000, 0b0101, 0b1010, 0b1111):
        psi0[idx >> 1, idx & 1] = 0.5
    states = design_inputs(measure)
    t1 = np.einsum("isa,ns->nia", ETA_STATES.reshape(4, 2, 8).conj(), states)
    u = np.einsum("nb,ibc->nic", states.conj(), CORRECTIONS)
    w = np.einsum("nia,nib->niab", t1, u)
    v = np.einsum("niab,ac->bcni", w, psi0).reshape(4, -1)
    v = np.concatenate([v.real, v.imag], axis=1)
    assert np.array_equal(_DESIGN_MATRICES[measure], v[:, (v != 0.0).any(axis=0)])


# 11 x 3 cells: a 1-cell block is one row, a 7-cell block two rows with a
# ragged last block of one, and 10**6 cells one block.
@pytest.mark.parametrize("block_cells", [1, 7, 10**6])
@pytest.mark.parametrize("measure", ["haar", "polar"])
@pytest.mark.parametrize("mode", ["paper", "physical"])
@pytest.mark.parametrize("kind", CHANNEL_KINDS)
def test_block_size_moves_no_bits(kind, mode, measure, block_cells, monkeypatch):
    # omega = 0 with q = 0 is annihilated at r = 0, so NaN cells cross
    # block boundaries too.
    args = ("I", np.linspace(0.0, math.pi / 2.0, 11), np.linspace(0.0, 1.0, 3), kind,
            np.array([0.0, 0.37, 0.9]), mode, measure)
    whole = sweep(*args)
    monkeypatch.setattr(sweep_module, "_BLOCK_CELLS", block_cells)
    blocked = sweep(*args)
    assert np.isnan(whole.fidelity[0, 0, 0])
    assert np.array_equal(blocked.fidelity, whole.fidelity, equal_nan=True)
    assert np.array_equal(np.array(blocked.argmax), np.array(whole.argmax), equal_nan=True)


def test_cached_arrays_are_read_only():
    for arr in (CORRECTIONS, ETA_STATES, _DESIGN_MATRICES["haar"], _DESIGN_MATRICES["polar"],
                design_inputs("haar"), design_inputs("polar"), _quadrature_grid()[1],
                PAULI_I, PAULI_X, PAULI_Z):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] *= 1.0


def test_back_to_back_sweeps_leave_the_first_result_alone():
    # A refinement-sized window between two 101 x 101 grids, each sweep in
    # another mode or measure, so every workspace buffer is reused.
    first = _sweep_default("I", [0.3, 0.9], 101, "physical", "adc", "polar")
    fidelity = first.fidelity.tobytes()
    _sweep_default("II", [0.5], 21, "paper", "pfc", "haar")
    _sweep_default("II", [0.1, 0.5, 0.7], 101, "paper", "bfc", "haar")
    assert first.fidelity.tobytes() == fidelity
    assert not first.fidelity.flags.writeable


def test_back_to_back_sweeps_share_no_memory():
    # Each block's norms and sums live in the thread's workspace; the
    # fidelities must still come back as a fresh array, with the bits of
    # a sweep run in a new thread, whose workspace starts empty.
    job = ("II", [0.37, 0.9], 101, "physical", "bfc", "polar")
    fresh = {}
    worker = threading.Thread(target=lambda: fresh.update(want=_sweep_default(*job)))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    first = _sweep_default(*job)
    _sweep_default("I", [0.5], 33, "paper", "adc", "haar")
    second = _sweep_default(*job)
    got = first.fidelity, second.fidelity
    assert not np.shares_memory(*got)
    for buf in vars(sweep_module._workspace).values():
        assert not any(np.shares_memory(array, buf) for array in got)
    for array in got:
        assert array.tobytes() == fresh["want"].fidelity.tobytes()


def test_concurrent_sweeps_match_sequential_ones():
    jobs = [
        ("I", [0.2, 0.5, 0.9], 101, "physical", "adc", "polar"),
        ("II", [0.3, 0.6, 0.8, 1.0], 77, "paper", "bfc", "haar"),
        ("I", [0.4, 0.7], 61, "paper", "pfc", "polar"),
        ("II", [0.1, 0.9], 121, "physical", "pfc", "haar"),
    ]
    want = [_sweep_default(*job) for job in jobs]
    got = {}
    start = threading.Barrier(len(jobs))

    def run(i):
        start.wait(timeout=30)
        got[i] = [_sweep_default(*jobs[i]) for _ in range(3)]

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(got) == list(range(len(jobs)))
    for i, expected in enumerate(want):
        for result in got[i]:
            assert result.fidelity.tobytes() == expected.fidelity.tobytes()
            assert result.argmax == expected.argmax


def test_workspace_holds_at_most_one_block(monkeypatch):
    # One axis-1 row of twice _BLOCK_CELLS cells: a block too large for the
    # workspace, which must then keep nothing of its size.
    cells = sweep_module._BLOCK_CELLS
    axis2 = np.linspace(0.0, 1.0, 2 * cells)
    # Per cell: 8 branch entries, 4 of the paper-mode sum, 2 squared
    # amplitudes, a norm and a sum; plus one batch of amplitudes.
    one_block = 8 * (16 * cells + sweep_module._BATCH_COLUMNS * _DESIGN_MATRICES["haar"].shape[1])
    monkeypatch.setattr(sweep_module, "_workspace", threading.local())
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        result = sweep("I", np.array([0.3]), axis2, "adc", np.array([0.5]), "physical", "haar")
        assert result.fidelity.shape == (1, 2 * cells, 1)
        del result
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before <= one_block
