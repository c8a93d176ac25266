import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from brute import brute_baseline, brute_fidelities_batch, brute_protect
from wmteleport import sweep as sweep_module
from wmteleport.checks import _quadrature_grid
from wmteleport.operators import CHANNEL_KINDS, CORRECTIONS, PAULI_I, PAULI_X, PAULI_Z
from wmteleport.pipeline import protect
from wmteleport.sweep import (
    _DESIGN_MATRICES,
    SweepGrid,
    _branch_slab,
    _fidelity_slab,
    _slab_argmax,
    compare_protocols,
    default_grid,
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


def test_grid_validation():
    with pytest.raises(ValueError):
        SweepGrid("I", np.array([0.2, 0.1]), np.array([0.0, 1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        SweepGrid("I", np.array([0.0, 4.0]), np.array([0.0, 1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        SweepGrid("II", np.array([0.0, 1.0]), np.array([-1.5, 0.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        SweepGrid("I", np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.array([1.2]))
    with pytest.raises(ValueError):
        default_grid("III", np.array([0.5]))
    with pytest.raises(ValueError):
        default_grid("I", np.array([0.5]), resolution=0)


def test_grid_copies_the_caller_axes():
    # the grid freezes its own copies; the caller's arrays stay writable
    a1, a2, r = np.linspace(0.0, 1.0, 5), np.array([0.5]), np.array([0.5])
    grid = SweepGrid("I", a1, a2, r)
    a1[0] = 0.1
    r[0] = 0.9
    assert grid.axis1[0] == 0.0 and grid.r_values[0] == 0.5
    assert not (grid.axis1.flags.writeable or grid.axis2.flags.writeable)


def test_grid_axis_names_fill_in():
    grid = default_grid("I", np.array([0.5]), resolution=3)
    assert (grid.axis1_name, grid.axis2_name) == ("omega", "q")
    grid2 = default_grid("II", np.array([0.5]), resolution=3)
    assert (grid2.axis1_name, grid2.axis2_name) == ("k1", "k2")
    assert grid2.shape == (3, 3, 1)
    # the mode goes through the pipeline's one mode check, as in
    # `protect`: exact names only, no case folding
    assert default_grid("I", [0.5], 5, "paper").mode == "paper"
    with pytest.raises(ValueError, match="unknown mode"):
        default_grid("I", [0.5], 5, "PAPER")


def test_single_point_noiseless_grid():
    grid = SweepGrid(
        "I",
        np.array([np.pi / 2]),
        np.array([1.0]),
        np.array([0.0]),
        mode="physical",
    )
    result = sweep(grid, "adc")
    assert result.fidelity.shape == (1, 1, 1)
    np.testing.assert_almost_equal(result.fidelity[0, 0, 0], 1.0, decimal=12)


@pytest.mark.parametrize("mode", ["paper", "physical"])
@pytest.mark.parametrize("kind", CHANNEL_KINDS)
@pytest.mark.parametrize("protocol", ["I", "II"])
def test_sweep_matches_honest_evaluation(mode, kind, protocol):
    grid = default_grid(protocol, np.array([0.0, 0.5]), resolution=4, mode=mode)
    result = sweep(grid, kind, measure="polar")
    for i, a in enumerate(grid.axis1):
        for j, b in enumerate(grid.axis2):
            for k, r in enumerate(grid.r_values):
                honest = _honest_cell(
                    protocol, float(a), float(b), kind, float(r), mode, "polar"
                )
                got = result.fidelity[i, j, k]
                if np.isnan(honest):
                    assert np.isnan(got), (a, b, r)
                else:
                    np.testing.assert_allclose(got, honest, atol=1e-12)


def test_sweep_haar_measure_matches_honest_evaluation():
    grid = default_grid("II", np.array([0.4]), resolution=3, mode="physical")
    result = sweep(grid, "bfc", measure="haar")
    for i, a in enumerate(grid.axis1):
        for j, b in enumerate(grid.axis2):
            honest = _honest_cell("II", float(a), float(b), "bfc", 0.4, "physical", "haar")
            np.testing.assert_allclose(result.fidelity[i, j, 0], honest, atol=1e-12)


def test_sweep_is_deterministic():
    grid = default_grid("I", np.array([0.3, 0.8]), resolution=9, mode="physical")
    a = sweep(grid, "adc")
    b = sweep(grid, "adc")
    assert a.fidelity.tobytes() == b.fidelity.tobytes()
    assert a.baseline.tobytes() == b.baseline.tobytes()


def test_argmax_record():
    grid = default_grid("I", np.array([0.5]), resolution=11, mode="physical")
    result = sweep(grid, "adc")
    a, b, best = result.argmax[0]
    slab = result.fidelity[:, :, 0]
    np.testing.assert_almost_equal(best, np.nanmax(slab), decimal=15)
    i = int(np.argmin(np.abs(grid.axis1 - a)))
    j = int(np.argmin(np.abs(grid.axis2 - b)))
    np.testing.assert_almost_equal(slab[i, j], best, decimal=15)


@pytest.mark.parametrize("mode", ["paper", "physical"])
@pytest.mark.parametrize("kind", CHANNEL_KINDS)
@pytest.mark.parametrize("protocol", ["I", "II"])
def test_fmax_is_one_without_noise(mode, kind, protocol):
    point = fmax_curve(
        protocol, kind, r_values=np.array([0.0]), resolution=21, mode=mode
    )[0]
    assert abs(point.fmax - 1.0) <= 1e-10


def test_noiseless_protocol_one_surface_has_one_missing_cell():
    # omega=0, q=0 annihilates both branch sums even with no noise; in
    # the coherent-sum reading every other cell is exactly noiseless
    grid = default_grid("I", np.array([0.0]), resolution=21, mode="paper")
    result = sweep(grid, "adc")
    slab = result.fidelity[:, :, 0]
    assert np.isnan(slab[0, 0])
    assert np.count_nonzero(np.isnan(slab)) == 1
    np.testing.assert_allclose(slab[~np.isnan(slab)], 1.0, atol=1e-10)


def test_noiseless_physical_surface_peaks_only_at_the_locus():
    # the mixture reading keeps a sub-unit plateau off the locus
    grid = default_grid("I", np.array([0.0]), resolution=21, mode="physical")
    slab = sweep(grid, "adc").fidelity[:, :, 0]
    np.testing.assert_allclose(slab[-1, -1], 1.0, atol=1e-12)
    assert np.nanmin(slab) < 1.0 - 1e-6


def test_noiseless_protocol_two_paper_surface_is_all_ones():
    grid = default_grid("II", np.array([0.0]), resolution=21, mode="paper")
    result = sweep(grid, "bfc")
    np.testing.assert_allclose(result.fidelity[:, :, 0], 1.0, atol=1e-10)


def test_refinement_never_lowers_the_coarse_maximum():
    r_values = np.array([0.3, 0.6, 0.9])
    for protocol, kind in [("I", "adc"), ("II", "bfc")]:
        grid = default_grid(protocol, r_values, resolution=21, mode="physical")
        coarse = sweep(grid, kind)
        points = fmax_curve(protocol, kind, r_values=r_values, resolution=21)
        for k, point in enumerate(points):
            coarse_max = np.nanmax(coarse.fidelity[:, :, k])
            assert point.fmax >= coarse_max - 1e-12


def test_finer_nested_grid_never_loses_fidelity():
    # linspace(lo, hi, 51) is a strict subset of linspace(lo, hi, 101)
    r = np.array([0.5])
    for resolution_pair in [(26, 51)]:
        lo_res, hi_res = resolution_pair
        lo_grid = default_grid("I", r, resolution=lo_res, mode="physical")
        hi_grid = default_grid("I", r, resolution=hi_res, mode="physical")
        lo_max = np.nanmax(sweep(lo_grid, "adc").fidelity)
        hi_max = np.nanmax(sweep(hi_grid, "adc").fidelity)
        assert hi_max >= lo_max - 1e-12


def test_damping_protocol_one_reference_surface():
    # full-width omega grid; the optimum sits near total filtering
    grid = SweepGrid(
        "I",
        np.linspace(0.0, np.pi, 101),
        np.linspace(0.0, 1.0, 101),
        np.array([0.5]),
        mode="physical",
    )
    result = sweep(grid, "adc")
    assert abs(np.nanmax(result.fidelity) - 0.999) <= 0.02


def test_bit_flip_protocol_two_reference_surface():
    grid = SweepGrid(
        "II",
        np.linspace(-1.0, 1.0, 101),
        np.linspace(-1.0, 1.0, 101),
        np.array([0.9]),
        mode="physical",
    )
    result = sweep(grid, "bfc")
    assert abs(np.nanmax(result.fidelity) - 0.733) <= 0.02


def test_bit_flip_negation_symmetry():
    # flipping the signs of both strengths relabels the two outcomes
    grid = SweepGrid(
        "II",
        np.linspace(-1.0, 1.0, 11),
        np.linspace(-1.0, 1.0, 11),
        np.array([0.6]),
        mode="physical",
    )
    slab = sweep(grid, "bfc").fidelity[:, :, 0]
    np.testing.assert_allclose(slab, slab[::-1, ::-1], atol=1e-12)


@pytest.mark.xfail(
    strict=True,
    reason="the measurement and reversal stages bracket the damping "
    "channel asymmetrically, so swapping their strengths changes the "
    "surface despite all operators being diagonal",
)
def test_damping_strength_swap_symmetry_paper_mode():
    grid = SweepGrid(
        "II",
        np.linspace(0.0, 1.0, 11),
        np.linspace(0.0, 1.0, 11),
        np.array([0.5]),
        mode="paper",
    )
    slab = sweep(grid, "adc").fidelity[:, :, 0]
    np.testing.assert_allclose(slab, slab.T, atol=1e-12)


@pytest.mark.parametrize("mode", ["paper", "physical"])
def test_bit_flip_protocol_one_cannot_beat_baseline_at_high_noise(mode):
    point = fmax_curve(
        "I", "bfc", r_values=np.array([0.9]), resolution=51, mode=mode
    )[0]
    np.testing.assert_allclose(point.fmax, 0.58, atol=1e-9)
    np.testing.assert_allclose(point.baseline, 0.58, atol=1e-12)


def test_paper_mode_phase_flip_surface_is_one_where_defined():
    grid = default_grid("I", np.array([0.5]), resolution=21, mode="paper")
    result = sweep(grid, "pfc")
    slab = result.fidelity[:, :, 0]
    assert np.isnan(slab).any()
    np.testing.assert_allclose(slab[~np.isnan(slab)], 1.0, atol=1e-10)
    point = fmax_curve("I", "pfc", r_values=np.array([0.5]), resolution=21, mode="paper")[0]
    np.testing.assert_allclose(point.fmax, 1.0, atol=1e-10)


def test_fmax_point_parameters_evaluate_to_fmax():
    point = fmax_curve("II", "adc", r_values=np.array([0.5]), resolution=31)[0]
    shared = protect("II", point.param1, point.param2, "adc", 0.5, "physical")
    np.testing.assert_allclose(
        average_fidelity(shared, measure="polar"), point.fmax, atol=1e-12
    )


def test_default_r_values():
    r = default_r_values()
    assert r.shape == (21,)
    np.testing.assert_almost_equal(r[0], 0.0)
    np.testing.assert_almost_equal(r[-1], 1.0)
    with pytest.raises(ValueError):
        default_r_values(1)


@pytest.mark.parametrize("kind", CHANNEL_KINDS)
def test_protocol_comparison_verdicts(kind):
    comparison = compare_protocols(kind, resolution=31)
    assert comparison.verdict, comparison.verdict_text
    assert comparison.verdict_text.endswith(": confirmed")
    assert len(comparison.rows) == 21


def test_sweep_rejects_unknown_channel_and_measure():
    grid = default_grid("I", np.array([0.5]), resolution=3)
    with pytest.raises(ValueError):
        sweep(grid, "xyz")
    with pytest.raises(ValueError):
        sweep(grid, "adc", measure="cube")


@pytest.mark.parametrize("measure", ["cube", ["haar"], ("polar",), None],
                         ids=["string", "list", "tuple", "none"])
def test_every_entry_point_rejects_a_bad_measure(measure):
    # a list once reached an lru_cache keyed on the measure and raised
    # TypeError: unhashable type
    g = protect("I", 0.7, 0.5, "bfc", 0.3, "physical")
    grid = default_grid("I", [0.5], resolution=3)
    for consume in (
        lambda: sweep(grid, "adc", measure),
        lambda: unprotected_baseline("adc", 0.5, "physical", measure),
        lambda: fmax_curve("I", "adc", [0.5], resolution=3, measure=measure),
        lambda: design_inputs(measure),
        lambda: average_fidelity(g, measure),
    ):
        with pytest.raises(ValueError, match="unknown measure"):
            consume()


def test_slab_argmax_takes_lowest_index_among_near_ties():
    grid = SweepGrid("II", np.array([0.0, 0.5]), np.array([0.0, 0.5, 1.0]), np.array([0.5]))
    slab = np.array([[np.nan, 0.5, 1.0 - 1e-16], [1.0, 1.0, 0.2]])
    assert _slab_argmax(grid, slab) == (0.0, 1.0, 1.0 - 1e-16)
    slab[0, 2] = 1.0 - 1e-14
    assert _slab_argmax(grid, slab) == (0.5, 0.0, 1.0)


def test_refinement_keeps_the_coarse_optimum_on_a_plateau():
    # paper-mode phase flip under protocol I is 1 wherever it is defined;
    # the reported optimum is the first defined coarse cell, whatever the
    # refinement window's rounding noise says
    grid = default_grid("I", np.array([0.5]), resolution=21, mode="paper")
    slab = sweep(grid, "pfc").fidelity[:, :, 0]
    i1, i2 = divmod(int(np.flatnonzero(~np.isnan(slab))[0]), slab.shape[1])
    point = fmax_curve("I", "pfc", r_values=np.array([0.5]), resolution=21, mode="paper")[0]
    assert (point.param1, point.param2) == (grid.axis1[i1], grid.axis2[i2])
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


def _assert_grid_matches_oracle(grid, kind, measure="polar"):
    fidelity = sweep(grid, kind, measure=measure).fidelity
    for (i1, i2, ir), got in np.ndenumerate(fidelity):
        want = _oracle_cell(grid.protocol, float(grid.axis1[i1]), float(grid.axis2[i2]),
                            kind, float(grid.r_values[ir]), grid.mode, measure)
        if math.isnan(want):
            assert math.isnan(got), (i1, i2, ir)
        else:
            assert abs(got - want) <= 1e-12, (i1, i2, ir, got, want)


@pytest.mark.parametrize("measure", ["haar", "polar"])
@pytest.mark.parametrize("mode", ["paper", "physical"])
@pytest.mark.parametrize("kind", CHANNEL_KINDS)
def test_sweep_baseline_matches_scalar_baseline(kind, mode, measure):
    """The baseline over all r at once against the brute-force oracle's,
    one r at a time; a sweep reports exactly that baseline."""
    r_values = np.array([0.0, 0.3, 0.5, 0.9, 1.0])
    baseline = unprotected_baseline(kind, r_values, mode, measure)
    assert baseline.shape == (5,) and not baseline.flags.writeable
    for r, got in zip(r_values, baseline):
        state = brute_baseline(kind, float(r), mode)
        want = brute_fidelities_batch(state, _DESIGNS[measure]).mean()
        assert abs(got - want) <= 1e-12, (r, got, want)
    grid = default_grid("I", r_values, resolution=2, mode=mode)
    np.testing.assert_array_equal(sweep(grid, kind, measure=measure).baseline, baseline)


def test_baseline_r_values_are_checked():
    with pytest.raises(ValueError, match="axis r"):
        unprotected_baseline("bfc", [], "physical", "polar")
    one = unprotected_baseline("bfc", 0.5, "physical", "polar")
    assert one.shape == (1,)
    np.testing.assert_array_equal(one, unprotected_baseline("bfc", [0.5], "physical", "polar"))
    # a grid's r axis follows the channel's range rule: no slack past 1
    with pytest.raises(ValueError, match="axis r"):
        SweepGrid("I", [0.5], [0.5], [1.0 + 5e-13])


def test_phase_flip_coherent_sum_near_cancellation_matches_oracle():
    # At high phase-flip noise the paper-mode branch sum nearly cancels
    # (at r = 1 it is (q cos(w/2) - sin(w/2)) I), so fidelity is 1 wherever
    # it is defined. Squaring branches before summing them loses this to
    # cancellation between large terms; amplitudes formed first do not.
    r_values = np.array([0.9, 0.95, 1.0])
    _assert_grid_matches_oracle(default_grid("I", r_values, resolution=11, mode="paper"), "pfc")
    omega = 1.2
    locus = math.tan(omega / 2.0)
    near = locus * (1.0 + np.array([-1e-2, -1e-4, -1e-6, 1e-6, 1e-4, 1e-2]))
    grid = SweepGrid("I", np.array([omega]), near, r_values, mode="paper")
    _assert_grid_matches_oracle(grid, "pfc")


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
    grid = SweepGrid(protocol, np.array([a]), np.array([b]), np.array([r]), mode=mode)
    got = _fidelity_slab(_branch_slab(grid, kind, r, slice(None)), mode, measure)[0, 0]
    want = _oracle_cell(protocol, a, b, kind, r, mode, measure)
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert abs(got - want) <= 1e-12


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
    grid = SweepGrid("I", np.linspace(0.0, math.pi / 2.0, 11), np.linspace(0.0, 1.0, 3),
                     np.array([0.0, 0.37, 0.9]), mode=mode)
    whole = sweep(grid, kind, measure)
    monkeypatch.setattr(sweep_module, "_BLOCK_CELLS", block_cells)
    blocked = sweep(grid, kind, measure)
    assert np.isnan(whole.fidelity[0, 0, 0])
    assert np.array_equal(blocked.fidelity, whole.fidelity, equal_nan=True)
    assert np.array_equal(np.array(blocked.argmax), np.array(whole.argmax), equal_nan=True)
    assert np.array_equal(blocked.baseline, whole.baseline, equal_nan=True)


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
    first = sweep(default_grid("I", [0.3, 0.9], 101), "adc", "polar")
    fidelity, baseline = first.fidelity.tobytes(), first.baseline.tobytes()
    sweep(default_grid("II", [0.5], 21, mode="paper"), "pfc", "haar")
    sweep(default_grid("II", [0.1, 0.5, 0.7], 101, mode="paper"), "bfc", "haar")
    assert first.fidelity.tobytes() == fidelity
    assert first.baseline.tobytes() == baseline
    assert not first.fidelity.flags.writeable and not first.baseline.flags.writeable


def test_back_to_back_sweeps_share_no_memory():
    # Each block's norms and sums live in the thread's workspace; the
    # fidelities and the baseline (one `_fidelity_slab` return value as
    # it is) must still come back as fresh arrays, with the bits of a
    # sweep run in a new thread, whose workspace starts empty.
    grid = default_grid("II", [0.37, 0.9], 101)
    fresh = {}
    worker = threading.Thread(target=lambda: fresh.update(want=sweep(grid, "bfc", "polar")))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    first = sweep(grid, "bfc", "polar")
    sweep(default_grid("I", [0.5], 33, mode="paper"), "adc", "haar")
    second = sweep(grid, "bfc", "polar")
    for name in ("fidelity", "baseline"):
        got = getattr(first, name), getattr(second, name)
        assert not np.shares_memory(*got)
        for buf in vars(sweep_module._workspace).values():
            assert not any(np.shares_memory(array, buf) for array in got)
        for array in got:
            assert array.tobytes() == getattr(fresh["want"], name).tobytes()


def test_concurrent_sweeps_match_sequential_ones():
    jobs = [
        (default_grid("I", [0.2, 0.5, 0.9], 101), "adc", "polar"),
        (default_grid("II", [0.3, 0.6, 0.8, 1.0], 77, mode="paper"), "bfc", "haar"),
        (default_grid("I", [0.4, 0.7], 61, mode="paper"), "pfc", "polar"),
        (default_grid("II", [0.1, 0.9], 121), "pfc", "haar"),
    ]
    want = [sweep(*job) for job in jobs]
    got = {}
    start = threading.Barrier(len(jobs))

    def run(i):
        start.wait(timeout=30)
        got[i] = [sweep(*jobs[i]) for _ in range(3)]

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
            assert result.baseline.tobytes() == expected.baseline.tobytes()
            assert result.argmax == expected.argmax


def test_workspace_holds_at_most_one_block(monkeypatch):
    # One axis-1 row of twice _BLOCK_CELLS cells: a block too large for the
    # workspace, which must then keep nothing of its size.
    cells = sweep_module._BLOCK_CELLS
    grid = SweepGrid("I", np.array([0.3]), np.linspace(0.0, 1.0, 2 * cells), np.array([0.5]))
    # Per cell: 16 branch entries, 4 of the paper-mode sum and 4 squared
    # amplitudes; plus one batch of amplitudes.
    one_block = 8 * (24 * cells + sweep_module._BATCH_ROWS * _DESIGN_MATRICES["haar"].shape[1])
    monkeypatch.setattr(sweep_module, "_workspace", threading.local())
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        result = sweep(grid, "adc", "haar")
        assert result.fidelity.shape == (1, 2 * cells, 1)
        del result
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before <= one_block
