import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wmteleport.operators import (
    CHANNEL_KINDS,
    CORRECTIONS,
    PAULI_I,
    PAULI_X,
    PAULI_Z,
    PROTOCOL_AXES,
    check_parameters,
    kraus_set,
    stage_diagonals,
)
from wmteleport.pipeline import MODES, branch_operators, normalize_branches, protect
from wmteleport.sweep import default_axes, sweep, unprotected_baseline

from brute import brute_kraus, brute_wm, brute_wmr

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)


def _stages(params, i):
    """(m_i, n_i) at one parameter point (protocol, a1, a2) as 2x2
    matrices, read from `stage_diagonals`: outcome 1 mirrors both
    outcome-0 diagonals."""
    kind, a1, a2 = params
    d1, d2 = stage_diagonals(kind, [a1], [a2])
    order = slice(None, None, 1 if i == 0 else -1)
    return np.diag(d1[0, order]), np.diag(d2[0, order])


def test_wm_protocol_one_action_on_zero():
    omega = 0.7
    out = _stages(("I", omega, 0.5), 0)[0] @ KET0
    np.testing.assert_allclose(out, np.cos(omega / 2.0) * KET0)


def test_wm_protocol_one_balanced_point():
    params = ("I", np.pi / 2, 0.5)
    for i in (0, 1):
        np.testing.assert_allclose(_stages(params, i)[0], PAULI_I / np.sqrt(2.0))


def test_wm_protocol_two_balanced_point():
    params = ("II", 0.0, 0.5)
    for i in (0, 1):
        np.testing.assert_allclose(_stages(params, i)[0], PAULI_I / np.sqrt(2.0))


def test_wmr_protocol_one_filters_zero():
    q = 0.3
    out = _stages(("I", 1.0, q), 0)[1] @ KET0
    np.testing.assert_allclose(out, q * KET0)


def test_wmr_protocol_one_transparent_at_unit_strength():
    params = ("I", 1.0, 1.0)
    for i in (0, 1):
        np.testing.assert_allclose(_stages(params, i)[1], PAULI_I)


def test_wmr_protocol_two_projective_limit():
    np.testing.assert_allclose(
        _stages(("II", 0.5, 1.0), 0)[1], np.diag([1.0, 0.0])
    )


def test_kraus_damping_limits():
    e0, e1 = kraus_set("adc", 0.0)
    np.testing.assert_array_equal(e0, PAULI_I)
    np.testing.assert_array_equal(e1, np.zeros((2, 2)))


def test_kraus_flip_saturated():
    e0, e1 = kraus_set("bfc", 1.0)
    np.testing.assert_allclose(e0, np.zeros((2, 2)))
    np.testing.assert_allclose(e1, PAULI_X)


def test_kraus_damping_midpoint():
    e0, e1 = kraus_set("adc", 0.5)
    np.testing.assert_allclose(e0, np.diag([1.0, 1.0 / np.sqrt(2.0)]))
    expected = np.zeros((2, 2), dtype=complex)
    expected[0, 1] = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(e1, expected)


def test_correction_table():
    # outcome k + 1 at index k
    assert CORRECTIONS.shape == (4, 2, 2)
    np.testing.assert_array_equal(CORRECTIONS, [PAULI_I, PAULI_Z, PAULI_X, PAULI_Z @ PAULI_X])
    # read-only: a write raises instead of changing every later correction
    with pytest.raises(ValueError):
        CORRECTIONS[2, 0, 1] = 5.0
    np.testing.assert_array_equal(CORRECTIONS[2], PAULI_X)


def test_correction_outcome_three_swaps_components():
    alpha, beta = 0.6, 0.8j
    swapped = alpha * KET1 + beta * KET0
    out = CORRECTIONS[2] @ swapped
    np.testing.assert_allclose(out, alpha * KET0 + beta * KET1)


def test_correction_outcome_four_is_unitary():
    u = CORRECTIONS[3]
    np.testing.assert_allclose(u.conj().T @ u, np.eye(2), rtol=0, atol=1e-12)


@given(st.floats(min_value=0.0, max_value=np.pi), st.floats(min_value=0.0, max_value=1.0))
def test_povm_completeness_protocol_one(omega, q):
    params = ("I", omega, q)
    total = sum(m.T @ m for m, _ in (_stages(params, i) for i in (0, 1)))
    np.testing.assert_allclose(total, PAULI_I, atol=1e-12)


@given(
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-1.0, max_value=1.0),
)
def test_povm_completeness_protocol_two(k1, k2):
    stages = [_stages(("II", k1, k2), i) for i in (0, 1)]
    for stage in (0, 1):
        total = sum(pair[stage].T @ pair[stage] for pair in stages)
        np.testing.assert_allclose(total, PAULI_I, atol=1e-12)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_protocol_one_reversal_is_a_filter(q):
    # deliberately incomplete: the sum is (1 + q^2) I, not I
    params = ("I", 0.8, q)
    total = sum(n.T @ n for _, n in (_stages(params, i) for i in (0, 1)))
    np.testing.assert_allclose(total, (1.0 + q**2) * PAULI_I, atol=1e-12)


@pytest.mark.parametrize("kind", CHANNEL_KINDS)
@pytest.mark.parametrize("r", np.linspace(0.0, 1.0, 11))
def test_kraus_completeness(kind, r):
    total = sum(e.conj().T @ e for e in kraus_set(kind, float(r)))
    np.testing.assert_allclose(total, PAULI_I, atol=1e-12)


@pytest.mark.parametrize("kind", CHANNEL_KINDS)
def test_kraus_matches_independent_table(kind):
    for r in (0.0, 0.25, 0.8, 1.0):
        ours = kraus_set(kind, r)
        assert ours.shape == (2, 2, 2) and ours.dtype == np.float64
        theirs = brute_kraus(kind, r)
        for a, b in zip(ours, theirs):
            np.testing.assert_allclose(a, b, atol=1e-15)


def test_wm_wmr_match_independent_table():
    for i in (0, 1):
        for params in (("I", 0.9, 0.4), ("II", 0.6, 0.2)):
            m, n = _stages(params, i)
            protocol, a1, a2 = params
            np.testing.assert_allclose(m, brute_wm(protocol, a1, a2, i), atol=1e-15)
            np.testing.assert_allclose(n, brute_wmr(protocol, a1, a2, i), atol=1e-15)


def test_protocol_two_split_amplitudes():
    d1, d2 = stage_diagonals("II", [0.28, 0.5], [-0.64])
    assert d1.shape == (2, 2) and d2.shape == (1, 2)
    (k1_plus, k1_minus), (k2_plus, k2_minus) = d1[0], d2[0]
    np.testing.assert_almost_equal(k1_plus, np.sqrt((1 + 0.28) / 2))
    np.testing.assert_almost_equal(k1_minus, np.sqrt((1 - 0.28) / 2))
    np.testing.assert_almost_equal(k2_plus, np.sqrt((1 - 0.64) / 2))
    np.testing.assert_almost_equal(k2_minus, np.sqrt((1 + 0.64) / 2))


def test_measurement_operators_are_exactly_diagonal():
    # structural zeros, not just small numbers: the package keeps only the
    # stage diagonals, so the independent table's full matrices must have
    # nothing off the diagonal
    def is_diagonal(m):
        return m[0, 1] == 0.0 and m[1, 0] == 0.0

    for i in (0, 1):
        assert is_diagonal(brute_wm("I", 0.77, 0.31, i))
        assert is_diagonal(brute_wmr("I", 0.77, 0.31, i))
        assert is_diagonal(brute_wm("II", 0.5, 0.5, i))
        assert is_diagonal(brute_wmr("II", 0.5, 0.5, i))
    e0, e1 = kraus_set("adc", 0.37)
    assert is_diagonal(e0)
    assert e1[0, 0] == 0.0 and e1[1, 0] == 0.0 and e1[1, 1] == 0.0


# Exact bounds of every axis, each with the other axis at an interior value.
_ON_BOUNDS = [
    ("I", 0.0, 0.5), ("I", np.pi, 0.5), ("I", 0.7, 0.0), ("I", 0.7, 1.0),
    ("II", -1.0, 0.3), ("II", 1.0, 0.3), ("II", 0.3, -1.0), ("II", 0.3, 1.0),
]
# Just outside a bound, far outside, and non-finite.
_OFF_BOUNDS = [
    ("I", np.pi + 1e-13, 0.5), ("I", -1e-13, 0.5), ("I", 0.7, 1.0 + 5e-13),
    ("II", 1.0 + 5e-13, 0.3), ("II", -1.0 - 5e-13, 0.3),
    ("II", 0.3, 1.0 + 5e-13), ("II", 0.3, -1.0 - 5e-13),
    ("I", -0.1, 0.5), ("I", np.pi + 0.1, 0.5), ("I", 0.5, 1.2),
    ("II", 1.0001, 0.0), ("II", 0.0, -1.0001),
    ("I", np.nan, 0.5), ("II", 0.0, np.inf),
]


def _point_consumers(protocol, a1, a2):
    """Every entry point that takes a parameter point or a grid of them."""
    return (
        lambda: check_parameters(protocol, a1, a2),
        lambda: branch_operators(protocol, a1, a2, "bfc", 0.3),
        lambda: branch_operators(protocol, [[a1], [a1]], [a2, a2, a2], "bfc", 0.3),
        lambda: protect(protocol, a1, a2, "bfc", 0.3, "physical"),
        lambda: protect(protocol, [a1, a1], [a2, a2], "bfc", 0.3, "physical"),
        lambda: sweep(protocol, [a1], [a2], "bfc", [0.5], "physical", "polar"),
    )


@pytest.mark.parametrize("point", _ON_BOUNDS)
def test_every_entry_point_accepts_the_exact_bounds(point):
    for consume in _point_consumers(*point):
        consume()


@pytest.mark.parametrize("point", _OFF_BOUNDS)
def test_every_entry_point_rejects_points_outside_the_bounds(point):
    for consume in _point_consumers(*point):
        with pytest.raises(ValueError, match="must be in"):
            consume()


def test_protocol_table_names_and_ranges():
    assert tuple(PROTOCOL_AXES) == ("I", "II")
    assert PROTOCOL_AXES["I"] == (("omega", 0.0, np.pi), ("q", 0.0, 1.0))
    assert PROTOCOL_AXES["II"] == (("k1", -1.0, 1.0), ("k2", -1.0, 1.0))
    for consume in _point_consumers("III", 0.5, 0.5):
        with pytest.raises(ValueError, match="unknown protocol"):
            consume()


def test_parameter_domains():
    # the channel's kind and r; the protocol axes are covered above
    with pytest.raises(ValueError):
        kraus_set("adc", -0.01)
    with pytest.raises(ValueError):
        kraus_set("adc", 1.01)
    with pytest.raises(ValueError):
        kraus_set("xyz", 0.5)


def _channel_consumers(kind, r):
    """Every entry point that takes a channel (kind, r), on tiny grids."""
    return (
        lambda: kraus_set(kind, r),
        lambda: branch_operators("I", [[0.7], [0.9]], [0.5, 0.6], kind, r),
        lambda: branch_operators("I", 0.7, 0.5, kind, r),
        lambda: protect("I", 0.7, 0.5, kind, r, "physical"),
        lambda: sweep("I", [0.7], [0.5], kind, [r], "physical", "polar"),
        lambda: unprotected_baseline(kind, r, "physical", "polar"),
    )


@pytest.mark.parametrize("r", [0.0, 1.0])
@pytest.mark.parametrize("kind", CHANNEL_KINDS)
def test_every_entry_point_accepts_the_exact_r_bounds(kind, r):
    for consume in _channel_consumers(kind, r):
        consume()


@pytest.mark.parametrize("r", [-1e-13, 1.0 + 5e-13, np.nan, np.inf])
def test_every_entry_point_rejects_r_outside_the_range(r):
    for consume in _channel_consumers("adc", r):
        with pytest.raises(ValueError, match="r must"):
            consume()


@pytest.mark.parametrize("kind", ["ADC", "xyz"])
def test_every_entry_point_takes_exact_channel_kinds(kind):
    # case is folded only at the command line, never in the library
    for consume in _channel_consumers(kind, 0.5):
        with pytest.raises(ValueError, match="unknown channel kind"):
            consume()


def _mode_consumers(mode):
    """Every entry point that takes a mode."""
    branches = branch_operators("I", 0.7, 0.5, "bfc", 0.3)
    return (
        lambda: normalize_branches(branches, mode),
        lambda: protect("I", 0.7, 0.5, "bfc", 0.3, mode),
        lambda: sweep("I", *default_axes("I", 3), "bfc", [0.3], mode, "polar"),
        lambda: unprotected_baseline("bfc", 0.3, mode, "polar"),
    )


@pytest.mark.parametrize("mode", MODES)
def test_every_entry_point_accepts_the_modes(mode):
    assert MODES == ("paper", "physical")
    for consume in _mode_consumers(mode):
        consume()


@pytest.mark.parametrize("mode", ["PAPER", "bogus"])
def test_every_entry_point_takes_exact_modes(mode):
    for consume in _mode_consumers(mode):
        with pytest.raises(ValueError, match="unknown mode"):
            consume()
