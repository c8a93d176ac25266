import ast
import importlib
import inspect
import itertools
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest

import wmteleport
from wmteleport.operators import CHANNEL_KINDS
from wmteleport.pipeline import (
    GHZ_INDICES,
    _branch_factors,
    branch_operators,
    initial_state,
    normalize_branches,
    protect,
)
from wmteleport.teleport import design_inputs, input_fidelities, teleport

from brute import brute_branch_vectors, brute_protect
from dense import pure, rho, state_fidelity


# The resource's kets with B flipped: the second amplitude group.
FLIPPED_INDICES = (0b0001, 0b0100, 0b1011, 0b1110)

ALL_PARAMS = [
    ("I", 0.8, 0.4),
    ("I", 1.2, 0.9),
    ("II", 0.5, 0.3),
    ("II", 0.9, 0.7),
]


def _success_probability(params, channel, r):
    """The physical-mode retained trace, sum_b |g_b|_F^2 / 2."""
    return normalize_branches(branch_operators(*params, channel, r), "physical")[1]


def test_initial_state_amplitudes():
    psi = initial_state()
    np.testing.assert_almost_equal(psi[0b0000], 0.5)
    np.testing.assert_almost_equal(psi[0b0101], 0.5)
    np.testing.assert_almost_equal(psi[0b0001], 0.0)
    np.testing.assert_almost_equal(np.linalg.norm(psi), 1.0)


@pytest.mark.parametrize("params", ALL_PARAMS)
@pytest.mark.parametrize("kind", CHANNEL_KINDS)
def test_paper_mode_noiseless_returns_resource(params, kind):
    shared = protect(*params, kind, 0.0, "paper")
    overlap = abs(np.vdot(pure(shared), initial_state()))
    np.testing.assert_almost_equal(overlap, 1.0, decimal=12)


@pytest.mark.parametrize("kind", CHANNEL_KINDS)
def test_paper_mode_normalized_and_eight_ket_support(kind):
    support = set(GHZ_INDICES) | set(FLIPPED_INDICES)
    grids = {
        "I": [(w, q) for w in np.linspace(0.0, np.pi, 5) for q in np.linspace(0.0, 1.0, 5)],
        "II": [(a, b) for a in np.linspace(-1.0, 1.0, 5) for b in np.linspace(-1.0, 1.0, 5)],
    }
    annihilated = 0
    for proto, pairs in grids.items():
        for a, b in pairs:
            for r in np.linspace(0.0, 1.0, 5):
                try:
                    shared = protect(proto, a, b, kind, float(r), "paper")
                except ValueError:
                    annihilated += 1
                    continue
                amps = pure(shared)
                np.testing.assert_almost_equal(np.linalg.norm(amps), 1.0, decimal=12)
                outside = [abs(amps[i]) for i in range(16) if i not in support]
                assert max(outside) < 1e-10
    # degenerate corners exist but must stay a small minority of the grid
    assert annihilated <= 40


@pytest.mark.parametrize("params", ALL_PARAMS)
@pytest.mark.parametrize("kind", CHANNEL_KINDS)
def test_physical_mode_density_is_valid(params, kind):
    mixed = rho(protect(*params, kind, 0.6, "physical"))
    np.testing.assert_almost_equal(np.trace(mixed).real, 1.0, decimal=12)
    np.testing.assert_allclose(mixed, mixed.conj().T, atol=1e-12)
    assert np.linalg.eigvalsh(mixed).min() > -1e-12
    assert 0.0 < _success_probability(params, kind, 0.6) <= 1.0


def test_success_probability_bit_flip_closed_form():
    omega, q, r = 0.9, 0.35, 0.55
    success = _success_probability(("I", omega, q), "bfc", r)
    c2 = np.cos(omega / 2.0) ** 2
    s2 = np.sin(omega / 2.0) ** 2
    expected = (1.0 - r) * (q**2 * c2 + s2) + r * (q**2 * s2 + c2)
    np.testing.assert_almost_equal(success, expected, decimal=12)


@pytest.mark.parametrize("params", ALL_PARAMS[:2] + ALL_PARAMS[2:3])
@pytest.mark.parametrize("kind", CHANNEL_KINDS)
def test_success_probability_matches_branch_norms(params, kind):
    r = 0.45
    total = sum(np.linalg.norm(v) ** 2 for v in brute_branch_vectors(*params, kind, r))
    np.testing.assert_almost_equal(
        _success_probability(params, kind, r), total, decimal=12
    )


@pytest.mark.parametrize("mode", ["paper", "physical"])
@pytest.mark.parametrize("params", ALL_PARAMS)
@pytest.mark.parametrize("kind", CHANNEL_KINDS)
def test_protect_matches_brute_force(mode, params, kind):
    point = (*params, kind, 0.3, mode)
    shared = protect(*point)
    tag, payload = brute_protect(*point)
    if tag == "pure":
        overlap = abs(np.vdot(pure(shared), payload))
        np.testing.assert_almost_equal(overlap, 1.0, decimal=12)
    else:
        np.testing.assert_allclose(rho(shared), payload, atol=1e-12)


def test_branch_operators_shape_and_halved_gram():
    # each 8x2 branch matrix g as a 2x2 operator satisfies
    # <(I(x)g) psi0, (I(x)h) psi0> = Tr(g^dag h)/2; check the identity
    # operator case through the resource marginal
    branches = branch_operators("I", 0.8, 0.4, "adc", 0.3)
    assert branches.shape == (4, 2, 2)


# Axes through the annihilating corners: omega = 0 with q = 0, and
# K1 = 1 with K2 = -1 (and K = -1 on both), where every branch vanishes
# under the phase flip and, at r = 0, under the other two channels.
_STACK_AXES = {
    "I": ((0.0, 0.7, np.pi / 2, np.pi), (0.0, 0.5, 1.0)),
    "II": ((-1.0, -0.3, 0.0, 1.0), (-1.0, 0.4, 1.0)),
}


@pytest.mark.parametrize("mode", ["paper", "physical"])
@pytest.mark.parametrize("protocol", ["I", "II"])
def test_stacked_normalization_matches_oracle_and_protect(protocol, mode):
    axis1, axis2 = _STACK_AXES[protocol]
    flagged = 0
    for kind, r in itertools.product(CHANNEL_KINDS, (0.0, 0.37, 1.0)):
        normalized, retained, annihilated = normalize_branches(
            branch_operators(protocol, np.array(axis1)[:, None], axis2, kind, r), mode
        )
        assert normalized.shape == (len(axis1), len(axis2), 1 if mode == "paper" else 4, 2, 2)
        assert np.isfinite(normalized).all() and np.isfinite(retained).all()
        for (i1, a), (i2, b) in itertools.product(enumerate(axis1), enumerate(axis2)):
            vecs = brute_branch_vectors(protocol, a, b, kind, r)
            if mode == "paper":
                want = np.linalg.norm(sum(vecs)) ** 2
            else:
                want = sum(np.linalg.norm(v) ** 2 for v in vecs)
            np.testing.assert_allclose(retained[i1, i2], want, rtol=0, atol=1e-12)
            point = (protocol, a, b, kind, r, mode)
            try:
                shared = protect(*point)
            except ValueError:
                assert annihilated[i1, i2] and want < 1e-14
                flagged += 1
                continue
            assert not annihilated[i1, i2]
            stacked = normalized[i1, i2]
            assert np.array_equal(shared, stacked)
            tag, payload = brute_protect(*point)
            if tag == "pure":
                np.testing.assert_allclose(pure(stacked), payload, rtol=0, atol=1e-12)
            else:
                np.testing.assert_allclose(rho(stacked), payload, rtol=0, atol=1e-12)
    assert flagged


_STATE = ("I", 0.8, 0.4, "adc", 0.3)


@pytest.mark.parametrize("mode", ["paper", "physical"])
@pytest.mark.parametrize(
    "malform",
    [
        lambda g: g[:0],
        lambda g: g[0],
        lambda g: np.pad(g, ((0, 0), (0, 0), (0, 1))),
        lambda g: np.full_like(g, np.nan),
        lambda g: g + np.array([[0.0, np.inf], [0.0, 0.0]]),
    ],
    ids=["K=0", "no-stack-axis", "wrong-block", "nan", "inf"],
)
def test_shared_state_rejects_malformed_branches(mode, malform):
    # the mode's own stack, (1, 2, 2) or (4, 2, 2), made malformed
    g = malform(protect(*_STATE, mode))
    with pytest.raises(ValueError, match="branch|span"):
        teleport(g, [[1.0, 0.0]])
    with pytest.raises(ValueError, match="branch|span"):
        input_fidelities(g, design_inputs("haar"))


def test_teleport_and_input_fidelities_take_stacks():
    g = protect(*_STATE, "physical")
    stack = np.stack([g, g])
    out = teleport(stack, design_inputs("haar")[:3])
    assert out.probability.shape == out.per_outcome_fidelity.shape == (2, 3, 4)
    assert out.bob_state_raw.shape == out.bob_state_corrected.shape == (2, 3, 4, 2, 2)
    assert input_fidelities(stack, design_inputs("haar")).shape == (2, 6)


def _random_axes(rng, protocol, n):
    """n values of each axis of `protocol`, drawn inside its ranges."""
    if protocol == "I":
        return rng.uniform(0.0, np.pi, n), rng.uniform(0.0, 1.0, n)
    return rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)


@pytest.mark.parametrize("protocol", ["I", "II"])
@pytest.mark.parametrize("kind", CHANNEL_KINDS)
def test_branch_operators_broadcast_like_numpy_operands(protocol, kind):
    # paired points are the grid's diagonal and one point is one grid
    # cell, bit for bit
    a1, a2 = _random_axes(np.random.default_rng(7), protocol, 9)
    grid = branch_operators(protocol, a1[:, None], a2, kind, 0.37)
    assert grid.shape == (9, 9, 4, 2, 2)
    paired = branch_operators(protocol, a1, a2, kind, 0.37)
    assert paired.shape == (9, 4, 2, 2)
    assert np.array_equal(paired, grid[range(9), range(9)])
    for i, j in ((0, 0), (3, 5), (8, 2)):
        one = branch_operators(protocol, float(a1[i]), float(a2[j]), kind, 0.37)
        assert one.shape == (4, 2, 2)
        assert np.array_equal(one, grid[i, j])


@pytest.mark.parametrize("protocol", ["I", "II"])
@pytest.mark.parametrize("kind", CHANNEL_KINDS)
@pytest.mark.parametrize("r", [0.0, 0.5, 1.0])
def test_outcome_one_branches_are_the_entry_reversal_of_outcome_zero(protocol, kind, r):
    # g_1j = sigma_x g_0j sigma_x, bit for bit: the sweep multiplies only
    # the factors of the outcome-0 pair and reads the outcome-1 pair from it
    a1, a2 = _random_axes(np.random.default_rng(11), protocol, 33)
    g = branch_operators(protocol, a1[:, None], a2, kind, r)
    assert np.array_equal(g[..., 2:, :, :], g[..., :2, ::-1, ::-1])
    left, right = _branch_factors(protocol, a1[:, None], a2, kind, r)
    assert np.array_equal(left * right, g[..., :2, :, :].reshape(33, 33, 8))


def test_axis_values_that_do_not_broadcast_name_their_shapes():
    for call in (
        lambda: branch_operators("I", [0.1, 0.2, 0.3], [0.5, 0.6], "adc", 0.3),
        lambda: protect("I", [0.1, 0.2, 0.3], [0.5, 0.6], "adc", 0.3, "physical"),
    ):
        with pytest.raises(ValueError, match=r"shapes \(3,\) and \(2,\) do not broadcast"):
            call()


@pytest.mark.parametrize("mode", ["paper", "physical"])
@pytest.mark.parametrize("protocol", ["I", "II"])
def test_protect_over_arrays_equals_per_point_protect(protocol, mode):
    a1, a2 = _random_axes(np.random.default_rng(11), protocol, 6)
    for kind, r in itertools.product(CHANNEL_KINDS, (0.0, 0.45, 1.0)):
        paired = protect(protocol, a1, a2, kind, r, mode)
        grid = protect(protocol, a1[:, None], a2[:4], kind, r, mode)
        for i, a in enumerate(a1):
            assert np.array_equal(paired[i], protect(protocol, a, a2[i], kind, r, mode))
            for j, b in enumerate(a2[:4]):
                assert np.array_equal(grid[i, j], protect(protocol, a, b, kind, r, mode))


@pytest.mark.parametrize("mode", ["paper", "physical"])
def test_protect_raises_if_any_point_annihilates(mode):
    # (omega, q) = (0, 0) annihilates every branch of the noiseless channel
    protect("I", [0.7, 1.1], [0.5, 0.2], "adc", 0.0, mode)
    with pytest.raises(ValueError, match="annihilate every branch"):
        protect("I", [0.7, 0.0, 1.1], [0.5, 0.0, 0.2], "adc", 0.0, mode)
    with pytest.raises(ValueError, match="annihilate every branch"):
        protect("I", [[0.7], [0.0]], [0.5, 0.0], "adc", 0.0, mode)


def test_derived_state_only_in_its_own_mode():
    # a paper-mode stack holds the one coherent branch, a physical-mode
    # stack all four; both lift to valid four-qubit states
    for params, kind in itertools.product(ALL_PARAMS, CHANNEL_KINDS):
        paper = protect(*params, kind, 0.3, "paper")
        physical = protect(*params, kind, 0.3, "physical")
        assert paper.shape == (1, 2, 2)
        assert physical.shape == (4, 2, 2)
        vec, mixed = pure(paper), rho(physical)
        assert vec.shape == (16,) and mixed.shape == (16, 16)
        assert abs(np.linalg.norm(vec) ** 2 - 1.0) <= 1e-12
        assert abs(np.trace(mixed).real - 1.0) <= 1e-12
        assert np.abs(mixed - mixed.conj().T).max() <= 1e-12
        assert np.linalg.eigvalsh(mixed).min() >= -1e-10


def test_package_imports_bind_submodules():
    import types

    import wmteleport.sweep as sweep_module
    import wmteleport.teleport as teleport_module

    assert isinstance(sweep_module, types.ModuleType)
    assert isinstance(teleport_module, types.ModuleType)


def test_package_imports_only_stdlib_and_numpy():
    # the package runs on the standard library and numpy alone
    sources = sorted((Path(__file__).resolve().parent.parent / "src" / "wmteleport").glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names or top == "numpy", (path.name, name)


@pytest.mark.parametrize(
    "name", [m.name for m in pkgutil.iter_modules(wmteleport.__path__) if m.name != "__main__"]
)
def test_every_exported_name_resolves(name):
    # a definition deleted while its name stays in __all__ breaks
    # `from wmteleport.<module> import *` only when someone tries it
    module = importlib.import_module(f"wmteleport.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


@pytest.mark.parametrize(
    "name", [m.name for m in pkgutil.iter_modules(wmteleport.__path__) if m.name != "__main__"]
)
def test_no_library_signature_defaults_the_mode_or_measure(name):
    # the command line's defaults are the one place for "physical" and "polar"
    module = importlib.import_module(f"wmteleport.{name}")
    for export in getattr(module, "__all__", ()):
        obj = getattr(module, export)
        if inspect.isfunction(obj):
            for param in inspect.signature(obj).parameters.values():
                if param.name in ("mode", "measure"):
                    assert param.default is param.empty, (export, param.name)


@pytest.mark.parametrize("proto_params", [("I", np.pi / 2, 1.0), ("II", 0.0, 0.0)])
@pytest.mark.parametrize("kind", CHANNEL_KINDS)
def test_modes_coincide_with_single_effective_branch_noiseless(proto_params, kind):
    # at the no-protection parameter locus the two summation semantics
    # agree wherever the channel keeps a single effective Kraus branch
    a = protect(*proto_params, kind, 0.0, "paper")
    b = protect(*proto_params, kind, 0.0, "physical")
    assert state_fidelity(a, b) >= 1.0 - 1e-10


@pytest.mark.parametrize("proto_params", [("I", np.pi / 2, 1.0), ("II", 0.0, 0.0)])
def test_modes_coincide_saturated_bit_flip(proto_params):
    a = protect(*proto_params, "bfc", 1.0, "paper")
    b = protect(*proto_params, "bfc", 1.0, "physical")
    assert state_fidelity(a, b) >= 1.0 - 1e-10


@pytest.mark.parametrize("proto_params", [("I", np.pi / 2, 1.0), ("II", 0.0, 0.0)])
def test_saturated_phase_flip_annihilates_paper_mode(proto_params):
    # the coherent branch sum cancels exactly: f0 Z f0 + f1 Z f1 = 0
    with pytest.raises(ValueError, match="annihilate"):
        protect(*proto_params, "pfc", 1.0, "paper")
    shared = protect(*proto_params, "pfc", 1.0, "physical")
    assert abs(np.trace(rho(shared)).real - 1.0) <= 1e-12


@pytest.mark.xfail(
    strict=True,
    reason="the summation semantics only coincide on the no-protection "
    "parameter locus; generic parameters split them even at r=0",
)
def test_modes_coincide_noiseless_generic_params():
    a = protect("I", 0.8, 0.4, "adc", 0.0, "paper")
    b = protect("I", 0.8, 0.4, "adc", 0.0, "physical")
    assert state_fidelity(a, b) >= 1.0 - 1e-10


@pytest.mark.xfail(
    strict=True,
    reason="saturated bit flip keeps a single Kraus branch but generic "
    "parameters still split the two summation semantics",
)
def test_modes_coincide_saturated_bit_flip_generic_params():
    a = protect("I", np.pi / 2, 0.5, "bfc", 1.0, "paper")
    b = protect("I", np.pi / 2, 0.5, "bfc", 1.0, "physical")
    assert state_fidelity(a, b) >= 1.0 - 1e-10


def test_saturated_bit_flip_generic_params_exact_split():
    # closed form for the state fidelity of the two semantics at
    # omega=pi/2, bfc r=1: ((q s + c)^2) / (2 (q^2 s^2 + c^2)) with
    # c = s = 1/sqrt(2)
    q = 0.5
    a = protect("I", np.pi / 2, q, "bfc", 1.0, "paper")
    b = protect("I", np.pi / 2, q, "bfc", 1.0, "physical")
    expected = (q + 1.0) ** 2 / (2.0 * (q**2 + 1.0))
    np.testing.assert_almost_equal(state_fidelity(a, b), expected, decimal=12)
    np.testing.assert_almost_equal(state_fidelity(a, b), 0.9, decimal=12)


@pytest.mark.xfail(
    strict=True,
    reason="swapping the two damping-protocol strengths reorders the "
    "measurement and reversal stages around a non-commuting channel",
)
def test_paper_mode_damping_strength_swap_symmetry():
    a = protect("II", 0.3, 0.7, "adc", 0.5, "paper")
    b = protect("II", 0.7, 0.3, "adc", 0.5, "paper")
    overlap = abs(np.vdot(pure(a), pure(b)))
    np.testing.assert_almost_equal(overlap, 1.0, decimal=12)


@pytest.mark.parametrize("mode", ["paper", "physical"])
@pytest.mark.parametrize(
    "params", [("I", 0.8, 0.4), ("II", 0.5, 0.3)]
)
def test_phase_flip_output_stays_on_resource_support(mode, params):
    shared = protect(*params, "pfc", 0.6, mode)
    outside = [i for i in range(16) if i not in GHZ_INDICES]
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


def test_paper_mode_damping_amplitude_groups():
    amps = pure(protect("I", 0.8, 0.4, "adc", 0.5, "paper"))
    ghz = np.array([amps[i] for i in GHZ_INDICES])
    flipped = np.array([amps[i] for i in FLIPPED_INDICES])
    np.testing.assert_allclose(ghz, ghz[0], atol=1e-12)
    np.testing.assert_allclose(flipped, flipped[0], atol=1e-12)
    assert abs(ghz[0]) > 0 and abs(flipped[0]) > 0


@pytest.mark.parametrize("mode", ["paper", "physical"])
def test_degenerate_parameters_annihilate(mode):
    with pytest.raises(ValueError, match="annihilate"):
        protect("I", 0.0, 0.0, "pfc", 0.5, mode)


def _amplitude_groups(params, channel, r):
    """Paper-mode amplitudes on the GHZ kets, on the flipped kets, and
    on the eight kets outside both groups."""
    amps = pure(protect(*params, channel, r, "paper"))
    np.testing.assert_allclose(amps.imag, 0.0, atol=1e-12)
    outside = [i for i in range(16) if i not in GHZ_INDICES + FLIPPED_INDICES]
    return amps[list(GHZ_INDICES)].real, amps[list(FLIPPED_INDICES)].real, amps[outside]


class TestClosedFormCheck:
    """The paper's printed closed-form coefficients, checked against the
    numeric branch operators and paper-mode state."""

    def test_damping_formula_disagrees_at_reference_point(self):
        # printed lambda_adc = (c q + s sqrt(1-r)) / sqrt(2 (c^2 q^2 + s^2 (1-r)))
        # drops the damped-branch weight; at q = 1, r = 0 it is not twice
        # the normalized GHZ amplitude
        c, s, q = np.cos(0.4), np.sin(0.4), 1.0
        printed = (c * q + s) / np.sqrt(2.0 * (c * c * q * q + s * s))
        np.testing.assert_almost_equal(printed, (np.cos(0.4) + np.sin(0.4)) / np.sqrt(2.0))
        ghz, flipped, _ = _amplitude_groups(("I", 0.8, 1.0), "adc", 0.0)
        np.testing.assert_allclose(2.0 * ghz, 1.0, rtol=0, atol=1e-12)
        assert abs(printed - 2.0 * ghz.mean()) > 0.05
        # the two-group ratio is not even finite: the flipped group is empty
        assert np.abs(flipped).max() == 0.0

    def test_bit_flip_weights_match_branch_traces(self):
        omega, q, r = 0.9, 0.6, 0.4
        c, s = np.cos(omega / 2.0), np.sin(omega / 2.0)
        lam1 = 0.5 * ((1.0 - r) * s * s + q * q * (1.0 - r) * c * c)
        lam2 = 0.5 * (r * q * q * s * s + r * c * c)
        g = branch_operators("I", omega, q, "bfc", r)
        weights = 0.5 * np.einsum("bij,bij->b", g, g.conj()).real
        np.testing.assert_allclose(weights[:2], [lam1, lam2], rtol=1e-12, atol=0)

    def test_phase_flip_support_entries(self):
        ghz, flipped, outside = _amplitude_groups(("II", 0.5, 0.3), "pfc", 0.6)
        np.testing.assert_allclose(ghz, ghz.mean(), rtol=0, atol=1e-12)
        assert np.abs(flipped).max() < 1e-12 and np.abs(outside).max() < 1e-12

    def test_group_uniformity_entries_always_consistent(self):
        for params, kind in [
            (("I", 0.7, 0.2), "adc"),
            (("II", 0.4, 0.8), "bfc"),
        ]:
            ghz, flipped, outside = _amplitude_groups(params, kind, 0.3)
            np.testing.assert_allclose(ghz, ghz.mean(), rtol=0, atol=1e-12)
            np.testing.assert_allclose(flipped, flipped.mean(), rtol=0, atol=1e-12)
            assert np.abs(outside).max() < 1e-12
