import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wmteleport import teleport as teleport_module
from wmteleport.operators import CHANNEL_KINDS
from wmteleport.pipeline import protect
from wmteleport.sweep import unprotected_baseline
from wmteleport.teleport import (
    ETA_STATES,
    MEASURES,
    OUTCOME_FLOOR,
    average_fidelity,
    design_inputs,
    input_fidelities,
    teleport,
)

from brute import (
    CORRECTIONS,
    ETA,
    brute_fidelities_batch,
    brute_initial,
    brute_protect,
    brute_teleport_outcomes,
    lift_naive,
    sample_inputs,
)


def _quadrature_average(shared, measure, n_polar=64, n_azimuth=128):
    """Dense quadrature reference for the two input measures."""
    nodes, weights = np.polynomial.legendre.leggauss(n_polar)
    if measure == "polar":
        # arc cos(t)|0> + sin(t)|1>, weight sin(t)/2 over [0, pi];
        # substitute u = cos(t)
        t = np.arccos(nodes)
        inputs = np.stack([np.cos(t), np.sin(t)], axis=1).astype(complex)
        return float(np.dot(weights, input_fidelities(shared, inputs)) / 2.0)
    total = 0.0
    phis = np.linspace(0.0, 2.0 * np.pi, n_azimuth, endpoint=False)
    for phi in phis:
        t = np.arccos(nodes)
        inputs = np.stack(
            [np.cos(t / 2.0), np.exp(1j * phi) * np.sin(t / 2.0)], axis=1
        )
        total += np.dot(weights, input_fidelities(shared, inputs)) / 2.0
    return float(total / n_azimuth)


def test_eta_basis_is_orthonormal():
    states = ETA_STATES
    assert states.shape == (4, 16)
    gram = states @ states.conj().T
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-14)


def test_eta_basis_amplitudes():
    states = ETA_STATES
    np.testing.assert_almost_equal(states[0][0b1111], 0.5)
    np.testing.assert_almost_equal(states[0][0b0000], 0.5)
    np.testing.assert_almost_equal(states[1][0b1010], -0.5)
    np.testing.assert_almost_equal(states[2][0b0010], 0.5)
    np.testing.assert_almost_equal(states[3][0b1101], -0.5)
    np.testing.assert_almost_equal(states[2][0b0000], 0.0)


@pytest.mark.parametrize("mode", ["paper", "physical"])
@pytest.mark.parametrize("params", [("I", 0.9, 0.3), ("II", 0.7, 0.2)])
def test_noiseless_teleports_ground_state_exactly(mode, params):
    shared = protect(*params, "adc", 0.0, mode)
    ground = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    out = teleport(shared, [[1.0, 0.0]])
    for corrected in out.bob_state_corrected[0]:
        np.testing.assert_allclose(corrected, ground, atol=1e-12)
    np.testing.assert_almost_equal(out.per_outcome_fidelity, 1.0, decimal=12)


def test_noiseless_paper_mode_is_ideal_for_any_input():
    shared = protect("I", 1.0, 0.5, "adc", 0.0, "paper")
    inp = np.array([1.0 / np.sqrt(2.0), 1j / np.sqrt(2.0)])
    out = teleport(shared, inp[None])
    np.testing.assert_almost_equal(out.probability, 0.25, decimal=12)
    np.testing.assert_almost_equal(out.per_outcome_fidelity, 1.0, decimal=12)
    np.testing.assert_almost_equal(input_fidelities(shared, inp[None])[0], 1.0, decimal=12)


def test_noiseless_physical_mode_is_ideal_at_no_protection_locus():
    shared = protect("I", np.pi / 2, 1.0, "adc", 0.0, "physical")
    out = teleport(shared, [[1.0 / np.sqrt(2.0), 1j / np.sqrt(2.0)]])
    np.testing.assert_almost_equal(out.probability, 0.25, decimal=12)
    np.testing.assert_almost_equal(out.per_outcome_fidelity, 1.0, decimal=12)


@pytest.mark.xfail(
    strict=True,
    reason="the mixture over measurement branches is not the resource "
    "state at r=0 for generic parameters, so noiseless teleportation "
    "is not exact in the mixture reading",
)
def test_noiseless_physical_mode_is_ideal_for_generic_params():
    shared = protect("I", 1.0, 0.5, "adc", 0.0, "physical")
    inp = np.array([1.0 / np.sqrt(2.0), 1j / np.sqrt(2.0)])
    np.testing.assert_almost_equal(input_fidelities(shared, inp[None])[0], 1.0, decimal=10)


def test_noiseless_physical_mode_probabilities_stay_uniform():
    # even where the fidelity drops below 1, the outcome probabilities
    # at r=0 remain 1/4
    shared = protect("I", 1.0, 0.5, "adc", 0.0, "physical")
    out = teleport(shared, [[1.0 / np.sqrt(2.0), 1j / np.sqrt(2.0)]])
    np.testing.assert_almost_equal(out.probability, 0.25, decimal=12)


@pytest.mark.parametrize("mode", ["paper", "physical"])
def test_outcome_bookkeeping(mode):
    # the last parameter set at adc r = 1 sends two paper-mode outcomes
    # of the input |+> below OUTCOME_FLOOR
    s = 1.0 / np.sqrt(2.0)
    below_floor = 0
    for params, kind, r, inp in itertools.product(
        (("II", 0.5, 0.3), ("I", 0.8, 0.4), ("I", np.pi / 2, 0.5)),
        CHANNEL_KINDS,
        (0.4, 1.0),
        (np.array([0.6, 0.8j]), np.array([s, s])),
    ):
        out = teleport(protect(*params, kind, r, mode), inp[None])
        probs, raw = out.probability[0], out.bob_state_raw[0]
        corrected = out.bob_state_corrected[0]
        assert probs.shape == out.per_outcome_fidelity[0].shape == (4,)
        assert raw.shape == corrected.shape == (4, 2, 2)
        np.testing.assert_almost_equal(probs.sum(), 1.0, decimal=10)
        for k, p in enumerate(probs):
            for state in (raw[k], corrected[k]):
                assert np.abs(state - state.conj().T).max() <= 1e-12
                assert np.linalg.eigvalsh(state).min() >= -1e-10
            np.testing.assert_almost_equal(np.trace(raw[k]).real, p, decimal=12)
            if p < OUTCOME_FLOOR:
                below_floor += 1
                assert not corrected[k].any()
            else:
                assert abs(np.trace(corrected[k]).real - 1.0) <= 1e-12
            assert 0.0 <= out.per_outcome_fidelity[0, k] <= 1.0
    assert below_floor == (2 if mode == "paper" else 0)


def test_paper_mode_phase_flip_is_perfect_per_outcome():
    shared = protect("I", 0.8, 0.4, "pfc", 0.6, "paper")
    inp = np.array([0.48, 0.6 + 0.64j])
    fids = teleport(shared, inp[None]).per_outcome_fidelity
    np.testing.assert_almost_equal(fids, 1.0, decimal=12)
    np.testing.assert_almost_equal(input_fidelities(shared, inp[None])[0], 1.0)


@pytest.mark.parametrize("mode", ["paper", "physical"])
@pytest.mark.parametrize(
    "params,kind,r",
    [
        (("I", 0.8, 0.4), "adc", 0.5),
        (("I", 1.2, 0.9), "pfc", 0.6),
        (("II", 0.5, 0.3), "bfc", 0.7),
    ],
)
def test_outcomes_match_brute_force(mode, params, kind, r):
    point = (*params, kind, r, mode)
    shared = protect(*point)
    bstate = brute_protect(*point)
    x = np.array([0.6, 0.64 + 0.48j], dtype=complex)
    out = teleport(shared, x[None])
    want = np.array(brute_teleport_outcomes(bstate, x))
    np.testing.assert_almost_equal(out.probability[0], want[:, 0], decimal=12)
    np.testing.assert_almost_equal(out.per_outcome_fidelity[0], want[:, 1], decimal=12)


@settings(max_examples=25)
@given(
    st.floats(min_value=0.0, max_value=2.0 * np.pi),
    st.floats(min_value=0.05, max_value=0.95),
)
def test_global_phase_invariance(phase, x):
    shared = protect("I", 0.9, 0.5, "adc", 0.3, "physical")
    a, b = np.sqrt(x), np.sqrt(1.0 - x) * 1j
    inputs = np.array([[a, b], [a * np.exp(1j * phase), b * np.exp(1j * phase)]])
    base, rotated = input_fidelities(shared, inputs)
    np.testing.assert_almost_equal(base, rotated, decimal=12)


@pytest.mark.parametrize("mode", ["paper", "physical"])
def test_vectorized_fidelities_match_loop(mode):
    shared = protect("II", 0.6, 0.4, "adc", 0.5, mode)
    rng = np.random.default_rng(5)
    xs = sample_inputs(rng, 8)
    batch = input_fidelities(shared, xs)
    loop = np.array([input_fidelities(shared, x[None])[0] for x in xs])
    np.testing.assert_allclose(batch, loop, atol=1e-12)


def test_design_inputs_haar_is_pauli_eigenbasis():
    mats = design_inputs("haar")
    assert mats.shape == (6, 2) and not mats.flags.writeable
    norms = np.linalg.norm(mats, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-14)
    # resolution of the identity with weight 1/3 (a 2-design property)
    total = sum(np.outer(m, m.conj()) for m in mats)
    np.testing.assert_allclose(total, 3.0 * np.eye(2), atol=1e-14)


def test_design_inputs_polar_is_real_quadrature():
    states = design_inputs("polar")
    assert states.shape == (4, 2) and not states.flags.writeable
    assert np.abs(states.imag).max() < 1e-15
    with pytest.raises(ValueError):
        states[0, 0] = 1.0


@pytest.mark.parametrize("measure", MEASURES)
def test_design_inputs_map_to_themselves_under_sigma_x(measure):
    # sigma_x permutes each design set up to phases, which the physical
    # sweep's outcome-0-only contraction rests on
    inputs = design_inputs(measure)
    overlaps = np.abs(inputs[:, ::-1].conj() @ inputs.T)
    match = np.abs(overlaps - 1.0) <= 1e-14
    assert (match.sum(axis=0) == 1).all() and (match.sum(axis=1) == 1).all()


def test_design_inputs_rejects_unknown_measure():
    with pytest.raises(ValueError):
        design_inputs("cube")


@pytest.mark.parametrize("measure", ["haar", "polar"])
@pytest.mark.parametrize(
    "params,kind,r,mode",
    [
        (("I", 0.9, 0.4), "adc", 0.45, "physical"),
        (("II", 0.4, 0.7), "bfc", 0.3, "paper"),
    ],
)
def test_design_average_equals_quadrature(measure, params, kind, r, mode):
    shared = protect(*params, kind, r, mode)
    design = average_fidelity(shared, measure=measure)
    dense = _quadrature_average(shared, measure)
    np.testing.assert_allclose(design, dense, atol=1e-9)


def test_frozen_baselines_polar():
    np.testing.assert_almost_equal(
        unprotected_baseline("bfc", [0.5], "physical", "polar")[0],
        23.0 / 30.0,
        decimal=12,
    )
    np.testing.assert_almost_equal(
        unprotected_baseline("bfc", [0.9], "physical", "polar")[0],
        0.58,
        decimal=12,
    )
    np.testing.assert_almost_equal(
        unprotected_baseline("pfc", [0.5], "physical", "polar")[0],
        11.0 / 15.0,
        decimal=12,
    )
    np.testing.assert_almost_equal(
        unprotected_baseline("pfc", [0.9], "physical", "polar")[0],
        0.52,
        decimal=12,
    )
    np.testing.assert_almost_equal(
        unprotected_baseline("adc", [0.5], "physical", "polar")[0],
        0.8052284749830794,
        decimal=12,
    )


def test_frozen_baselines_haar():
    np.testing.assert_almost_equal(
        unprotected_baseline("bfc", [1.0], "physical", "haar")[0],
        1.0 / 3.0,
        decimal=12,
    )
    np.testing.assert_almost_equal(
        unprotected_baseline("bfc", [0.9], "physical", "haar")[0],
        0.4,
        decimal=12,
    )
    np.testing.assert_almost_equal(
        unprotected_baseline("pfc", [0.5], "physical", "haar")[0],
        2.0 / 3.0,
        decimal=12,
    )
    np.testing.assert_almost_equal(
        unprotected_baseline("adc", [0.5], "physical", "haar")[0],
        0.8190355937288491,
        decimal=12,
    )


@pytest.mark.parametrize("measure", ["haar", "polar"])
@pytest.mark.parametrize("kind", CHANNEL_KINDS)
def test_baseline_is_mode_independent(measure, kind):
    r_values = (0.2, 0.5, 0.9)
    a = unprotected_baseline(kind, r_values, "paper", measure)
    b = unprotected_baseline(kind, r_values, "physical", measure)
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_teleport_rejects_states_outside_measurement_span():
    # outcome probabilities sum to |g|_F^2 / 2 = 4
    stray = 2.0 * np.eye(2)[None]
    with pytest.raises(ValueError, match="span"):
        teleport(stray, [[1.0, 0.0]])


_SHARED = ("I", 0.7, 0.6, "bfc", 0.4, "physical")
_HAAR = design_inputs("haar")


@pytest.mark.parametrize(
    "inputs",
    [
        0.9 * _HAAR,
        np.where(np.arange(6)[:, None] == 2, np.nan, _HAAR),
        np.where(np.arange(6)[:, None] == 5, np.inf, _HAAR),
        _HAAR[:, :1],
        _HAAR[None],
        _HAAR[0],
    ],
    ids=["scaled", "nan", "inf", "one-column", "3-D", "one-vector"],
)
def test_input_fidelities_rejects_bad_inputs(inputs):
    # unchecked, 0.9 * the six design states averaged 0.3896 here against
    # the true 0.5938, and a NaN row gave NaN
    shared = protect(*_SHARED)
    with pytest.raises(ValueError, match="inputs must"):
        input_fidelities(shared, inputs)
    with pytest.raises(ValueError, match="inputs must"):
        input_fidelities(shared[None], inputs)


@pytest.mark.parametrize(
    "x",
    [[[0.6, 0.9]], 0.9 * np.array([[0.6, 0.8j]]), [[1.0, 0.0], [np.nan, 1.0]], [[1.0, np.inf]],
     [[1.0]], [1.0, 0.0], [[1.0, 0.0, 0.0]]],
    ids=["unnormalized", "scaled", "nan", "inf", "one-entry", "one-vector", "three-entries"],
)
def test_teleport_rejects_bad_inputs(x):
    with pytest.raises(ValueError, match="inputs must"):
        teleport(protect(*_SHARED), x)


def test_inputs_within_the_norm_tolerance_pass():
    shared = protect(*_SHARED)
    x = np.array([0.6, 0.8j]) * np.sqrt(1.0 + 5e-13)
    assert teleport(shared, x[None]).probability.shape == (1, 4)
    assert input_fidelities(shared, x[None]).shape == (1,)
    np.testing.assert_allclose(input_fidelities(shared, _HAAR).mean(),
                               average_fidelity(shared, "haar"), rtol=0, atol=1e-15)


@pytest.mark.parametrize("fill", [np.nan, np.inf])
def test_span_check_flags_non_finite_stacks(fill):
    with pytest.raises(ValueError, match="outside the measurement span"):
        input_fidelities(np.full((1, 1, 2, 2), fill), _HAAR)


def test_monte_carlo_consistency_small():
    shared = protect("I", 0.7, 0.6, "bfc", 0.4, "physical")
    rng = np.random.default_rng(17)
    xs = sample_inputs(rng, 4000)
    mc = float(input_fidelities(shared, xs).mean())
    exact = average_fidelity(shared, measure="haar")
    assert abs(mc - exact) < 0.02


# Protocol x channel x r; the stack gets one more state per mode, on which
# two outcomes vanish for the input |+> and fall just below OUTCOME_FLOOR
# (p ~ 5e-16) for a slightly rotated |+>.
_KERNEL_GRID = [
    (params, kind, r)
    for params in (("I", 0.9, 0.4), ("II", 0.5, -0.3))
    for kind in CHANNEL_KINDS
    for r in (0.1, 0.5, 0.9, 1.0)
]
_VANISHING = (("I", np.pi / 2, 0.5), "adc", 1.0)


@pytest.mark.parametrize("mode", ["paper", "physical"])
def test_stacked_kernel_matches_oracle(mode):
    states, oracle = [], []
    for params, kind, r in _KERNEL_GRID:
        point = (*params, kind, r, mode)
        states.append(protect(*point))
        oracle.append(brute_protect(*point))
    params, kind, r = _VANISHING
    point = (*params, kind, r, "paper")
    states.append(protect(*point))
    oracle.append(brute_protect(*point))
    if mode == "physical":
        vec = oracle[-1][1]
        oracle[-1] = ("mixed", np.outer(vec, vec.conj()))

    s, t = 1.0 / np.sqrt(2.0), np.pi / 4.0 + 3e-8
    fixed = [[1.0, 0.0], [0.0, 1.0], [s, s], [np.cos(t), np.sin(t)]]
    inputs = np.concatenate([fixed, sample_inputs(np.random.default_rng(3), 4)])
    # pad every state to K = 4 branches with zero ones, which add nothing
    g = np.zeros((len(states), 4, 2, 2))
    for row, shared in zip(g, states):
        row[: len(shared)] = shared
    out = teleport(g, inputs)
    probs, fids, raw = out.probability, out.per_outcome_fidelity, out.bob_state_raw
    assert probs.shape == fids.shape == (len(states), len(inputs), 4)
    assert raw.shape == out.bob_state_corrected.shape == (len(states), len(inputs), 4, 2, 2)
    below = probs < OUTCOME_FLOOR
    assert (below & (probs > 1e-17)).sum() >= 2
    assert not out.bob_state_corrected[below].any()
    assert not fids[below].any()
    traces = np.einsum("...ii->...", out.bob_state_corrected[~below]).real
    np.testing.assert_allclose(traces, 1.0, rtol=0, atol=1e-12)
    for i, bstate in enumerate(oracle):
        for j, x in enumerate(inputs):
            want = np.array(brute_teleport_outcomes(bstate, x))
            np.testing.assert_allclose(probs[i, j], want[:, 0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(fids[i, j], want[:, 1], rtol=0, atol=1e-12)
    np.testing.assert_allclose(np.einsum("...ii->...", raw).real, probs, atol=1e-15)


@pytest.mark.parametrize("mode", ["paper", "physical"])
def test_stacked_teleport_matches_one_state_one_input_calls(mode):
    """A (4, 6) stack of states and five inputs in one call give the
    probabilities, raw and corrected states and fidelities of one-state,
    one-input calls bit for bit."""
    g = np.stack([protect(*p, k, r, mode) for p, k, r in _KERNEL_GRID])
    g = g.reshape(4, 6, *g.shape[1:])
    s = 1.0 / np.sqrt(2.0)
    inputs = np.concatenate([[[1.0, 0.0], [s, s]], sample_inputs(np.random.default_rng(5), 3)])
    out = teleport(g, inputs)
    assert out.probability.shape == out.per_outcome_fidelity.shape == (4, 6, 5, 4)
    corrected = out.bob_state_corrected
    for idx in np.ndindex(4, 6):
        for j, x in enumerate(inputs):
            one = teleport(g[idx], x[None])
            assert np.array_equal(one.probability[0], out.probability[idx][j])
            assert np.array_equal(one.bob_state_raw[0], out.bob_state_raw[idx][j])
            assert np.array_equal(one.bob_state_corrected[0], corrected[idx][j])
            assert np.array_equal(one.per_outcome_fidelity[0],
                                  out.per_outcome_fidelity[idx][j])


def test_per_outcome_fidelities_do_not_depend_on_batching():
    """At 200 random points, one call with three inputs gives each
    input's outcomes bit for bit as a call with that input alone, rare
    outcomes included: f_k divides p_k f_k by p_k, so a last-bit change
    in p_k f_k at a small p_k would show far above rounding."""
    rng = np.random.default_rng(17)
    for _ in range(200):
        protocol = str(rng.choice(["I", "II"]))
        lo, hi = (0.0, np.pi) if protocol == "I" else (-1.0, 1.0)
        a1, a2 = rng.uniform(lo, hi), rng.uniform(0.0 if protocol == "I" else -1.0, 1.0)
        kind, mode = str(rng.choice(CHANNEL_KINDS)), str(rng.choice(["paper", "physical"]))
        r = float(rng.choice([0.0, 1.0, rng.uniform()]))
        try:
            g = protect(protocol, a1, a2, kind, r, mode)
        except ValueError:
            continue
        inputs = sample_inputs(rng, 3)
        out = teleport(g, inputs)
        for j in range(3):
            one = teleport(g, inputs[j:j + 1])
            assert np.array_equal(one.per_outcome_fidelity[0], out.per_outcome_fidelity[j])
            assert np.array_equal(one.probability[0], out.probability[j])


@pytest.mark.parametrize("mode", ["paper", "physical"])
def test_stacked_kernel_rejects_one_state_outside_span(mode):
    g = np.stack([protect(*p, k, r, mode) for p, k, r in _KERNEL_GRID[:6]])
    # a stack whose outcome probabilities sum to 1.0201
    g = np.insert(g, 3, 1.01 * g[3], axis=0)
    with pytest.raises(ValueError, match="outside the measurement span"):
        teleport(g, np.array([[0.6, 0.8j]]))


@pytest.mark.parametrize("mode,k", [("paper", 1), ("physical", 1), ("physical", 2), ("physical", 4)])
def test_outcome_probabilities_sum_to_half_branch_norm(mode, k, monkeypatch):
    """psi0^dagger psi0 = I/2 and the eta basis spans the resource's
    support, so for any branches the four outcome probabilities sum to
    |g|_F^2 / 2 at every input: normalized branches cannot leave the span.
    Paper mode holds the coherent sum of the k branches."""
    monkeypatch.setattr(teleport_module, "_span_check", lambda totals: None)
    rng = np.random.default_rng(29 + k)
    for _ in range(10):
        g = rng.normal(size=(k, 2, 2)) + 1j * rng.normal(size=(k, 2, 2))
        if mode == "paper":
            g = g.sum(axis=0, keepdims=True)
        probs = teleport(g[None], sample_inputs(rng, 6)).probability
        half_norm = 0.5 * float(np.vdot(g, g).real)
        np.testing.assert_allclose(probs.sum(axis=-1), half_norm, rtol=1e-14, atol=0)


def _entanglement_fidelity(shared):
    """F_e = <Phi+|(id x L)(Phi+)|Phi+> = (1/4) sum_st <s|L(|s><t|)|t> of
    the corrected teleportation channel L(x) = sum_k U_k raw_k(x) U_k^dag.
    raw_k is linear in |in><in|, so its blocks on |s><t| follow by
    polarization from the raw outcome states at |0>, |1>, |+>, |+i>."""
    s = 1.0 / np.sqrt(2.0)
    inputs = np.array([[1.0, 0.0], [0.0, 1.0], [s, s], [s, 1j * s]])
    r0, r1, rp, ri = teleport(shared, inputs).bob_state_raw
    cross = 2.0 * rp - r0 - r1  # X01 + X10
    quad = 2.0 * ri - r0 - r1  # -i X01 + i X10
    blocks = {(0, 0): r0, (1, 1): r1, (0, 1): 0.5 * (cross + 1j * quad),
              (1, 0): 0.5 * (cross - 1j * quad)}
    u = np.array(CORRECTIONS)
    total = sum(
        np.einsum("kab,kbc,kdc->ad", u, x, u.conj())[s_, t_]
        for (s_, t_), x in blocks.items()
    )
    return float(total.real) / 4.0


def _random_cases(n, seed=11):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        if rng.integers(2):
            params = ("I", float(rng.uniform(0.0, np.pi)), float(rng.uniform()))
        else:
            params = ("II", *map(float, rng.uniform(-0.95, 0.95, size=2)))
        kind = CHANNEL_KINDS[int(rng.integers(3))]
        r = float(rng.choice([0.0, 1.0, rng.uniform()]))
        yield params, (kind, r), ("paper", "physical")[int(rng.integers(2))]


@pytest.mark.parametrize("params,channel,mode", list(_random_cases(24)))
def test_haar_average_matches_entanglement_fidelity(params, channel, mode):
    """Closed form of the uniform average for a qubit channel,
    F = (2 F_e + 1) / 3 (Horodecki; Nielsen, quant-ph/0205035): a
    design-free route to the six-state Haar average."""
    shared = protect(*params, *channel, mode)
    closed = (2.0 * _entanglement_fidelity(shared) + 1.0) / 3.0
    design = average_fidelity(shared, "haar")
    np.testing.assert_allclose(design, closed, rtol=0, atol=1e-12)


def _zeroing_input(b, k):
    """A normalized input at which outcome k of any branch g = a b^T
    vanishes: g u_k = a (b . M_k^T in) with M_k = eta_k^dagger psi0, a
    2x2 matrix read off the oracle's basis and resource."""
    psi0 = brute_initial().reshape(8, 2)
    m = ETA[k].conj().reshape(2, 8) @ psi0
    mb = m @ b
    x = np.array([-mb[1], mb[0]])
    return x / np.linalg.norm(x)


@pytest.mark.parametrize("k", [1, 4])
def test_fidelity_contraction_matches_oracle_on_complex_stacks(k):
    """Random complex branch stacks, K = 1 (paper) and K = 4 (physical),
    through `input_fidelities` at once, against the oracle's quadratic
    form per input. Every other state is rank one with a shared right
    factor b, and gets inputs that zero each of its four outcomes."""
    rng = np.random.default_rng(41 + k)
    inputs = [sample_inputs(rng, 8)]
    stack, oracle = [], []
    for i in range(6):
        g = rng.normal(size=(k, 2, 2)) + 1j * rng.normal(size=(k, 2, 2))
        if i % 2:
            b = rng.normal(size=2) + 1j * rng.normal(size=2)
            g = g[:, :, :1] * b
            inputs.append([_zeroing_input(b, out) for out in range(4)])
        g /= np.sqrt(0.5 * np.vdot(g, g).real)
        vecs = [lift_naive(gb, 4, 3) @ brute_initial() for gb in g]
        if k == 1:
            oracle.append(("pure", vecs[0]))
        else:
            oracle.append(("mixed", sum(np.outer(v, v.conj()) for v in vecs)))
        stack.append(g)
    inputs = np.concatenate(inputs)
    got = input_fidelities(np.array(stack), inputs)
    assert got.shape == (6, len(inputs))
    zeroed = 0
    for state, row in zip(oracle, got):
        np.testing.assert_allclose(row, brute_fidelities_batch(state, inputs), rtol=0, atol=1e-13)
        zeroed += sum(min(p for p, _ in brute_teleport_outcomes(state, x)) < 1e-15 for x in inputs)
    assert zeroed >= 12
    padded = np.pad(np.array(stack), ((0, 0), (0, 4 - k), (0, 0), (0, 0)))
    assert np.array_equal(input_fidelities(padded, inputs), got)


def test_fidelity_contraction_rejects_states_outside_measurement_span():
    # outcome probabilities sum to |g|_F^2 / 2: 4 for the stray state, 1.0201
    # for the scaled row of the stack
    stray = 2.0 * np.eye(2)[None]
    g = np.stack([protect(*p, k, r, "physical") for p, k, r in _KERNEL_GRID[:4]])
    g[2] *= 1.01
    for shared in (stray, g):
        with pytest.raises(ValueError, match="outside the measurement span"):
            input_fidelities(shared, design_inputs("haar"))
        with pytest.raises(ValueError, match="outside the measurement span"):
            average_fidelity(shared, "polar")
    np.testing.assert_allclose(average_fidelity(g[:2], "haar"),
                               [average_fidelity(x, "haar") for x in g[:2]], rtol=0, atol=1e-15)
