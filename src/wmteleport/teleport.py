"""Teleportation over a protected shared state.

The sender holds the input qubit and the first three resource qubits,
measures them in the four-element entangled basis below, announces the
outcome, and the receiver applies the matching correction. Fidelity is
the overlap of the corrected output with the input, weighted by outcome
probability. Input averages are exact finite-point designs, not
sampling.

A shared state is its normalized branch operators g_b, a plain array of
shape (K, 2, 2), as `pipeline.protect` returns it; (..., K, 2, 2) holds
a stack of states. Outcome k leaves g_b u_k per branch,
u_k = (eta_k^dagger psi0)^T in, and its fidelity term p_k f_k is
sum_b |vec(g_b) . v_k(in)|^2 with v_k(in)[B, c] = conj(w_k[B]) u_k[c],
w_k = U_k^dagger in: the sweep's design contraction, for any inputs and
stack of states at once, which `input_fidelities` and `average_fidelity`
use. `teleport` builds the receiver's raw states raw_k and reads each
p_k f_k = <w_k|raw_k|w_k> from them, one (state, input) pair at a
time, so its per-outcome fidelities do not depend on how many inputs
or states share the call. The unprotected baseline is
`sweep.unprotected_baseline`, the sweep's own contraction of the bare
Kraus operators.

Every call of `teleport`, `input_fidelities` or `average_fidelity`
checks its stack in `_span_check`: the shape, and that the outcome
probabilities, which sum to |g|_F^2 / 2 at every input, sum to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import CORRECTIONS
from .pipeline import _PSI0

SPAN_TOL = 1e-8
OUTCOME_FLOOR = 1e-14
# Largest |sum |x_i|^2 - 1| of an input vector from a caller.
INPUT_NORM_TOL = 1e-12

MEASURES = ("haar", "polar")

__all__ = [
    "MEASURES",
    "ETA_STATES",
    "TeleportOutcome",
    "teleport",
    "input_fidelities",
    "design_inputs",
    "average_fidelity",
]


_ETA_SUPPORT = (
    ((0b0000, 1.0), (0b0101, 1.0), (0b1010, 1.0), (0b1111, 1.0)),
    ((0b0000, 1.0), (0b0101, 1.0), (0b1010, -1.0), (0b1111, -1.0)),
    ((0b0010, 1.0), (0b0111, 1.0), (0b1000, 1.0), (0b1101, 1.0)),
    ((0b0010, 1.0), (0b0111, 1.0), (0b1000, -1.0), (0b1101, -1.0)),
)


# The measurement basis: four orthonormal entangled states on (input,
# A1, A2, A3) as the rows of a (4, 16) array; outcome k + 1 at row k,
# matching `operators.CORRECTIONS`.
ETA_STATES = np.array(
    [[0.5 * dict(support).get(idx, 0.0) for idx in range(16)] for support in _ETA_SUPPORT],
    dtype=complex,
)
ETA_STATES.setflags(write=False)


@dataclass(frozen=True)
class TeleportOutcome:
    """The four measurement outcomes of teleporting n inputs over a
    stack of shared states, outcome k + 1 at index k of the last axis:
    probabilities (..., n, 4), the receiver's raw 2x2 density matrices
    (trace = probability) (..., n, 4, 2, 2), and the fidelities of the
    corrected states with the inputs (..., n, 4)."""

    probability: np.ndarray
    bob_state_raw: np.ndarray
    per_outcome_fidelity: np.ndarray

    @property
    def bob_state_corrected(self) -> np.ndarray:
        """The receiver's corrected, normalized states (..., n, 4, 2, 2),
        computed on each read: U_k raw_k U_k^dagger / p_k, and zero for
        outcomes below OUTCOME_FLOOR."""
        p = self.probability[..., None, None]
        mat = CORRECTIONS @ self.bob_state_raw @ CORRECTIONS.conj().swapaxes(-1, -2)
        mat = np.divide(mat, p, out=np.zeros_like(mat), where=p >= OUTCOME_FLOOR)
        return 0.5 * (mat + mat.conj().swapaxes(-1, -2))


def _span_check(g: np.ndarray) -> None:
    """Raise ValueError unless g is a stack of branch operators
    (..., K, 2, 2) with K >= 1 whose outcome probabilities, which sum to
    |g|_F^2 / 2 at every input, sum to 1."""
    if g.ndim < 3 or g.shape[-2:] != (2, 2) or not g.shape[-3]:
        raise ValueError(f"branches must have shape (..., K, 2, 2) with K >= 1, got {g.shape}")
    totals = 0.5 * (g.real**2 + g.imag**2).sum(axis=(-3, -2, -1))
    # written so that NaN totals are flagged too
    outside = totals[~(np.abs(totals - 1.0) <= SPAN_TOL)]
    if outside.size:
        raise ValueError(
            "joint state has support outside the measurement span "
            f"(outcome probabilities sum to {float(outside[0])!r})"
        )


def _checked_inputs(inputs) -> np.ndarray:
    """A caller's input vectors as a complex (n, 2) array. Each vector
    must be finite and of unit norm within INPUT_NORM_TOL; anything
    else raises ValueError."""
    x = np.asarray(inputs, dtype=complex)
    if x.ndim != 2 or x.shape[-1] != 2:
        raise ValueError(f"inputs must have shape (n, 2), got {x.shape}")
    # one norm pass over the (re, im) pairs; a non-finite entry gives a
    # non-finite norm, which fails the test
    parts = np.ascontiguousarray(x).view(float)
    norms = np.einsum("...i,...i->...", parts, parts)
    if not (np.abs(norms - 1.0) <= INPUT_NORM_TOL).all():
        raise ValueError("inputs must be finite vectors of unit norm")
    return x


# eta_k^dagger contracted with the resource: (outcome, input bit, B).
_ETA_PSI0 = ETA_STATES.conj().reshape(4, 2, 8) @ _PSI0
_ETA_PSI0.setflags(write=False)


def _overlap_matrix(inputs: np.ndarray) -> np.ndarray:
    """Matrix V, shape (4, 4n), complex, for n input vectors (n, 2):
    column 4x + k is v_k(in_x), flattened row-major, so a flattened
    branch operator g_b times V gives every overlap <w_k|g_b u_k>."""
    u = (inputs @ _ETA_PSI0).T  # u_k[c] as (c, x, k)
    w = (inputs.conj() @ CORRECTIONS).T  # conj(w_k)[B] as (B, x, k)
    return (w[:, None] * u).reshape(4, -1)


def _fidelity_terms(g: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """p_k f_k, shape (..., n, 4), for branch stacks g (..., K, 2, 2) and
    inputs (n, 2), after `_span_check`. Zero branches add nothing:
    stacks may be zero-padded."""
    _span_check(g)
    amp = g.reshape(-1, 4) @ _overlap_matrix(inputs)
    sq = (amp.real**2 + amp.imag**2).reshape(*g.shape[:-2], len(inputs), 4)
    return sq.sum(axis=-3)


def teleport(g, inputs) -> TeleportOutcome:
    """Teleport each of n normalized input vectors, shape (n, 2), over
    normalized branch stacks g of shape (..., K, 2, 2); returns the
    four outcomes of every (state, input) pair as one TeleportOutcome
    of arrays with leading axes (..., n, 4). The receiver's raw state
    for outcome k is sum_b a_kb a_kb^dagger with a_kb = g_b u_k.
    Outcomes with probability below OUTCOME_FLOOR get fidelity 0 and a
    zero corrected state; they carry no weight in any average.
    """
    g = np.asarray(g)
    inputs = _checked_inputs(inputs)
    _span_check(g)
    # a[..., x, k, b, B] = (g_b u_k)[B], with u_k[c] as (k, x, c)
    a = np.einsum("...bBc,kxc->...xkbB", g, inputs @ _ETA_PSI0)
    raw = np.einsum("...bB,...bC->...BC", a, a.conj())
    probs = np.einsum("...BB->...", raw).real
    # p_k f_k = <w_k|raw_k|w_k>, with conj(w_k)[B] as (x, k, B)
    w = (inputs.conj() @ CORRECTIONS).swapaxes(0, 1)
    terms = np.einsum("...BC,...B,...C->...", raw, w, w.conj()).real
    fids = np.clip(terms / np.maximum(probs, OUTCOME_FLOOR), 0.0, 1.0)
    return TeleportOutcome(probs, raw, np.where(probs < OUTCOME_FLOOR, 0.0, fids))


def input_fidelities(g, inputs: np.ndarray) -> np.ndarray:
    """Outcome-weighted fidelity at each of n normalized input vectors,
    shape (n, 2) and checked as in `teleport`, for normalized branch
    stacks g of shape (..., K, 2, 2); the result has shape (..., n)."""
    inputs = _checked_inputs(inputs)
    return np.clip(_fidelity_terms(np.asarray(g), inputs).sum(axis=-1), 0.0, 1.0)


def _design(measure: str) -> np.ndarray:
    """The design inputs of "haar" or "polar" (see `design_inputs`) as
    a read-only (n, 2) complex array."""
    if measure == "haar":
        s = 1.0 / math.sqrt(2.0)
        pairs = ((1.0, 0.0), (0.0, 1.0), (s, s), (s, -s), (s, 1j * s), (s, -1j * s))
    else:
        theta = math.asin(math.sqrt(8.0 / 15.0))
        angles = (theta, -theta, math.pi - theta, math.pi + theta)
        pairs = tuple((math.cos(a / 2.0), math.sin(a / 2.0)) for a in angles)
    inputs = np.array(pairs, dtype=complex)
    inputs.setflags(write=False)
    return inputs


# Each measure's design inputs, built once at import.
_DESIGNS = {measure: _design(measure) for measure in MEASURES}


def design_inputs(measure: str) -> np.ndarray:
    """Finite input sets whose average equals the measure's integral,
    as a read-only (n, 2) complex array of normalized input vectors.
    A measure not in MEASURES, of whatever type, raises ValueError.

    "haar": the six Pauli eigenstates, a spherical 2-design, giving the
    exact uniform average for any outcome-weighted fidelity (which is
    quadratic in the input density matrix).

    "polar": the average over the real arc cos(t)|0> + sin(t)|1>,
    t in [0, pi], weighted by sin(t)/2. Four states matched to the
    arc's second moments reproduce that integral exactly, for the same
    quadratic-functional reason.
    """
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}, expected one of {MEASURES}")
    return _DESIGNS[measure]


def average_fidelity(g, measure: str):
    """Exact input-averaged fidelity under the chosen measure for
    normalized branch stacks g of shape (..., K, 2, 2): an np.float64
    for one (K, 2, 2) stack, an array (...) otherwise."""
    return input_fidelities(g, design_inputs(measure)).mean(axis=-1)
