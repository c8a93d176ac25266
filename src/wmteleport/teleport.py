"""Teleportation over a protected shared state.

The sender holds the input qubit and the first three resource qubits,
measures them in the four-element entangled basis below, announces the
outcome, and the receiver applies the matching correction. Fidelity is
the overlap of the corrected output with the input, weighted by outcome
probability. Input averages are exact finite-point designs, not
sampling.

A shared state is its normalized branch operators g_b, shape (K, 2, 2).
Outcome k leaves g_b u_k per branch, u_k = (eta_k^dagger psi0)^T in, and
its fidelity term p_k f_k is sum_b |vec(g_b) . v_k(in)|^2 with
v_k(in)[B, c] = conj(w_k[B]) u_k[c], w_k = U_k^dagger in: the sweep's
design contraction, for any inputs and stack of states at once. Every
fidelity is a view on it; `_outcome_kernel` adds the receiver's states
for `teleport`. The unprotected baseline is `sweep.unprotected_baseline`,
the sweep's own contraction of the bare Kraus operators. The span check runs once per stack: the outcome
probabilities sum to |g|_F^2 / 2 at every input, which must be 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .operators import correction_unitary
from .pipeline import _PSI0, SharedState

SPAN_TOL = 1e-8
OUTCOME_FLOOR = 1e-14
# Largest |sum |x_i|^2 - 1| of an input vector from a caller.
INPUT_NORM_TOL = 1e-12

MEASURES = ("haar", "polar")

__all__ = [
    "MEASURES",
    "TeleportOutcome",
    "eta_basis",
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


@lru_cache(maxsize=1)
def _eta_states() -> np.ndarray:
    states = np.zeros((4, 16), dtype=complex)
    for row, support in enumerate(_ETA_SUPPORT):
        for idx, sign in support:
            states[row, idx] = 0.5 * sign
    states.setflags(write=False)
    return states


@lru_cache(maxsize=1)
def _corrections() -> np.ndarray:
    corrections = np.stack([correction_unitary(k) for k in (1, 2, 3, 4)])
    corrections.setflags(write=False)
    return corrections


def eta_basis() -> np.ndarray:
    """The measurement basis: four orthonormal entangled states on
    (input, A1, A2, A3) as the rows of a (4, 16) array, in outcome
    order 1..4 matching `correction_unitary`."""
    return _eta_states().copy()


@dataclass(frozen=True)
class TeleportOutcome:
    """One measurement branch: its probability, the receiver's raw
    (trace = probability) and corrected (normalized) 2x2 density
    matrices, and the fidelity of the corrected state with the input."""

    outcome: int
    probability: float
    bob_state_raw: np.ndarray
    bob_state_corrected: np.ndarray
    per_outcome_fidelity: float


def _span_check(g: np.ndarray) -> None:
    """Branch stacks (..., K, 2, 2) whose outcome probabilities, which sum
    to |g|_F^2 / 2 at every input, do not sum to 1 raise ValueError."""
    totals = 0.5 * (g.real**2 + g.imag**2).sum(axis=(-3, -2, -1))
    # written so that NaN totals are flagged too
    outside = totals[~(np.abs(totals - 1.0) <= SPAN_TOL)]
    if outside.size:
        raise ValueError(
            "joint state has support outside the measurement span "
            f"(outcome probabilities sum to {float(outside[0])!r})"
        )


def _checked_inputs(inputs, ndim: int) -> np.ndarray:
    """A caller's input vectors as a complex array: shape (n, 2) for
    ndim 2, (2,) for ndim 1. Each vector must be finite and of unit norm
    within INPUT_NORM_TOL; anything else raises ValueError."""
    x = np.asarray(inputs, dtype=complex)
    if x.ndim != ndim or x.shape[-1] != 2:
        shape = "(n, 2)" if ndim == 2 else "(2,)"
        raise ValueError(f"inputs must have shape {shape}, got {x.shape}")
    # one norm pass over the (re, im) pairs; a non-finite entry gives a
    # non-finite norm, which fails the test
    parts = np.ascontiguousarray(x).view(float)
    norms = np.einsum("...i,...i->...", parts, parts)
    if not (np.abs(norms - 1.0) <= INPUT_NORM_TOL).all():
        raise ValueError("inputs must be finite vectors of unit norm")
    return x


# eta_k^dagger contracted with the resource: (outcome, input bit, B).
_ETA_PSI0 = _eta_states().conj().reshape(4, 2, 8) @ _PSI0
_ETA_PSI0.setflags(write=False)


def _overlap_matrix(inputs: np.ndarray) -> np.ndarray:
    """Matrix V, shape (4, 4n), complex, for n input vectors (n, 2):
    column 4x + k is v_k(in_x), flattened row-major, so a flattened
    branch operator g_b times V gives every overlap <w_k|g_b u_k>."""
    u = (inputs @ _ETA_PSI0).T  # u_k[c] as (c, x, k)
    w = (inputs.conj() @ _corrections()).T  # conj(w_k)[B] as (B, x, k)
    return (w[:, None] * u).reshape(4, -1)


def _fidelity_terms(g: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """p_k f_k, shape (..., n, 4), for branch stacks g (..., K, 2, 2) and
    inputs (n, 2). Zero branches add nothing: stacks may be zero-padded."""
    _span_check(g)
    amp = g.reshape(-1, 4) @ _overlap_matrix(inputs)
    sq = (amp.real**2 + amp.imag**2).reshape(*g.shape[:-2], len(inputs), 4)
    return sq.sum(axis=-3)


def _outcome_kernel(g: np.ndarray, inputs: np.ndarray):
    """Outcome probabilities (N, n, 4), per-outcome fidelities (N, n, 4)
    and the receiver's raw states (N, n, 4, 2, 2) for N shared states
    (N, K, 2, 2) and n inputs (n, 2): raw_k = sum_b a_kb a_kb^dagger
    with a_kb = g_b u_k. Outcomes below OUTCOME_FLOOR get fidelity 0."""
    # a[N, x, k, b, B] = (g_b u_k)[B], with u_k[c] as (k, x, c)
    a = np.einsum("NbBc,kxc->NxkbB", g, inputs @ _ETA_PSI0)
    raw = np.einsum("...bB,...bC->...BC", a, a.conj())
    probs = np.einsum("...BB->...", raw).real
    fids = np.clip(_fidelity_terms(g, inputs) / np.maximum(probs, OUTCOME_FLOOR), 0.0, 1.0)
    return probs, np.where(probs < OUTCOME_FLOOR, 0.0, fids), raw


def teleport(shared: SharedState, x) -> list[TeleportOutcome]:
    """Run one teleportation of the normalized input vector x, shape
    (2,); returns the four outcome branches.

    Outcomes with probability below 1e-14 get fidelity 0 and a zero
    corrected state; they carry no weight in any average.
    """
    kernel = _outcome_kernel(shared.branches[None], _checked_inputs(x, 1)[None])
    probs, fids, raw = (arr[0, 0] for arr in kernel)
    outcomes: list[TeleportOutcome] = []
    for k, u in enumerate(_corrections()):
        p = float(probs[k])
        mat = u @ raw[k] @ u.conj().T / p if p >= OUTCOME_FLOOR else np.zeros((2, 2), complex)
        corrected = 0.5 * (mat + mat.conj().T)
        outcomes.append(TeleportOutcome(k + 1, p, raw[k], corrected, float(fids[k])))
    return outcomes


def input_fidelities(shared: SharedState | np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Outcome-weighted fidelity at each of n normalized input vectors,
    shape (n, 2) and checked as in `teleport`, for one SharedState
    (result (n,)) or a stack of normalized branch operators
    (..., K, 2, 2) (result (..., n))."""
    inputs = _checked_inputs(inputs, 2)
    g = shared.branches if isinstance(shared, SharedState) else np.asarray(shared)
    if g.ndim < 3 or g.shape[-2:] != (2, 2):
        raise ValueError(f"branches must have shape (..., K, 2, 2), got {g.shape}")
    return np.clip(_fidelity_terms(g, inputs).sum(axis=-1), 0.0, 1.0)


@lru_cache(maxsize=None)
def design_inputs(measure: str = "haar") -> np.ndarray:
    """Finite input sets whose average equals the measure's integral,
    as a read-only (n, 2) complex array of normalized input vectors.

    "haar": the six Pauli eigenstates, a spherical 2-design, giving the
    exact uniform average for any outcome-weighted fidelity (which is
    quadratic in the input density matrix).

    "polar": the average over the real arc cos(t)|0> + sin(t)|1>,
    t in [0, pi], weighted by sin(t)/2. Four states matched to the
    arc's second moments reproduce that integral exactly, for the same
    quadratic-functional reason.
    """
    if measure == "haar":
        s = 1.0 / math.sqrt(2.0)
        pairs = ((1.0, 0.0), (0.0, 1.0), (s, s), (s, -s), (s, 1j * s), (s, -1j * s))
    elif measure == "polar":
        theta = math.asin(math.sqrt(8.0 / 15.0))
        angles = (theta, -theta, math.pi - theta, math.pi + theta)
        pairs = tuple((math.cos(a / 2.0), math.sin(a / 2.0)) for a in angles)
    else:
        raise ValueError(f"unknown measure {measure!r}, expected one of {MEASURES}")
    inputs = np.array(pairs, dtype=complex)
    inputs.setflags(write=False)
    return inputs


def average_fidelity(shared: SharedState | np.ndarray, measure: str = "haar"):
    """Exact input-averaged fidelity under the chosen measure: a float
    for one SharedState, an array (...) for a branch stack as in
    `input_fidelities`."""
    f = input_fidelities(shared, design_inputs(measure)).mean(axis=-1)
    return float(f) if isinstance(shared, SharedState) else f

