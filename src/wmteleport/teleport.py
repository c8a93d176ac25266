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
stack of states at once. Every fidelity is a view on it;
`_outcome_kernel` adds the receiver's states for `teleport`. The
unprotected baseline is `sweep.unprotected_baseline`, the sweep's own
contraction of the bare Kraus operators.

Every call of `teleport`, `input_fidelities` or `average_fidelity`
checks its stack in `_span_check`: the shape, and that the outcome
probabilities, which sum to |g|_F^2 / 2 at every input, sum to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .operators import correction_unitary
from .pipeline import _PSI0

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


_ETA_STATES = np.array(
    [[0.5 * dict(support).get(idx, 0.0) for idx in range(16)] for support in _ETA_SUPPORT],
    dtype=complex,
)
_ETA_STATES.setflags(write=False)

_CORRECTIONS = np.stack([correction_unitary(k) for k in (1, 2, 3, 4)])
_CORRECTIONS.setflags(write=False)


def eta_basis() -> np.ndarray:
    """The measurement basis: four orthonormal entangled states on
    (input, A1, A2, A3) as the rows of a (4, 16) array, in outcome
    order 1..4 matching `correction_unitary`."""
    return _ETA_STATES.copy()


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
_ETA_PSI0 = _ETA_STATES.conj().reshape(4, 2, 8) @ _PSI0
_ETA_PSI0.setflags(write=False)


def _overlap_matrix(inputs: np.ndarray) -> np.ndarray:
    """Matrix V, shape (4, 4n), complex, for n input vectors (n, 2):
    column 4x + k is v_k(in_x), flattened row-major, so a flattened
    branch operator g_b times V gives every overlap <w_k|g_b u_k>."""
    u = (inputs @ _ETA_PSI0).T  # u_k[c] as (c, x, k)
    w = (inputs.conj() @ _CORRECTIONS).T  # conj(w_k)[B] as (B, x, k)
    return (w[:, None] * u).reshape(4, -1)


def _fidelity_terms(g: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """p_k f_k, shape (..., n, 4), for branch stacks g (..., K, 2, 2) and
    inputs (n, 2), after `_span_check`. Zero branches add nothing:
    stacks may be zero-padded."""
    _span_check(g)
    amp = g.reshape(-1, 4) @ _overlap_matrix(inputs)
    sq = (amp.real**2 + amp.imag**2).reshape(*g.shape[:-2], len(inputs), 4)
    return sq.sum(axis=-3)


def _outcome_kernel(g: np.ndarray, inputs: np.ndarray):
    """Outcome probabilities (N, n, 4), per-outcome fidelities (N, n, 4)
    and the receiver's raw states (N, n, 4, 2, 2) for N shared states
    (N, K, 2, 2) and n inputs (n, 2): raw_k = sum_b a_kb a_kb^dagger
    with a_kb = g_b u_k. Outcomes below OUTCOME_FLOOR get fidelity 0."""
    terms = _fidelity_terms(g, inputs)
    # a[N, x, k, b, B] = (g_b u_k)[B], with u_k[c] as (k, x, c)
    a = np.einsum("NbBc,kxc->NxkbB", g, inputs @ _ETA_PSI0)
    raw = np.einsum("...bB,...bC->...BC", a, a.conj())
    probs = np.einsum("...BB->...", raw).real
    fids = np.clip(terms / np.maximum(probs, OUTCOME_FLOOR), 0.0, 1.0)
    return probs, np.where(probs < OUTCOME_FLOOR, 0.0, fids), raw


def teleport(g, x) -> list[TeleportOutcome]:
    """Run one teleportation of the normalized input vector x, shape
    (2,), over one shared state, its normalized branch stack g of shape
    (K, 2, 2); returns the four outcome branches.

    Outcomes with probability below 1e-14 get fidelity 0 and a zero
    corrected state; they carry no weight in any average.
    """
    g = np.asarray(g)
    if g.ndim != 3:
        raise ValueError(f"teleport takes one branch stack (K, 2, 2), got {g.shape}")
    kernel = _outcome_kernel(g[None], _checked_inputs(x, 1)[None])
    probs, fids, raw = (arr[0, 0] for arr in kernel)
    outcomes: list[TeleportOutcome] = []
    for k, u in enumerate(_CORRECTIONS):
        p = float(probs[k])
        mat = u @ raw[k] @ u.conj().T / p if p >= OUTCOME_FLOOR else np.zeros((2, 2), complex)
        corrected = 0.5 * (mat + mat.conj().T)
        outcomes.append(TeleportOutcome(k + 1, p, raw[k], corrected, float(fids[k])))
    return outcomes


def input_fidelities(g, inputs: np.ndarray) -> np.ndarray:
    """Outcome-weighted fidelity at each of n normalized input vectors,
    shape (n, 2) and checked as in `teleport`, for normalized branch
    stacks g of shape (..., K, 2, 2); the result has shape (..., n)."""
    inputs = _checked_inputs(inputs, 2)
    return np.clip(_fidelity_terms(np.asarray(g), inputs).sum(axis=-1), 0.0, 1.0)


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


def average_fidelity(g, measure: str = "haar"):
    """Exact input-averaged fidelity under the chosen measure for
    normalized branch stacks g of shape (..., K, 2, 2): an np.float64
    for one (K, 2, 2) stack, an array (...) otherwise."""
    return input_fidelities(g, design_inputs(measure)).mean(axis=-1)

