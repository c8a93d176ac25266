"""Teleportation over a protected shared state.

The sender holds the input qubit and the first three resource qubits,
measures them in the four-element entangled basis below, announces the
outcome, and the receiver applies the matching correction. Fidelity is
the overlap of the corrected output with the input, weighted by outcome
probability. Input averages are exact finite-point designs, not
sampling.

Every entry point is a view on one stacked kernel over an (N, K, 2, 2)
array of normalized branch operators g_b, one row per shared state, as
`SharedState.branches` or `pipeline.normalize_branches` give them, so a
whole parameter grid can go through it at once. For outcome k the
receiver holds g_b u_k per branch, where u_k = (eta_k^dagger psi0)^T in
is a 2-vector, so each raw outcome state sum_b (g_b u_k)(g_b u_k)^dagger
is Hermitian and positive by construction. The one check left, run once
per stack, is the span check: the outcome probabilities must sum to 1,
and for branch operators they sum to |g|_F^2 / 2 at every input.
States and bases are plain numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .operators import ChannelSpec, correction_unitary
from .pipeline import _PSI0, SharedState, channel_only_shared

SPAN_TOL = 1e-8
OUTCOME_FLOOR = 1e-14

MEASURES = ("haar", "polar")

__all__ = [
    "MEASURES",
    "InputQubit",
    "TeleportOutcome",
    "eta_basis",
    "teleport",
    "input_fidelity",
    "input_fidelities",
    "design_inputs",
    "average_fidelity",
    "unprotected_baseline",
]


@dataclass(frozen=True)
class InputQubit:
    """Normalized single-qubit input alpha|0> + beta|1>."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        a, b = complex(self.alpha), complex(self.beta)
        if not (np.isfinite([a, b]).all()):
            raise ValueError("input amplitudes must be finite")
        if abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) > 1e-12:
            raise ValueError("input state must be normalized")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.alpha, self.beta], dtype=complex)


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


def _span_check(totals: np.ndarray) -> None:
    outside = totals[np.abs(totals - 1.0) > SPAN_TOL]
    if outside.size:
        raise ValueError(
            "joint state has support outside the measurement span "
            f"(outcome probabilities sum to {float(outside[0])!r})"
        )


# eta_k^dagger contracted with the resource: (outcome, input bit, B).
_ETA_PSI0 = _eta_states().conj().reshape(4, 2, 8) @ _PSI0
_ETA_PSI0.setflags(write=False)


def _outcome_kernel(g: np.ndarray, inputs: np.ndarray):
    """Outcome probabilities (N, n, 4), per-outcome fidelities (N, n, 4)
    and the receiver's raw states (N, n, 4, 2, 2) for N shared states
    given by their normalized branch operators g, shape (N, K, 2, 2),
    and n input vectors (n, 2).

    For outcome k the receiver holds g_b u_k per branch b, with
    u_k = M_k^T in and M_k = eta_k^dagger psi0 (2x2), so
    raw_k = sum_b a_kb a_kb^dagger with a_kb = g_b u_k. The fidelity
    numerator is sum_b |<w_k|a_kb>|^2 with w_k = U_k^dagger in.
    Outcomes below OUTCOME_FLOOR get fidelity 0.
    """
    nk = g.shape[1]
    n = len(inputs)
    u = (inputs @ _ETA_PSI0).swapaxes(0, 1).reshape(-1, 2)
    # a[B, b, N, x, k] = (g_b u_k)[B]
    a = (g.reshape(len(g), -1, 2) @ u.T).reshape(-1, nk, 2, n, 4)
    a0, a1 = a.transpose(2, 1, 0, 3, 4)
    # raw_k = sum_b a a^dagger entry by entry: stacks of 2x2 matmuls are slow
    raw = np.empty(a0.shape[1:] + (2, 2), dtype=complex)
    raw[..., 0, 0] = (a0.real**2 + a0.imag**2).sum(axis=0)
    raw[..., 1, 1] = (a1.real**2 + a1.imag**2).sum(axis=0)
    raw[..., 0, 1] = (a0 * a1.conj()).sum(axis=0)
    raw[..., 1, 0] = raw[..., 0, 1].conj()
    probs = raw[..., 0, 0].real + raw[..., 1, 1].real
    _span_check(probs.sum(axis=-1))
    # conj(w_k) = U_k^T conj(in), as one (n, 4) array per component of B
    w0, w1 = (inputs.conj() @ _corrections()).T
    overlap = w0 * a0 + w1 * a1
    num = (overlap.real**2 + overlap.imag**2).sum(axis=0)
    fids = np.clip(num / np.maximum(probs, OUTCOME_FLOOR), 0.0, 1.0)
    return probs, np.where(probs < OUTCOME_FLOOR, 0.0, fids), raw


def teleport(shared: SharedState, input_qubit: InputQubit) -> list[TeleportOutcome]:
    """Run one teleportation; returns the four outcome branches.

    Outcomes with probability below 1e-14 get fidelity 0 and a zero
    corrected state; they carry no weight in any average.
    """
    probs, fids, raw = _outcome_kernel(shared.branches[None], input_qubit.vector[None])
    outcomes: list[TeleportOutcome] = []
    for k, u in enumerate(_corrections()):
        p = float(probs[0, 0, k])
        mat = np.zeros((2, 2), dtype=complex)
        if p >= OUTCOME_FLOOR:
            mat = u @ raw[0, 0, k] @ u.conj().T / p
        corrected = 0.5 * (mat + mat.conj().T)
        fid = float(fids[0, 0, k])
        outcomes.append(TeleportOutcome(k + 1, p, raw[0, 0, k], corrected, fid))
    return outcomes


def input_fidelity(shared: SharedState, input_qubit: InputQubit) -> float:
    """Outcome-probability-weighted fidelity for one input state."""
    return float(input_fidelities(shared, input_qubit.vector[None])[0])


def input_fidelities(shared: SharedState, inputs: np.ndarray) -> np.ndarray:
    """Vectorized `input_fidelity` over a batch of normalized input
    vectors, shape (n, 2). Used by quadrature and sampling checks."""
    inputs = np.asarray(inputs, dtype=complex)
    if inputs.ndim != 2 or inputs.shape[1] != 2:
        raise ValueError("inputs must have shape (n, 2)")
    probs, fids, _ = _outcome_kernel(shared.branches[None], inputs)
    return np.clip((probs * fids).sum(axis=-1)[0], 0.0, 1.0)


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


def average_fidelity(shared: SharedState, measure: str = "haar") -> float:
    """Exact input-averaged fidelity under the chosen measure."""
    inputs = design_inputs(measure)
    return min(max(float(input_fidelities(shared, inputs).mean()), 0.0), 1.0)


def unprotected_baseline(channel: ChannelSpec, mode, measure: str = "haar") -> float:
    """Average fidelity with every protection stage replaced by the
    identity: the channel acts alone under the selected mode's
    summation semantics."""
    shared = channel_only_shared(channel, mode)
    return average_fidelity(shared, measure)
