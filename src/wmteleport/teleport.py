"""Teleportation over a protected shared state.

The sender holds the input qubit and the first three resource qubits,
measures them in the four-element entangled basis below, announces the
outcome, and the receiver applies the matching correction. Fidelity is
the overlap of the corrected output with the input, weighted by outcome
probability. Input averages are exact finite-point designs, not
sampling.

Every entry point is a view on one stacked kernel: a single contraction
gives the receiver's states for all outcomes, inputs and shared states,
and the span, Hermiticity and positivity checks run once per stack, on
every outcome block, with the tolerances `MixedState` uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .operators import ChannelSpec, correction_unitary
from .pipeline import PipelineMode, SharedState, channel_only_shared
from .tensor import HERMITIAN_TOL, PSD_TOL, MixedState

SPAN_TOL = 1e-8
OUTCOME_FLOOR = 1e-14

MEASURES = ("haar", "polar")

__all__ = [
    "MEASURES",
    "InputQubit",
    "MeasurementBasis",
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


@dataclass(frozen=True)
class MeasurementBasis:
    """Four orthonormal entangled states on (input, A1, A2, A3),
    rows of `states` in outcome order 1..4."""

    states: np.ndarray


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
    return np.stack([correction_unitary(k) for k in (1, 2, 3, 4)])


def eta_basis() -> MeasurementBasis:
    """The measurement basis, outcome order matching `correction_unitary`."""
    return MeasurementBasis(_eta_states().copy())


@dataclass(frozen=True)
class TeleportOutcome:
    """One measurement branch: its probability, the receiver's raw
    (trace = probability) and corrected (normalized) states, and the
    fidelity of the corrected state with the input."""

    outcome: int
    probability: float
    bob_state_raw: MixedState
    bob_state_corrected: MixedState
    per_outcome_fidelity: float


def _span_check(totals: np.ndarray) -> None:
    outside = totals[np.abs(totals - 1.0) > SPAN_TOL]
    if outside.size:
        raise ValueError(
            "joint state has support outside the measurement span "
            f"(outcome probabilities sum to {float(outside[0])!r})"
        )


# eta_k^dagger on (A1, A2, A3), B kept: (outcome, (input bit, B), (A1A2A3, B)).
_ETA_LIFT = np.kron(_eta_states().conj().reshape(8, 8), np.eye(2)).reshape(4, 4, 16)
# The input pair in_s conj(in_t) -> the transpose of |w_k><w_k|, w_k = U_k^dagger in.
_BACK_PAIRS = np.einsum("ktb,ksd->stkbd", _corrections(), _corrections().conj())


def _outcome_kernel(states, inputs: np.ndarray):
    """Outcome probabilities (N, n, 4), per-outcome fidelities (N, n, 4)
    and the receiver's raw states (N, n, 4, 2, 2) for N same-mode
    shared states and n input vectors (n, 2).

    raw_k = sum_st in_s conj(in_t) X[k, s, t], with the 2x2 blocks
    X = v v^dagger, v = eta^dagger psi (paper) or X = eta^dagger rho eta
    (physical). Outcomes below OUTCOME_FLOOR get fidelity 0.
    """
    modes = {shared.mode for shared in states}
    if len(modes) != 1:
        raise ValueError("a stack of shared states must share one mode")
    if modes.pop() is PipelineMode.PAPER_LITERAL:
        psi = np.stack([shared.pure.amplitudes for shared in states])
        v = (_ETA_LIFT @ psi[:, None, :, None])[..., 0]
        blocks = v[..., :, None] * v[..., None, :].conj()
    else:
        rho = np.stack([shared.rho.matrix for shared in states])
        blocks = _ETA_LIFT @ rho[:, None] @ _ETA_LIFT.conj().swapaxes(-1, -2)
    # (N, k, s, b, t, d) -> (N, st, kbd): one product with the input pairs.
    forms = blocks.reshape(-1, 4, 2, 2, 2, 2).transpose(0, 2, 4, 1, 3, 5)
    pairs = (inputs[:, :, None] * inputs[:, None, :].conj()).reshape(-1, 4)
    raw = (pairs @ forms.reshape(-1, 4, 16)).reshape(len(states), -1, 4, 2, 2)
    probs = raw[..., 0, 0].real + raw[..., 1, 1].real
    _span_check(probs.sum(axis=-1))
    adjoint = raw.conj().swapaxes(-1, -2)
    if np.abs(raw - adjoint).max(initial=0.0) > HERMITIAN_TOL:
        raise ValueError("density matrix is not Hermitian")
    raw = 0.5 * (raw + adjoint)
    # Closed-form smaller eigenvalue of each Hermitian 2x2 block.
    gap = np.hypot(0.5 * (raw[..., 0, 0] - raw[..., 1, 1]).real, abs(raw[..., 0, 1]))
    min_eig = (0.5 * probs - gap).min(initial=0.0)
    if min_eig < -PSD_TOL:
        raise ValueError(
            "density matrix is not positive semidefinite "
            f"(min eigenvalue {min_eig:.3e})"
        )
    # Per-outcome fidelity <w_k| raw_k |w_k> / p_k.
    back = (pairs @ _BACK_PAIRS.reshape(4, 16)).reshape(-1, 4, 2, 2)
    overlap = np.einsum("xnkbd,nkbd->xnk", raw, back).real
    fids = np.clip(overlap / np.maximum(probs, OUTCOME_FLOOR), 0.0, 1.0)
    return probs, np.where(probs < OUTCOME_FLOOR, 0.0, fids), raw


def teleport(shared: SharedState, input_qubit: InputQubit) -> list[TeleportOutcome]:
    """Run one teleportation; returns the four outcome branches.

    Outcomes with probability below 1e-14 get fidelity 0 and a zero
    corrected state; they carry no weight in any average.
    """
    probs, fids, raw = _outcome_kernel([shared], input_qubit.vector[None])
    outcomes: list[TeleportOutcome] = []
    for k, u in enumerate(_corrections()):
        p = float(probs[0, 0, k])
        mat = np.zeros((2, 2), dtype=complex)
        if p >= OUTCOME_FLOOR:
            mat = u @ raw[0, 0, k] @ u.conj().T / p
        corrected = MixedState(1, 0.5 * (mat + mat.conj().T))
        raw_k, fid = MixedState(1, raw[0, 0, k]), float(fids[0, 0, k])
        outcomes.append(TeleportOutcome(k + 1, p, raw_k, corrected, fid))
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
    probs, fids, _ = _outcome_kernel([shared], inputs)
    return np.clip((probs * fids).sum(axis=-1)[0], 0.0, 1.0)


_HAAR_DESIGN = None
_POLAR_DESIGN = None


def design_inputs(measure: str = "haar") -> tuple[InputQubit, ...]:
    """Finite input sets whose average equals the measure's integral.

    "haar": the six Pauli eigenstates, a spherical 2-design, giving the
    exact uniform average for any outcome-weighted fidelity (which is
    quadratic in the input density matrix).

    "polar": the average over the real arc cos(t)|0> + sin(t)|1>,
    t in [0, pi], weighted by sin(t)/2. Four states matched to the
    arc's second moments reproduce that integral exactly, for the same
    quadratic-functional reason.
    """
    global _HAAR_DESIGN, _POLAR_DESIGN
    if measure == "haar":
        if _HAAR_DESIGN is None:
            s = 1.0 / math.sqrt(2.0)
            _HAAR_DESIGN = tuple(
                InputQubit(a, b)
                for a, b in (
                    (1.0, 0.0),
                    (0.0, 1.0),
                    (s, s),
                    (s, -s),
                    (s, 1j * s),
                    (s, -1j * s),
                )
            )
        return _HAAR_DESIGN
    if measure == "polar":
        if _POLAR_DESIGN is None:
            theta = math.asin(math.sqrt(8.0 / 15.0))
            angles = (theta, -theta, math.pi - theta, math.pi + theta)
            _POLAR_DESIGN = tuple(
                InputQubit(math.cos(a / 2.0), math.sin(a / 2.0)) for a in angles
            )
        return _POLAR_DESIGN
    raise ValueError(f"unknown measure {measure!r}, expected one of {MEASURES}")


def average_fidelity(shared: SharedState, measure: str = "haar") -> float:
    """Exact input-averaged fidelity under the chosen measure."""
    inputs = np.array([s.vector for s in design_inputs(measure)])
    return min(max(float(input_fidelities(shared, inputs).mean()), 0.0), 1.0)


def unprotected_baseline(channel: ChannelSpec, mode, measure: str = "haar") -> float:
    """Average fidelity with every protection stage replaced by the
    identity: the channel acts alone under the selected mode's
    summation semantics."""
    shared = channel_only_shared(channel, mode)
    return average_fidelity(shared, measure)
