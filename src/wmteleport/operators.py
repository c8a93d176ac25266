"""Single-qubit operator catalog.

The two weak-measurement protocols with their reversals, the three
noise channels' Kraus sets, and the four outcome-correction unitaries.
Both protection stages are diagonal, so they exist only as diagonals:
`stage_diagonals` maps a grid of protocol parameters to their outcome-0
diagonals, and there are no one-point 2x2 views. Every channel's Kraus
operators are real, so `kraus_set` returns one real (2, 2, 2) stack;
the correction unitaries are fresh 2x2 complex arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

CHANNEL_KINDS = ("adc", "bfc", "pfc")

__all__ = [
    "PAULI_I",
    "PAULI_X",
    "PAULI_Z",
    "CHANNEL_KINDS",
    "ProtocolI",
    "ProtocolII",
    "ProtocolParams",
    "ChannelSpec",
    "stage_diagonals",
    "parameter_point",
    "kraus_set",
    "correction_unitary",
]


@dataclass(frozen=True)
class ProtocolI:
    """Weak-measurement protocol with strength angle omega and reversal
    strength q.

    The measurement pair is diag(cos w/2, sin w/2) and its mirror; the
    reversal pair diag(q, 1) / diag(1, q) is a filter, not a completed
    POVM: the two elements sum to (1 + q**2) I.
    """

    omega: float
    q: float

    kind = "I"

    def __post_init__(self):
        if not (np.isfinite(self.omega) and 0.0 <= self.omega <= math.pi):
            raise ValueError(f"omega must be in [0, pi], got {self.omega}")
        if not (np.isfinite(self.q) and 0.0 <= self.q <= 1.0):
            raise ValueError(f"q must be in [0, 1], got {self.q}")


@dataclass(frozen=True)
class ProtocolII:
    """Weak-measurement protocol parameterized by two strengths K1, K2.

    Both the measurement pair and the reversal pair are built from
    K+- = sqrt((1 +- K)/2) (see `stage_diagonals`), so each pair is a
    completed POVM.
    """

    k1: float
    k2: float

    kind = "II"

    def __post_init__(self):
        for name, value in (("k1", self.k1), ("k2", self.k2)):
            if not (np.isfinite(value) and -1.0 <= value <= 1.0):
                raise ValueError(f"{name} must be in [-1, 1], got {value}")


ProtocolParams = Union[ProtocolI, ProtocolII]


@dataclass(frozen=True)
class ChannelSpec:
    """One of the three noise channels acting on the resource's last qubit.

    kind is "adc" (amplitude damping), "bfc" (bit flip) or "pfc"
    (phase flip); r in [0, 1] is the decoherence strength.
    """

    kind: str
    r: float

    def __post_init__(self):
        kind = str(self.kind).lower()
        if kind not in CHANNEL_KINDS:
            raise ValueError(f"unknown channel kind {self.kind!r}, expected one of {CHANNEL_KINDS}")
        object.__setattr__(self, "kind", kind)
        if not (np.isfinite(self.r) and 0.0 <= self.r <= 1.0):
            raise ValueError(f"r must be in [0, 1], got {self.r}")


def stage_diagonals(protocol: str, axis1, axis2) -> tuple[np.ndarray, np.ndarray]:
    """Outcome-0 diagonals of the protection stages over a parameter
    grid: the weak measurement m_0 over axis 1, shape (n1, 2), and the
    reversal n_0 over axis 2, shape (n2, 2). Outcome 1 mirrors both.

    Protocol "I" has axes (omega, q): m_0 = diag(cos w/2, sin w/2) and
    n_0 = diag(q, 1). Protocol "II" has axes (K1, K2), each stage
    diag(K+, K-) with K+- = sqrt((1 +- K)/2).
    """
    a1 = np.asarray(axis1, dtype=float)
    a2 = np.asarray(axis2, dtype=float)
    if protocol == "I":
        d1 = np.stack([np.cos(a1 / 2.0), np.sin(a1 / 2.0)], axis=-1)
        d2 = np.stack([a2, np.ones_like(a2)], axis=-1)
    elif protocol == "II":
        d1 = np.sqrt(np.stack([1.0 + a1, 1.0 - a1], axis=-1) / 2.0)
        d2 = np.sqrt(np.stack([1.0 + a2, 1.0 - a2], axis=-1) / 2.0)
    else:
        raise ValueError(f"unknown protocol kind {protocol!r}")
    return d1, d2


def parameter_point(params: ProtocolParams) -> tuple[str, float, float]:
    """(protocol kind, axis-1 value, axis-2 value) of one parameter set."""
    if isinstance(params, ProtocolI):
        return "I", params.omega, params.q
    if isinstance(params, ProtocolII):
        return "II", params.k1, params.k2
    raise ValueError(f"unsupported protocol parameters: {params!r}")


def kraus_set(spec: ChannelSpec) -> np.ndarray:
    """Kraus operators (e0, e1) of the channel as one real (2, 2, 2)
    array; sum(e^T e) = I."""
    r = spec.r
    if spec.kind == "adc":
        e0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - r)]])
        e1 = np.array([[0.0, math.sqrt(r)], [0.0, 0.0]])
    elif spec.kind == "bfc":
        e0 = math.sqrt(1.0 - r) * PAULI_I.real
        e1 = math.sqrt(r) * PAULI_X.real
    else:
        e0 = math.sqrt(1.0 - r) * PAULI_I.real
        e1 = math.sqrt(r) * PAULI_Z.real
    return np.stack([e0, e1])


_CORRECTIONS = {
    1: PAULI_I,
    2: PAULI_Z,
    3: PAULI_X,
    4: PAULI_Z @ PAULI_X,
}


def correction_unitary(outcome: int) -> np.ndarray:
    """Receiver's correction for measurement outcome 1..4.

    Outcomes map to I, sigma_z, sigma_x and sigma_z sigma_x in order.
    """
    if outcome not in _CORRECTIONS:
        raise ValueError(f"outcome must be in 1..4, got {outcome!r}")
    return _CORRECTIONS[outcome].copy()
