"""Single-qubit operator catalog.

The two weak-measurement protocols with their reversals, the three
noise channels' Kraus sets, and the four outcome-correction unitaries.
A parameter point is written (protocol, axis-1 value, axis-2 value)
everywhere; `PROTOCOL_AXES` names each protocol's axes and their ranges,
and `check_parameters` is the one range rule. Both protection stages
are diagonal, so they exist only as diagonals: `stage_diagonals` maps a
grid of protocol parameters to their outcome-0 diagonals, and there are
no one-point 2x2 views. A channel is written (kind, r) everywhere, and
`kraus_set` is the one channel rule; every channel's Kraus operators are
real, so it returns one real (2, 2, 2) stack. The Pauli matrices and
the correction unitaries `CORRECTIONS` are read-only arrays.

Protocol I is protocol II in other coordinates. At K1 = cos(omega) its
measurement diagonal is protocol II's, and at K2 = (q**2 - 1)/(q**2 + 1)
its reversal diagonal is protocol II's times sqrt(1 + q**2), a scale
common to every branch. So the fidelities agree on the chart, and
protocol I retains 1 + q**2 times the norm. Protocol I's default domain
(omega in [0, pi/2], q in [0, 1]) is the K2 in [-1, 0] half of the
square K1 in [0, 1], K2 in [-1, 1]; protocol II's is the K2 in [0, 1]
half.
"""

from __future__ import annotations

import math

import numpy as np

_PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 0], [0, -1]]], dtype=complex)
_PAULIS.setflags(write=False)
PAULI_I, PAULI_X, PAULI_Z = _PAULIS

CHANNEL_KINDS = ("adc", "bfc", "pfc")

# Each protocol's two parameter axes as (name, lowest, highest value).
# Protocol I is the WM-flip-reversal pair (omega, q); protocol II is the
# modified WMR pair (K1, K2).
PROTOCOL_AXES = {
    "I": (("omega", 0.0, math.pi), ("q", 0.0, 1.0)),
    "II": (("k1", -1.0, 1.0), ("k2", -1.0, 1.0)),
}

__all__ = [
    "PAULI_I",
    "PAULI_X",
    "PAULI_Z",
    "CHANNEL_KINDS",
    "PROTOCOL_AXES",
    "check_parameters",
    "stage_diagonals",
    "kraus_set",
    "CORRECTIONS",
]


def check_parameters(protocol: str, axis1, axis2) -> None:
    """Raise ValueError unless `protocol` is a key of PROTOCOL_AXES and
    every value of `axis1` and `axis2` (scalars or arrays) lies in its
    axis's closed range. NaN and infinities lie in no range."""
    if protocol not in PROTOCOL_AXES:
        raise ValueError(f"unknown protocol kind {protocol!r}")
    for (name, lo, hi), values in zip(PROTOCOL_AXES[protocol], (axis1, axis2)):
        arr = np.asarray(values, dtype=float)
        outside = arr[~((lo <= arr) & (arr <= hi))]
        if outside.size:
            raise ValueError(f"{name} must be in [{lo}, {hi}], got {float(outside[0])}")


def stage_diagonals(protocol: str, axis1, axis2) -> tuple[np.ndarray, np.ndarray]:
    """Outcome-0 diagonals of the protection stages over a parameter
    grid: the weak measurement m_0 over axis 1, shape (n1, 2), and the
    reversal n_0 over axis 2, shape (n2, 2). Outcome 1 mirrors both.

    Protocol "I" has axes (omega, q): m_0 = diag(cos w/2, sin w/2) and
    n_0 = diag(q, 1); its reversal pair is a filter, not a completed
    POVM, summing to (1 + q**2) I. Protocol "II" has axes (K1, K2), each
    stage diag(K+, K-) with K+- = sqrt((1 +- K)/2), a completed POVM.
    Values are not range-checked here; see `check_parameters`.
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


def kraus_set(kind: str, r: float) -> np.ndarray:
    """Kraus operators (e0, e1) of the noise channel on the resource's
    last qubit as one real (2, 2, 2) array; sum(e^T e) = I.

    `kind` is "adc" (amplitude damping), "bfc" (bit flip) or "pfc"
    (phase flip), exactly as spelled in CHANNEL_KINDS; r in [0, 1] is
    the decoherence strength. Anything else, NaN included, raises
    ValueError.
    """
    if kind not in CHANNEL_KINDS:
        raise ValueError(f"unknown channel kind {kind!r}, expected one of {CHANNEL_KINDS}")
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"r must be in [0, 1], got {r}")
    if kind == "adc":
        e0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - r)]])
        e1 = np.array([[0.0, math.sqrt(r)], [0.0, 0.0]])
    elif kind == "bfc":
        e0 = math.sqrt(1.0 - r) * PAULI_I.real
        e1 = math.sqrt(r) * PAULI_X.real
    else:
        e0 = math.sqrt(1.0 - r) * PAULI_I.real
        e1 = math.sqrt(r) * PAULI_Z.real
    return np.stack([e0, e1])


# The receiver's correction for measurement outcome k + 1 at index k:
# I, sigma_z, sigma_x and sigma_z sigma_x.
CORRECTIONS = np.stack([PAULI_I, PAULI_Z, PAULI_X, PAULI_Z @ PAULI_X])
CORRECTIONS.setflags(write=False)
