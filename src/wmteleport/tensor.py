"""Validated state containers for small qubit registers.

A pure state is a numpy vector of length 2**n and a mixed state a
(2**n, 2**n) density matrix, with n at most 5. The bit convention is
fixed once and used everywhere: qubit 0 is the leftmost symbol of a ket
string and the most significant bit of the amplitude index, so on two
qubits |10> sits at index 0b10 = 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 5

HERMITIAN_TOL = 1e-12
PSD_TOL = 1e-10
NORM_TOL = 1e-12

__all__ = ["MAX_QUBITS", "PureState", "MixedState"]


def _as_complex(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _check_register_size(num_qubits: int) -> None:
    if not isinstance(num_qubits, (int, np.integer)):
        raise ValueError(f"num_qubits must be an integer, got {num_qubits!r}")
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise ValueError(f"num_qubits must be in [1, {MAX_QUBITS}], got {num_qubits}")


@dataclass(frozen=True)
class PureState:
    """Complex amplitude vector over an n-qubit register.

    Not necessarily normalized; `is_normalized` tells. Amplitudes are
    stored as a complex numpy vector of length 2**num_qubits.
    """

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _check_register_size(self.num_qubits)
        amps = _as_complex(self.amplitudes, "amplitudes")
        if amps.shape != (2 ** self.num_qubits,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected "
                f"({2 ** self.num_qubits},) for {self.num_qubits} qubits"
            )
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def is_normalized(self, tol: float = NORM_TOL) -> bool:
        return abs(self.norm() ** 2 - 1.0) <= tol

    def normalized(self) -> "PureState":
        n = self.norm()
        if n < 1e-14:
            raise ValueError("cannot normalize a zero state")
        return PureState(self.num_qubits, self.amplitudes / n)

    def density(self) -> "MixedState":
        amps = self.amplitudes
        return MixedState(self.num_qubits, np.outer(amps, amps.conj()))


@dataclass(frozen=True)
class MixedState:
    """Density operator over an n-qubit register.

    Hermiticity and positive semidefiniteness are checked on
    construction. The trace is unconstrained (sub-normalized operators
    carry outcome probabilities); `is_normalized` checks trace 1.
    """

    num_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        _check_register_size(self.num_qubits)
        mat = _as_complex(self.matrix, "matrix")
        dim = 2 ** self.num_qubits
        if mat.shape != (dim, dim):
            raise ValueError(
                f"density matrix has shape {mat.shape}, expected ({dim}, {dim})"
            )
        if np.abs(mat - mat.conj().T).max() > HERMITIAN_TOL:
            raise ValueError("density matrix is not Hermitian")
        eigs = np.linalg.eigvalsh(mat)
        if eigs.min() < -PSD_TOL:
            raise ValueError(
                f"density matrix is not positive semidefinite (min eigenvalue {eigs.min():.3e})"
            )
        object.__setattr__(self, "matrix", mat)

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def is_normalized(self, tol: float = NORM_TOL) -> bool:
        return abs(self.trace() - 1.0) <= tol
