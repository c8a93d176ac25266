"""Resource preparation and the protection sequence.

The shared resource is the four-qubit state
(|0000> + |0101> + |1010> + |1111>) / 2 on qubits (A1, A2, A3, B), a
(16,) numpy array. The bit convention is fixed once and used
everywhere: qubit A1 is the leftmost symbol of a ket string and the most
significant bit of the amplitude index, so |0001> (B set) sits at index 1.

Protection acts on B only. Per weak-measurement outcome i the sequence
is: weak measurement m_i, conditional flip f_i, noise channel Kraus
element e_j, the flip f_i again, then the reversal n_i. The branch
operator for outcomes (i, j) is therefore

    g_ij = n_i f_i e_j f_i m_i.

Since every stage acts on B alone, a protected shared state is its
normalized 2x2 branch operators g_b, a plain (K, 2, 2) array: the state
is sum_b |psi0 g_b^T><psi0 g_b^T| with psi0 as an 8x2 matrix with B on
columns, and no 16-dim form of it is built. There is one path from
parameters to normalized branches: `branch_operators` builds the branch
operators at any parameter points, whose axis values broadcast like
numpy operands (scalars give one point, equal-length arrays paired
points, `axis1[:, None]` with `axis2` a grid) from the factors of the
outcome-0 pair (`_branch_factors`, which the sweep multiplies too), and
is the one place that builds outcome 1 from that pair. `normalize_branches`
normalizes any stack of them, and `protect` does both over the same
points. A channel is written (channel, r), as `operators.kraus_set`
takes it. Two summation semantics are provided, selected by a mode
from MODES:

* "paper": all four branch operators are summed coherently into one
  operator (K = 1), normalized so the state has unit norm.
* "physical": the K = 4 branches are kept as an incoherent mixture,
  renormalized once; the retained trace, sum_b |g_b|_F^2 / 2, is the
  success probability of the filtering stages, returned by
  `normalize_branches`.
"""

from __future__ import annotations

import numpy as np

from .operators import check_parameters, kraus_set, stage_diagonals

ZERO_NORM_TOL = 1e-14

GHZ_INDICES = (0b0000, 0b0101, 0b1010, 0b1111)

MODES = ("paper", "physical")

__all__ = [
    "ZERO_NORM_TOL",
    "GHZ_INDICES",
    "MODES",
    "initial_state",
    "branch_operators",
    "normalize_branches",
    "protect",
]


def _check_mode(mode: str) -> None:
    """Raise ValueError unless `mode` is one of MODES, exactly."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")


def initial_state() -> np.ndarray:
    """(|0000> + |0101> + |1010> + |1111>) / 2 on (A1, A2, A3, B), shape (16,)."""
    amps = np.zeros(16, dtype=complex)
    for idx in GHZ_INDICES:
        amps[idx] = 0.5
    return amps


# The resource with (A1, A2, A3) on rows and B on columns.
_PSI0 = initial_state().reshape(8, 2)


def _branch_factors(protocol: str, a1, a2, channel: str, r: float):
    """The two factors whose product is the flattened outcome-0 branch
    pair g_00, g_01 at the parameter points (a1, a2) of `protocol`,
    broadcast as in `branch_operators`: `left` over axis 2 and `right`
    over axis 1, each of shape (..., 8) with column 4j + 2b + c holding
    n_0[b] * e_j[b, c] and m_0[c] (f_0 is the identity). Outcome 1 is
    built from the pair, never from factors of its own (see
    `branch_operators`). Range and broadcast checks as in
    `branch_operators`."""
    check_parameters(protocol, a1, a2)
    s1, s2 = np.shape(a1), np.shape(a2)
    try:
        np.broadcast_shapes(s1, s2)
    except ValueError:
        raise ValueError(f"axis values of shapes {s1} and {s2} do not broadcast") from None
    d1, d2 = stage_diagonals(protocol, a1, a2)
    e = kraus_set(channel, r)
    left = (d2[..., None, :, None] * e).reshape(*d2.shape[:-1], 8)
    right = np.tile(d1, 4)
    return left, right


def branch_operators(protocol: str, a1, a2, channel: str, r: float) -> np.ndarray:
    """The four branch operators g_ij at the parameter points (a1, a2)
    of `protocol`, whose values broadcast like numpy operands: shape
    (..., 4, 2, 2), branch order (i=0,j=0), (0,1), (1,0), (1,1). Points
    outside the protocol's ranges, and axis values whose shapes do not
    broadcast, raise ValueError. The stages around the channel are
    diagonal, m_i depending on axis 1 only and n_i on axis 2 only, so
    g_0j[b, c] = n_0[b] * e_j[b, c] * m_0[c]: the product of the two
    factors that `_branch_factors` returns. All three channels have real
    Kraus operators, so the branches are real. Since f_1 = sigma_x and
    the outcome-1 diagonals mirror outcome 0's, g_1j = sigma_x g_0j
    sigma_x, the entry reversal g_0j[1 - b, 1 - c]: this is the one
    place that builds outcome 1, appending the reversed pair."""
    left, right = _branch_factors(protocol, a1, a2, channel, r)
    # One flat 8-wide product: the same broadcast over (..., 2, 2, 2)
    # with size-2 inner axes is 3x slower at 401x401.
    pair = np.multiply(left, right)
    pair = pair.reshape(*pair.shape[:-1], 2, 4)
    g = np.concatenate([pair, pair[..., ::-1]], axis=-2)
    return g.reshape(*g.shape[:-2], 4, 2, 2)


def normalize_branches(branches: np.ndarray, mode: str):
    """Normalize a stack of branch operators, shape (..., K, 2, 2).

    Returns (normalized, retained, annihilated). Paper mode first sums
    the K branches coherently, so `normalized` has K = 1 there.
    `retained` is the squared norm of the state before scaling,
    |g|_F^2 / 2 summed over the branches (psi0^dagger psi0 = I/2); in
    physical mode it is the success probability. Cells with `retained` below ZERO_NORM_TOL
    are flagged in `annihilated` and left unscaled."""
    _check_mode(mode)
    if mode == "paper":
        branches = branches.sum(axis=-3, keepdims=True)
    retained = 0.5 * (branches.real**2 + branches.imag**2).sum(axis=(-3, -2, -1))
    annihilated = retained < ZERO_NORM_TOL
    scale = np.sqrt(np.where(annihilated, 1.0, retained))
    return branches / scale[..., None, None, None], retained, annihilated


_ANNIHILATED = {
    "paper": "protection pipeline produced a zero-norm state; "
    "the chosen parameters annihilate every branch",
    "physical": "protection pipeline produced a zero-trace mixture; "
    "the chosen parameters annihilate every branch",
}


def protect(protocol: str, a1, a2, channel: str, r: float, mode: str) -> np.ndarray:
    """Push the resource through the protection sequence at the
    parameter points (a1, a2) of `protocol`, broadcast as in
    `branch_operators`: the normalized branch stacks, shape
    (..., 1, 2, 2) in paper mode and (..., 4, 2, 2) in physical mode. A
    point that annihilates every branch raises ValueError."""
    normalized, _, annihilated = normalize_branches(
        branch_operators(protocol, a1, a2, channel, r), mode
    )
    if annihilated.any():
        raise ValueError(_ANNIHILATED[mode])
    return normalized
