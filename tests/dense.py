"""Dense four-qubit forms of a shared state, for tests.

The package holds a protected shared state only as its normalized branch
stack g, shape (K, 2, 2): the state on (A1, A2, A3, B) is
sum_b |psi0 g_b^T><psi0 g_b^T|, with the resource psi0 as an 8x2 matrix
with B on columns. These helpers build that state as a (16,) vector or a
(16, 16) density matrix, so tests can compare it with the oracle's.
"""

import numpy as np

from wmteleport.pipeline import initial_state

_PSI0 = initial_state().reshape(8, 2)


def branch_states(g):
    """The (K, 16) unnormalized states psi0 g_b^T, one per branch."""
    return (_PSI0 @ np.swapaxes(g, -1, -2)).reshape(-1, 16)


def pure(g):
    """The (16,) state vector of a one-branch (paper-mode) stack."""
    assert len(g) == 1, f"a pure state has one coherent branch, got {len(g)}"
    return branch_states(g)[0]


def rho(g):
    """The (16, 16) density matrix of any stack."""
    states = branch_states(g)
    return states.T @ states.conj()


def state_fidelity(a, b):
    """<psi|rho|psi> between two shared states, at least one of them a
    one-branch stack psi."""
    if len(a) != 1:
        a, b = b, a
    vec = pure(a)
    return float((vec.conj() @ rho(b) @ vec).real)
