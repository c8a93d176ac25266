"""Self-contained invariant suite behind the `check` CLI command.

Each check is named; a failure names itself in the report so the exit
status can be traced to one invariant. All randomness is drawn from a
single seeded generator, so reports are byte-identical for a fixed
seed. `inject_fault` deliberately corrupts one named check (used to
test the failure path end to end).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .operators import CHANNEL_KINDS, kraus_set, stage_diagonals
from .pipeline import MODES, branch_operators, normalize_branches, protect
from .teleport import ETA_STATES, average_fidelity, input_fidelities, teleport

FAULT_NAMES = ("kraus_completeness",)

_I2 = np.eye(2)

__all__ = ["FAULT_NAMES", "run_checks"]


def _stage_deviation(d: np.ndarray, expected) -> float:
    """Max entry of |m_0^dagger m_0 + m_1^dagger m_1 - expected I| for
    a diagonal stage given by its outcome-0 diagonals d, shape (n, 2),
    read from `stage_diagonals`. Outcome 1 mirrors d, and the
    off-diagonal entries are exactly zero."""
    return float(np.abs(d**2 + d[:, ::-1] ** 2 - expected).max())


def _check_povm_completeness():
    """Both stages of protocol II and the measurement of protocol I
    (at q = 0.5) are completed POVMs."""
    d1 = stage_diagonals("I", np.linspace(0.0, np.pi, 5), [0.5])[0]
    k = np.linspace(-1.0, 1.0, 5)
    worst = max(_stage_deviation(d, 1.0) for d in (d1, *stage_diagonals("II", k, k)))
    return worst <= 1e-12, f"max deviation from identity {worst:.3e}"


def _check_reversal_completeness():
    """Protocol I's reversal pair sums to (1 + q^2) I over the
    (omega, q) grid."""
    q = np.linspace(0.0, 1.0, 5)
    d2 = stage_diagonals("I", np.linspace(0.0, np.pi, 5), q)[1]
    worst = _stage_deviation(d2, 1.0 + q[:, None] ** 2)
    return worst <= 1e-12, f"max deviation from (1+q^2)I {worst:.3e}"


def _check_kraus_completeness(inject_fault):
    worst = 0.0
    for kind in CHANNEL_KINDS:
        for r in np.linspace(0.0, 1.0, 11):
            e0, e1 = kraus_set(kind, float(r))
            if inject_fault == "kraus_completeness":
                e1 = 1.01 * e1
            total = e0.conj().T @ e0 + e1.conj().T @ e1
            worst = max(worst, float(np.abs(total - _I2).max()))
    return worst <= 1e-12, f"max deviation from identity {worst:.3e}"


def _check_eta_orthonormality():
    gram = ETA_STATES @ ETA_STATES.conj().T
    worst = float(np.abs(gram - np.eye(4)).max())
    return worst <= 1e-12, f"max Gram deviation {worst:.3e}"


# (axis 1, axis 2) of each protocol's parameter grid
_PROB_AXES = {
    "I": ((0.3, 0.8, 1.2, 1.5), (0.2, 0.5, 0.8, 1.0)),
    "II": ((0.0, 0.3, 0.6, 0.9), (0.0, 0.3, 0.6, 0.9)),
}
_PROB_CHANNELS = [(kind, r) for kind in CHANNEL_KINDS for r in (0.0, 0.3, 0.6, 0.9)]


def _check_probability_sums():
    """Outcome probabilities sum to 1 over every parameter grid x
    channel cell, in one stack per protocol and mode. An annihilated
    cell stays unscaled and fails `teleport`'s span check."""
    inp = np.array([[0.6, 0.8]], dtype=complex)
    worst = 0.0
    for protocol, (axis1, axis2) in _PROB_AXES.items():
        a1 = np.array(axis1)[:, None]
        raw = np.stack([branch_operators(protocol, a1, axis2, *ch) for ch in _PROB_CHANNELS])
        for mode in MODES:
            probs = teleport(normalize_branches(raw, mode)[0], inp).probability
            worst = max(worst, float(np.abs(probs.sum(axis=-1) - 1.0).max()))
    return worst <= 1e-10, f"max |sum(p) - 1| {worst:.3e}"


# Ranges of the (axis 1, axis 2) values drawn for each protocol.
_RANDOM_AXES = {"I": ((0.1, 1.5), (0.1, 1.0)), "II": ((0.0, 0.95), (0.0, 0.95))}


def _random_point(rng, protocol: str) -> tuple[float, float]:
    return tuple(float(rng.uniform(lo, hi)) for lo, hi in _RANDOM_AXES[protocol])


def _padded(stacks) -> np.ndarray:
    """One (N, 4, 2, 2) stack from normalized branch stacks (n, K, 2, 2),
    each zero-padded to K = 4: zero branches add nothing to a fidelity."""
    return np.concatenate([np.pad(g, ((0, 0), (0, 4 - g.shape[1]), (0, 0), (0, 0)))
                           for g in stacks])


def _check_r0_limits(rng):
    """Noiseless limit: the coherent summation mode returns the input
    perfectly for random parameters; the mixed mode does so when both
    stages are trivial (omega = pi/2 with q = 1, or K1 = K2 = 0). Per
    protocol and channel, five random points and the locus are six
    paired points of one `branch_operators` call; all 36 states go
    through one contraction."""
    stacks = []
    for protocol, locus in (("I", (np.pi / 2, 1.0)), ("II", (0.0, 0.0))):
        g = []
        for kind in CHANNEL_KINDS:
            a1, a2 = np.array([_random_point(rng, protocol) for _ in range(5)] + [locus]).T
            g.append(branch_operators(protocol, a1, a2, kind, 0.0))
        g = np.stack(g)
        paper = normalize_branches(g[:, :5], "paper")[0]
        stacks += [paper.reshape(-1, 1, 2, 2),
                   normalize_branches(g[:, 5], "physical")[0]]
    worst = float(np.abs(average_fidelity(_padded(stacks), "haar") - 1.0).max())
    return worst <= 1e-10, f"max |F - 1| at r=0 {worst:.3e}"


def _mode_fidelity(point, channel, r):
    """<psi|rho|psi> of the paper-mode state psi and the physical-mode
    mixture rho at one point: sum_b |<psi0 g_p^T, psi0 g_b^T>|^2, where
    each overlap is (1/2)<g_p, g_b>_F since psi0^dagger psi0 = I/2 (the
    branch stacks are real)."""
    paper = protect(*point, channel, r, "paper")
    physical = protect(*point, channel, r, "physical")
    overlaps = 0.5 * np.einsum("bij,ij->b", physical, paper[0])
    return float(overlaps @ overlaps)


def _check_mode_coincidence():
    """The two summation modes give the same shared state wherever the
    branch operators are all proportional: identity channel, and the
    fully bit-flipped channel, with both protection stages trivial."""
    worst = 0.0
    for locus in (("I", np.pi / 2, 1.0), ("II", 0.0, 0.0)):
        for kind in CHANNEL_KINDS:
            worst = max(worst, 1.0 - _mode_fidelity(locus, kind, 0.0))
        worst = max(worst, 1.0 - _mode_fidelity(locus, "bfc", 1.0))
    return worst <= 1e-10, f"max state infidelity {worst:.3e}"


def _random_shared(rng):
    protocol = "I" if rng.integers(2) == 0 else "II"
    a1, a2 = _random_point(rng, protocol)
    kind = CHANNEL_KINDS[int(rng.integers(3))]
    r = float(rng.uniform(0.0, 0.5))
    mode = MODES[int(rng.integers(2))]
    return protect(protocol, a1, a2, kind, r, mode)


def _check_global_phase(rng):
    worst = 0.0
    for _ in range(5):
        shared = _random_shared(rng)
        theta, phi, gamma = rng.uniform(0.0, 2.0 * np.pi, size=3)
        alpha = np.cos(theta / 2.0)
        beta = np.exp(1j * phi) * np.sin(theta / 2.0)
        phase = np.exp(1j * gamma)
        out = teleport(shared, np.array([[alpha, beta], [phase * alpha, phase * beta]]))
        for per_input in (out.probability, out.per_outcome_fidelity):
            worst = max(worst, float(np.abs(per_input[0] - per_input[1]).max()))
    return worst <= 1e-12, f"max phase-dependent shift {worst:.3e}"


@lru_cache(maxsize=1)
def _quadrature_grid():
    """Gauss-Legendre rule over the Bloch sphere: (64, 128, 2) inputs,
    one row of 128 azimuths per polar node, and the 64 node weights."""
    nodes, weights = np.polynomial.legendre.leggauss(64)
    phis = np.linspace(0.0, 2.0 * np.pi, 128, endpoint=False)
    theta = np.arccos(nodes)
    inputs = np.empty((64, 128, 2), dtype=complex)
    inputs[:, :, 0] = np.cos(theta / 2.0)[:, None]
    inputs[:, :, 1] = np.sin(theta / 2.0)[:, None] * np.exp(1j * phis)
    inputs.setflags(write=False)
    weights.setflags(write=False)
    return inputs, weights


def _check_design_vs_quadrature(rng):
    """The six-state design average matches a 64 x 128 Gauss-Legendre
    average over the Bloch sphere, contracted one row of 128 inputs at a
    time for all five states, so its arrays stay a few hundred KiB."""
    g = _padded([_random_shared(rng)[None] for _ in range(5)])
    inputs, weights = _quadrature_grid()
    quad = weights @ np.array([input_fidelities(g, row).mean(axis=-1) for row in inputs]) / 2.0
    worst = float(np.abs(average_fidelity(g, measure="haar") - quad).max())
    return worst <= 1e-9, f"max design-quadrature gap {worst:.3e}"


def run_checks(seed: int = 0, inject_fault: str | None = None):
    """Run the whole suite; returns (report lines, all passed)."""
    if inject_fault is not None and inject_fault not in FAULT_NAMES:
        raise ValueError(
            f"unknown fault {inject_fault!r}, expected one of {FAULT_NAMES}"
        )
    rng = np.random.default_rng(seed)
    suite = [
        ("povm_completeness", _check_povm_completeness, ()),
        ("reversal_completeness", _check_reversal_completeness, ()),
        ("kraus_completeness", _check_kraus_completeness, (inject_fault,)),
        ("eta_orthonormality", _check_eta_orthonormality, ()),
        ("probability_sums", _check_probability_sums, ()),
        ("r0_limits", _check_r0_limits, (rng,)),
        ("mode_coincidence", _check_mode_coincidence, ()),
        ("global_phase_invariance", _check_global_phase, (rng,)),
        ("design_vs_quadrature", _check_design_vs_quadrature, (rng,)),
    ]
    lines = []
    failed = []
    for name, check, args in suite:
        try:  # a check that raises fails with the exception's message
            ok, detail = check(*args)
        except ValueError as exc:
            ok, detail = False, str(exc)
        if ok:
            lines.append(f"ok {name}")
        else:
            lines.append(f"FAIL {name}: {detail}")
            failed.append(name)
    if failed:
        lines.append(f"{len(failed)} check(s) failed: {', '.join(failed)}")
    else:
        lines.append(f"all {len(suite)} checks passed")
    return lines, not failed
