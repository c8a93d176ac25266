"""Resource preparation and the protection sequence.

The shared resource is the four-qubit state
(|0000> + |0101> + |1010> + |1111>) / 2 on qubits (A1, A2, A3, B).
Protection acts on B only. Per weak-measurement outcome i the sequence
is: weak measurement m_i, conditional flip f_i, noise channel Kraus
element e_j, the flip f_i again, then the reversal n_i. The branch
operator for outcomes (i, j) is therefore

    g_ij = n_i f_i e_j f_i m_i.

Since every stage acts on B alone, a SharedState keeps only the 2x2
branch operators; the 16-dim state psi0 g^T (psi0 as an 8x2 matrix with
B on columns) is built on demand. Two summation semantics are provided,
selected by PipelineMode:

* PAPER_LITERAL ("paper"): all four branch operators are summed
  coherently into one operator, normalized so the state has unit norm.
* PHYSICAL_MIXED ("physical"): the branches are kept as an incoherent
  mixture, renormalized once; the retained trace, sum_b |g_b|_F^2 / 2,
  is reported as the success probability of the filtering stages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .operators import (
    ChannelSpec,
    ProtocolI,
    ProtocolII,
    ProtocolParams,
    flip,
    kraus_set,
    wm,
    wmr,
)
from .tensor import MixedState, PureState

ZERO_NORM_TOL = 1e-14

GHZ_INDICES = (0b0000, 0b0101, 0b1010, 0b1111)
FLIPPED_INDICES = (0b0001, 0b0100, 0b1011, 0b1110)

__all__ = [
    "ZERO_NORM_TOL",
    "GHZ_INDICES",
    "FLIPPED_INDICES",
    "PipelineMode",
    "SharedState",
    "ClosedFormCoefficients",
    "ClosedFormEntry",
    "ClosedFormReport",
    "initial_state",
    "branch_operators",
    "protect",
    "channel_only_shared",
    "closed_form_check",
]


class PipelineMode(str, Enum):
    PAPER_LITERAL = "paper"
    PHYSICAL_MIXED = "physical"


def _coerce_mode(mode) -> PipelineMode:
    if isinstance(mode, PipelineMode):
        return mode
    return PipelineMode(str(mode).lower())


@dataclass(frozen=True)
class SharedState:
    """Protected four-qubit resource on (A1, A2, A3, B), held as 2x2
    operators on B applied to the fixed resource: the state is
    sum_b |psi0 g_b^T><psi0 g_b^T|.

    `branches` has shape (K, 2, 2) and is normalized. PAPER_LITERAL
    holds the single coherent sum (K = 1); PHYSICAL_MIXED holds the K
    branches scaled by 1/sqrt(retained trace), which is reported as
    `success_probability` (None in the pure mode). `pure` and `rho`
    are the 16-dim state of the matching mode, built on demand.
    """

    mode: PipelineMode
    branches: np.ndarray
    success_probability: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "mode", _coerce_mode(self.mode))
        branches = np.array(self.branches, dtype=complex)
        if branches.ndim != 3 or branches.shape[1:] != (2, 2) or not branches.shape[0]:
            raise ValueError(
                f"branches must have shape (K, 2, 2) with K >= 1, got {branches.shape}"
            )
        if not np.isfinite(branches).all():
            raise ValueError("branches contain non-finite entries")
        if self.mode is PipelineMode.PAPER_LITERAL and len(branches) != 1:
            raise ValueError("paper-literal shared state must carry one coherent branch")
        if self.success_probability is not None and not (
            0.0 < self.success_probability <= 1.0 + 1e-12
        ):
            raise ValueError(
                f"success probability must be in (0, 1], got {self.success_probability}"
            )
        branches.setflags(write=False)
        object.__setattr__(self, "branches", branches)

    def _branch_states(self) -> np.ndarray:
        return (_PSI0 @ self.branches.swapaxes(-1, -2)).reshape(-1, 16)

    @property
    def pure(self) -> PureState | None:
        """The normalized 16-dim state vector (PAPER_LITERAL only)."""
        if self.mode is not PipelineMode.PAPER_LITERAL:
            return None
        return PureState(4, self._branch_states()[0])

    @property
    def rho(self) -> MixedState | None:
        """The 16x16 density matrix (PHYSICAL_MIXED only)."""
        if self.mode is not PipelineMode.PHYSICAL_MIXED:
            return None
        states = self._branch_states()
        rho = states.T @ states.conj()
        return MixedState(4, 0.5 * (rho + rho.conj().T))


def initial_state() -> PureState:
    """(|0000> + |0101> + |1010> + |1111>) / 2 on (A1, A2, A3, B)."""
    amps = np.zeros(16, dtype=complex)
    for idx in GHZ_INDICES:
        amps[idx] = 0.5
    return PureState(4, amps)


# The resource with (A1, A2, A3) on rows and B on columns.
_PSI0 = initial_state().amplitudes.reshape(8, 2)


def branch_operators(params: ProtocolParams, channel: ChannelSpec) -> np.ndarray:
    """The four 2x2 branch operators g_ij, stacked in order
    (i, j) = (0,0), (0,1), (1,0), (1,1)."""
    stages = [[wmr(params, i), flip(i), wm(params, i)] for i in (0, 1)]
    n, f, m = np.stack(stages, axis=1)[:, :, None]
    return (n @ f @ np.stack(kraus_set(channel)) @ f @ m).reshape(4, 2, 2)


def _shared_from_branches(branches: np.ndarray, mode: PipelineMode) -> SharedState:
    # psi0^dagger psi0 = I/2, so |psi0 g^T|^2 = |g|_F^2 / 2.
    if mode is PipelineMode.PAPER_LITERAL:
        coherent = branches.sum(axis=0, keepdims=True)
        nrm2 = 0.5 * float(np.vdot(coherent, coherent).real)
        if nrm2 < ZERO_NORM_TOL:
            raise ValueError(
                "protection pipeline produced a zero-norm state; "
                "the chosen parameters annihilate every branch"
            )
        return SharedState(mode, coherent / math.sqrt(nrm2))
    retained = 0.5 * float(np.vdot(branches, branches).real)
    if retained < ZERO_NORM_TOL:
        raise ValueError(
            "protection pipeline produced a zero-trace mixture; "
            "the chosen parameters annihilate every branch"
        )
    return SharedState(
        mode, branches / math.sqrt(retained), success_probability=min(retained, 1.0)
    )


def protect(params: ProtocolParams, channel: ChannelSpec, mode) -> SharedState:
    """Push the resource through the protection sequence."""
    mode = _coerce_mode(mode)
    return _shared_from_branches(branch_operators(params, channel), mode)


def channel_only_shared(channel: ChannelSpec, mode) -> SharedState:
    """Resource after the noise channel alone, with no protection
    stages; branch operators are just the Kraus elements."""
    mode = _coerce_mode(mode)
    return _shared_from_branches(np.stack(kraus_set(channel)), mode)


@dataclass(frozen=True)
class ClosedFormCoefficients:
    """Named coefficient values printed alongside the catalogued final
    states, evaluated at the given parameters."""

    protocol: str
    channel: str
    values: dict


@dataclass(frozen=True)
class ClosedFormEntry:
    name: str
    printed: float
    pipeline: float
    discrepancy: float
    consistent: bool


@dataclass(frozen=True)
class ClosedFormReport:
    coefficients: ClosedFormCoefficients
    entries: tuple


def _safe_div(a: float, b: float) -> float:
    if b == 0.0:
        return math.inf if a > 0 else (-math.inf if a < 0 else math.nan)
    return a / b


def _entry(name: str, printed: float, pipeline: float, tol: float = 1e-9) -> ClosedFormEntry:
    if math.isfinite(printed) and math.isfinite(pipeline):
        disc = abs(printed - pipeline)
        ok = disc <= tol * max(1.0, abs(printed))
    else:
        disc = math.inf
        ok = False
    return ClosedFormEntry(name, printed, pipeline, disc, ok)


def _real_amplitude(value: complex) -> float:
    if abs(value.imag) > 1e-12:
        raise ValueError("expected a real amplitude")
    return float(value.real)


def closed_form_check(params: ProtocolParams, channel: ChannelSpec) -> ClosedFormReport:
    """Evaluate the printed coefficient formulas and compare them with
    ratios extracted from the numeric paper-literal pipeline.

    The comparisons are reported, never asserted: the numeric pipeline
    is authoritative and several printed formulas are known not to
    match it (mixed normalized and unnormalized terms). For channels
    with two amplitude groups the group-amplitude ratio is the primary
    scale-free comparison; the amplitude-damping coefficients are also
    compared against twice the normalized four-ket group amplitude,
    since their printed normalizer drops the damped-branch weight. For
    the phase flip channel the support residual is reported instead.
    """
    shared = protect(params, channel, PipelineMode.PAPER_LITERAL)
    amps = shared.pure.amplitudes
    ghz = np.array([_real_amplitude(amps[i]) for i in GHZ_INDICES])
    flp = np.array([_real_amplitude(amps[i]) for i in FLIPPED_INDICES])
    other = np.delete(np.abs(amps), list(GHZ_INDICES) + list(FLIPPED_INDICES))

    entries = [
        _entry("ghz_group_uniform", 0.0, float(np.abs(ghz - ghz.mean()).max())),
        _entry("flipped_group_uniform", 0.0, float(np.abs(flp - flp.mean()).max())),
        _entry("outside_both_groups_residual", 0.0, float(np.abs(other).max())),
    ]
    pipeline_ratio = _safe_div(float(ghz.mean()), float(flp.mean()))

    r = channel.r
    values: dict = {}
    if isinstance(params, ProtocolI):
        c = math.cos(params.omega / 2.0)
        s = math.sin(params.omega / 2.0)
        q = params.q
        if channel.kind == "adc":
            denom = math.sqrt(2.0 * (c * c * q * q + s * s * (1.0 - r)))
            lam = _safe_div(c * q + s * math.sqrt(1.0 - r), denom)
            values["lambda_adc"] = lam
            entries.append(_entry("lambda_adc_vs_group_ratio", lam, pipeline_ratio))
            entries.append(
                _entry(
                    "lambda_adc_vs_scaled_ghz_amplitude",
                    lam,
                    2.0 * float(ghz.mean()),
                )
            )
        elif channel.kind == "bfc":
            lam1 = 0.5 * ((1.0 - r) * s * s + q * q * (1.0 - r) * c * c)
            lam2 = 0.5 * (r * q * q * s * s + r * c * c)
            values["lambda_bfc1"] = lam1
            values["lambda_bfc2"] = lam2
            branches = branch_operators(params, channel)
            w = [float(np.trace(g.conj().T @ g).real) / 2.0 for g in branches]
            entries.append(_entry("lambda_bfc1_vs_branch_weight", lam1, w[0]))
            entries.append(_entry("lambda_bfc2_vs_branch_weight", lam2, w[1]))
            entries.append(
                _entry(
                    "lambda_bfc_ratio_vs_group_ratio",
                    _safe_div(lam1, lam2),
                    pipeline_ratio,
                )
            )
        else:
            denom = 2.0 * math.sqrt(q * q * c * c + s * s)
            values["lambda_pfc"] = _safe_div(q * c, denom)
            entries.append(
                _entry("pfc_flipped_support_residual", 0.0, float(np.abs(flp).max()))
            )
    elif isinstance(params, ProtocolII):
        p1, m1 = params.k1_plus, params.k1_minus
        p2, m2 = params.k2_plus, params.k2_minus
        if channel.kind == "adc":
            denom = math.sqrt((p1 * p2) ** 2 + (1.0 - r) * (m1 * m2) ** 2)
            lam1 = _safe_div(
                math.sqrt(2.0)
                * (math.sqrt(p1 * p2) + math.sqrt(m1 * m2 * (1.0 - r))),
                denom,
            )
            values["lambda_1"] = lam1
            entries.append(_entry("lambda_1_vs_group_ratio", lam1, pipeline_ratio))
            entries.append(
                _entry(
                    "lambda_1_vs_scaled_ghz_amplitude",
                    lam1,
                    2.0 * float(ghz.mean()),
                )
            )
        elif channel.kind == "bfc":
            lam1 = _safe_div(
                p1 * p2 + m1 * m2,
                math.sqrt(2.0 * ((p1 * p2) ** 2 + (m1 * m2) ** 2)),
            )
            lam2 = _safe_div(
                p1 * m2 + m1 * p2,
                math.sqrt(2.0 * ((p1 * m2) ** 2 + (m1 * p2) ** 2)),
            )
            values["lambda_1"] = lam1
            values["lambda_2"] = lam2
            entries.append(
                _entry(
                    "lambda_ratio_vs_group_ratio",
                    _safe_div(lam1, lam2),
                    pipeline_ratio,
                )
            )
        else:
            denom = (m1 * m2) ** 2 + (p1 * p2) ** 2
            lam = p1 * p2 * math.sqrt(_safe_div(2.0, denom)) if denom > 0 else math.nan
            values["lambda"] = lam
            entries.append(
                _entry("pfc_flipped_support_residual", 0.0, float(np.abs(flp).max()))
            )
    else:
        raise ValueError(f"unsupported protocol parameters: {params!r}")

    coeffs = ClosedFormCoefficients(params.kind, channel.kind, values)
    return ClosedFormReport(coeffs, tuple(entries))
