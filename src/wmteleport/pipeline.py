"""Resource preparation and the protection sequence.

The shared resource is the four-qubit state
(|0000> + |0101> + |1010> + |1111>) / 2 on qubits (A1, A2, A3, B).
Protection acts on B only. Per weak-measurement outcome i the sequence
is: weak measurement m_i, conditional flip f_i, noise channel Kraus
element e_j, the flip f_i again, then the reversal n_i. The branch
operator for outcomes (i, j) is therefore

    g_ij = n_i f_i e_j f_i m_i.

Two summation semantics are provided, selected by PipelineMode:

* PAPER_LITERAL ("paper"): all four branch amplitudes are summed
  coherently into a single pure state, which is then normalized.
* PHYSICAL_MIXED ("physical"): branches are combined as an incoherent
  mixture, renormalized once; the retained trace is reported as the
  success probability of the filtering stages.
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
    """Protected four-qubit resource on (A1, A2, A3, B).

    Exactly one of `pure` (PAPER_LITERAL) or `rho` (PHYSICAL_MIXED) is
    set; `success_probability` is the retained trace of the mixed
    pipeline and None in the pure mode.
    """

    mode: PipelineMode
    pure: PureState | None = None
    rho: MixedState | None = None
    success_probability: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "mode", _coerce_mode(self.mode))
        if self.mode is PipelineMode.PAPER_LITERAL:
            if self.pure is None or self.rho is not None:
                raise ValueError("paper-literal shared state must carry a pure state")
            if self.pure.num_qubits != 4:
                raise ValueError("shared state must live on 4 qubits")
        else:
            if self.rho is None or self.pure is not None:
                raise ValueError("physical-mixed shared state must carry a density matrix")
            if self.rho.num_qubits != 4:
                raise ValueError("shared state must live on 4 qubits")
            if self.success_probability is not None and not (
                0.0 < self.success_probability <= 1.0 + 1e-12
            ):
                raise ValueError(
                    f"success probability must be in (0, 1], got {self.success_probability}"
                )

    @property
    def num_qubits(self) -> int:
        return 4


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
    branch_states = (_PSI0 @ branches.swapaxes(-1, -2)).reshape(-1, 16)
    if mode is PipelineMode.PAPER_LITERAL:
        vec = branch_states.sum(axis=0)
        nrm2 = float(np.vdot(vec, vec).real)
        if nrm2 < ZERO_NORM_TOL:
            raise ValueError(
                "protection pipeline produced a zero-norm state; "
                "the chosen parameters annihilate every branch"
            )
        return SharedState(mode, pure=PureState(4, vec / math.sqrt(nrm2)))
    rho = branch_states.T @ branch_states.conj()
    retained = float(np.trace(rho).real)
    if retained < ZERO_NORM_TOL:
        raise ValueError(
            "protection pipeline produced a zero-trace mixture; "
            "the chosen parameters annihilate every branch"
        )
    rho /= retained
    rho = 0.5 * (rho + rho.conj().T)
    return SharedState(
        mode,
        rho=MixedState(4, rho),
        success_probability=min(retained, 1.0),
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
