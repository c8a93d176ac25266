"""Independent reference values for the benchmark's correctness checks.

Cells are recomputed with the brute-force oracle in `tests/brute.py`,
which shares no code with the package, averaged over the four-state
polar design (the measure every benchmarked command uses by default).
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import numpy as np

_THETA = math.asin(math.sqrt(8.0 / 15.0))
POLAR_DESIGN = np.array(
    [[math.cos(a / 2.0), math.sin(a / 2.0)]
     for a in (_THETA, -_THETA, math.pi - _THETA, math.pi + _THETA)],
    dtype=complex,
)


class Oracle:
    def __init__(self, root: Path):
        path = root / "tests" / "brute.py"
        spec = importlib.util.spec_from_file_location("_perfbench_brute", path)
        self.brute = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self.brute)

    def _average(self, state) -> float:
        return float(self.brute.brute_fidelities_batch(state, POLAR_DESIGN).mean())

    def fidelity(self, protocol: str, a: float, b: float, channel: str,
                 r: float, mode: str) -> float:
        """Protected average fidelity, or NaN when the oracle finds every
        branch annihilated (norm below 1e-14)."""
        try:
            state = self.brute.brute_protect(protocol, a, b, channel, r, mode)
        except ValueError:
            return math.nan
        return self._average(state)

    def baseline(self, channel: str, r: float, mode: str) -> float:
        """Average fidelity with the channel alone on the last qubit."""
        brute = self.brute
        psi0 = brute.brute_initial()
        vecs = [brute.lift_naive(e, 4, 3) @ psi0 for e in brute.brute_kraus(channel, r)]
        if mode == "paper":
            total = sum(vecs)
            state = ("pure", total / np.linalg.norm(total))
        else:
            rho = sum(np.outer(v, v.conj()) for v in vecs)
            state = ("mixed", rho / np.trace(rho).real)
        return self._average(state)
