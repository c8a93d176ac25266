"""Weak-measurement-protected teleportation over a 4-qubit resource.

Exact dense simulation of the protected-teleportation pipeline under
amplitude-damping, bit-flip, and phase-flip noise, with grid sweeps
that maximize the input-averaged fidelity over the protection
parameters. Import the submodules (`wmteleport.pipeline`,
`wmteleport.teleport`, `wmteleport.sweep`, ...) for the library API.
"""

__version__ = "0.1.0"
