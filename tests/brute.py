"""Independent brute-force oracle.

Everything here is re-derived from scratch on purpose: operators are
written out literally, lifting is a naive Kronecker chain over all five
qubits, the partial trace loops over index bits, and input averaging is
Monte-Carlo. None of the package's algebra is reused, so agreement is
evidence, not tautology.

The batch evaluator precomputes, per measurement outcome, small
reduction matrices from full 32-dimensional naive constructions and
then evaluates the per-sample quadratic form; `brute_fidelity` is the
fully naive single-input route used to validate the batch evaluator on
a handful of samples.
"""

import numpy as np

I2 = np.eye(2, dtype=complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def lift_naive(op, num_qubits, target):
    out = np.array([[1.0 + 0.0j]])
    for pos in range(num_qubits):
        out = np.kron(out, op if pos == target else I2)
    return out


def partial_trace_naive(rho, keep, num_qubits):
    keep = sorted(keep)
    traced = [i for i in range(num_qubits) if i not in keep]
    dk = 2 ** len(keep)
    out = np.zeros((dk, dk), dtype=complex)

    def full_index(keep_bits, traced_bits):
        bits = [0] * num_qubits
        for qubit, bit in zip(keep, keep_bits):
            bits[qubit] = bit
        for qubit, bit in zip(traced, traced_bits):
            bits[qubit] = bit
        idx = 0
        for bit in bits:
            idx = (idx << 1) | bit
        return idx

    def bit_tuple(value, width):
        return tuple((value >> (width - 1 - k)) & 1 for k in range(width))

    for row in range(dk):
        for col in range(dk):
            acc = 0.0 + 0.0j
            for t in range(2 ** len(traced)):
                tb = bit_tuple(t, len(traced))
                acc += rho[
                    full_index(bit_tuple(row, len(keep)), tb),
                    full_index(bit_tuple(col, len(keep)), tb),
                ]
            out[row, col] = acc
    return out


def brute_wm(protocol, a, b, i):
    if protocol == "I":
        c, s = np.cos(a / 2.0), np.sin(a / 2.0)
        return np.diag([c, s]).astype(complex) if i == 0 else np.diag([s, c]).astype(complex)
    kp, km = np.sqrt((1.0 + a) / 2.0), np.sqrt((1.0 - a) / 2.0)
    return np.diag([kp, km]).astype(complex) if i == 0 else np.diag([km, kp]).astype(complex)


def brute_wmr(protocol, a, b, i):
    if protocol == "I":
        return np.diag([b, 1.0]).astype(complex) if i == 0 else np.diag([1.0, b]).astype(complex)
    kp, km = np.sqrt((1.0 + b) / 2.0), np.sqrt((1.0 - b) / 2.0)
    return np.diag([kp, km]).astype(complex) if i == 0 else np.diag([km, kp]).astype(complex)


def brute_kraus(kind, r):
    if kind == "adc":
        return [
            np.diag([1.0, np.sqrt(1.0 - r)]).astype(complex),
            np.array([[0.0, np.sqrt(r)], [0.0, 0.0]], dtype=complex),
        ]
    if kind == "bfc":
        return [np.sqrt(1.0 - r) * I2, np.sqrt(r) * SX]
    if kind == "pfc":
        return [np.sqrt(1.0 - r) * I2, np.sqrt(r) * SZ]
    raise ValueError(kind)


def brute_initial():
    psi = np.zeros(16, dtype=complex)
    for idx in (0b0000, 0b0101, 0b1010, 0b1111):
        psi[idx] = 0.5
    return psi


def brute_branch_vectors(protocol, a, b, kind, r):
    """The four (unnormalized) branch states on the 4-qubit register,
    every stage lifted to qubit 3 as a full 16x16 matrix."""
    psi0 = brute_initial()
    flips = [I2, SX]
    vecs = []
    for i in (0, 1):
        stage = (
            lift_naive(brute_wmr(protocol, a, b, i), 4, 3)
            @ lift_naive(flips[i], 4, 3)
        )
        pre = lift_naive(flips[i], 4, 3) @ lift_naive(
            brute_wm(protocol, a, b, i), 4, 3
        )
        for e in brute_kraus(kind, r):
            vecs.append(stage @ lift_naive(e, 4, 3) @ pre @ psi0)
    return vecs


def brute_protect(protocol, a, b, kind, r, mode):
    """Returns ("pure", vec) or ("mixed", rho), normalized."""
    return _brute_state(brute_branch_vectors(protocol, a, b, kind, r), mode)


def brute_baseline(kind, r, mode):
    """The unprotected resource: the channel alone on qubit 3, no
    weak measurement, flip or reversal. Same return as brute_protect."""
    psi0 = brute_initial()
    return _brute_state([lift_naive(e, 4, 3) @ psi0 for e in brute_kraus(kind, r)], mode)


def _brute_state(vecs, mode):
    if mode == "paper":
        total = sum(vecs)
        nrm = np.linalg.norm(total)
        if nrm**2 < 1e-14:
            raise ValueError("annihilated")
        return ("pure", total / nrm)
    rho = sum(np.outer(v, v.conj()) for v in vecs)
    tr = np.trace(rho).real
    if tr < 1e-14:
        raise ValueError("annihilated")
    return ("mixed", rho / tr)


ETA = np.zeros((4, 16), dtype=complex)
for _row, _support in enumerate(
    (
        ((0b0000, 1), (0b0101, 1), (0b1010, 1), (0b1111, 1)),
        ((0b0000, 1), (0b0101, 1), (0b1010, -1), (0b1111, -1)),
        ((0b0010, 1), (0b0111, 1), (0b1000, 1), (0b1101, 1)),
        ((0b0010, 1), (0b0111, 1), (0b1000, -1), (0b1101, -1)),
    )
):
    for _idx, _sign in _support:
        ETA[_row, _idx] = 0.5 * _sign

CORRECTIONS = [I2, SZ, SX, SZ @ SX]


def brute_teleport_outcomes(state, x):
    """Fully naive route: 32x32 joint density matrix, projector per
    outcome, naive partial trace to the last qubit, correction,
    overlap. Returns [(probability, fidelity)] for the four outcomes."""
    kind, payload = state
    if kind == "pure":
        joint_vec = np.kron(x, payload)
        rho_joint = np.outer(joint_vec, joint_vec.conj())
    else:
        rho_joint = np.kron(np.outer(x, x.conj()), payload)
    outs = []
    for k in range(4):
        proj = np.kron(np.outer(ETA[k], ETA[k].conj()), I2)
        rho_p = proj @ rho_joint @ proj.conj().T
        p = np.trace(rho_p).real
        rho_b = partial_trace_naive(rho_p, [4], 5)
        u = CORRECTIONS[k]
        if p < 1e-14:
            outs.append((p, 0.0))
            continue
        rho_r = u @ rho_b @ u.conj().T / p
        outs.append((p, float((x.conj() @ rho_r @ x).real)))
    return outs


def brute_fidelity(state, x):
    return sum(p * f for p, f in brute_teleport_outcomes(state, x))


def _reduction_matrices(state):
    """Per outcome k, matrices C[k][s,t] (2x2 each) built from naive
    32-dimensional projections such that the outcome contribution for
    input x is sum_st x[s] conj(x[t]) * (x^dag C[k][s,t] x)."""
    kind, payload = state
    if kind == "pure":
        rho = np.outer(payload, payload.conj())
    else:
        rho = payload
    basis = np.eye(2, dtype=complex)
    red = np.zeros((4, 2, 2, 2, 2), dtype=complex)
    for k in range(4):
        u = CORRECTIONS[k]
        kmat = np.kron(ETA[k].conj().reshape(1, 16), I2)  # 2 x 32
        for s in range(2):
            for t in range(2):
                block = np.kron(np.outer(basis[s], basis[t].conj()), rho)
                red[k, s, t] = u @ (kmat @ block @ kmat.conj().T) @ u.conj().T
    return red


def brute_fidelities_batch(state, xs):
    """Vectorized evaluation of brute_fidelity over inputs xs (n, 2)."""
    red = _reduction_matrices(state)
    pair = np.einsum("ns,nt->nst", xs, xs.conj())
    form = np.einsum("nb,kstbd,nd->nkst", xs.conj(), red, xs, optimize=True)
    return np.einsum("nst,nkst->n", pair, form, optimize=True).real


def sample_inputs(rng, n, measure="haar"):
    if measure == "haar":
        z = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        return z / np.linalg.norm(z, axis=1, keepdims=True)
    if measure == "polar":
        t = np.arccos(rng.uniform(-1.0, 1.0, size=n))
        return np.stack([np.cos(t), np.sin(t)], axis=1).astype(complex)
    raise ValueError(measure)


def brute_mc_average(state, rng, n=100_000, measure="haar", chunk=20_000):
    """Monte-Carlo input average; returns (mean, standard error)."""
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n:
        m = min(chunk, n - done)
        f = brute_fidelities_batch(state, sample_inputs(rng, m, measure))
        total += f.sum()
        total_sq += (f**2).sum()
        done += m
    mean = total / n
    var = max(total_sq / n - mean**2, 0.0)
    return mean, np.sqrt(var / n)
