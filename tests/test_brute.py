import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wmteleport.operators import kraus_set, stage_diagonals

from brute import ETA, lift_naive, partial_trace_naive

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

GHZ_LIKE = ("0000", "0101", "1010", "1111")


def basis(num_qubits, bits):
    vec = np.zeros(2**num_qubits, dtype=complex)
    vec[int(bits, 2)] = 1.0
    return vec


def resource_vector():
    psi = np.zeros(16, dtype=complex)
    for bits in GHZ_LIKE:
        psi[int(bits, 2)] = 0.5
    return psi


def density(vec):
    return np.outer(vec, vec.conj())


def complex_matrices(n):
    return arrays(
        np.complex128,
        (n, n),
        elements=st.complex_numbers(
            min_magnitude=0.0, max_magnitude=2.0, allow_nan=False, allow_infinity=False
        ),
    )


# The oracle's naive lift and partial trace, and the physics facts the
# package's branch-operator engine relies on, checked on known cases.


def test_ket_index_reads_leftmost_as_most_significant():
    # a flip of qubit 0 moves |0000> to index 0b1000 = 8
    moved = lift_naive(SX, 4, 0) @ basis(4, "0000")
    assert moved[8] == 1.0 and np.count_nonzero(moved) == 1


def test_lift_single_qubit_flip():
    np.testing.assert_array_equal(lift_naive(SX, 1, 0), SX)


def test_lift_flip_last_of_four():
    # qubit 3 (the receiver's B) is the least significant bit
    moved = lift_naive(SX, 4, 3) @ basis(4, "0000")
    np.testing.assert_allclose(moved, basis(4, "0001"))


def test_lift_trivial_kraus_is_identity():
    e0 = kraus_set("adc", 0.0)[0]
    np.testing.assert_array_equal(lift_naive(e0, 4, 3), np.eye(16))


def test_apply_weak_measurement_balanced():
    psi = resource_vector()
    m0 = np.diag(stage_diagonals("I", [np.pi / 2], [0.5])[0][0])
    out = lift_naive(m0, 4, 3) @ psi
    np.testing.assert_allclose(out, psi / np.sqrt(2.0))


def test_apply_damping_jump():
    e1 = kraus_set("adc", 1.0)[1]
    out = lift_naive(e1, 4, 3) @ basis(4, "0001")
    np.testing.assert_allclose(out, basis(4, "0000"))


def test_partial_trace_product_state():
    a = np.array([1.0, 0.0], dtype=complex)
    b = np.array([0.6, 0.8], dtype=complex)
    reduced = partial_trace_naive(density(np.kron(a, b)), [0], 2)
    np.testing.assert_allclose(reduced, np.outer(a, a.conj()), atol=1e-15)


def test_partial_trace_bell_pair():
    bell = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
    reduced = partial_trace_naive(density(bell), [0], 2)
    np.testing.assert_allclose(reduced, np.eye(2) / 2.0, atol=1e-15)


def test_partial_trace_resource_to_last_qubit():
    extended = np.kron(np.array([0.6, 0.8], dtype=complex), resource_vector())
    reduced = partial_trace_naive(density(extended), [4], 5)
    np.testing.assert_allclose(reduced, np.eye(2) / 2.0, atol=1e-15)


def test_project_entangled_measurement_splits_input():
    # <eta_1| on (input, A1, A2, A3) leaves the input on B, at amplitude 1/2
    alpha, beta = 0.6, 0.8
    joint = np.kron(np.array([alpha, beta], dtype=complex), resource_vector())
    residual = ETA[0].conj() @ joint.reshape(16, 2)
    np.testing.assert_allclose(residual, np.array([alpha, beta]) / 2.0)


@given(
    complex_matrices(2),
    complex_matrices(2),
    st.integers(min_value=2, max_value=4),
    st.data(),
)
def test_lift_respects_products(a, b, n, data):
    target = data.draw(st.integers(min_value=0, max_value=n - 1))
    lifted = lift_naive(a @ b, n, target)
    composed = lift_naive(a, n, target) @ lift_naive(b, n, target)
    np.testing.assert_allclose(lifted, composed, atol=1e-12)


@settings(max_examples=25)
@given(
    arrays(
        np.complex128,
        (8,),
        elements=st.complex_numbers(
            min_magnitude=0.0, max_magnitude=1.0, allow_nan=False, allow_infinity=False
        ),
    ).filter(lambda v: np.linalg.norm(v) > 1e-3),
    st.sampled_from([(0,), (1,), (2,), (0, 1), (1, 2), (0, 2)]),
)
def test_partial_trace_preserves_trace_and_hermiticity(vec, keep):
    reduced = partial_trace_naive(density(vec / np.linalg.norm(vec)), list(keep), 3)
    np.testing.assert_almost_equal(np.trace(reduced).real, 1.0)
    np.testing.assert_allclose(reduced, reduced.conj().T, atol=1e-12)


def test_partial_trace_of_everything_is_identity_map():
    rng = np.random.default_rng(11)
    vec = rng.normal(size=8) + 1j * rng.normal(size=8)
    rho = density(vec / np.linalg.norm(vec))
    kept = partial_trace_naive(rho, [0, 1, 2], 3)
    np.testing.assert_allclose(kept, rho, atol=1e-15)

