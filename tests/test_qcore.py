import math

import numpy as np
import pytest

from densecode.qcore import (DensityOp, PureState, RegisterLayout,
                             apply_local_unitary, binary_entropy, dag,
                             entropy_from_eigs, partial_trace,
                             partial_trace_matrix, tensor, von_neumann_entropy)

from oracles import eigvals_hermitian

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def random_unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_pure(rng, n):
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return v / np.linalg.norm(v)


def random_density(rng, n, rank=None):
    d = 1 << n
    rank = rank or d
    a = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = a @ a.conj().T
    return m / np.trace(m)


def naive_partial_trace(mat, keep, n):
    """Index-summation oracle, independent of the einsum implementation."""
    keep = sorted(keep)
    traced = [q for q in range(n) if q not in keep]
    dk = 1 << len(keep)
    out = np.zeros((dk, dk), dtype=complex)

    def full_index(kept_bits, traced_bits):
        idx = 0
        for q in range(n):
            if q in keep:
                bit = kept_bits[keep.index(q)]
            else:
                bit = traced_bits[traced.index(q)]
            idx = (idx << 1) | bit
        return idx

    for i in range(dk):
        ib = [(i >> (len(keep) - 1 - j)) & 1 for j in range(len(keep))]
        for j in range(dk):
            jb = [(j >> (len(keep) - 1 - k)) & 1 for k in range(len(keep))]
            for t in range(1 << len(traced)):
                tb = [(t >> (len(traced) - 1 - k)) & 1 for k in range(len(traced))]
                out[i, j] += mat[full_index(ib, tb), full_index(jb, tb)]
    return out


# ---------------------------------------------------------------------------
# tensor
# ---------------------------------------------------------------------------

def test_tensor_identity():
    assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_bit_flip():
    v00 = np.array([1, 0, 0, 0], dtype=complex)
    out = tensor(SX, SX) @ v00
    assert np.allclose(out, [0, 0, 0, 1])


def test_tensor_mixed_product_rule():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a, b, c, d = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                      for _ in range(4))
        lhs = tensor(a, b) @ tensor(c, d)
        rhs = tensor(a @ c, b @ d)
        assert np.abs(lhs - rhs).max() < 1e-12


# ---------------------------------------------------------------------------
# partial trace
# ---------------------------------------------------------------------------

def test_partial_trace_ghz_marginal():
    layout = RegisterLayout.split(2)
    amps = np.zeros(16, dtype=complex)
    amps[0] = amps[15] = 1 / math.sqrt(2)
    rho = PureState(amps, layout).density()
    red = partial_trace(rho, [0, 2])  # S1, R1
    assert np.abs(red.matrix - np.diag([0.5, 0, 0, 0.5])).max() < 1e-12
    assert red.layout.roles == ("S1", "R1")


def test_partial_trace_product_case():
    layout = RegisterLayout(roles=("A", "R1", "R2"))
    amps = np.zeros(8, dtype=complex)
    amps[0b010] = 1.0  # |0 1 0>
    rho = PureState(amps, layout).density()
    red = partial_trace(rho, [1])
    assert np.abs(red.matrix - np.diag([0, 1])).max() < 1e-12


def test_partial_trace_against_naive_oracle():
    rng = np.random.default_rng(7)
    for keep in ([0], [1, 3], [0, 2], [0, 1, 2]):
        mat = random_density(rng, 4)
        got = partial_trace_matrix(mat, keep, 4)
        want = naive_partial_trace(mat, keep, 4)
        assert np.abs(got - want).max() < 1e-12
        assert abs(np.trace(got) - 1.0) < 1e-12


def test_partial_trace_two_steps_compose():
    rng = np.random.default_rng(8)
    mat = random_density(rng, 4)
    one = partial_trace_matrix(mat, [0], 4)
    two = partial_trace_matrix(partial_trace_matrix(mat, [0, 2], 4), [0], 2)
    assert np.abs(one - two).max() < 1e-12


def test_partial_trace_invalid_index():
    layout = RegisterLayout.split(2)
    rho = DensityOp(np.eye(16) / 16, layout)
    with pytest.raises(ValueError):
        partial_trace(rho, [])
    with pytest.raises(ValueError):
        partial_trace(rho, [4])


# ---------------------------------------------------------------------------
# eigensolver
# ---------------------------------------------------------------------------

def test_eigvals_diagonal():
    assert np.allclose(eigvals_hermitian(np.diag([0.97, 0.03])), [0.97, 0.03])


def test_eigvals_pauli_spectrum():
    assert np.allclose(eigvals_hermitian(SX), [1, -1])


def test_eigvals_descending_and_reconstruction():
    rng = np.random.default_rng(12)
    for _ in range(25):
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        a = (a + dag(a)) / 2
        vals = eigvals_hermitian(a)
        assert np.all(np.diff(vals) <= 1e-12)
        w, v = np.linalg.eigh(a)
        assert np.abs(a - (v * w) @ dag(v)).max() < 1e-9
        assert np.abs(vals - w[::-1]).max() < 1e-10


def test_eigvals_rejects_non_hermitian():
    with pytest.raises(ValueError):
        eigvals_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


# ---------------------------------------------------------------------------
# entropies
# ---------------------------------------------------------------------------

def test_entropy_pure_state_zero():
    rng = np.random.default_rng(13)
    v = random_pure(rng, 3)
    assert abs(von_neumann_entropy(np.outer(v, v.conj()))) < 1e-10


def test_entropy_maximally_mixed():
    assert abs(von_neumann_entropy(np.eye(4) / 4) - 2.0) < 1e-12


def test_entropy_direct_formula_oracle():
    # direct -sum(p log2 p) evaluation
    expected = -(0.97 * math.log2(0.97) + 0.03 * math.log2(0.03))
    assert abs(expected - 0.194391857846) < 1e-9
    assert abs(von_neumann_entropy(np.diag([0.97, 0.03])) - expected) < 1e-12


def test_entropy_from_eigs_stacks():
    # a stack gives one entropy per last-axis vector, each equal to the
    # single-vector value; zero and rounding-negative entries contribute 0
    w = np.array([[[0.5, 0.5], [1.0, 0.0]], [[0.97, 0.03], [-1e-17, 1.0]]])
    got = entropy_from_eigs(w)
    assert got.shape == (2, 2)
    for idx in np.ndindex(2, 2):
        assert got[idx] == entropy_from_eigs(w[idx])
    want = [[1.0, 0.0], [binary_entropy(0.97), 0.0]]
    assert np.abs(got - want).max() < 1e-15
    assert isinstance(entropy_from_eigs([0.25] * 4), float)


def test_binary_entropy_values():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    direct = -(0.8 * math.log2(0.8) + 0.2 * math.log2(0.2))
    assert abs(direct - 0.721928094887) < 1e-9
    assert abs(binary_entropy(0.8) - direct) < 1e-15


def test_binary_entropy_symmetry_and_domain():
    for x in np.linspace(0, 1, 21):
        assert abs(binary_entropy(x) - binary_entropy(1 - x)) < 1e-12
    with pytest.raises(ValueError):
        binary_entropy(-0.001)
    with pytest.raises(ValueError):
        binary_entropy(1.001)


# ---------------------------------------------------------------------------
# local unitaries
# ---------------------------------------------------------------------------

def test_apply_unitary_bit_flip():
    layout = RegisterLayout.split(2)
    amps = np.zeros(16, dtype=complex)
    amps[0] = 1.0
    out = apply_local_unitary(PureState(amps, layout), [0], SX)
    assert out.amplitudes[0b1000] == 1.0


def test_apply_unitary_identity():
    layout = RegisterLayout.split(2)
    rng = np.random.default_rng(14)
    st = PureState(random_pure(rng, 4), layout)
    out = apply_local_unitary(st, [1], np.eye(2))
    assert np.abs(out.amplitudes - st.amplitudes).max() < 1e-15


def test_apply_unitary_rejects_non_unitary():
    layout = RegisterLayout.split(2)
    st = PureState(np.eye(16)[0].astype(complex), layout)
    with pytest.raises(ValueError):
        apply_local_unitary(st, [0], np.array([[1, 1], [0, 1]], dtype=complex))


def test_entropy_invariant_under_unitary():
    rng = np.random.default_rng(15)
    layout = RegisterLayout.split(2)
    for _ in range(100):
        rho = DensityOp(random_density(rng, 4, rank=3), layout)
        u = random_unitary(rng, 4)
        rotated = apply_local_unitary(rho, [0, 2], u)
        assert abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho)) < 1e-12


def test_schmidt_consistency():
    # nonzero spectra of the two sides of a pure-state cut agree
    rng = np.random.default_rng(16)
    for _ in range(100):
        v = random_pure(rng, 4)
        rho = np.outer(v, v.conj())
        cut = sorted(rng.choice(4, size=rng.integers(1, 3), replace=False))
        rest = [q for q in range(4) if q not in cut]
        wa = np.linalg.eigvalsh(partial_trace_matrix(rho, cut, 4))[::-1]
        wb = np.linalg.eigvalsh(partial_trace_matrix(rho, rest, 4))[::-1]
        k = min(len(wa), len(wb))
        assert np.abs(wa[:k] - wb[:k]).max() < 1e-10


def test_subadditivity_spot_check():
    rng = np.random.default_rng(17)
    for _ in range(100):
        mat = random_density(rng, 2, rank=rng.integers(1, 5))
        s_ab = von_neumann_entropy(mat)
        s_a = von_neumann_entropy(partial_trace_matrix(mat, [0], 2))
        s_b = von_neumann_entropy(partial_trace_matrix(mat, [1], 2))
        assert s_ab <= s_a + s_b + 1e-10


# ---------------------------------------------------------------------------
# layout and value types
# ---------------------------------------------------------------------------

def test_layout_split_reference():
    layout = RegisterLayout.split(2)
    assert layout.roles == ("S1", "S2", "R1", "R2")
    assert layout.routing == {"S1": "R1", "S2": "R2"}
    assert layout.side_indices(1) == (0, 2)
    assert layout.side_indices(2) == (1, 3)
    layout.require_protocol()


def test_layout_rejects_bad_routing():
    with pytest.raises(ValueError):
        RegisterLayout(roles=("S1", "R1", "R2"), routing={"S2": "R1"})
    with pytest.raises(ValueError):
        RegisterLayout(roles=("S1", "R1"), routing={"S1": "R2"})


def test_layout_require_protocol_rejects_marginal():
    marginal = RegisterLayout.split(2).restrict([0, 2])
    with pytest.raises(ValueError):
        marginal.require_protocol()


def test_density_op_validation():
    layout = RegisterLayout.split(2).restrict([0])
    with pytest.raises(ValueError):
        DensityOp(np.array([[1.0, 1.0], [0.0, 0.0]]), layout)  # not Hermitian
    with pytest.raises(ValueError):
        DensityOp(np.eye(2), layout)  # trace 2
    with pytest.raises(ValueError):
        DensityOp(np.diag([1.5, -0.5]), layout)  # negative eigenvalue


def test_pure_state_validation():
    layout = RegisterLayout.split(2)
    with pytest.raises(ValueError):
        PureState(np.ones(16), layout)
    with pytest.raises(ValueError):
        PureState(np.zeros(8), layout)
