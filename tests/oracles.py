"""Reference helpers that only the tests use, kept out of the library."""

import numpy as np

from densecode.channels import apply_channel
from densecode.qcore import (DensityOp, apply_local_unitary, dag, partial_trace,
                             partial_trace_matrix, tensor)


def eigvals_hermitian(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, sorted descending.

    Backed by LAPACK (numpy.linalg.eigvalsh); rejects matrices that are not
    Hermitian within 1e-8.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if np.abs(a - dag(a)).max() > 1e-8:
        raise ValueError("matrix is not Hermitian within 1e-8")
    return np.linalg.eigvalsh(a)[::-1]


def twirl_expected_matrix(rho: DensityOp, targets) -> np.ndarray:
    """Reference value I/d_targets (x) rho_rest for the twirl, assembled by
    an index-wise route independent of the Pauli average."""
    targets = sorted(targets)
    n = rho.n_qubits
    rest = [q for q in range(n) if q not in targets]
    if rest:
        rest_mat = partial_trace_matrix(rho.matrix, rest, n)
    else:
        rest_mat = np.ones((1, 1), dtype=complex)
    k = len(targets)
    full = tensor(np.eye(1 << k, dtype=complex) / (1 << k), rest_mat)
    perm = targets + rest
    inv = np.argsort(perm)
    t = full.reshape([2] * (2 * n))
    t = t.transpose(list(inv) + [i + n for i in inv])
    return t.reshape(rho.dim, rho.dim)


def side_state_full_register(state, spec, side: int, unitaries) -> np.ndarray:
    """The side-``side`` state on the full register: each qubit of the side's
    sender group encoded with its unitary, every sender sent through the
    channel, then everything off the side traced out."""
    layout = state.layout
    encoded = state
    for q, u in zip(layout.group_indices(side), unitaries, strict=True):
        encoded = apply_local_unitary(encoded, [q], u)
    noisy = apply_channel(encoded.density(), spec)
    return partial_trace(noisy, layout.side_indices(side)).matrix
