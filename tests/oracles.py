"""Reference helpers that only the tests use, kept out of the library."""

import numpy as np

from densecode.qcore import DensityOp, dag, partial_trace_matrix, tensor


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
