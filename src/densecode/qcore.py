"""Dense complex linear algebra, qubit-register bookkeeping, and entropy primitives.

Conventions used throughout the package:

* Qubit 0 (the first role in a layout) is the most significant bit of a
  computational-basis index, so ``|q0 q1 ... q_{n-1}>`` maps to the integer
  ``q0*2^(n-1) + ... + q_{n-1}``.
* All entropies and capacities are in bits (logarithms base 2).
* Arrays stored on :class:`PureState` / :class:`DensityOp` are frozen
  (non-writeable); every operation returns a new value, so instances are safe
  to share across threads or processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

HERMITICITY_ATOL = 1e-10
TRACE_ATOL = 1e-10
NEGATIVITY_ATOL = 1e-10
NORM_ATOL = 1e-10
UNITARITY_ATOL = 1e-10

RECEIVER_TAGS = ("R1", "R2")


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def tensor(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of two or more operators (or vectors)."""
    if not ops:
        raise ValueError("tensor() needs at least one operand")
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=complex, copy=True)
    a.setflags(write=False)
    return a


# ---------------------------------------------------------------------------
# register layout
# ---------------------------------------------------------------------------

def half_routing(sender_tags: Sequence[str]) -> dict[str, str]:
    """The canonical routing of k senders: the first ceil(k/2), in the order
    given, to R1 and the rest to R2."""
    half = (len(sender_tags) + 1) // 2
    return {s: ("R1" if i < half else "R2") for i, s in enumerate(sender_tags)}


@dataclass(frozen=True)
class RegisterLayout:
    """Role assignment for an ordered qubit register.

    ``roles`` lists one tag per qubit, e.g. ``("S1", "S2", "R1", "R2")``.
    Tags ``R1``/``R2`` mark the receivers; every other tag is a sender.
    ``routing`` maps each sender tag to the receiver its qubit is sent to,
    which defines the decoding bipartition (side 1 = senders routed to R1
    plus R1 itself, side 2 likewise for R2).

    Marginal layouts produced by :func:`partial_trace` may lack receivers or
    routing entries; operations that need the full two-receiver protocol call
    :meth:`require_protocol` first.
    """

    roles: tuple[str, ...]
    routing: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        roles = tuple(self.roles)
        object.__setattr__(self, "roles", roles)
        if len(roles) == 0:
            raise ValueError("layout needs at least one qubit")
        if len(set(roles)) != len(roles):
            raise ValueError(f"duplicate role tags in {roles}")
        senders = set(self.sender_tags)
        receivers = {r for r in roles if r in RECEIVER_TAGS}
        for s, r in self.routing.items():
            if s not in senders:
                raise ValueError(f"routing key {s!r} is not a sender in {roles}")
            if r not in receivers:
                raise ValueError(f"routing target {r!r} is not a receiver in {roles}")

    @classmethod
    def split(cls, n_senders: int) -> "RegisterLayout":
        """Canonical protocol layout S1..Sk, R1, R2 with the
        :func:`half_routing` of its senders."""
        if n_senders < 0:
            raise ValueError("n_senders must be >= 0")
        tags = tuple(f"S{i + 1}" for i in range(n_senders))
        return cls(roles=tags + RECEIVER_TAGS, routing=half_routing(tags))

    @property
    def n_qubits(self) -> int:
        return len(self.roles)

    @property
    def dim(self) -> int:
        return 1 << len(self.roles)

    @property
    def sender_tags(self) -> tuple[str, ...]:
        return tuple(r for r in self.roles if r not in RECEIVER_TAGS)

    @property
    def sender_indices(self) -> tuple[int, ...]:
        return tuple(i for i, r in enumerate(self.roles) if r not in RECEIVER_TAGS)

    @property
    def n_senders(self) -> int:
        return len(self.sender_indices)

    def index_of(self, tag: str) -> int:
        try:
            return self.roles.index(tag)
        except ValueError:
            raise ValueError(f"tag {tag!r} not in layout {self.roles}") from None

    def receiver_index(self, side: int) -> int:
        return self.index_of(f"R{side}")

    def group_indices(self, side: int) -> tuple[int, ...]:
        """Qubit indices of the senders routed to receiver ``side``."""
        if side not in (1, 2):
            raise ValueError("side must be 1 or 2")
        target = f"R{side}"
        return tuple(i for i, r in enumerate(self.roles)
                     if self.routing.get(r) == target)

    def side_indices(self, side: int) -> tuple[int, ...]:
        """Qubits of the side-``side`` decoding bipartition (group + receiver)."""
        return tuple(sorted(self.group_indices(side) + (self.receiver_index(side),)))

    def restrict(self, keep: Sequence[int]) -> "RegisterLayout":
        """Layout for the marginal on ``keep`` (ascending original order)."""
        keep = sorted(keep)
        roles = tuple(self.roles[i] for i in keep)
        kept = set(roles)
        routing = {s: r for s, r in self.routing.items() if s in kept and r in kept}
        return RegisterLayout(roles=roles, routing=routing)

    def require_protocol(self) -> "RegisterLayout":
        """Validate the full two-receiver contract; returns self."""
        receivers = [r for r in self.roles if r in RECEIVER_TAGS]
        if sorted(receivers) != ["R1", "R2"]:
            raise ValueError(f"layout {self.roles} must contain exactly R1 and R2")
        for s in self.sender_tags:
            if s not in self.routing:
                raise ValueError(f"sender {s!r} has no routing entry")
        return self


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PureState:
    """Normalized state vector over a labeled qubit register."""

    amplitudes: np.ndarray
    layout: RegisterLayout

    def __post_init__(self):
        amps = _frozen(np.asarray(self.amplitudes).reshape(-1))
        object.__setattr__(self, "amplitudes", amps)
        if amps.size != self.layout.dim:
            raise ValueError(
                f"amplitude count {amps.size} != 2^{self.layout.n_qubits}")
        if not np.all(np.isfinite(amps)):
            raise ValueError("non-finite amplitude")
        norm = float(np.vdot(amps, amps).real)
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValueError(f"state not normalized: |psi|^2 = {norm}")

    @property
    def n_qubits(self) -> int:
        return self.layout.n_qubits

    def density(self) -> "DensityOp":
        return DensityOp(np.outer(self.amplitudes, self.amplitudes.conj()),
                         self.layout)


@dataclass(frozen=True)
class DensityOp:
    """Density matrix over a labeled qubit register.

    Construction checks Hermiticity and unit trace to 1e-10 and that no
    eigenvalue is below -1e-10.
    """

    matrix: np.ndarray
    layout: RegisterLayout

    def __post_init__(self):
        mat = _frozen(np.asarray(self.matrix))
        object.__setattr__(self, "matrix", mat)
        d = self.layout.dim
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} != ({d}, {d})")
        if not np.all(np.isfinite(mat)):
            raise ValueError("non-finite entry")
        if np.abs(mat - dag(mat)).max() > HERMITICITY_ATOL:
            raise ValueError("matrix is not Hermitian within 1e-10")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValueError(f"trace {tr} != 1 within 1e-10")
        wmin = float(np.linalg.eigvalsh(mat)[0])
        if wmin < -NEGATIVITY_ATOL:
            raise ValueError(f"negative eigenvalue {wmin}")

    @property
    def n_qubits(self) -> int:
        return self.layout.n_qubits

    @property
    def dim(self) -> int:
        return self.layout.dim


def as_density_matrix(obj) -> np.ndarray:
    """Matrix view of a PureState, DensityOp, or raw square ndarray."""
    if isinstance(obj, PureState):
        return np.outer(obj.amplitudes, obj.amplitudes.conj())
    if isinstance(obj, DensityOp):
        return obj.matrix
    return np.asarray(obj, dtype=complex)


# ---------------------------------------------------------------------------
# partial trace
# ---------------------------------------------------------------------------

def partial_trace_matrix(mat: np.ndarray, keep: Sequence[int], n: int) -> np.ndarray:
    """Partial trace of a 2^n x 2^n matrix, or of a stack of them along
    leading axes, onto the qubits in ``keep``.

    ``keep`` is interpreted in ascending qubit order regardless of the order
    given.
    """
    keep = sorted(keep)
    ket = list(range(n))
    bra = [q + n if q in keep else q for q in range(n)]
    out = [q for q in keep] + [q + n for q in keep]
    t = np.asarray(mat, dtype=complex)
    batch = t.shape[:-2]
    t = t.reshape(batch + (2,) * (2 * n))
    d = 1 << len(keep)
    return np.einsum(t, [...] + ket + bra, [...] + out).reshape(batch + (d, d))


def partial_trace(rho: DensityOp, keep: Iterable[int]) -> DensityOp:
    """Reduced state of ``rho`` on the qubit subset ``keep``.

    Args:
        rho: input state.
        keep: qubit indices to keep; must be a non-empty subset of the
            register.

    Returns:
        DensityOp on the restricted layout (original qubit order preserved).
    """
    keep = sorted(set(keep))
    n = rho.n_qubits
    if not keep:
        raise ValueError("keep must be non-empty")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"keep {keep} out of range for {n} qubits")
    reduced = partial_trace_matrix(rho.matrix, keep, n)
    return DensityOp(reduced, rho.layout.restrict(keep))


# ---------------------------------------------------------------------------
# spectra and entropies
# ---------------------------------------------------------------------------

def entropy_from_eigs(w: np.ndarray):
    """Shannon entropy (bits) of an eigenvalue/probability vector, or an
    array of entropies for a stack of vectors along the last axis.

    Values <= 0 contribute nothing (0 log 0 is 0, and eigenvalues within
    rounding of 0 may come out slightly negative).
    """
    w = np.asarray(w, dtype=float)
    pos = w > 0.0
    s = -np.where(pos, w * np.log2(np.where(pos, w, 1.0)), 0.0).sum(axis=-1)
    return float(s) if s.ndim == 0 else s


def von_neumann_entropy(rho) -> float:
    """Von Neumann entropy S(rho) = -tr(rho log2 rho) in bits.

    Accepts a DensityOp, PureState, or raw Hermitian matrix.
    """
    mat = as_density_matrix(rho)
    return entropy_from_eigs(np.linalg.eigvalsh(mat))


def binary_entropy(x: float) -> float:
    """Shannon binary entropy H(x) in bits, H(0) = H(1) = 0."""
    if x < -1e-12 or x > 1.0 + 1e-12:
        raise ValueError(f"binary_entropy argument {x} outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    if x == 0.0 or x == 1.0:
        return 0.0
    return float(-x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x))


# ---------------------------------------------------------------------------
# local operators
# ---------------------------------------------------------------------------

def _apply_on_axes(vec: np.ndarray, op: np.ndarray, targets: Sequence[int],
                   n_axes: int) -> np.ndarray:
    """Apply ``op`` to the given tensor axes of a 2^n_axes vector."""
    k = len(targets)
    t = vec.reshape([2] * n_axes)
    t = np.moveaxis(t, targets, range(k))
    t = op @ t.reshape(1 << k, -1)
    t = t.reshape([2] * n_axes)
    t = np.moveaxis(t, range(k), targets)
    return t.reshape(-1)


def apply_to_state_vector(amps: np.ndarray, op: np.ndarray,
                          targets: Sequence[int], n: int) -> np.ndarray:
    """(op on targets) |amps>."""
    return _apply_on_axes(np.asarray(amps, dtype=complex), op, list(targets), n)


def conjugate_on(mat: np.ndarray, op: np.ndarray, targets: Sequence[int],
                 n: int) -> np.ndarray:
    """(op on targets) mat (op on targets)^dagger."""
    targets = list(targets)
    v = np.asarray(mat, dtype=complex).reshape(-1)
    v = _apply_on_axes(v, op, targets, 2 * n)
    v = _apply_on_axes(v, op.conj(), [t + n for t in targets], 2 * n)
    d = 1 << n
    return v.reshape(d, d)


def _check_unitary(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("unitary must be square")
    d = u.shape[0]
    if np.abs(u @ dag(u) - np.eye(d)).max() > UNITARITY_ATOL:
        raise ValueError("operator is not unitary within 1e-10")
    return u


def apply_local_unitary(obj, targets: Sequence[int], u: np.ndarray):
    """Apply a unitary on a qubit subset of a PureState or DensityOp.

    Args:
        obj: PureState or DensityOp.
        targets: qubit indices acted on; 2^len(targets) must equal dim(u).
        u: unitary matrix (checked to 1e-10).

    Returns:
        A new object of the same type.
    """
    targets = list(targets)
    u = _check_unitary(u)
    if u.shape[0] != 1 << len(targets):
        raise ValueError(
            f"unitary dim {u.shape[0]} does not match {len(targets)} targets")
    if isinstance(obj, PureState):
        n = obj.n_qubits
        if targets and (min(targets) < 0 or max(targets) >= n):
            raise ValueError(f"targets {targets} out of range")
        return PureState(apply_to_state_vector(obj.amplitudes, u, targets, n),
                         obj.layout)
    if isinstance(obj, DensityOp):
        n = obj.n_qubits
        if targets and (min(targets) < 0 or max(targets) >= n):
            raise ValueError(f"targets {targets} out of range")
        return DensityOp(conjugate_on(obj.matrix, u, targets, n), obj.layout)
    raise TypeError(f"expected PureState or DensityOp, got {type(obj)!r}")
