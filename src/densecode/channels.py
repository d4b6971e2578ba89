"""Kraus-operator noise models, Pauli operator bases and covariance checks.

Channels act on the senders' qubits only. Amplitude and phase damping are
local (one independent single-qubit channel per sender wire, with a strength
parameter per sender group); Pauli noise acts on the joint sender space,
either fully correlated (the same sigma_m on every sender qubit) or with a
general 4x4 weight matrix q_mn (sigma_m on the first sender, sigma_n on the
second; restricted to two single-qubit senders).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .qcore import DensityOp, RegisterLayout, conjugate_on, dag, tensor

COMPLETENESS_ATOL = 1e-10

SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

AMPLITUDE_DAMPING = "amplitude_damping"
PHASE_DAMPING = "phase_damping"
PAULI = "pauli"
IDENTITY = "identity"


@dataclass(frozen=True)
class ChannelSpec:
    """One of the supported noise families with its parameters.

    group_params holds the per-sender-group strength (gamma for amplitude
    damping, p for phase damping). q is either a length-4 probability vector
    (correlated=True) or a 4x4 matrix q_mn over sigma_m (x) sigma_n.
    """

    family: str
    group_params: tuple[float, float] | None = None
    q: np.ndarray | None = None
    correlated: bool = False

    def __post_init__(self):
        if self.family not in (IDENTITY, AMPLITUDE_DAMPING, PHASE_DAMPING, PAULI):
            raise ValueError(f"unknown channel family {self.family!r}")
        if self.family in (AMPLITUDE_DAMPING, PHASE_DAMPING):
            gp = self.group_params
            if gp is None or len(gp) != 2:
                raise ValueError(f"{self.family} needs two group parameters")
            for g in gp:
                if not 0.0 <= g <= 1.0:
                    raise ValueError(f"{self.family} parameter {g} outside [0, 1]")
            object.__setattr__(self, "group_params", (float(gp[0]), float(gp[1])))
        if self.family == PAULI:
            q = np.array(self.q, dtype=float)
            expected = (4,) if self.correlated else (4, 4)
            if q.shape != expected:
                raise ValueError(f"pauli weights must have shape {expected}, got {q.shape}")
            if q.min() < 0.0:
                raise ValueError("pauli weights must be non-negative")
            if abs(q.sum() - 1.0) > 1e-12:
                raise ValueError(f"pauli weights must sum to 1, got {q.sum()!r}")
            q.setflags(write=False)
            object.__setattr__(self, "q", q)

    @classmethod
    def identity(cls) -> "ChannelSpec":
        return cls(family=IDENTITY)

    @classmethod
    def amplitude_damping(cls, gamma1: float, gamma2: float) -> "ChannelSpec":
        return cls(family=AMPLITUDE_DAMPING, group_params=(gamma1, gamma2))

    @classmethod
    def phase_damping(cls, p1: float, p2: float) -> "ChannelSpec":
        return cls(family=PHASE_DAMPING, group_params=(p1, p2))

    @classmethod
    def pauli_correlated(cls, q) -> "ChannelSpec":
        return cls(family=PAULI, q=np.asarray(q, dtype=float), correlated=True)

    @classmethod
    def pauli_general(cls, q_matrix) -> "ChannelSpec":
        return cls(family=PAULI, q=np.asarray(q_matrix, dtype=float), correlated=False)

    @property
    def is_identity(self) -> bool:
        return self.family == IDENTITY


def parse_channel(text: str) -> ChannelSpec:
    """Parse the CLI channel grammar.

    ``none`` | ``ad:<g1>,<g2>`` | ``pd:<p1>,<p2>`` | ``pauli:<q0>,<q1>,<q2>,<q3>``
    | ``pauli-gen:<16 comma-separated q_mn, row-major>``.
    """
    text = text.strip()
    if text in ("none", "identity", ""):
        return ChannelSpec.identity()
    if ":" not in text:
        raise ValueError(f"malformed channel spec {text!r}")
    head, _, payload = text.partition(":")
    try:
        vals = [float(v) for v in payload.split(",")]
    except ValueError:
        raise ValueError(f"non-numeric channel parameter in {payload!r}") from None
    if head == "ad":
        if len(vals) != 2:
            raise ValueError("ad channel needs exactly two parameters")
        return ChannelSpec.amplitude_damping(*vals)
    if head == "pd":
        if len(vals) != 2:
            raise ValueError("pd channel needs exactly two parameters")
        return ChannelSpec.phase_damping(*vals)
    if head == "pauli":
        if len(vals) != 4:
            raise ValueError("pauli channel needs exactly four weights")
        return ChannelSpec.pauli_correlated(vals)
    if head == "pauli-gen":
        if len(vals) != 16:
            raise ValueError("pauli-gen channel needs exactly 16 weights")
        return ChannelSpec.pauli_general(np.array(vals).reshape(4, 4))
    raise ValueError(f"unknown channel family {head!r}")


@dataclass(frozen=True)
class KrausSet:
    """A CPTP map as a list of equal-dimension Kraus operators.

    Construction verifies the completeness relation sum_i M_i^dag M_i = I
    to 1e-10.
    """

    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(np.asarray(m, dtype=complex) for m in self.operators)
        if not ops:
            raise ValueError("KrausSet needs at least one operator")
        d = ops[0].shape[0]
        for m in ops:
            if m.shape != (d, d):
                raise ValueError("Kraus operators must share one square dimension")
        acc = sum(dag(m) @ m for m in ops)
        if np.abs(acc - np.eye(d)).max() > COMPLETENESS_ATOL:
            raise ValueError("Kraus completeness sum M^dag M = I violated")
        object.__setattr__(self, "operators", ops)

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]


def single_qubit_kraus(family: str, param: float) -> list[np.ndarray]:
    """Kraus operators of the single-qubit damping channels."""
    if family == AMPLITUDE_DAMPING:
        g = param
        return [np.array([[1, 0], [0, np.sqrt(1 - g)]], dtype=complex),
                np.array([[0, np.sqrt(g)], [0, 0]], dtype=complex)]
    if family == PHASE_DAMPING:
        p = param
        return [np.sqrt(1 - p) * np.eye(2, dtype=complex),
                np.array([[np.sqrt(p), 0], [0, 0]], dtype=complex),
                np.array([[0, 0], [0, np.sqrt(p)]], dtype=complex)]
    raise ValueError(f"no single-qubit Kraus form for family {family!r}")


def _group_param_by_qubit(spec: ChannelSpec, layout: RegisterLayout) -> dict[int, float]:
    g1, g2 = spec.group_params
    out = {}
    for q in layout.group_indices(1):
        out[q] = g1
    for q in layout.group_indices(2):
        out[q] = g2
    return out


def _require_single_qubit_groups(layout: RegisterLayout):
    if len(layout.group_indices(1)) != 1 or len(layout.group_indices(2)) != 1:
        raise ValueError("general pauli noise supports exactly one sender qubit "
                         "per receiver group")


def kraus_for(spec: ChannelSpec, layout: RegisterLayout) -> KrausSet:
    """Kraus operators of the channel on the full sender space.

    Operator tensor factors follow ascending sender-qubit order; the set is
    meant to be applied on ``layout.sender_indices``.
    """
    layout.require_protocol()
    senders = layout.sender_indices
    if not senders:
        raise ValueError("layout has no senders")
    if spec.family == IDENTITY:
        return KrausSet((np.eye(1 << len(senders), dtype=complex),))
    if spec.family in (AMPLITUDE_DAMPING, PHASE_DAMPING):
        by_qubit = _group_param_by_qubit(spec, layout)
        factors = [single_qubit_kraus(spec.family, by_qubit[q]) for q in senders]
        return KrausSet(tuple(tensor(*combo) for combo in product(*factors)))
    # Pauli
    if spec.correlated:
        ops = tuple(np.sqrt(qm) * tensor(*([SIGMA[m]] * len(senders)))
                    for m, qm in enumerate(spec.q) if qm > 0.0)
        return KrausSet(ops)
    _require_single_qubit_groups(layout)
    [first] = layout.group_indices(1)
    ops = []
    for m in range(4):
        for n in range(4):
            if spec.q[m, n] <= 0.0:
                continue
            factors = [SIGMA[m] if q == first else SIGMA[n] for q in senders]
            ops.append(np.sqrt(spec.q[m, n]) * tensor(*factors))
    return KrausSet(tuple(ops))


def marginal_kraus(spec: ChannelSpec, layout: RegisterLayout, side: int) -> KrausSet:
    """Effective channel seen by one sender group after the other side is
    traced out.

    Valid for every supported family: damping channels factor across wires,
    and for Pauli noise the traced-out sigmas conjugate away, leaving the
    row/column marginal weights (general Pauli needs one-qubit groups).
    """
    layout.require_protocol()
    group = layout.group_indices(side)
    if not group:
        raise ValueError(f"side {side} has no sender qubits")
    gs = len(group)
    if spec.family == IDENTITY:
        return KrausSet((np.eye(1 << gs, dtype=complex),))
    if spec.family in (AMPLITUDE_DAMPING, PHASE_DAMPING):
        g = spec.group_params[side - 1]
        factors = [single_qubit_kraus(spec.family, g)] * gs
        return KrausSet(tuple(tensor(*combo) for combo in product(*factors)))
    if spec.correlated:
        ops = tuple(np.sqrt(qm) * tensor(*([SIGMA[m]] * gs))
                    for m, qm in enumerate(spec.q) if qm > 0.0)
        return KrausSet(ops)
    _require_single_qubit_groups(layout)
    weights = spec.q.sum(axis=1) if side == 1 else spec.q.sum(axis=0)
    return KrausSet(tuple(np.sqrt(w) * SIGMA[m]
                          for m, w in enumerate(weights) if w > 0.0))


def apply_kraus_matrix(mat: np.ndarray, operators, targets, n: int) -> np.ndarray:
    """sum_i (K_i on targets) mat (K_i on targets)^dagger."""
    out = None
    for k in operators:
        term = conjugate_on(mat, k, targets, n)
        out = term if out is None else out + term
    return out


def apply_channel(rho: DensityOp, spec: ChannelSpec) -> DensityOp:
    """Send the senders' shares of ``rho`` through the channel: the Kraus
    set of :func:`kraus_for` acts on every sender qubit, and the receivers'
    qubits are left alone."""
    layout = rho.layout.require_protocol()
    out = apply_kraus_matrix(rho.matrix, kraus_for(spec, layout).operators,
                             list(layout.sender_indices), layout.n_qubits)
    return DensityOp(out, layout)


def pauli_basis(k: int) -> list[np.ndarray]:
    """The 4^k tensor products of single-qubit Paulis: a complete orthogonal
    unitary basis of the k-qubit operator space."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return [tensor(*[SIGMA[m] for m in combo]) for combo in product(range(4), repeat=k)]


_PROBE_SEED, _PROBE_COUNT = 20240901, 8


def _probe_states(dim: int) -> list[np.ndarray]:
    gen = np.random.default_rng(_PROBE_SEED)
    probes = []
    for _ in range(_PROBE_COUNT):
        v = gen.standard_normal(dim) + 1j * gen.standard_normal(dim)
        v /= np.linalg.norm(v)
        probes.append(np.outer(v, v.conj()))
    return probes


def _channel_key(spec: ChannelSpec, layout: RegisterLayout) -> tuple:
    qb = spec.q.tobytes() if spec.q is not None else b""
    return (spec.family, spec.group_params, qb, spec.correlated,
            layout.roles, tuple(sorted(layout.routing.items())))


# memo of per-channel constants, oldest entry evicted first
_channel_memo: dict = {}
CHANNEL_MEMO_SIZE = 256


def channel_memo(spec: ChannelSpec, layout: RegisterLayout, tag, build):
    """``build()``, memoized per (channel, layout, ``tag``) for at most
    ``CHANNEL_MEMO_SIZE`` entries; the oldest entry is evicted first."""
    key = _channel_key(spec, layout) + (tag,)
    if key not in _channel_memo:
        if len(_channel_memo) >= CHANNEL_MEMO_SIZE:
            del _channel_memo[next(iter(_channel_memo))]
        _channel_memo[key] = build()
    return _channel_memo[key]


def check_covariance(spec: ChannelSpec,
                     layout: RegisterLayout | None = None) -> float:
    """Largest violation of the covariance condition
    Lambda(W rho W^dag) = W Lambda(rho) W^dag over the Pauli basis W of the
    sender space (``layout`` defaults to ``RegisterLayout.split(2)``).

    Probes every basis element against a fixed random set of pure-state
    density matrices and returns the max absolute entry deviation. The value
    is a diagnostic: ~0 means covariant. Results are memoized by
    ``channel_memo`` (the probe set is fixed, so the value is deterministic).
    """
    layout = layout if layout is not None else RegisterLayout.split(2)

    def deviation() -> float:
        kset = kraus_for(spec, layout)
        basis = pauli_basis(len(layout.sender_indices))

        def lam(x):
            return sum(k @ x @ dag(k) for k in kset.operators)

        dev = 0.0
        for rho in _probe_states(kset.dim):
            lam_rho = lam(rho)
            for w in basis:
                lhs = lam(w @ rho @ dag(w))
                rhs = w @ lam_rho @ dag(w)
                dev = max(dev, float(np.abs(lhs - rhs).max()))
        return dev

    return channel_memo(spec, layout, "covariance", deviation)
