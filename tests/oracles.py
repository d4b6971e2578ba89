"""Reference helpers that only the tests use, kept out of the library."""

import math
from dataclasses import dataclass

import numpy as np

from densecode import channels as ch
from densecode.capacity import EncodingUnitaryParams
from densecode.channels import (AMPLITUDE_DAMPING, IDENTITY, PHASE_DAMPING,
                                ChannelSpec, apply_channel, pauli_basis)
from densecode.qcore import (DensityOp, apply_local_unitary, as_density_matrix,
                             binary_entropy, conjugate_on, dag, partial_trace,
                             partial_trace_matrix, tensor, von_neumann_entropy)


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


@dataclass(frozen=True)
class Ensemble:
    """Classical mixture {p_i, rho_i} of states on one register."""

    members: tuple

    def __post_init__(self):
        members = tuple((float(p), rho) for p, rho in self.members)
        if not members:
            raise ValueError("ensemble must not be empty")
        probs = np.array([p for p, _ in members])
        if probs.min() < 0:
            raise ValueError("negative probability")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {probs.sum()!r}, not 1")
        roles = members[0][1].layout.roles
        for _, rho in members:
            if rho.layout.roles != roles:
                raise ValueError("ensemble members must share one layout")
        object.__setattr__(self, "members", members)


def ensemble_chi(ensemble: Ensemble) -> float:
    """LOCC accessible-information bound evaluated on an explicit ensemble:
    S(xi^1) + S(xi^2) - max_x sum_i p_i S(xi^x_i)."""
    layout = ensemble.members[0][1].layout.require_protocol()
    n = layout.n_qubits
    sides = (list(layout.side_indices(1)), list(layout.side_indices(2)))
    avg = [None, None]
    member_entropies = [[], []]
    for p, rho in ensemble.members:
        for x in (0, 1):
            marg = partial_trace_matrix(rho.matrix, sides[x], n)
            member_entropies[x].append(von_neumann_entropy(marg))
            avg[x] = p * marg if avg[x] is None else avg[x] + p * marg
    s_mix = [von_neumann_entropy(avg[x]) for x in (0, 1)]
    probs = np.array([p for p, _ in ensemble.members])
    avg_member = [float(probs @ np.array(member_entropies[x])) for x in (0, 1)]
    return s_mix[0] + s_mix[1] - max(avg_member)


def pauli_encoded_ensemble(state, spec: ch.ChannelSpec | None = None) -> Ensemble:
    """The uniform ensemble of all Pauli-basis encodings of ``state`` on the
    sender qubits, each member optionally sent through ``spec``."""
    layout = state.layout.require_protocol()
    rho = as_density_matrix(state)
    senders = list(layout.sender_indices)
    basis = ch.pauli_basis(len(senders))
    kraus = ch.kraus_for(spec, layout).operators if spec is not None else None
    members = []
    p = 1.0 / len(basis)
    for w in basis:
        enc = ch.conjugate_on(rho, w, senders, layout.n_qubits)
        if kraus is not None:
            enc = ch.apply_kraus_matrix(enc, kraus, senders, layout.n_qubits)
        members.append((p, DensityOp(enc, layout)))
    return Ensemble(tuple(members))


def ghz_zeta_eigenvalues(spec: ch.ChannelSpec,
                         params: EncodingUnitaryParams) -> np.ndarray:
    """Eigenvalues of zeta^1 for the four-qubit GHZ state, in closed form.

    Supported channels: amplitude damping (uses the side-1 gamma), phase
    damping (side-1 p), and fully-correlated Pauli noise. The Pauli case
    depends on the encoding angles only through cos(2(theta1 - theta2))
    under the unitary convention of EncodingUnitaryParams.matrix().
    """
    a = params.a
    if spec.family == ch.AMPLITUDE_DAMPING:
        # f = 1 - 4g(1-g)a^4 and g = 1 - 4g(1-g)(1-a^2)^2, rewritten with
        # 4g(1-g) = 1 - (2g-1)^2 so the near-degenerate points (f or g ~ 0)
        # do not suffer catastrophic cancellation
        d2 = (2.0 * spec.group_params[0] - 1.0) ** 2
        a2 = a * a
        f = (1.0 - a2 * a2) + d2 * a2 * a2
        gg = a2 * (2.0 - a2) + d2 * (1.0 - a2) ** 2
        sf, sg = math.sqrt(f), math.sqrt(gg)
        return 0.25 * np.array([1 - sf, 1 + sf, 1 - sg, 1 + sg])
    if spec.family == ch.PHASE_DAMPING:
        # f_P = 1 - 4a^2(1-a^2)p(2-p) = (1-2a^2)^2 + 4a^2(1-a^2)(1-p)^2
        p = spec.group_params[0]
        a2 = a * a
        fp = (1.0 - 2.0 * a2) ** 2 + 4.0 * a2 * (1.0 - a2) * (1.0 - p) ** 2
        s = math.sqrt(fp)
        return 0.25 * np.array([1 - s, 1 - s, 1 + s, 1 + s])
    if spec.family == ch.PAULI and spec.correlated:
        q0, q1, q2, q3 = (float(v) for v in spec.q)
        f1 = 2.0 * a * a * (a * a - 1.0)
        gt = (q0 - q1 - q2 + q3) ** 2 + f1 * (
            8 * q1 * q2 + 8 * q0 * q3 - 4 * (q0 + q3) * (q1 + q2)
            - 4 * (q1 - q2) * (q0 - q3)
            * math.cos(2.0 * (params.theta1 - params.theta2)))
        s = math.sqrt(max(gt, 0.0))
        return 0.25 * np.array([1 - s, 1 - s, 1 + s, 1 + s])
    raise ValueError(f"no closed-form eigenvalues for channel {spec.family!r} "
                     f"(correlated={spec.correlated})")


def extremum_residual_ad(a: float, gamma: float) -> float:
    """Residual of the amplitude-damping extremum condition for the GHZ
    minimizer; zero at a = 1/sqrt(2) for every gamma, and proportional to
    -dS/da elsewhere (positive for a below the minimum)."""
    if not 0.0 < a < 1.0:
        raise ValueError("a must lie strictly inside (0, 1)")
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie strictly inside (0, 1)")
    f = 1.0 - 4.0 * gamma * (1.0 - gamma) * a ** 4
    g = 1.0 - 4.0 * gamma * (1.0 - gamma) * (1.0 - a * a) ** 2
    sf, sg = math.sqrt(f), math.sqrt(g)
    lhs = (a * a / sf) * math.log2((1.0 - sf) / (1.0 + sf))
    rhs = ((1.0 - a * a) / sg) * math.log2((1.0 - sg) / (1.0 + sg))
    return lhs - rhs


def gghz_ggm_at_capacity(bound_bits: float) -> float:
    """GGM of the two-term (gGHZ-type) four-qubit state whose noiseless LOCC
    bound equals ``bound_bits``.

    Solves H(m) = bound - 2 for the larger marginal eigenvalue m in [1/2, 1]
    by bisection to 1e-10 and returns E = 1 - m; increasing in the bound.
    """
    if bound_bits < 2.0 - 1e-9 or bound_bits > 3.0 + 1e-9:
        raise ValueError(f"bound {bound_bits} outside [2, 3]")
    target = min(max(bound_bits - 2.0, 0.0), 1.0)
    lo, hi = 0.5, 1.0  # H decreasing on [1/2, 1]
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if binary_entropy(mid) > target:
            lo = mid
        else:
            hi = mid
    return 1.0 - 0.5 * (lo + hi)


def channel_to_string(spec: ChannelSpec) -> str:
    if spec.family == IDENTITY:
        return "none"
    if spec.family == AMPLITUDE_DAMPING:
        return "ad:{:g},{:g}".format(*spec.group_params)
    if spec.family == PHASE_DAMPING:
        return "pd:{:g},{:g}".format(*spec.group_params)
    if spec.correlated:
        return "pauli:" + ",".join(f"{v:g}" for v in spec.q)
    return "pauli-gen:" + ",".join(f"{v:g}" for v in spec.q.reshape(-1))


def twirl(rho: DensityOp) -> DensityOp:
    """Average ``rho`` over the complete Pauli basis on all sender qubits,
    projecting them to the maximally mixed state while leaving the
    receivers' marginal untouched."""
    layout = rho.layout
    targets = list(layout.require_protocol().sender_indices)
    basis = pauli_basis(len(targets))
    acc = None
    for w in basis:
        term = conjugate_on(rho.matrix, w, targets, layout.n_qubits)
        acc = term if acc is None else acc + term
    return DensityOp(acc / len(basis), layout)
