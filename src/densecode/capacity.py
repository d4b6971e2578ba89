"""Dense-coding capacity quantities for N senders and two LOCC receivers.

The quantities computed here:

* ``global_capacity`` -- capacity with the receivers decoding jointly:
  log d_S + S(rho^R) - S(rho).
* ``ensemble_chi`` -- the LOCC accessible-information bound
  S(xi^1) + S(xi^2) - max_x sum_i p_i S(xi^x_i) for an explicit ensemble.
* ``locc_bound_noiseless`` -- the noiseless LOCC bound
  log d_S + S(rho^{R1}) + S(rho^{R2}) - max_x S(rho^x); exact, no search.
* ``noisy_locc_bound`` -- the noisy-channel bound with the same first three
  terms and the last term minimized over sender-local unitary encodings,
  computed on the full register (encode, apply the channel, then trace).
* ``covariant_chi`` -- the covariant-channel form of the same bound,
  computed on the reduced side states with the channel's marginal Kraus set;
  an independent route that must agree with ``noisy_locc_bound`` for
  covariant noise.

Encoding unitaries are reported per sender qubit as

    U = [[a e^{i t1},          sqrt(1-a^2) e^{-i t2}],
         [-sqrt(1-a^2) e^{i t2},  a e^{-i t1}]]

with a in [0, 1] and t1, t2 in [0, 2 pi), which covers all of SU(2). The
search runs over the rotations R(U) in SO(3), R_ji = tr(s_j U s_i U^+)/2, in
which the side state is linear: zeta(R) = C_0 + sum_ji R_ji C_ji, with the
C built once per side. ``minimize`` descends on SO(3) from fixed starts,
with the exact gradient dS/dR_ji = -tr[log2(zeta) C_ji].
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import channels as ch
from .ggm import CutSpectra
from .qcore import (DensityOp, PureState, RegisterLayout, as_density_matrix,
                    binary_entropy, partial_trace_matrix,
                    von_neumann_entropy)


class OptimizationError(RuntimeError):
    """The entropy minimizer hit a non-finite objective."""


TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class EncodingUnitaryParams:
    """Parameters (a, theta1, theta2) of a sender-local 2x2 encoding unitary:
    a in [0, 1], theta1 and theta2 in [0, 2 pi)."""

    a: float
    theta1: float
    theta2: float

    def __post_init__(self):
        if not 0.0 <= self.a <= 1.0:
            raise ValueError(f"a = {self.a} outside [0, 1]")
        for name, t in (("theta1", self.theta1), ("theta2", self.theta2)):
            if not 0.0 <= t < TWO_PI:
                raise ValueError(f"{name} = {t} outside [0, 2 pi)")

    def matrix(self) -> np.ndarray:
        return _qubit_unitaries(np.array([[self.a, self.theta1, self.theta2]]))[0]


IDENTITY_ENCODING = EncodingUnitaryParams(1.0, 0.0, 0.0)


@dataclass(frozen=True)
class OptConfig:
    """Settings for the encoding-unitary entropy minimization.

    ``starts`` fixed starting rotations (the identity first) descend until
    every one has a gradient norm below ``grad_tol`` bits per radian, or for
    at most ``max_steps`` steps. ``parameterization`` is "single" (one qubit
    per sender group, the reference case) or "product" (an independent 2x2
    unitary per qubit of a multi-qubit group).
    """

    starts: int = 16
    max_steps: int = 400
    grad_tol: float = 1e-7
    parameterization: str = "single"

    def __post_init__(self):
        if self.parameterization not in ("single", "product"):
            raise ValueError(f"unknown parameterization {self.parameterization!r}")
        for name in ("starts", "max_steps", "grad_tol"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value!r}")


DEFAULT_OPT = OptConfig()
# the settings of campaign runs: the descent needs no cheaper variant
CAMPAIGN_OPT = DEFAULT_OPT


@dataclass(frozen=True)
class SearchDiagnostics:
    """How one side's minimum entropy was found.

    ``start_value`` is the lowest objective over the starting rotations and
    ``final_value`` the reported minimum. ``grad_norm`` is the gradient norm
    at the reported minimizer, in bits per radian, and ``converged`` says it
    is within the tolerance. ``elapsed_s`` covers building the side's
    objective and the descent.
    """

    starts: int
    steps: int
    evaluations: int
    start_value: float
    final_value: float
    grad_norm: float
    converged: bool
    elapsed_s: float


@dataclass(frozen=True)
class BoundReport:
    """A capacity bound with its entropy terms and minimizing encodings.

    ``bound_bits`` always equals
    n_sender_qubits + term_S_R1 + term_S_R2 - term_min_entropy
    exactly as stored. ``minimizer`` holds the encoding parameters of the
    side achieving the max (one EncodingUnitaryParams per qubit of that
    sender group). ``diagnostics`` holds one SearchDiagnostics per side, or
    None for a side evaluated without a search.
    """

    bound_bits: float
    term_S_R1: float
    term_S_R2: float
    term_min_entropy: float
    which_side: int
    minimizer: tuple
    n_sender_qubits: int
    entropy_side1: float
    entropy_side2: float
    minimizer_side1: tuple
    minimizer_side2: tuple
    parameterization: str = "single"
    diagnostics: tuple = (None, None)


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


# ---------------------------------------------------------------------------
# capacity formulas that need no optimization
# ---------------------------------------------------------------------------

def global_capacity(state, layout: RegisterLayout | None = None) -> float:
    """Capacity with both receivers decoding jointly:
    log d_S + S(rho^{R1 R2}) - S(rho), in bits.

    The raw formula value is returned without clamping; the classical
    threshold is log d_S = number of sender qubits.
    """
    layout = (layout or state.layout).require_protocol()
    rho = as_density_matrix(state)
    receivers = sorted((layout.receiver_index(1), layout.receiver_index(2)))
    s_r = von_neumann_entropy(partial_trace_matrix(rho, receivers, layout.n_qubits))
    return layout.n_senders + s_r - von_neumann_entropy(rho)


def ensemble_chi(ensemble: Ensemble, layout: RegisterLayout | None = None) -> float:
    """LOCC accessible-information bound evaluated on an explicit ensemble:
    S(xi^1) + S(xi^2) - max_x sum_i p_i S(xi^x_i)."""
    if not ensemble.members:
        raise ValueError("ensemble must not be empty")
    layout = (layout or ensemble.members[0][1].layout).require_protocol()
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


def _marginal_entropy(rho: np.ndarray, layout: RegisterLayout, keep) -> float:
    return von_neumann_entropy(partial_trace_matrix(rho, list(keep), layout.n_qubits))


def _assemble_report(layout, s_r1, s_r2, sides, parameterization) -> BoundReport:
    (s1, m1, d1), (s2, m2, d2) = sides
    which = 1 if s1 >= s2 else 2
    term_min = s1 if which == 1 else s2
    n_send = layout.n_senders
    return BoundReport(
        bound_bits=n_send + s_r1 + s_r2 - term_min,
        term_S_R1=s_r1, term_S_R2=s_r2, term_min_entropy=term_min,
        which_side=which, minimizer=(m1 if which == 1 else m2),
        n_sender_qubits=n_send, entropy_side1=s1, entropy_side2=s2,
        minimizer_side1=m1, minimizer_side2=m2,
        parameterization=parameterization, diagnostics=(d1, d2))


def locc_bound_noiseless(state: PureState,
                         layout: RegisterLayout | None = None) -> BoundReport:
    """Noiseless LOCC bound of a pure state: log d_S + S(rho^{R1}) +
    S(rho^{R2}) - max_x S(rho^x), exact; unitary encodings do not change the
    side entropies without noise, so the minimizer is the identity."""
    layout = (layout or state.layout).require_protocol()
    s_r1, s_r2, *sides = (float(s[0]) for s in _noiseless_entropies(
        CutSpectra.of(state.amplitudes, layout)))
    sides = [(s, tuple(IDENTITY_ENCODING for _ in layout.group_indices(side)), None)
             for side, s in zip((1, 2), sides)]
    return _assemble_report(layout, s_r1, s_r2, sides, "single")


def noiseless_bounds(spectra: CutSpectra) -> np.ndarray:
    """(B,) noiseless LOCC bound of every row of a block of pure states, each
    equal bit for bit to ``locc_bound_noiseless`` of that state."""
    s_r1, s_r2, s1, s2 = _noiseless_entropies(spectra)
    return spectra.layout.n_senders + s_r1 + s_r2 - np.maximum(s1, s2)


def _noiseless_entropies(spectra: CutSpectra) -> list[np.ndarray]:
    """S(R1), S(R2) and the two side entropies, each (B,)."""
    layout = spectra.layout.require_protocol()
    return ([spectra.entropy([layout.receiver_index(x)]) for x in (1, 2)]
            + [spectra.entropy(layout.side_indices(x)) for x in (1, 2)])


# ---------------------------------------------------------------------------
# unitaries and rotations
# ---------------------------------------------------------------------------

def _qubit_unitaries(params: np.ndarray) -> np.ndarray:
    """(G, 3) rows (a, t1, t2) -> (G, 2, 2) unitaries."""
    a = params[:, 0]
    b = np.sqrt(np.clip(1.0 - a * a, 0.0, None))
    e1 = np.exp(1j * params[:, 1])
    e2 = np.exp(1j * params[:, 2])
    u = np.empty((params.shape[0], 2, 2), dtype=complex)
    u[:, 0, 0] = a * e1
    u[:, 0, 1] = b / e2
    u[:, 1, 0] = -b * e2
    u[:, 1, 1] = a / e1
    return u


def _so3_exp(v: np.ndarray) -> np.ndarray:
    """(..., 3) rotation vectors -> (..., 3, 3) rotations exp([v]_x)."""
    theta = np.linalg.norm(v, axis=-1)[..., None, None]
    k = np.zeros(v.shape + (3,))
    k[..., 0, 1], k[..., 0, 2], k[..., 1, 2] = -v[..., 2], v[..., 1], -v[..., 0]
    k -= np.swapaxes(k, -1, -2)
    # sin(t)/t and (1 - cos(t))/t^2 through sinc, finite at t = 0
    s = np.sinc(theta / math.pi)
    c = 0.5 * np.sinc(theta / TWO_PI) ** 2
    return np.eye(3) + s * k + c * (k @ k)


def _params_from_rotation(r: np.ndarray) -> EncodingUnitaryParams:
    """Encoding parameters of a unitary U with rotation ``r``:
    U s_i U^+ = sum_j r[j, i] s_j. U = w - i(x s_x + y s_y + z s_z) is read
    off the quaternion (w, x, y, z), taken from the largest column of
    4 q q^T to stay accurate near every rotation."""
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = r
    qq = np.array([
        [1 + r00 + r11 + r22, r21 - r12, r02 - r20, r10 - r01],
        [r21 - r12, 1 + r00 - r11 - r22, r01 + r10, r02 + r20],
        [r02 - r20, r01 + r10, 1 - r00 + r11 - r22, r12 + r21],
        [r10 - r01, r02 + r20, r12 + r21, 1 - r00 - r11 + r22]])
    col = qq[:, int(np.argmax(np.diag(qq)))]
    w, x, y, z = col / np.linalg.norm(col)
    # U[0, 0] = a e^{i t1} = w - i z and U[0, 1] = b e^{-i t2} = -y - i x
    # the second "% TWO_PI" maps to 0 a tiny negative angle that rounds up to 2 pi
    a = min(math.hypot(w, z), 1.0)
    theta1 = math.atan2(-z, w) % TWO_PI % TWO_PI if a > 0.0 else 0.0
    theta2 = math.atan2(x, -y) % TWO_PI % TWO_PI if a < 1.0 else 0.0
    return EncodingUnitaryParams(a, theta1, theta2)


_START_SEED = 20141222


def _start_rotations(count: int, group_size: int) -> np.ndarray:
    """(count, group_size, 3, 3) fixed starting rotations, the identity first;
    the rest are exp of rotation vectors drawn uniformly from the ball of
    radius pi under a fixed seed."""
    gen = np.random.default_rng([_START_SEED, group_size])
    v = gen.standard_normal((count, group_size, 3))
    radius = math.pi * gen.uniform(0.0, 1.0, (count, group_size, 1)) ** (1 / 3)
    v *= radius / np.linalg.norm(v, axis=-1, keepdims=True)
    v[0] = 0.0
    return _so3_exp(v)


# ---------------------------------------------------------------------------
# the objective: zeta linear in the Kronecker product of the maps 1 (+) R_q
# ---------------------------------------------------------------------------

def _make_kraus_stage(ops, targets, n: int):
    """Returns f(rhos (G,d,d)) -> (G,d,d): sum_k (K on targets) rho K^dag,
    as one product with the superoperator sum_k K (x) K* on the targets."""
    targets = list(targets)
    rest = [q for q in range(n) if q not in targets]
    fwd = ([0] + [1 + q for q in rest] + [1 + n + q for q in rest]
           + [1 + q for q in targets] + [1 + n + q for q in targets])
    back = list(np.argsort(fwd))
    sup_t = sum(np.kron(k, k.conj()) for k in ops).T
    shape = (1 << 2 * len(rest), 1 << 2 * len(targets))
    d = 1 << n

    def stage(rhos: np.ndarray) -> np.ndarray:
        g = rhos.shape[0]
        t = rhos.reshape((g,) + (2,) * (2 * n)).transpose(fwd).reshape((g,) + shape)
        out = (t @ sup_t).reshape((g,) + (2,) * (2 * n))
        return out.transpose(back).reshape(g, d, d)

    return stage


def _pauli_images(rho: np.ndarray, group, n: int, post: Callable) -> np.ndarray:
    """The (4^k, 4^k, dk, dk) images post(P_mu (x) X_nu) / 2^k over the
    k-qubit Pauli strings P on ``group``, with X_nu = tr_group[(P_nu (x) 1) rho].

    Since rho = sum_nu P_nu (x) X_nu / 2^k and U P_nu U^+ = sum_mu T_mu,nu P_mu
    with T the Kronecker product of the per-qubit maps 1 (+) R_q, the encoded
    side state is zeta = sum_mu,nu T_mu,nu images[mu, nu].
    """
    group = list(group)
    k = len(group)
    rest = [q for q in range(n) if q not in group]
    perm = group + rest
    kdim, rdim, d = 1 << k, 1 << len(rest), 1 << n
    t = rho.reshape([2] * (2 * n)).transpose(perm + [p + n for p in perm])
    t = t.reshape(kdim, rdim, kdim, rdim)
    paulis = np.stack(ch.pauli_basis(k))
    x = np.einsum("nab,brat->nrt", paulis, t)
    m = np.einsum("mac,nrt->mnarct", paulis, x) / kdim
    inv = list(np.argsort(perm))
    back = [0] + [1 + i for i in inv] + [1 + n + i for i in inv]
    m = m.reshape([-1] + [2] * (2 * n)).transpose(back).reshape(-1, d, d)
    images = post(m)
    return images.reshape((len(paulis), len(paulis)) + images.shape[1:])


_LOG_FLOOR = 1e-300   # eigenvalue floor inside log2 for the gradient


class _EntropyObjective:
    """S(zeta) and its exact gradient for batches of per-qubit rotations.

    Called with (S, k, 3, 3) rotations, returns the (S,) entropies in bits
    and the (S, k, 3, 3) Euclidean gradients dS/dR_q, from one batched
    eigendecomposition.
    """

    def __init__(self, images: np.ndarray, group_size: int):
        self.k = group_size
        m = images.shape[0]
        self.dk = images.shape[-1]
        self.images = images.reshape(m * m, self.dk * self.dk)
        self.images_h = self.images.conj().T

    def __call__(self, r: np.ndarray):
        s = r.shape[0]
        t = np.zeros(r.shape[:2] + (4, 4))
        t[:, :, 0, 0] = 1.0
        t[:, :, 1:, 1:] = r
        full = t[:, 0]
        for q in range(1, self.k):
            full = np.einsum("sab,scd->sacbd", full, t[:, q]).reshape(
                s, 4 * full.shape[1], 4 * full.shape[2])
        zeta = (full.reshape(s, -1) @ self.images).reshape(s, self.dk, self.dk)
        w, v = np.linalg.eigh(zeta)
        w = np.clip(w, 0.0, None)
        logs = np.log2(np.maximum(w, _LOG_FLOOR))
        values = -(w * logs).sum(axis=-1)
        log_zeta = (v * logs[:, None, :]) @ np.swapaxes(v.conj(), -1, -2)
        # dS/dT_mu,nu = -tr[log2(zeta) images[mu, nu]]; tr zeta is fixed
        dt = -(log_zeta.reshape(s, -1) @ self.images_h).real
        return values, self._rotation_gradients(dt.reshape(s, *full.shape[1:]), t)

    def _rotation_gradients(self, dt: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Chain rule from dS/dT to dS/dR_q, contracting every other qubit's
        map into the Kronecker product."""
        s, k = t.shape[0], self.k
        # axis labels: 0 the batch, 1 + p the row and 1 + k + p the column of qubit p
        args = [dt.reshape((s,) + (4,) * (2 * k)), list(range(2 * k + 1))]
        grads = np.empty((s, k, 3, 3))
        for q in range(k):
            others = [x for p in range(k) if p != q
                      for x in (t[:, p], [0, 1 + p, 1 + k + p])]
            grads[:, q] = np.einsum(*args, *others, [0, 1 + q, 1 + k + q])[:, 1:, 1:]
        return grads


# ---------------------------------------------------------------------------
# the minimizer: batched steepest descent on SO(3)^k
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DescentResult:
    """Outcome of ``minimize``: ``x`` the (k, 3, 3) rotations of the reported
    minimum, ``fun`` its value, ``nfev`` objective evaluations (one per
    start per step)."""

    x: np.ndarray
    fun: float
    nfev: int
    steps: int
    start_fun: float
    grad_norm: float
    converged: bool


_STEP0 = 1.0        # initial step, radians per unit gradient
_GROW, _SHRINK = 2.0, 0.25
_TIE_ATOL = 1e-12


def _riemannian_gradient(r: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Rotation vectors of R^T G - G^T R: the gradient in the tangent space,
    in bits per radian (the slope of S along R exp([xi]_x) is omega . xi)."""
    a = np.swapaxes(r, -1, -2) @ g
    return np.stack([a[..., 2, 1] - a[..., 1, 2],
                           a[..., 0, 2] - a[..., 2, 0],
                           a[..., 1, 0] - a[..., 0, 1]], axis=-1)


def minimize(objective: Callable, starts: np.ndarray, cfg: OptConfig) -> DescentResult:
    """Steepest descent R <- R exp(-eta skew(R^T G)) from every start at once.

    Each start keeps its own step eta: a step that lowers its value is
    taken and eta doubles, one that does not is refused and eta shrinks
    fourfold. A start stops once its gradient norm is below
    ``cfg.grad_tol`` or its step no longer moves it; the batch stops when
    every start has stopped, or after ``cfg.max_steps`` steps. A value
    within 1e-12 of the minimum at the first start's initial point is
    reported there, so flat objectives return the first start.
    """
    r = np.array(starts, dtype=float)
    values, grads = objective(r)
    if not np.all(np.isfinite(values)):
        # a refused step never replaces a finite value, so this check suffices
        raise OptimizationError("entropy objective is non-finite at the starts")
    n = r.shape[0]
    nfev = n
    start_values = values.copy()
    omega = _riemannian_gradient(r, grads)
    first_norm = float(np.sqrt((omega[0] ** 2).sum()))
    eta = np.full(n, _STEP0)
    steps = 0
    while steps < cfg.max_steps:
        norms = np.sqrt((omega ** 2).sum(axis=(1, 2)))
        active = (norms > cfg.grad_tol) & (eta * norms > 1e-15)
        if not active.any():
            break
        trial = r @ _so3_exp(-eta[:, None, None] * omega)
        trial_values, trial_grads = objective(trial)
        nfev += n
        steps += 1
        take = active & (trial_values <= values)
        r[take] = trial[take]
        values[take] = trial_values[take]
        omega[take] = _riemannian_gradient(trial[take], trial_grads[take])
        eta = np.where(take, eta * _GROW, np.where(active, eta * _SHRINK, eta))
    best = int(np.argmin(values))
    if start_values[0] <= values[best] + _TIE_ATOL:
        x, fun, grad_norm = np.array(starts[0], dtype=float), start_values[0], first_norm
    else:
        x, fun = r[best], values[best]
        grad_norm = float(np.sqrt((omega[best] ** 2).sum()))
    return DescentResult(x=x, fun=float(fun), nfev=nfev, steps=steps,
                         start_fun=float(start_values.min()),
                         grad_norm=grad_norm, converged=grad_norm <= cfg.grad_tol)


# ---------------------------------------------------------------------------
# side minima and the noisy bounds
# ---------------------------------------------------------------------------

def _side_images(rho: np.ndarray, spec: ch.ChannelSpec, layout: RegisterLayout,
                 side: int, reduced: bool) -> np.ndarray:
    """The side's objective images through one of two routes: on the full
    register (channel on every sender, then the partial trace), or on the
    reduced side state with the channel's marginal Kraus set."""
    n = layout.n_qubits
    keep = list(layout.side_indices(side))
    group = list(layout.group_indices(side))
    if reduced:
        n_side = len(keep)
        pos = [keep.index(q) for q in group]
        kraus = _make_kraus_stage(ch.marginal_kraus(spec, layout, side).operators,
                                  pos, n_side)
        return _pauli_images(partial_trace_matrix(rho, keep, n), pos, n_side, kraus)
    kraus = _make_kraus_stage(ch.kraus_for(spec, layout).operators,
                              list(layout.sender_indices), n)
    return _pauli_images(rho, group, n,
                         lambda m: partial_trace_matrix(kraus(m), keep, n))


def _side_minimum(rho: np.ndarray, spec: ch.ChannelSpec, layout: RegisterLayout,
                  side: int, cfg: OptConfig, reduced: bool):
    """(min entropy, minimizer, SearchDiagnostics or None) for one side."""
    group = layout.group_indices(side)
    if not group:
        return _marginal_entropy(rho, layout, layout.side_indices(side)), (), None
    if len(group) > 1 and cfg.parameterization == "single":
        raise ValueError("sender group has more than one qubit; pass an OptConfig "
                         "with parameterization='product'")
    t0 = time.perf_counter()
    objective = _EntropyObjective(_side_images(rho, spec, layout, side, reduced),
                                  len(group))
    res = minimize(objective, _start_rotations(cfg.starts, len(group)), cfg)
    diag = SearchDiagnostics(
        starts=cfg.starts, steps=res.steps, evaluations=res.nfev,
        start_value=res.start_fun, final_value=res.fun, grad_norm=res.grad_norm,
        converged=res.converged, elapsed_s=time.perf_counter() - t0)
    return res.fun, tuple(_params_from_rotation(rq) for rq in res.x), diag


def min_output_entropy(state, spec: ch.ChannelSpec, side: int,
                       cfg: OptConfig | None = None):
    """Minimum entropy of the side-``side`` state after encoding and noise,
    min over sender-local unitaries of S(zeta^side).

    Computed on the full register (encode, full channel, partial trace).

    Returns:
        (entropy_bits, minimizer): minimizer is one EncodingUnitaryParams per
        qubit of the side's sender group.
    """
    layout = state.layout.require_protocol()
    if side not in (1, 2):
        raise ValueError("side must be 1 or 2")
    val, params, _ = _side_minimum(as_density_matrix(state), spec, layout, side,
                                   cfg or DEFAULT_OPT, reduced=False)
    return val, params


def _noisy_bound(state, spec: ch.ChannelSpec, cfg: OptConfig,
                 reduced: bool) -> BoundReport:
    layout = state.layout.require_protocol()
    rho = as_density_matrix(state)
    s_r1, s_r2 = (_marginal_entropy(rho, layout, [layout.receiver_index(x)])
                  for x in (1, 2))
    sides = [_side_minimum(rho, spec, layout, side, cfg, reduced) for side in (1, 2)]
    return _assemble_report(layout, s_r1, s_r2, sides, cfg.parameterization)


def noisy_locc_bound(state, spec: ch.ChannelSpec,
                     cfg: OptConfig | None = None) -> BoundReport:
    """Upper bound on the LOCC dense-coding capacity under a noisy channel:
    log d_S + S(rho^{R1}) + S(rho^{R2}) - max_x S(zeta^x)."""
    return _noisy_bound(state, spec, cfg or DEFAULT_OPT, reduced=False)


COVARIANCE_GATE = 1e-8


def covariant_chi(state, spec: ch.ChannelSpec,
                  cfg: OptConfig | None = None) -> BoundReport:
    """The covariant-channel capacity bound chi.

    Requires a covariant channel (checked); the first two entropy terms come
    from the unencoded receiver marginals exactly, and each side's last term
    is minimized over that side's fixed unitary alone, on the reduced side
    state with the channel's marginal Kraus operators.
    """
    layout = state.layout.require_protocol()
    dev = ch.check_covariance(spec, layout=layout)
    if dev >= COVARIANCE_GATE:
        raise ValueError(f"channel is not covariant: max deviation {dev:.3e}")
    return _noisy_bound(state, spec, cfg or DEFAULT_OPT, reduced=True)


# ---------------------------------------------------------------------------
# four-qubit GHZ closed forms
# ---------------------------------------------------------------------------

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


def closed_form_ghz_bound(spec: ch.ChannelSpec) -> float:
    """Closed-form noisy LOCC bound for the four-qubit GHZ state."""
    if spec.family == ch.IDENTITY:
        return 3.0
    if spec.family == ch.AMPLITUDE_DAMPING:
        hs = [binary_entropy(0.5 * (1.0 - math.sqrt(1.0 - g + g * g)))
              for g in spec.group_params]
        return 3.0 - max(hs)
    if spec.family == ch.PHASE_DAMPING:
        return 3.0
    if spec.correlated:
        b = np.sort(np.asarray(spec.q))[::-1]
        return 3.0 - binary_entropy(float(b[0] + b[1]))
    p = np.sort(spec.q.sum(axis=1))[::-1]
    r = np.sort(spec.q.sum(axis=0))[::-1]
    return 3.0 - max(binary_entropy(float(p[0] + p[1])),
                     binary_entropy(float(r[0] + r[1])))
