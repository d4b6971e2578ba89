"""Dense-coding capacity quantities for N senders and two LOCC receivers.

The quantities computed here:

* ``global_capacity`` -- capacity with the receivers decoding jointly:
  log d_S + S(rho^R) - S(rho).
* ``locc_bound_noiseless`` -- the noiseless LOCC bound
  log d_S + S(rho^{R1}) + S(rho^{R2}) - max_x S(rho^x); exact, no search.
* ``noisy_locc_bounds`` -- the noisy-channel bound of a block of states: the
  same first three terms and the last term minimized over sender-local
  unitary encodings, on each side's reduced state with the channel's
  marginal Kraus set. ``noisy_locc_bound`` is its one-row call.
* ``covariant_chi`` -- the same bound, for channels passing the covariance check.

Encoding unitaries are reported per sender qubit as

    U = [[a e^{i t1},          sqrt(1-a^2) e^{-i t2}],
         [-sqrt(1-a^2) e^{i t2},  a e^{-i t1}]]

with a in [0, 1] and t1, t2 in [0, 2 pi), which covers all of SU(2). The
search runs over unit quaternions q = (w, x, y, z), U = w - i(x s_x + y s_y
+ z s_z), one per sender qubit. The side state is quadratic in them:
zeta = sum_AB qt_A qt_B D_AB, qt the Kronecker product of the quaternions,
with the D built once per side. ``minimize`` descends on the spheres S^3
from fixed starts, a block's sides of one group size in one batch, with the
exact gradient dS/dqt_A = -2 sum_B Re tr[log2(zeta) D_AB] qt_B; the parameters are
read off q: a e^{i t1} = w - i z and sqrt(1-a^2) e^{-i t2} = -y - i x.
"""

from __future__ import annotations

import cmath
import functools
import math
import time
from dataclasses import dataclass
from itertools import product
from typing import Callable

import numpy as np

from . import channels as ch
from .ggm import CutSpectra
from .qcore import (PureState, RegisterLayout, as_density_matrix,
                    binary_entropy, partial_trace_matrix, tensor,
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
        b = math.sqrt(max(1.0 - self.a * self.a, 0.0))
        e1, e2 = cmath.exp(1j * self.theta1), cmath.exp(1j * self.theta2)
        return np.array([[self.a * e1, b / e2], [-b * e2, self.a / e1]])


IDENTITY_ENCODING = EncodingUnitaryParams(1.0, 0.0, 0.0)


@dataclass(frozen=True)
class OptConfig:
    """Settings for the encoding-unitary entropy minimization.

    ``starts`` fixed starting encodings (the identity first) descend until
    every one has a gradient norm below ``grad_tol`` bits per radian of
    rotation, or for at most ``max_steps`` steps. A sender group of k qubits
    is encoded by k independent 2x2 unitaries, one per qubit.
    """

    starts: int = 16
    max_steps: int = 400
    grad_tol: float = 1e-7

    def __post_init__(self):
        for name in ("starts", "max_steps", "grad_tol"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value!r}")


DEFAULT_OPT = OptConfig()


@dataclass(frozen=True)
class SearchDiagnostics:
    """How one side's minimum entropy was found.

    ``start_value`` is the lowest objective over the starting encodings and
    ``final_value`` the reported minimum. ``steps`` counts the side's own
    descent steps and ``evaluations`` its objective values: ``starts`` at the
    outset plus one per step a start took. ``grad_norm`` is the gradient norm
    at the reported minimizer, in bits per radian of rotation, and
    ``converged`` says it is within the tolerance. ``elapsed_s`` covers
    building the side's objective and the shared descent of its block.
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
    diagnostics: tuple = (None, None)


# ---------------------------------------------------------------------------
# capacity formulas that need no optimization
# ---------------------------------------------------------------------------

def global_capacity(state) -> float:
    """Capacity with both receivers decoding jointly:
    log d_S + S(rho^{R1 R2}) - S(rho), in bits.

    The raw formula value is returned without clamping; the classical
    threshold is log d_S = number of sender qubits.
    """
    layout = state.layout.require_protocol()
    rho = as_density_matrix(state)
    receivers = sorted((layout.receiver_index(1), layout.receiver_index(2)))
    s_r = von_neumann_entropy(partial_trace_matrix(rho, receivers, layout.n_qubits))
    return layout.n_senders + s_r - von_neumann_entropy(rho)


def _marginal_entropy(rho: np.ndarray, layout: RegisterLayout, keep) -> float:
    return von_neumann_entropy(partial_trace_matrix(rho, list(keep), layout.n_qubits))


def _assemble_report(layout, s_r1, s_r2, sides) -> BoundReport:
    (s1, m1, d1), (s2, m2, d2) = sides
    which = 1 if s1 >= s2 else 2
    term_min = s1 if which == 1 else s2
    n_send = layout.n_senders
    return BoundReport(
        bound_bits=n_send + s_r1 + s_r2 - term_min,
        term_S_R1=s_r1, term_S_R2=s_r2, term_min_entropy=term_min,
        which_side=which, minimizer=(m1 if which == 1 else m2),
        n_sender_qubits=n_send, entropy_side1=s1, entropy_side2=s2,
        minimizer_side1=m1, minimizer_side2=m2, diagnostics=(d1, d2))


def locc_bound_noiseless(state: PureState) -> BoundReport:
    """Noiseless LOCC bound of a pure state: log d_S + S(rho^{R1}) +
    S(rho^{R2}) - max_x S(rho^x), exact; unitary encodings do not change the
    side entropies without noise, so the minimizer is the identity."""
    layout = state.layout.require_protocol()
    s_r1, s_r2, *sides = (float(s[0]) for s in _noiseless_entropies(
        CutSpectra.of(state.amplitudes, layout)))
    sides = [(s, tuple(IDENTITY_ENCODING for _ in layout.group_indices(side)), None)
             for side, s in zip((1, 2), sides)]
    return _assemble_report(layout, s_r1, s_r2, sides)


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
# encodings as unit quaternions
# ---------------------------------------------------------------------------

def _params_from_quaternion(q: np.ndarray) -> EncodingUnitaryParams:
    """Encoding parameters of U = w - i(x s_x + y s_y + z s_z) for the unit
    quaternion q = (w, x, y, z): U[0, 0] = a e^{i t1} = w - i z and
    U[0, 1] = b e^{-i t2} = -y - i x."""
    w, x, y, z = q
    # the second "% TWO_PI" maps to 0 a tiny negative angle that rounds up to 2 pi
    a = min(math.hypot(w, z), 1.0)
    theta1 = math.atan2(-z, w) % TWO_PI % TWO_PI if a > 0.0 else 0.0
    theta2 = math.atan2(x, -y) % TWO_PI % TWO_PI if a < 1.0 else 0.0
    return EncodingUnitaryParams(a, theta1, theta2)


_START_SEED = 20141222


@functools.lru_cache
def _start_quaternions(count: int, group_size: int) -> np.ndarray:
    """(count, group_size, 4) fixed starting quaternions, read-only, the
    identity first; the rest are the rotations by |v| about v, q =
    (cos(|v|/2), sin(|v|/2) v/|v|), for rotation vectors v drawn uniformly
    from the ball of radius pi under a fixed seed."""
    gen = np.random.default_rng([_START_SEED, group_size])
    v = gen.standard_normal((count, group_size, 3))
    half = 0.5 * math.pi * gen.uniform(0.0, 1.0, (count, group_size, 1)) ** (1 / 3)
    q = np.concatenate([np.cos(half), np.sin(half) * v
                        / np.linalg.norm(v, axis=-1, keepdims=True)], axis=-1)
    q[0] = (1.0, 0.0, 0.0, 0.0)
    q.setflags(write=False)
    return q


# ---------------------------------------------------------------------------
# the objective: zeta quadratic in the Kronecker product of the quaternions
# ---------------------------------------------------------------------------

def _make_kraus_stage(ops, targets, n: int):
    """Returns f(rhos (G,d,d)) -> (G,d,d): sum_k (K on targets) rho K^dag,
    as one product with the superoperator sum_k K (x) K* on the targets."""
    rest = [q for q in range(n) if q not in targets]
    fwd = ([0] + [1 + q for q in rest] + [1 + n + q for q in rest]
           + [1 + q for q in targets] + [1 + n + q for q in targets])
    back = list(np.argsort(fwd))
    shape = (1 << 2 * len(rest), 1 << 2 * len(targets))
    ops = np.stack(ops)
    sup_t = np.einsum("kij,klm->jmil", ops, ops.conj()).reshape(shape[1], shape[1])

    def stage(rhos: np.ndarray) -> np.ndarray:
        g = rhos.shape[0]
        t = rhos.reshape((g,) + (2,) * (2 * n)).transpose(fwd).reshape((g,) + shape)
        out = (t @ sup_t).reshape((g,) + (2,) * (2 * n))
        return out.transpose(back).reshape(rhos.shape)

    return stage


@functools.lru_cache
def _unit_products(k: int) -> np.ndarray:
    """(4^k, 2^k, 2^k) Kronecker products u_A of k per-qubit units, read-only."""
    per_qubit = (ch.SIGMA[0],) + tuple(-1j * s for s in ch.SIGMA[1:])
    units = np.stack([tensor(*(per_qubit[a] for a in combo))
                      for combo in product(range(4), repeat=k)])
    units.setflags(write=False)
    return units


def _quadratic_forms(rho: np.ndarray, group, n: int, post: Callable) -> np.ndarray:
    """The (16^k, dk, dk) matrices D of the encoded side state
    zeta = sum_AB qt_A qt_B D_AB, qt the Kronecker product of the k per-qubit
    quaternions on ``group``.

    The group's unitary is sum_A qt_A u_A over the Kronecker products u_A of
    the per-qubit units (1, -i s_x, -i s_y, -i s_z), so D_AB is the symmetric
    part of post(u_A rho u_B^+).
    """
    k = len(group)
    rest = [q for q in range(n) if q not in group]
    perm = group + rest
    kdim, rdim, d = 1 << k, 1 << len(rest), 1 << n
    t = rho.reshape([2] * (2 * n)).transpose(perm + [p + n for p in perm])
    t = t.reshape(kdim, rdim, kdim, rdim)
    units = _unit_products(k)
    m = np.einsum("Aab,brct,Bdc->ABardt", units, t, units.conj())
    inv = list(np.argsort(perm))
    back = [0] + [1 + i for i in inv] + [1 + n + i for i in inv]
    m = m.reshape([-1] + [2] * (2 * n)).transpose(back).reshape(-1, d, d)
    forms = post(m)
    forms = forms.reshape((len(units),) * 2 + forms.shape[1:])
    return (0.5 * (forms + forms.swapaxes(0, 1))).reshape((-1,) + forms.shape[2:])


_LOG_FLOOR = 1e-300   # eigenvalue floor inside log2 for the gradient


class _EntropyObjective:
    """S(zeta) and its exact gradient for P problems at once.

    Problem p's side state is zeta = sum_AB qt_A qt_B forms[p, A, B], qt the
    Kronecker product of a row's k per-qubit quaternions. Called with
    (P', S, k, 4) quaternions and the indices of their P' problems, returns
    the (P', S) entropies in bits and the (P', S, k, 4) Euclidean gradients
    dS/dq_j, from one batched eigendecomposition: dS/dqt = 2 G qt with
    G_AB = -Re tr[log2(zeta) D_AB].
    """

    def __init__(self, forms: np.ndarray):
        self.dk = forms.shape[-1]
        self.forms = forms.reshape(forms.shape[:2] + (-1,))
        self.forms_h = np.swapaxes(self.forms.conj(), 1, 2)

    def __call__(self, q: np.ndarray, problems=slice(None)):
        p, s, k = q.shape[:3]
        qt = q[:, :, 0]
        for j in range(1, k):
            qt = (qt[..., :, None] * q[:, :, j, None, :]).reshape(p, s, -1)
        quad = (qt[..., :, None] * qt[..., None, :]).reshape(p, s, -1)
        zeta = (quad @ self.forms[problems]).reshape(p * s, self.dk, self.dk)
        w, v = np.linalg.eigh(zeta)
        w = np.clip(w, 0.0, None)
        logs = np.log2(np.maximum(w, _LOG_FLOOR))
        values = -(w * logs).sum(axis=-1).reshape(p, s)
        log_zeta = (v * logs[:, None, :]) @ np.swapaxes(v.conj(), -1, -2)
        g = -(log_zeta.reshape(p, s, -1) @ self.forms_h[problems]).real
        dqt = 2.0 * (g.reshape(p, s, qt.shape[-1], -1) @ qt[..., None])
        dqt = dqt.reshape((p, s) + (4,) * k)
        grads = np.empty(q.shape)
        for j in range(k):   # chain rule through the Kronecker product
            others = [x for r in range(k) if r != j for x in (q[:, :, r], [0, 1, 2 + r])]
            grads[:, :, j] = np.einsum(dqt, list(range(k + 2)), *others, [0, 1, 2 + j])
        return values, grads


# ---------------------------------------------------------------------------
# the minimizer: batched steepest descent on unit quaternions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DescentResult:
    """Outcome of ``minimize``, one entry per problem: ``x`` the (k, 4)
    quaternions of the reported minimum, ``fun`` its value, ``start_fun``
    the lowest value over the starts, ``grad_norm`` the gradient norm at
    ``x`` in bits per radian of rotation, ``steps`` and ``evaluations``
    (one per start at the outset, and one per step a start took); ``nfev``
    sums the latter."""

    x: np.ndarray
    fun: np.ndarray
    start_fun: np.ndarray
    grad_norm: np.ndarray
    steps: np.ndarray
    evaluations: np.ndarray
    nfev: int


_STEP0 = 1.0        # initial step, radians of rotation per unit gradient
_GROW, _SHRINK = 2.0, 0.25
_TIE_ATOL = 1e-12


def _tangent_gradient(q: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """The gradient on each qubit's S^3 in bits per radian of rotation: an
    arc t of S^3 rotates by 2t, so it is half the tangent part of dS/dq."""
    return 0.5 * (grad - (grad * q).sum(axis=-1, keepdims=True) * q)


def minimize(objective: Callable, starts: np.ndarray, cfg: OptConfig) -> DescentResult:
    """Steepest descent q <- (q - eta omega / 2) / |.| per qubit from the
    (P, S, k, 4) ``starts`` of P problems at once: a rotation by about
    eta |omega| radians against the gradient omega.

    Each start keeps its own step eta. A step that lowers its value is
    taken, and the next eta is the Barzilai-Borwein length 2<s,s>/<s,y> of
    that step (s the change in q, y the change in omega), clipped to
    [0.1, 10] times the last eta, or twice the last eta where <s,y> <= 0.
    A step that does not lower the value is refused and eta shrinks
    fourfold. A start stops once its gradient norm is below ``cfg.grad_tol``
    or its step no longer moves it, and is not evaluated again. A problem
    leaves the batch when every one of its starts has stopped, or after
    ``cfg.max_steps`` steps. A value within 1e-12 of a problem's minimum at
    its first start's initial point is reported there, so flat objectives
    return the first start.
    """
    q = np.array(starts, dtype=float, order="C")   # each problem laid out as if alone
    first = q[:, 0].copy()
    values, grads = objective(q)
    if not np.all(np.isfinite(values)):
        # a refused step never replaces a finite value, so this check suffices
        raise OptimizationError("entropy objective is non-finite at the starts")
    omega = _tangent_gradient(q, grads)
    start_values = values.copy()
    first_norm = np.sqrt((omega[:, 0] ** 2).sum(axis=(1, 2)))
    eta = np.full(values.shape, _STEP0)
    steps = np.zeros(values.shape[0], dtype=int)
    evaluations = np.full(values.shape[0], values.shape[1])
    while True:
        norms = np.sqrt((omega ** 2).sum(axis=(2, 3)))
        active = ((norms > cfg.grad_tol) & (eta * norms > 1e-15)
                  & (steps < cfg.max_steps)[:, None])
        rows, cols = np.nonzero(active)
        if rows.size == 0:
            break
        steps += active.any(axis=1)
        evaluations += active.sum(axis=1)
        q0, omega0, eta0 = q[rows, cols], omega[rows, cols], eta[rows, cols]
        trial = q0 - 0.5 * eta0[:, None, None] * omega0
        trial /= np.linalg.norm(trial, axis=-1, keepdims=True)
        trial_values, trial_grads = objective(trial[:, None], rows)
        trial_omega = _tangent_gradient(trial, trial_grads[:, 0])
        take = trial_values[:, 0] <= values[rows, cols]
        s, y = trial - q0, trial_omega - omega0
        ss, sy = (s * s).sum(axis=(1, 2)), (s * y).sum(axis=(1, 2))
        bb = np.clip(2.0 * ss / np.where(sy > 0, sy, 1.0), 0.1 * eta0, 10.0 * eta0)
        eta[rows, cols] = np.where(take, np.where(sy > 0, bb, _GROW * eta0),
                                   _SHRINK * eta0)
        rows, cols = rows[take], cols[take]
        q[rows, cols], omega[rows, cols] = trial[take], trial_omega[take]
        values[rows, cols] = trial_values[take, 0]
    rows = np.arange(values.shape[0])
    best = np.argmin(values, axis=1)
    tie = start_values[:, 0] <= values[rows, best] + _TIE_ATOL
    return DescentResult(
        x=np.where(tie[:, None, None], first, q[rows, best]),
        fun=np.where(tie, start_values[:, 0], values[rows, best]),
        start_fun=start_values.min(axis=1),
        grad_norm=np.where(tie, first_norm, norms[rows, best]),
        steps=steps, evaluations=evaluations, nfev=int(evaluations.sum()))


# ---------------------------------------------------------------------------
# side minima and the noisy bounds
# ---------------------------------------------------------------------------

BLOCK_STATES = 64   # states per batch of ``noisy_locc_bounds``; memory grows with it


def _side_forms(rho: np.ndarray, spec: ch.ChannelSpec, layout: RegisterLayout,
                side: int) -> np.ndarray:
    """The side's objective forms on its reduced state, with the channel's
    marginal Kraus stage (memoized per channel, layout and side by
    ``channel_memo``) on the sender group; the traced senders' noise drops out."""
    keep = list(layout.side_indices(side))
    pos = [keep.index(q) for q in layout.group_indices(side)]
    stage = ch.channel_memo(
        spec, layout, ("kraus stage", side),
        lambda: _make_kraus_stage(ch.marginal_kraus(spec, layout, side).operators,
                                  pos, len(keep)))
    return _quadratic_forms(partial_trace_matrix(rho, keep, layout.n_qubits), pos,
                            len(keep), stage)


def _side_minima(rhos: np.ndarray, spec: ch.ChannelSpec, layout: RegisterLayout,
                 sides, cfg: OptConfig) -> list:
    """Per row of ``rhos``, (min entropy, minimizer, SearchDiagnostics or None)
    for each side; every side of one sender-group size descends in one batch."""
    found, batches = {}, {}
    for row, side in product(range(len(rhos)), sides):
        group, t0 = layout.group_indices(side), time.perf_counter()
        if not group:
            found[row, side] = (_marginal_entropy(rhos[row], layout,
                                                  layout.side_indices(side)), (), None)
            continue
        forms = _side_forms(rhos[row], spec, layout, side)
        batches.setdefault(len(group), []).append(
            ((row, side), forms, time.perf_counter() - t0))
    for k, batch in batches.items():
        t0 = time.perf_counter()
        objective = _EntropyObjective(np.stack([forms for _, forms, _ in batch]))
        starts = np.broadcast_to(_start_quaternions(cfg.starts, k),
                                 (len(batch), cfg.starts, k, 4))
        res = minimize(objective, starts, cfg)
        descent_s = time.perf_counter() - t0
        for p, (key, _, build_s) in enumerate(batch):
            grad_norm = float(res.grad_norm[p])
            diag = SearchDiagnostics(
                starts=cfg.starts, steps=int(res.steps[p]),
                evaluations=int(res.evaluations[p]), start_value=float(res.start_fun[p]),
                final_value=float(res.fun[p]), grad_norm=grad_norm,
                converged=grad_norm <= cfg.grad_tol, elapsed_s=build_s + descent_s)
            found[key] = (float(res.fun[p]),
                          tuple(_params_from_quaternion(qj) for qj in res.x[p]), diag)
    return [[found[row, side] for side in sides] for row in range(len(rhos))]


def noisy_locc_bounds(rhos: np.ndarray, layout: RegisterLayout, spec: ch.ChannelSpec,
                      cfg: OptConfig = DEFAULT_OPT) -> list[BoundReport]:
    """``noisy_locc_bound`` of each state of a (B, d, d) stack of density
    matrices. The sides of up to ``BLOCK_STATES`` states descend in one batch,
    and each report equals bit for bit that of its state computed alone."""
    layout = layout.require_protocol()
    receivers = [[layout.receiver_index(x)] for x in (1, 2)]
    minima = [m for lo in range(0, len(rhos), BLOCK_STATES)
              for m in _side_minima(rhos[lo:lo + BLOCK_STATES], spec, layout, (1, 2), cfg)]
    return [_assemble_report(layout, *[_marginal_entropy(rho, layout, r) for r in receivers],
                             sides) for rho, sides in zip(rhos, minima)]


def noisy_locc_bound(state, spec: ch.ChannelSpec,
                     cfg: OptConfig = DEFAULT_OPT) -> BoundReport:
    """Upper bound on the LOCC dense-coding capacity under a noisy channel:
    log d_S + S(rho^{R1}) + S(rho^{R2}) - max_x S(zeta^x)."""
    return noisy_locc_bounds(as_density_matrix(state)[None], state.layout, spec, cfg)[0]


def min_output_entropy(state, spec: ch.ChannelSpec, side: int,
                       cfg: OptConfig = DEFAULT_OPT):
    """Minimum entropy of the side-``side`` state after encoding and noise,
    min over sender-local unitaries of S(zeta^side).

    Computed as ``noisy_locc_bound`` computes each side, on its reduced state.

    Returns:
        (entropy_bits, minimizer): minimizer is one EncodingUnitaryParams per
        qubit of the side's sender group.
    """
    [[(val, params, _)]] = _side_minima(as_density_matrix(state)[None], spec,
                                        state.layout.require_protocol(), [side], cfg)
    return val, params


COVARIANCE_GATE = 1e-8


def covariant_chi(state, spec: ch.ChannelSpec,
                  cfg: OptConfig = DEFAULT_OPT) -> BoundReport:
    """The covariant-channel capacity bound chi.

    Requires a covariant channel (checked), for which the bound holds with
    equality of its ensemble form; the value is then computed exactly as
    ``noisy_locc_bound`` computes it, on the reduced side states with the
    channel's marginal Kraus operators.
    """
    layout = state.layout.require_protocol()
    dev = ch.check_covariance(spec, layout=layout)
    if dev >= COVARIANCE_GATE:
        raise ValueError(f"channel is not covariant: max deviation {dev:.3e}")
    return noisy_locc_bounds(as_density_matrix(state)[None], layout, spec, cfg)[0]


# ---------------------------------------------------------------------------
# four-qubit GHZ closed forms
# ---------------------------------------------------------------------------

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
