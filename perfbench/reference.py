"""Dense reference computations for the benchmark, written apart from densecode.

Everything here works on the four-qubit register S1 S2 R1 R2 (qubit 0 is the
most significant bit), with S1 routed to R1 and S2 to R2:

* Haar states are redrawn from the documented seed contract,
  ``SeedSequence(entropy=seed, spawn_key=(state_id,))``;
* channels are Kraus sets on the two sender qubits, from their textbook
  formulas (phase damping in its Pauli-Z form);
* a side state is formed by an explicit local unitary on the side's sender,
  the channel on both senders, and a partial trace by reshape;
* a side minimum is a multi-start Nelder-Mead search over all of SU(2),
  in Euler angles, with no box;
* the GGM comes from the singular values of the seven cuts.

Only numpy and scipy.optimize are used; no densecode function is called.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize

N_QUBITS = 4
SENDER = {1: 0, 2: 1}           # side -> sender qubit
SIDE = {1: (0, 2), 2: (1, 3)}   # side -> kept qubits
TIE_ATOL = 1e-9                 # condition-flag and line tolerance of the paper's test

I2 = np.eye(2, dtype=complex)
PAULI = (I2,
         np.array([[0, 1], [1, 0]], dtype=complex),
         np.array([[0, -1j], [1j, 0]], dtype=complex),
         np.array([[1, 0], [0, -1]], dtype=complex))

# cuts with at most half the qubits, pairs only those holding qubit 0
CUTS = ((0,), (1,), (2,), (3,), (0, 1), (0, 2), (0, 3))


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

def haar_amplitudes(seed: int, state_id: int) -> np.ndarray:
    """Amplitudes of Haar state ``state_id`` of campaign ``seed``."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(state_id,))
    gen = np.random.default_rng(ss)
    v = gen.standard_normal(16) + 1j * gen.standard_normal(16)
    return v / np.linalg.norm(v)


def ghz_amplitudes() -> np.ndarray:
    v = np.zeros(16, dtype=complex)
    v[0] = v[15] = 1.0 / math.sqrt(2.0)
    return v


# ---------------------------------------------------------------------------
# partial trace, entropies, GGM
# ---------------------------------------------------------------------------

def partial_trace(rho: np.ndarray, keep) -> np.ndarray:
    """Reduce (..., 16, 16) density matrices onto the qubits ``keep``."""
    keep = sorted(keep)
    rest = [q for q in range(N_QUBITS) if q not in keep]
    nb = rho.ndim - 2
    batch = rho.shape[:-2]
    t = rho.reshape(batch + (2,) * (2 * N_QUBITS))
    axes = list(range(nb))
    perm = (axes + [nb + q for q in keep] + [nb + q for q in rest]
            + [nb + N_QUBITS + q for q in keep] + [nb + N_QUBITS + q for q in rest])
    dk, dr = 1 << len(keep), 1 << len(rest)
    t = t.transpose(perm).reshape(batch + (dk, dr, dk, dr))
    return np.einsum("...ajbj->...ab", t)


def entropy_bits(mats: np.ndarray) -> np.ndarray:
    """Von Neumann entropy in bits of each Hermitian matrix in a stack."""
    w = np.clip(np.linalg.eigvalsh(mats), 0.0, None)
    logs = np.log2(np.where(w > 0.0, w, 1.0))
    return -(w * logs).sum(axis=-1)


def binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def max_schmidt_sq(amps: np.ndarray) -> np.ndarray:
    """(B, 16) amplitudes -> (B, 7) largest squared Schmidt coefficient per cut."""
    b = amps.shape[0]
    t = amps.reshape(b, 2, 2, 2, 2)
    out = np.empty((b, len(CUTS)))
    for j, cut in enumerate(CUTS):
        rest = [q for q in range(N_QUBITS) if q not in cut]
        m = t.transpose([0] + [1 + q for q in cut] + [1 + q for q in rest])
        m = m.reshape(b, 1 << len(cut), 1 << len(rest))
        out[:, j] = np.linalg.svd(m, compute_uv=False)[:, 0] ** 2
    return out


def noiseless_rows(amps: np.ndarray) -> dict:
    """Everything a noiseless campaign row states, for (B, 16) amplitudes."""
    lam = max_schmidt_sq(amps)
    ggm = 1.0 - lam.max(axis=1)
    rho = amps[:, :, None] * amps[:, None, :].conj()
    s = {k: entropy_bits(partial_trace(rho, q))
         for k, q in (("R1", (2,)), ("R2", (3,)), ("S1R1", SIDE[1]), ("S2R2", SIDE[2]))}
    bound = 2.0 + s["R1"] + s["R2"] - np.maximum(s["S1R1"], s["S2R2"])
    lam_max = lam.max(axis=1)
    line = np.array([2.0 + binary_entropy(1.0 - min(max(e, 0.0), 0.5)) for e in ggm])
    return {
        "ggm": ggm,
        "bound": bound,
        "cond_i": s["R1"] <= s["S1R1"] + TIE_ATOL,
        "cond_ii": lam[:, CUTS.index((3,))] >= lam_max - TIE_ATOL,
        "swapped_i": s["R2"] <= s["S2R2"] + TIE_ATOL,
        "swapped_ii": lam[:, CUTS.index((2,))] >= lam_max - TIE_ATOL,
        "above": bound <= line + TIE_ATOL,
    }


def receiver_entropies(amps: np.ndarray) -> tuple[float, float]:
    rho = np.outer(amps, amps.conj())
    return (float(entropy_bits(partial_trace(rho, (2,)))),
            float(entropy_bits(partial_trace(rho, (3,)))))


# ---------------------------------------------------------------------------
# channels on the two sender qubits (4x4 Kraus operators, S1 (x) S2)
# ---------------------------------------------------------------------------

def _amplitude_damping(g: float):
    return [np.array([[1, 0], [0, math.sqrt(1 - g)]], dtype=complex),
            np.array([[0, math.sqrt(g)], [0, 0]], dtype=complex)]


def _phase_damping(p: float):
    # coherences scale by (1 - p): rho -> (1 - p/2) rho + (p/2) Z rho Z
    return [math.sqrt(1 - p / 2) * I2, math.sqrt(p / 2) * PAULI[3]]


def sender_kraus(channel: str) -> list[np.ndarray]:
    """Kraus operators on S1 (x) S2 for a channel in the densecode CLI grammar."""
    head, _, payload = channel.partition(":")
    vals = [float(v) for v in payload.split(",")]
    if head in ("ad", "pd"):
        one = _amplitude_damping if head == "ad" else _phase_damping
        return [np.kron(k1, k2) for k1 in one(vals[0]) for k2 in one(vals[1])]
    if head == "pauli":
        return [math.sqrt(q) * np.kron(PAULI[m], PAULI[m])
                for m, q in enumerate(vals) if q > 0]
    if head == "pauli-gen":
        q = np.array(vals).reshape(4, 4)
        return [math.sqrt(q[m, n]) * np.kron(PAULI[m], PAULI[n])
                for m in range(4) for n in range(4) if q[m, n] > 0]
    raise ValueError(f"no reference channel for {channel!r}")


# ---------------------------------------------------------------------------
# encoded, noisy side states
# ---------------------------------------------------------------------------

def euler_unitaries(angles: np.ndarray) -> np.ndarray:
    """(G, 3) ZYZ Euler angles -> (G, 2, 2) SU(2) matrices Rz(a) Ry(b) Rz(c)."""
    a, b, c = angles[:, 0], angles[:, 1], angles[:, 2]
    cb, sb = np.cos(b / 2), np.sin(b / 2)
    u = np.empty((angles.shape[0], 2, 2), dtype=complex)
    u[:, 0, 0] = np.exp(-0.5j * (a + c)) * cb
    u[:, 0, 1] = -np.exp(-0.5j * (a - c)) * sb
    u[:, 1, 0] = np.exp(0.5j * (a - c)) * sb
    u[:, 1, 1] = np.exp(0.5j * (a + c)) * cb
    return u


def paper_unitary(a: float, theta1: float, theta2: float) -> np.ndarray:
    """The encoding unitary of the paper's parameters (a, theta1, theta2)."""
    b = math.sqrt(max(1.0 - a * a, 0.0))
    return np.array([[a * np.exp(1j * theta1), b * np.exp(-1j * theta2)],
                     [-b * np.exp(1j * theta2), a * np.exp(-1j * theta1)]])


class SideProblem:
    """S(zeta^side) as a function of the side's 2x2 encoding unitary.

    The channel and the partial trace onto the side are one linear map,
    tabulated once on the 256 matrix units; each evaluation applies the
    encoding unitary to the sender's ket and bra axes of rho and maps the
    result.
    """

    def __init__(self, amps: np.ndarray, channel: str, side: int):
        s = SENDER[side]
        rho = np.outer(amps, amps.conj()).reshape((2,) * (2 * N_QUBITS))
        # sender ket axis, sender bra axis, then the other 6 axes in order
        self.rho = np.moveaxis(rho, (s, N_QUBITS + s), (0, 1)).reshape(2, 2, 64)
        kraus = np.stack([np.kron(k, np.eye(4)) for k in sender_kraus(channel)])
        # image of the matrix unit |i><j| is sum_k K|i><j|K^dag
        images = np.einsum("kai,kbj->ijab", kraus, kraus.conj()).reshape(256, 16, 16)
        side_map = partial_trace(images, SIDE[side]).reshape((2,) * (2 * N_QUBITS) + (16,))
        self.side_map = np.moveaxis(side_map, (s, N_QUBITS + s), (0, 1)).reshape(256, 16)

    def entropies(self, u: np.ndarray) -> np.ndarray:
        enc = np.einsum("gab,bcx,gdc->gadx", u, self.rho, u.conj())
        zeta = (enc.reshape(u.shape[0], 256) @ self.side_map).reshape(-1, 4, 4)
        return entropy_bits(zeta)

    def at_angles(self, x: np.ndarray) -> float:
        return float(self.entropies(euler_unitaries(np.asarray(x)[None, :]))[0])


N_PROBES = 768
N_STARTS = 6
_PROBE_SEED = 20141222


def _probe_angles() -> np.ndarray:
    """Haar-distributed SU(2) probes in ZYZ angles (fixed, seed-independent)."""
    gen = np.random.default_rng(_PROBE_SEED)
    a = gen.uniform(0.0, 2 * math.pi, N_PROBES)
    b = np.arccos(1.0 - 2.0 * gen.uniform(0.0, 1.0, N_PROBES))
    c = gen.uniform(0.0, 4 * math.pi, N_PROBES)
    return np.stack([a, b, c], axis=1)


def side_min_entropy(amps: np.ndarray, channel: str, side: int) -> float:
    """Minimum of S(zeta^side) over every SU(2) encoding of the side's sender.

    Probes SU(2) with fixed Haar points, then refines the lowest few that
    are far apart (as unitaries up to sign) with Nelder-Mead, restarted once
    from each end point.
    """
    prob = SideProblem(amps, channel, side)
    x = _probe_angles()
    us = euler_unitaries(x)
    vals = prob.entropies(us)
    starts = []
    for i in np.argsort(vals):
        if all(abs(np.trace(us[i].conj().T @ us[j])) / 2 < 0.95 for j in starts):
            starts.append(i)
        if len(starts) == N_STARTS:
            break
    best = float(vals.min())
    opts = dict(xatol=1e-4, fatol=1e-13, maxfev=2000)
    for i in starts:
        res = minimize(prob.at_angles, x[i], method="Nelder-Mead", options=opts)
        res = minimize(prob.at_angles, res.x, method="Nelder-Mead", options=opts)
        best = min(best, float(res.fun))
    return best


# ---------------------------------------------------------------------------
# the stored panel: Haar states RngSeed(PANEL_SEED, i), i < PANEL_STATES
# ---------------------------------------------------------------------------

PANEL_SEED = 99
PANEL_STATES = 8
PANEL_FILE = "reference_panel.json"
ASYM_PAULI = "pauli-gen:" + ",".join(
    format(float(v), ".12g")
    for v in np.outer([0.7, 0.2, 0.05, 0.05], [0.7, 0.05, 0.2, 0.05]).ravel())
PANEL_CHANNELS = ("ad:0.6,0.3", "pd:0.4,0.7", "pauli:0.8,0.05,0.05,0.1", ASYM_PAULI)


def panel_side_minima(seed: int) -> dict:
    """channel -> [[side 1 minimum, side 2 minimum] per panel state]."""
    return {channel: [[side_min_entropy(haar_amplitudes(seed, i), channel, side)
                       for side in (1, 2)] for i in range(PANEL_STATES)]
            for channel in PANEL_CHANNELS}


# ---------------------------------------------------------------------------
# four-qubit GHZ closed forms, per side
# ---------------------------------------------------------------------------

def ghz_side_min_entropy(channel: str, side: int) -> float:
    """Closed-form min_U S(zeta^side) for the GHZ state: the bound is
    4 - max over sides of this value."""
    head, _, payload = channel.partition(":")
    vals = [float(v) for v in payload.split(",")]
    if head == "ad":
        g = vals[side - 1]
        return 1.0 + binary_entropy((1.0 - math.sqrt(1.0 - g + g * g)) / 2.0)
    if head == "pd":
        return 1.0
    if head == "pauli":
        b = sorted(vals, reverse=True)
        return 1.0 + binary_entropy(b[0] + b[1])
    if head == "pauli-gen":
        q = np.array(vals).reshape(4, 4)
        w = np.sort(q.sum(axis=1 if side == 1 else 0))[::-1]
        return 1.0 + binary_entropy(float(w[0] + w[1]))
    raise ValueError(f"no GHZ closed form for {channel!r}")
