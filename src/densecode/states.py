"""Reference states, Haar-uniform sampling, and the plain-text state format."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .qcore import (NORM_ATOL, RECEIVER_TAGS, PureState, RegisterLayout,
                    half_routing)


@dataclass(frozen=True)
class GghzParams:
    """Two-term superposition of |0...0> and |1...1>.

    ``p`` is the squared amplitude of |0...0> (i.e. the weight of that branch,
    which is also a marginal eigenvalue on every cut); ``phi`` the relative
    phase on the |1...1> branch.
    """

    p: float
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p = {self.p} outside [0, 1]")


@dataclass(frozen=True)
class RngSeed:
    """Deterministic, stream-splittable RNG key.

    The same (seed, stream_index) pair always yields the identical sample
    sequence; distinct stream indices give statistically independent streams,
    so per-sample streams keyed by sample id make parallel campaigns
    schedule-independent. The stream is numpy's PCG64 seeded by
    ``SeedSequence(entropy=seed, spawn_key=(stream_index,))``.
    """

    seed: int
    stream_index: int = 0

    def __post_init__(self):
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if not 0 <= self.stream_index < 1 << 64:
            raise ValueError("stream_index must be a 64-bit unsigned integer")

    def generator(self) -> np.random.Generator:
        return _generator(pcg64_seed_words([self])[0])


# numpy's SeedSequence (numpy/random/bit_generator.pyx): a pool of four uint32
# words; hashmix number j XORs with _HASH_A[j] and multiplies by _HASH_A[j + 1],
# and generate_state's word j does the same with _HASH_B.
def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)


_HASH_A = _hash_constants(0x43b0d7e5, 0x931e8875, 25)
_HASH_B = _hash_constants(0x8b51f9dd, 0x58f38ded, 9)
_MIX_L = np.uint32(0xca01f9dd)
_MIX_R = np.uint32(0x4973f715)
_XSHIFT = np.uint32(16)
# the seed fills the pool's first two words; the spawn key is mixed in after
_SEED_WORDS = np.array([0xFFFFFFFF, 0xFFFFFFFF, 0, 0], dtype=np.uint32)


def _cross_constants() -> tuple[np.ndarray, np.ndarray]:
    """Hashmix constants of the cross-mixing pass, one row per source word:
    source s mixes into every other word d in ascending order, hashmix
    4 + 3s + (its position among them); the entries at d = s are unused."""
    xor = np.zeros((4, 4), dtype=np.uint32)
    mul = np.zeros((4, 4), dtype=np.uint32)
    for s in range(4):
        for t, d in enumerate(d for d in range(4) if d != s):
            xor[s, d], mul[s, d] = _HASH_A[4 + 3 * s + t], _HASH_A[5 + 3 * s + t]
    return xor, mul


_CROSS_XOR, _CROSS_MUL = _cross_constants()


def _hashmix(v: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    v = v ^ xor
    v *= mul
    v ^= v >> _XSHIFT
    return v


def _mix(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """numpy's mix(x, h) = L x - R h, then xorshift; overwrites ``h``."""
    h *= _MIX_R
    r = x * _MIX_L
    r -= h
    r ^= r >> _XSHIFT
    return r


def pcg64_seed_words(keys) -> np.ndarray:
    """(B, 4) uint64 PCG64 seed of every RngSeed in ``keys``, derived for the
    whole block at once: row i equals ``SeedSequence(entropy=keys[i].seed,
    spawn_key=(keys[i].stream_index,)).generate_state(4, np.uint64)``.

    Each stage runs across the rows and the four pool words together; the
    hash constants are the same for every row, so only the cross-mixing
    pass, which reads each source word after the last stage wrote it, loops.
    """
    # little-endian 32-bit words (seed lo, seed hi, key lo, key hi) per row
    w = np.array([(k.seed, k.stream_index) for k in keys],
                 dtype="<u8").reshape(-1, 2).view("<u4")
    # the seed is zero-padded to the pool size because a spawn key follows
    pool = _hashmix(w & _SEED_WORDS, _HASH_A[0:4], _HASH_A[1:5])
    for s in range(4):
        mixed = _mix(pool, _hashmix(pool[:, s, None], _CROSS_XOR[s], _CROSS_MUL[s]))
        mixed[:, s] = pool[:, s]
        pool = mixed
    # the key's words: one below 2^32, two from there on
    pool = _mix(pool, _hashmix(w[:, 2, None], _HASH_A[16:20], _HASH_A[17:21]))
    two = w[:, 3] != 0
    if two.any():
        pool[two] = _mix(pool[two], _hashmix(w[two, 3][:, None], _HASH_A[20:24],
                                             _HASH_A[21:25]))
    # generate_state(4, uint64): eight uint32 words cycling over the pool,
    # read as four little-endian uint64
    state = _hashmix(np.concatenate((pool, pool), axis=1), _HASH_B[0:8], _HASH_B[1:9])
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _seed_words_type() -> type:
    # numpy.random loads here, at the first draw, not when densecode is imported
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        """Hands precomputed seed words to ``np.random.PCG64``, which asks
        for exactly four uint64 words; nothing can be spawned from it."""

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError("these seed words are four uint64 words for PCG64")
            return self.words

    return SeedWords


def _generator(words: np.ndarray) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_seed_words_type()(words)))


def _default_layout(n: int) -> RegisterLayout:
    return RegisterLayout.split(max(n - 2, 0))


def make_ghz(n: int, layout: RegisterLayout | None = None) -> PureState:
    """n-qubit GHZ state (|0...0> + |1...1>)/sqrt(2)."""
    if n < 2:
        raise ValueError(f"GHZ needs n >= 2 qubits, got {n}")
    layout = layout if layout is not None else _default_layout(n)
    if layout.n_qubits != n:
        raise ValueError("layout size does not match n")
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = amps[-1] = 1.0 / math.sqrt(2.0)
    return PureState(amps, layout)


def make_gghz(params: GghzParams,
              layout: RegisterLayout | None = None) -> PureState:
    """Generalized GHZ state sqrt(p)|0...0> + sqrt(1-p) e^{i phi}|1...1>.

    Defaults to the four-qubit register S1 S2 R1 R2.
    """
    layout = layout if layout is not None else _default_layout(4)
    amps = np.zeros(layout.dim, dtype=complex)
    amps[0] = math.sqrt(params.p)
    amps[-1] = math.sqrt(1.0 - params.p) * np.exp(1j * params.phi)
    return PureState(amps, layout)


def haar_random_pure(n: int, rng: RngSeed | np.random.Generator,
                     layout: RegisterLayout | None = None) -> PureState:
    """Haar-uniform random n-qubit pure state.

    Draws 2^n independent standard complex Gaussian amplitudes and
    normalizes; the resulting distribution is invariant under any fixed
    unitary rotation.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    layout = layout if layout is not None else _default_layout(n)
    return PureState(haar_amplitudes(n, [rng])[0], layout)


def haar_amplitudes(n: int, rngs) -> np.ndarray:
    """(len(rngs), 2^n) amplitudes of Haar states, row i drawn from rngs[i]
    (an RngSeed or a Generator); the draw of :func:`haar_random_pure`.

    A row is 2^n real and then 2^n imaginary standard normals, divided by
    their norm. The PCG64 seeds of all RngSeed entries are derived in one
    :func:`pcg64_seed_words` call.
    """
    rngs = list(rngs)
    d = 1 << n
    words = iter(pcg64_seed_words([r for r in rngs if isinstance(r, RngSeed)]))
    normals = np.empty((len(rngs), 2 * d))
    for rng, row in zip(rngs, normals):
        gen = _generator(next(words)) if isinstance(rng, RngSeed) else rng
        gen.standard_normal(out=row)
    amps = np.empty((len(rngs), d), dtype=complex)
    amps.real = normals[:, :d]
    amps.imag = normals[:, d:]
    # np.linalg.norm's arithmetic: dot products of the strided views
    norms = [math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag)) for v in amps]
    amps /= np.array(norms).reshape(-1, 1)
    return amps


# ---------------------------------------------------------------------------
# text format: header line "n <N> <role> <role> ...", then 2^N lines "re im"
# (basis index ascending, qubit 0 most significant)
# ---------------------------------------------------------------------------

class StateFormatError(ValueError):
    """Malformed state file; carries the 1-based offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def save_state(state: PureState) -> str:
    lines = ["n {} {}".format(state.n_qubits, " ".join(state.layout.roles))]
    for z in state.amplitudes:
        lines.append(f"{float(z.real)!r} {float(z.imag)!r}")
    return "\n".join(lines) + "\n"


def _routing_for(roles: tuple[str, ...]) -> dict[str, str]:
    # The file format carries roles only; senders get the canonical routing
    # in register order.
    if sorted(r for r in roles if r in RECEIVER_TAGS) != list(RECEIVER_TAGS):
        return {}
    return half_routing([r for r in roles if r not in RECEIVER_TAGS])


def load_state(text: str) -> PureState:
    """Parse the text format written by :func:`save_state`.

    Raises StateFormatError (with a line number) on a malformed header, a
    wrong amplitude count, non-numeric entries, or a norm off by more than
    1e-6.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise StateFormatError(1, "empty input")
    head = lines[0].split()
    if len(head) < 2 or head[0] != "n":
        raise StateFormatError(1, f"expected header 'n <N> <roles...>', got {lines[0]!r}")
    try:
        n = int(head[1])
    except ValueError:
        raise StateFormatError(1, f"qubit count {head[1]!r} is not an integer") from None
    if n < 1:
        raise StateFormatError(1, f"qubit count must be >= 1, got {n}")
    roles = tuple(head[2:])
    if len(roles) != n:
        raise StateFormatError(1, f"expected {n} role tags, got {len(roles)}")
    d = 1 << n
    body = lines[1:]
    if len(body) != d:
        raise StateFormatError(len(lines) + 1 if len(body) < d else d + 2,
                               f"expected {d} amplitudes, got {len(body)}")
    amps = np.empty(d, dtype=complex)
    for i, ln in enumerate(body):
        parts = ln.split()
        if len(parts) != 2:
            raise StateFormatError(i + 2, f"expected 're im', got {ln!r}")
        try:
            amps[i] = complex(float(parts[0]), float(parts[1]))
        except ValueError:
            raise StateFormatError(i + 2, f"could not parse amplitude {ln!r}") from None
    norm = float(np.vdot(amps, amps).real)
    if abs(norm - 1.0) > 1e-6:
        raise StateFormatError(2, f"state norm^2 = {norm} is off by more than 1e-6")
    amps = amps / math.sqrt(norm) if abs(norm - 1.0) > NORM_ATOL else amps
    layout = RegisterLayout(roles=roles, routing=_routing_for(roles))
    return PureState(amps, layout)
