"""Reference states, Haar-uniform sampling, and the plain-text state format."""

from __future__ import annotations

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
    schedule-independent.
    """

    seed: int
    stream_index: int = 0

    def __post_init__(self):
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.stream_index < 0:
            raise ValueError("stream_index must be >= 0")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed,
                                    spawn_key=(self.stream_index,))
        return np.random.default_rng(ss)


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
    (an RngSeed or a Generator); the draw of :func:`haar_random_pure`."""
    rows = []
    for rng in rngs:
        gen = rng.generator() if isinstance(rng, RngSeed) else rng
        v = gen.standard_normal(1 << n) + 1j * gen.standard_normal(1 << n)
        v /= np.linalg.norm(v)
        rows.append(v)
    return np.stack(rows)


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
