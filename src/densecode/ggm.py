"""Generalized geometric measure and the entropy/eigenvalue condition flags
relating it to the dense-coding bound, all read off one kernel,
:class:`CutSpectra`, which computes each cut's marginal spectrum once for a
whole block of pure states; a one-state call gives its row's bits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import PureState, RegisterLayout, binary_entropy, entropy_from_eigs

TIE_ATOL = 1e-9


@dataclass(frozen=True)
class BipartitionScan:
    """Max squared Schmidt coefficient for every nonequivalent bipartition.

    ``entries`` maps a cut label (role tags of the smaller side, e.g. "R2"
    or "S1R1") to its largest squared Schmidt coefficient.
    """

    entries: tuple
    argmax_label: str
    max_lambda_sq: float


def _bipartitions(n: int) -> list[tuple]:
    """Subsets A with 1 <= |A| <= n/2, one representative per cut (for
    |A| = n/2 only those containing qubit 0), by size, then qubits."""
    subsets = (tuple(q for q in range(n) if (mask >> q) & 1) for mask in range(1, 1 << n))
    return sorted((a for a in subsets if 2 * len(a) < n or (2 * len(a) == n and 0 in a)),
                  key=lambda a: (len(a), a))


@dataclass(frozen=True)
class CutSpectra:
    """Reduced-state spectra of every cut of a block of pure states.

    ``spectra[j]`` is the (B, 2^|A|) array of ascending eigenvalues of the
    marginal on the qubits A = ``cuts[j]`` (role tags ``labels[j]``), one row
    per state; ``max_schmidt_sq`` (B, n_cuts) holds their largest values, the
    largest squared Schmidt coefficients.
    """

    layout: RegisterLayout
    cuts: tuple
    labels: tuple
    spectra: tuple
    max_schmidt_sq: np.ndarray

    @classmethod
    def of(cls, amps: np.ndarray, layout: RegisterLayout) -> "CutSpectra":
        """Spectra of a (B, 2^n) block of amplitudes (or of one state vector)."""
        n = layout.n_qubits
        t = np.asarray(amps, dtype=complex).reshape((-1,) + (2,) * n)
        cuts = _bipartitions(n)
        spectra = []
        for k in sorted({len(a) for a in cuts}):
            group = [a for a in cuts if len(a) == k]
            # coefficient matrices: rows = cut bits, cols = complement bits
            m = np.stack([t.transpose((0,) + tuple(1 + q for q in a)
                                      + tuple(1 + q for q in range(n) if q not in a))
                          .reshape(t.shape[0], 1 << k, -1) for a in group], axis=1)
            # one batched eigensolve of the Gram matrices M M^+ per cut size
            w = np.linalg.eigvalsh(m @ m.conj().swapaxes(-1, -2))
            spectra.extend(w[:, i] for i in range(len(group)))
        labels = tuple("".join(layout.roles[q] for q in a) for a in cuts)
        return cls(layout, tuple(cuts), labels, tuple(spectra),
                   np.stack([w[:, -1] for w in spectra], axis=1))

    def ggm(self) -> tuple[np.ndarray, np.ndarray]:
        """(B,) GGM values and (B,) index of the first cut attaining them."""
        lam = self.max_schmidt_sq
        best = lam.argmax(axis=1)
        return 1.0 - lam[np.arange(lam.shape[0]), best], best

    def entropy(self, qubits) -> np.ndarray:
        """(B,) entropy in bits of the marginal on ``qubits``; a pure state's
        marginal has the spectrum of its complement's."""
        keep = tuple(sorted(qubits))
        rest = tuple(q for q in range(self.layout.n_qubits) if q not in keep)
        return entropy_from_eigs(self.spectra[self.cuts.index(
            keep if keep in self.cuts else rest)])


def ggm(state: PureState):
    """Generalized geometric measure: 1 minus the largest squared Schmidt
    coefficient over all bipartitions.

    Returns:
        (value, BipartitionScan). The value is 0 exactly when some cut is a
        product, and at most 1/2 for qubit systems (every 1:(n-1) cut has a
        squared Schmidt coefficient of at least 1/2).
    """
    if state.n_qubits < 2:
        raise ValueError("GGM needs at least two parties")
    spectra = CutSpectra.of(state.amplitudes, state.layout)
    (value,), (best,) = spectra.ggm()
    lam, labels = spectra.max_schmidt_sq[0], spectra.labels
    return float(value), BipartitionScan(tuple(zip(labels, map(float, lam))),
                                         labels[best], float(lam[best]))


@dataclass(frozen=True)
class Theorem2Flags:
    """Condition flags for the capacity/entanglement ordering of a four-qubit
    state against the two-term reference family.

    cond_i: S(rho^{R1}) <= S(rho^{S1 R1});
    cond_ii: the bipartition scan's argmax is the R2 : rest cut;
    swapped_*: the same with S1,R1 and S2,R2 interchanged.
    Ties within 1e-9 count as satisfied.
    """

    cond_i: bool
    cond_ii: bool
    swapped_i: bool
    swapped_ii: bool

    @property
    def strict(self) -> bool:
        return self.cond_i and self.cond_ii

    @property
    def either(self) -> bool:
        return (self.cond_i and self.cond_ii) or (self.swapped_i and self.swapped_ii)


def theorem2_flags(spectra: CutSpectra) -> np.ndarray:
    """(B, 4) booleans cond_i, cond_ii, swapped_i, swapped_ii of every row of
    a block on the four-party register S1, S2, R1, R2."""
    layout = spectra.layout.require_protocol()
    if layout.n_qubits != 4 or set(layout.roles) != {"S1", "S2", "R1", "R2"}:
        raise ValueError("theorem2_conditions needs the S1 S2 R1 R2 register")
    s = {tags: spectra.entropy([layout.index_of(t) for t in tags.split()])
         for tags in ("R1", "R2", "S1 R1", "S2 R2")}
    lam = dict(zip(spectra.labels, spectra.max_schmidt_sq.T))
    top = spectra.max_schmidt_sq.max(axis=1) - TIE_ATOL
    return np.stack([s["R1"] <= s["S1 R1"] + TIE_ATOL, lam["R2"] >= top,
                     s["R2"] <= s["S2 R2"] + TIE_ATOL, lam["R1"] >= top], axis=1)


def theorem2_conditions(state: PureState) -> Theorem2Flags:
    """Evaluate the ordering conditions on a four-party state with roles
    S1, S2, R1, R2."""
    flags = theorem2_flags(CutSpectra.of(state.amplitudes, state.layout))
    return Theorem2Flags(*map(bool, flags[0]))


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


def above_gghz_line(ggm_value: float, bound_bits: float) -> bool:
    """Whether the point (bound, GGM) lies on or above the two-term reference
    curve in the noiseless plane, ties within 1e-9 counting as on it.

    Uses the equivalent form bound <= 2 + H(1 - E), which is defined for
    every GGM value in [0, 1/2] (bounds above 3 bits fall below the line,
    which ends at (3, 1/2)).
    """
    e = min(max(ggm_value, 0.0), 0.5)
    return bound_bits <= 2.0 + binary_entropy(1.0 - e) + TIE_ATOL
