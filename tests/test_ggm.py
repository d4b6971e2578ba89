import numpy as np
import pytest

from densecode.ggm import (CutSpectra, above_gghz_line, ggm, theorem2_conditions,
                           theorem2_flags)
from densecode.capacity import locc_bound_noiseless
from densecode.qcore import PureState, RegisterLayout, von_neumann_entropy
from densecode.states import GghzParams, RngSeed, haar_random_pure, make_gghz, make_ghz

from oracles import gghz_ggm_at_capacity

LAYOUT = RegisterLayout.split(2)


def brute_force_cut_table(amps: np.ndarray, n: int) -> dict:
    """Independent oracle: eigendecompose every cut's reduced state directly
    (marginals via an explicit index loop, eigenvalues instead of SVD).
    Returns {cut qubits: largest eigenvalue}."""
    table = {}
    for mask in range(1, 1 << n):
        cut = [q for q in range(n) if (mask >> q) & 1]
        if len(cut) > n // 2 or (2 * len(cut) == n and 0 not in cut):
            continue
        dk = 1 << len(cut)
        rho_a = np.zeros((dk, dk), dtype=complex)
        rest = [q for q in range(n) if q not in cut]
        for i in range(1 << n):
            for j in range(1 << n):
                same = all(((i >> (n - 1 - q)) & 1) == ((j >> (n - 1 - q)) & 1)
                           for q in rest)
                if not same:
                    continue
                ia = 0
                ja = 0
                for q in cut:
                    ia = (ia << 1) | ((i >> (n - 1 - q)) & 1)
                    ja = (ja << 1) | ((j >> (n - 1 - q)) & 1)
                rho_a[ia, ja] += amps[i] * np.conj(amps[j])
        table[tuple(cut)] = float(np.linalg.eigvalsh(rho_a)[-1])
    return table


def brute_force_ggm(amps: np.ndarray, n: int) -> float:
    return 1.0 - max(brute_force_cut_table(amps, n).values())


def naive_marginal(amps, keep, n):
    rho = np.outer(amps, amps.conj())
    traced = [q for q in range(n) if q not in keep]
    t = rho.reshape([2] * (2 * n))
    for q in sorted(traced, reverse=True):
        t = np.trace(t, axis1=q, axis2=q + t.ndim // 2)
    d = 1 << len(keep)
    return t.reshape(d, d)


def test_ggm_ghz():
    value, scan = ggm(make_ghz(4, LAYOUT))
    assert abs(value - 0.5) < 1e-12
    assert len(scan.entries) == 7


def test_ggm_product_state():
    amps = np.zeros(16, dtype=complex)
    amps[0] = 1.0
    value, _ = ggm(PureState(amps, LAYOUT))
    assert abs(value) < 1e-12


def test_ggm_w_state():
    amps = np.zeros(16, dtype=complex)
    for q in range(4):
        amps[1 << (3 - q)] = 0.5
    st = PureState(amps, LAYOUT)
    value, scan = ggm(st)
    assert abs(value - 0.25) < 1e-12
    assert abs(brute_force_ggm(amps, 4) - value) < 1e-12


def test_ggm_matches_brute_force_on_random_states():
    for sid in range(25):
        st = haar_random_pure(4, RngSeed(2100, sid), LAYOUT)
        value, _ = ggm(st)
        assert abs(value - brute_force_ggm(st.amplitudes, 4)) < 1e-10


def test_ggm_local_unitary_invariance():
    rng = np.random.default_rng(41)
    for sid in range(100):
        st = haar_random_pure(4, RngSeed(2200, sid), LAYOUT)
        v0, _ = ggm(st)
        q = rng.integers(0, 4)
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        u, r = np.linalg.qr(z)
        u = u * (np.diag(r) / np.abs(np.diag(r)))
        t = st.amplitudes.reshape([2] * 4)
        t = np.moveaxis(np.tensordot(u, np.moveaxis(t, q, 0), axes=1), 0, q)
        v1, _ = ggm(PureState(t.reshape(-1), LAYOUT))
        assert abs(v0 - v1) < 1e-10


def test_ggm_sides_agree():
    # lambda^2 via rho_A equals lambda^2 via rho_B for every cut
    for sid in range(20):
        st = haar_random_pure(4, RngSeed(2300, sid), LAYOUT)
        for cut in ([0], [1], [2], [3], [0, 1], [0, 2], [0, 3]):
            rest = [q for q in range(4) if q not in cut]
            wa = np.linalg.eigvalsh(naive_marginal(st.amplitudes, cut, 4))[-1]
            wb = np.linalg.eigvalsh(naive_marginal(st.amplitudes, rest, 4))[-1]
            assert abs(wa - wb) < 1e-10


@pytest.mark.parametrize("p", [0.05, 0.3, 0.5, 0.77, 1.0])
def test_ggm_gghz_exact(p):
    value, _ = ggm(make_gghz(GghzParams(p=p), LAYOUT))
    assert abs(value - (1.0 - max(p, 1.0 - p))) < 1e-12


# ---------------------------------------------------------------------------
# the cut-spectra kernel
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, count", [(2, 12), (3, 10), (4, 8), (5, 6), (6, 4)])
def test_kernel_matches_brute_force_on_random_states(n, count):
    layout = RegisterLayout.split(n - 2)
    amps = np.stack([haar_random_pure(n, RngSeed(2600 + n, sid), layout).amplitudes
                     for sid in range(count)])
    spectra = CutSpectra.of(amps, layout)
    values, best = spectra.ggm()
    for row in range(count):
        lam = spectra.max_schmidt_sq[row]
        want = brute_force_cut_table(amps[row], n)
        got = dict(zip(spectra.cuts, lam))
        assert got.keys() == want.keys()
        assert max(abs(got[cut] - want[cut]) for cut in want) < 1e-12
        assert abs(values[row] - brute_force_ggm(amps[row], n)) < 1e-12
        assert lam[best[row]] == lam.max()
        # the one-state call is the same kernel row
        value, scan = ggm(PureState(amps[row], layout))
        assert value == values[row]
        assert scan.entries == tuple(zip(spectra.labels, lam))
        assert scan.argmax_label == spectra.labels[best[row]]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("p", [0.5, 0.2, 0.93])
def test_kernel_ghz_and_gghz_closed_forms(n, p):
    # every cut of sqrt(p)|0..0> + sqrt(1-p)|1..1> has the spectrum {p, 1-p}
    layout = RegisterLayout.split(n - 2)
    st = (make_ghz(n, layout) if p == 0.5
          else make_gghz(GghzParams(p=p, phi=0.4), layout))
    value, scan = ggm(st)
    assert abs(value - (1.0 - max(p, 1.0 - p))) < 1e-12
    assert abs(value - brute_force_ggm(st.amplitudes, n)) < 1e-12
    for _, lam2 in scan.entries:
        assert abs(lam2 - max(p, 1.0 - p)) < 1e-12
    assert scan.argmax_label == layout.roles[0]


def test_kernel_rows_do_not_depend_on_the_block():
    amps = np.stack([haar_random_pure(4, RngSeed(2700, sid), LAYOUT).amplitudes
                     for sid in range(150)])
    full = CutSpectra.of(amps, LAYOUT)
    full_flags = theorem2_flags(full)
    for lo, hi in ((0, 1), (7, 8), (0, 64), (64, 129), (149, 150)):
        part = CutSpectra.of(amps[lo:hi], LAYOUT)
        for a, b in zip(full.spectra, part.spectra):
            assert np.array_equal(a[lo:hi], b)
        assert np.array_equal(full_flags[lo:hi], theorem2_flags(part))
    for row in (0, 99):
        st = PureState(amps[row], LAYOUT)
        assert ggm(st)[0] == full.ggm()[0][row]
        flags = theorem2_conditions(st)
        assert [flags.cond_i, flags.cond_ii, flags.swapped_i,
                flags.swapped_ii] == full_flags[row].tolist()


# ---------------------------------------------------------------------------
# condition flags
# ---------------------------------------------------------------------------

def test_flags_ghz_all_true():
    flags = theorem2_conditions(make_ghz(4, LAYOUT))
    assert flags.cond_i and flags.cond_ii and flags.swapped_i and flags.swapped_ii
    assert flags.strict and flags.either


@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
def test_flags_gghz_all_true(p):
    flags = theorem2_conditions(make_gghz(GghzParams(p=p), LAYOUT))
    assert flags.cond_i and flags.cond_ii and flags.swapped_i and flags.swapped_ii


def test_flags_match_independent_recomputation():
    # second partial-trace code path (naive axis-wise trace)
    for sid in range(50):
        st = haar_random_pure(4, RngSeed(2400, sid), LAYOUT)
        flags = theorem2_conditions(st)
        s = {}
        for tags, keep in (("R1", [2]), ("R2", [3]),
                           ("S1R1", [0, 2]), ("S2R2", [1, 3])):
            s[tags] = von_neumann_entropy(naive_marginal(st.amplitudes, keep, 4))
        lam = {}
        for label, keep in (("S1", [0]), ("S2", [1]), ("R1", [2]), ("R2", [3]),
                            ("S1S2", [0, 1]), ("S1R1", [0, 2]), ("S1R2", [0, 3])):
            lam[label] = float(np.linalg.eigvalsh(
                naive_marginal(st.amplitudes, keep, 4))[-1])
        top = max(lam.values())
        assert flags.cond_i == (s["R1"] <= s["S1R1"] + 1e-9)
        assert flags.cond_ii == (lam["R2"] >= top - 1e-9)
        assert flags.swapped_i == (s["R2"] <= s["S2R2"] + 1e-9)
        assert flags.swapped_ii == (lam["R1"] >= top - 1e-9)


def test_flags_require_four_party_register():
    ghz6 = make_ghz(6, RegisterLayout.split(4))
    with pytest.raises(ValueError):
        theorem2_conditions(ghz6)


# ---------------------------------------------------------------------------
# the gGHZ reference line
# ---------------------------------------------------------------------------

def test_line_endpoints():
    assert abs(gghz_ggm_at_capacity(3.0) - 0.5) < 1e-9
    assert abs(gghz_ggm_at_capacity(2.0) - 0.0) < 1e-9


def test_line_inverse_value():
    assert abs(gghz_ggm_at_capacity(2.721928) - 0.2) < 1e-6


def test_line_increasing():
    grid = np.linspace(2.0, 3.0, 41)
    vals = [gghz_ggm_at_capacity(float(b)) for b in grid]
    assert all(b > a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_line_domain():
    with pytest.raises(ValueError):
        gghz_ggm_at_capacity(1.9)
    with pytest.raises(ValueError):
        gghz_ggm_at_capacity(3.1)


def test_line_consistent_with_inverse_form():
    # E >= E_line(B) iff B <= 2 + H(1 - E) on the common domain
    for sid in range(200):
        st = haar_random_pure(4, RngSeed(2500, sid), LAYOUT)
        e, _ = ggm(st)
        b = locc_bound_noiseless(st).bound_bits
        got = above_gghz_line(e, b)
        if 2.0 <= b <= 3.0:
            want = e >= gghz_ggm_at_capacity(b) - 1e-9
            assert got == want


def test_gghz_states_sit_on_the_line():
    for p in (0.5, 0.65, 0.8, 0.95):
        st = make_gghz(GghzParams(p=p), LAYOUT)
        e, _ = ggm(st)
        b = locc_bound_noiseless(st).bound_bits
        assert abs(e - gghz_ggm_at_capacity(b)) < 1e-8
        assert above_gghz_line(e, b)


def test_population_invariant_samples():
    # states satisfying either premise pair always end on/above the line
    # (all four flags hold together only for tie-symmetric states, so the
    # per-branch check is the non-vacuous version of the same invariant)
    count = 0
    for sid in range(2000):
        st = haar_random_pure(4, RngSeed(2600, sid), LAYOUT)
        flags = theorem2_conditions(st)
        if not flags.either:
            continue
        count += 1
        e, _ = ggm(st)
        b = locc_bound_noiseless(st).bound_bits
        assert b <= 3.0 + 1e-9
        assert e >= gghz_ggm_at_capacity(min(max(b, 2.0), 3.0)) - 1e-9
    assert count > 500  # roughly half of all samples qualify
