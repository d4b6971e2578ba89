import numpy as np
import pytest

from densecode import channels
from densecode.capacity import covariant_chi, noisy_locc_bound
from densecode.channels import (SIGMA, ChannelSpec, KrausSet, apply_channel,
                                apply_kraus_matrix, check_covariance, kraus_for,
                                marginal_kraus, parse_channel, pauli_basis,
                                single_qubit_kraus)
from densecode.qcore import (DensityOp, PureState, RegisterLayout, dag,
                             partial_trace_matrix, tensor)
from densecode.states import RngSeed, haar_random_pure, make_ghz

from oracles import channel_to_string, twirl, twirl_expected_matrix

LAYOUT = RegisterLayout.split(2)


def random_density(rng, n, rank=None):
    d = 1 << n
    rank = rank or d
    a = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = a @ a.conj().T
    return m / np.trace(m)


def random_simplex(rng, k=4):
    q = rng.dirichlet(np.ones(k))
    return q / q.sum()


# ---------------------------------------------------------------------------
# specs and parsing
# ---------------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        ChannelSpec.amplitude_damping(-0.1, 0.5)
    with pytest.raises(ValueError):
        ChannelSpec.phase_damping(0.5, 1.5)
    with pytest.raises(ValueError):
        ChannelSpec.pauli_correlated([0.5, 0.5, 0.5, -0.5])
    with pytest.raises(ValueError):
        ChannelSpec.pauli_correlated([0.5, 0.5, 0.1, 0.1])  # sums to 1.2


def test_parse_channel_grammar():
    assert parse_channel("none").is_identity
    spec = parse_channel("ad:0.3,0.5")
    assert spec.family == "amplitude_damping" and spec.group_params == (0.3, 0.5)
    spec = parse_channel("pd:0.25,0.75")
    assert spec.family == "phase_damping"
    spec = parse_channel("pauli:0.93,0.01,0.02,0.04")
    assert spec.correlated and np.allclose(spec.q, [0.93, 0.01, 0.02, 0.04])
    spec = parse_channel("pauli-gen:" + ",".join(["0.0625"] * 16))
    assert not spec.correlated and spec.q.shape == (4, 4)
    for bad in ("ad:0.3", "xx:1", "pauli:1,0,0", "ad:a,b", "garbage"):
        with pytest.raises(ValueError):
            parse_channel(bad)


def test_channel_string_round_trip():
    for text in ("none", "ad:0.3,0.5", "pd:0.25,0.75", "pauli:0.93,0.01,0.02,0.04"):
        assert channel_to_string(parse_channel(text)) == text


# ---------------------------------------------------------------------------
# kraus sets
# ---------------------------------------------------------------------------

def test_phase_damping_three_operators_per_qubit():
    ops = single_qubit_kraus("phase_damping", 0.4)
    assert len(ops) == 3
    acc = sum(dag(m) @ m for m in ops)
    assert np.abs(acc - np.eye(2)).max() < 1e-12


def test_kraus_completeness_all_families():
    rng = np.random.default_rng(21)
    specs = [ChannelSpec.identity(),
             ChannelSpec.amplitude_damping(0.3, 0.8),
             ChannelSpec.phase_damping(0.5, 0.1)]
    for _ in range(50):
        specs.append(ChannelSpec.pauli_correlated(random_simplex(rng)))
        q = rng.dirichlet(np.ones(16)).reshape(4, 4)
        specs.append(ChannelSpec.pauli_general(q / q.sum()))
    for spec in specs:
        kset = kraus_for(spec, LAYOUT)
        acc = sum(dag(m) @ m for m in kset.operators)
        assert np.abs(acc - np.eye(kset.dim)).max() < 1e-10


def test_kraus_set_rejects_incomplete():
    with pytest.raises(ValueError):
        KrausSet((0.5 * np.eye(2),))


def test_zero_strength_channels_act_as_identity():
    rng = np.random.default_rng(22)
    rho = DensityOp(random_density(rng, 4), LAYOUT)
    for spec in (ChannelSpec.amplitude_damping(0.0, 0.0),
                 ChannelSpec.phase_damping(0.0, 0.0)):
        out = apply_channel(rho, spec)
        assert np.abs(out.matrix - rho.matrix).max() < 1e-12


def test_fully_correlated_identity_weight():
    ghz = make_ghz(4, LAYOUT).density()
    out = apply_channel(ghz, ChannelSpec.pauli_correlated([1.0, 0.0, 0.0, 0.0]))
    assert np.abs(out.matrix - ghz.matrix).max() < 1e-12


def test_correlated_kraus_operators_form():
    spec = ChannelSpec.pauli_correlated([0.93, 0.01, 0.02, 0.04])
    kset = kraus_for(spec, LAYOUT)
    assert len(kset.operators) == 4
    for m, op in enumerate(kset.operators):
        want = np.sqrt(spec.q[m]) * tensor(SIGMA[m], SIGMA[m])
        assert np.abs(op - want).max() < 1e-14


def test_ad_full_decay():
    # gamma = 1 drops |1> to |0> on the sender shares
    amps = np.zeros(16, dtype=complex)
    amps[0b1100] = 1.0  # senders in |11>, receivers |00>
    rho = PureState(amps, LAYOUT).density()
    out = apply_channel(rho, ChannelSpec.amplitude_damping(1.0, 1.0))
    want = np.zeros((16, 16), dtype=complex)
    want[0, 0] = 1.0
    assert np.abs(out.matrix - want).max() < 1e-12


def test_ghz_through_ad_four_term_expression():
    # the channel output decomposes over the four GHZ matrix blocks
    g1, g2 = 0.35, 0.6
    ghz = make_ghz(4, LAYOUT).density()
    out = apply_channel(ghz, ChannelSpec.amplitude_damping(g1, g2))

    def act(g, x):
        return sum(k @ x @ dag(k) for k in single_qubit_kraus("amplitude_damping", g))

    ket = [np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)]
    want = np.zeros((16, 16), dtype=complex)
    for i in (0, 1):
        for j in (0, 1):
            unit = np.outer(ket[i], ket[j].conj())
            want += 0.5 * tensor(act(g1, unit), act(g2, unit), unit, unit)
    assert np.abs(out.matrix - want).max() < 1e-12


def test_channel_preserves_trace_and_positivity():
    rng = np.random.default_rng(23)
    specs = [ChannelSpec.amplitude_damping(0.3, 0.7),
             ChannelSpec.phase_damping(0.2, 0.9),
             ChannelSpec.pauli_correlated([0.7, 0.1, 0.1, 0.1])]
    for trial in range(1000):
        spec = specs[trial % len(specs)]
        rho = DensityOp(random_density(rng, 4, rank=rng.integers(1, 6)), LAYOUT)
        out = apply_channel(rho, spec)
        assert abs(np.trace(out.matrix).real - 1.0) < 1e-10
        assert np.linalg.eigvalsh(out.matrix)[0] >= -1e-9


# ---------------------------------------------------------------------------
# pauli basis
# ---------------------------------------------------------------------------

def test_pauli_basis_single_qubit():
    basis = pauli_basis(1)
    assert len(basis) == 4
    for got, want in zip(basis, SIGMA):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("k", [1, 2])
def test_pauli_basis_orthogonality(k):
    basis = pauli_basis(k)
    d = 1 << k
    gram = np.array([[np.trace(a @ dag(b)) / d for b in basis] for a in basis])
    assert np.abs(gram - np.eye(4 ** k)).max() < 1e-12


def test_pauli_basis_completeness():
    rng = np.random.default_rng(24)
    xi = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    acc = sum(w @ xi @ dag(w) for w in pauli_basis(2)) / 4
    assert np.abs(acc - np.eye(4) * np.trace(xi)).max() < 1e-12


# ---------------------------------------------------------------------------
# covariance
# ---------------------------------------------------------------------------

def test_identity_channel_is_covariant():
    assert check_covariance(ChannelSpec.identity()) < 1e-14


def test_pauli_channels_are_covariant():
    rng = np.random.default_rng(25)
    for i in range(100):
        if i % 2 == 0:
            spec = ChannelSpec.pauli_correlated(random_simplex(rng))
        else:
            q = rng.dirichlet(np.ones(16)).reshape(4, 4)
            spec = ChannelSpec.pauli_general(q / q.sum())
        assert check_covariance(spec) < 1e-12


def test_amplitude_damping_not_covariant():
    assert check_covariance(ChannelSpec.amplitude_damping(0.3, 0.3)) > 0.01
    for g in (0.06, 0.2, 0.5, 0.95):
        assert check_covariance(ChannelSpec.amplitude_damping(g, g)) > 1e-3


def test_covariance_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(channels, "COVARIANCE_CACHE_SIZE", 4)
    monkeypatch.setattr(channels, "_covariance_cache", {})
    specs = [ChannelSpec.amplitude_damping(g, 1.0 - g)
             for g in np.linspace(0.05, 0.45, 10)]
    first = [check_covariance(spec) for spec in specs]
    assert len(channels._covariance_cache) == 4
    assert sorted(channels._covariance_cache.values()) == sorted(first[-4:])
    # evicted channels are recomputed to the same deviation
    assert [check_covariance(spec) for spec in specs] == first
    assert len(channels._covariance_cache) == 4


# ---------------------------------------------------------------------------
# marginal channel identity (trace-then-marginal == full-then-trace)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text", ["ad:0.3,0.6", "pd:0.5,0.2",
                                  "pauli:0.7,0.1,0.15,0.05",
                                  "pauli-gen:" + ",".join(["0.0625"] * 16)])
def test_marginal_kraus_matches_full_channel(text):
    spec = parse_channel(text)
    rng = np.random.default_rng(26)
    for _ in range(10):
        rho = random_density(rng, 4)
        full = apply_kraus_matrix(rho, kraus_for(spec, LAYOUT).operators, [0, 1], 4)
        for side in (1, 2):
            keep = list(LAYOUT.side_indices(side))
            lhs = partial_trace_matrix(full, keep, 4)
            reduced = partial_trace_matrix(rho, keep, 4)
            pos = [keep.index(q) for q in LAYOUT.group_indices(side)]
            rhs = apply_kraus_matrix(reduced,
                                     marginal_kraus(spec, LAYOUT, side).operators,
                                     pos, 2)
            assert np.abs(lhs - rhs).max() < 1e-12


def test_general_pauli_needs_single_qubit_groups():
    layout6 = RegisterLayout.split(4)
    spec = ChannelSpec.pauli_general(np.full((4, 4), 1 / 16))
    with pytest.raises(ValueError):
        kraus_for(spec, layout6)
    # split(3) has a two-qubit group on side 1: the marginal channel of
    # either side and both bounds refuse it with kraus_for's error
    layout5 = RegisterLayout.split(3)
    st = haar_random_pure(5, RngSeed(99, 0), layout5)
    one_qubit = "exactly one sender qubit per receiver group"
    for side in (1, 2):
        with pytest.raises(ValueError, match=one_qubit):
            marginal_kraus(spec, layout5, side)
    for bound in (noisy_locc_bound, covariant_chi):
        with pytest.raises(ValueError, match=one_qubit):
            bound(st, spec)


def test_correlated_pauli_multi_sender():
    # same sigma on every sender qubit; completeness must hold for 4 senders
    layout6 = RegisterLayout.split(4)
    kset = kraus_for(ChannelSpec.pauli_correlated([0.7, 0.1, 0.1, 0.1]), layout6)
    acc = sum(dag(m) @ m for m in kset.operators)
    assert np.abs(acc - np.eye(16)).max() < 1e-10


# ---------------------------------------------------------------------------
# twirl
# ---------------------------------------------------------------------------

def test_twirl_ghz():
    ghz = make_ghz(4, LAYOUT).density()
    out = twirl(ghz)
    want = twirl_expected_matrix(ghz, [0, 1])
    assert np.abs(out.matrix - want).max() < 1e-10


def test_twirl_product_state_maximally_mixes_targets():
    amps = np.zeros(16, dtype=complex)
    amps[0b0110] = 1.0
    rho = PureState(amps, LAYOUT).density()
    out = twirl(rho)
    senders = partial_trace_matrix(out.matrix, [0, 1], 4)
    assert np.abs(senders - np.eye(4) / 4).max() < 1e-12


def test_twirl_idempotent():
    rng = np.random.default_rng(27)
    rho = DensityOp(random_density(rng, 4), LAYOUT)
    once = twirl(rho)
    twice = twirl(once)
    assert np.abs(once.matrix - twice.matrix).max() < 1e-12


def test_twirl_preserves_receiver_marginal():
    rng = np.random.default_rng(28)
    for sid in range(20):
        st = haar_random_pure(4, RngSeed(500, sid), LAYOUT)
        rho = st.density()
        out = twirl(rho)
        before = partial_trace_matrix(rho.matrix, [2, 3], 4)
        after = partial_trace_matrix(out.matrix, [2, 3], 4)
        assert np.abs(before - after).max() < 1e-12
