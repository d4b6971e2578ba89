import math

import numpy as np
import pytest

from densecode import capacity, channels
from densecode.capacity import (DEFAULT_OPT, EncodingUnitaryParams,
                                _params_from_quaternion,
                                OptConfig, closed_form_ghz_bound, covariant_chi,
                                global_capacity, locc_bound_noiseless,
                                min_output_entropy, noisy_locc_bound,
                                noisy_locc_bounds)
from densecode.channels import SIGMA, ChannelSpec, parse_channel
from densecode.qcore import (DensityOp, PureState, RegisterLayout, as_density_matrix,
                             binary_entropy, entropy_from_eigs, partial_trace_matrix,
                             von_neumann_entropy)
from densecode.states import GghzParams, RngSeed, haar_random_pure, make_ghz, make_gghz

from oracles import (Ensemble, ensemble_chi, extremum_residual_ad,
                     ghz_zeta_eigenvalues, pauli_encoded_ensemble,
                     side_state_full_register)

LAYOUT = RegisterLayout.split(2)
GHZ = make_ghz(4, LAYOUT)


def ad_closed_form_entropy(gamma: float) -> float:
    return 1.0 + binary_entropy(0.5 * (1.0 - math.sqrt(1.0 - gamma + gamma * gamma)))


def product_state(bits: str) -> PureState:
    amps = np.zeros(16, dtype=complex)
    amps[int(bits, 2)] = 1.0
    return PureState(amps, LAYOUT)


def zeta_numeric(state, spec, side, params: EncodingUnitaryParams) -> np.ndarray:
    """Reference zeta^side with ``params`` on every qubit of the side's group."""
    group = state.layout.group_indices(side)
    return side_state_full_register(state, spec, side, [params.matrix()] * len(group))


def entropy_numeric(state, spec, side, params: EncodingUnitaryParams) -> float:
    return von_neumann_entropy(zeta_numeric(state, spec, side, params))


# ---------------------------------------------------------------------------
# global capacity
# ---------------------------------------------------------------------------

def test_global_capacity_ghz():
    assert abs(global_capacity(GHZ) - 3.0) < 1e-9


def test_global_capacity_product_state():
    assert abs(global_capacity(product_state("0110")) - 2.0) < 1e-9


def test_global_capacity_maximally_mixed():
    rho = DensityOp(np.eye(16) / 16, LAYOUT)
    assert abs(global_capacity(rho) - 0.0) < 1e-9


# ---------------------------------------------------------------------------
# ensemble chi
# ---------------------------------------------------------------------------

def test_ensemble_chi_single_product_member():
    e = Ensemble(((1.0, product_state("0000").density()),))
    assert abs(ensemble_chi(e)) < 1e-10


def test_ensemble_chi_ghz_pauli_encodings():
    e = pauli_encoded_ensemble(GHZ)
    assert len(e.members) == 16
    assert all(abs(p - 1 / 16) < 1e-15 for p, _ in e.members)
    assert abs(ensemble_chi(e) - 3.0) < 1e-9


def test_ensemble_chi_noisy():
    spec = ChannelSpec.pauli_correlated([0.93, 0.01, 0.02, 0.04])
    e = pauli_encoded_ensemble(GHZ, spec)
    want = 4.0 - (1.0 + binary_entropy(0.97))
    assert abs(ensemble_chi(e) - want) < 1e-9


def test_ensemble_validation():
    with pytest.raises(ValueError):
        Ensemble(())
    with pytest.raises(ValueError):
        Ensemble(((0.5, GHZ.density()),))


# ---------------------------------------------------------------------------
# noiseless bound
# ---------------------------------------------------------------------------

def test_noiseless_bound_ghz():
    rep = locc_bound_noiseless(GHZ)
    assert abs(rep.bound_bits - 3.0) < 1e-9
    assert rep.which_side == 1


def test_noiseless_bound_gghz():
    rep = locc_bound_noiseless(make_gghz(GghzParams(p=0.8), LAYOUT))
    assert abs(rep.bound_bits - (2.0 + binary_entropy(0.8))) < 1e-9


def test_noiseless_bound_product():
    rep = locc_bound_noiseless(product_state("0101"))
    assert abs(rep.bound_bits - 2.0) < 1e-9


def test_bound_report_identity():
    rng = np.random.default_rng(31)
    for sid in range(20):
        st = haar_random_pure(4, RngSeed(600, sid), LAYOUT)
        rep = locc_bound_noiseless(st)
        want = rep.n_sender_qubits + rep.term_S_R1 + rep.term_S_R2 - rep.term_min_entropy
        assert rep.bound_bits == want
        assert rep.term_min_entropy == max(rep.entropy_side1, rep.entropy_side2)


# ---------------------------------------------------------------------------
# min output entropy
# ---------------------------------------------------------------------------

def test_min_entropy_ad_half():
    spec = ChannelSpec.amplitude_damping(0.5, 0.5)
    val, mins = min_output_entropy(GHZ, spec, 1)
    assert abs(val - ad_closed_form_entropy(0.5)) < 1e-8
    assert abs(mins[0].a - 1 / math.sqrt(2)) < 1e-3


def test_min_entropy_pd_any_p():
    for p in (0.2, 0.4, 0.9):
        val, mins = min_output_entropy(GHZ, ChannelSpec.phase_damping(p, p), 1, DEFAULT_OPT)
        assert abs(val - 1.0) < 1e-9
        assert min(mins[0].a, 1.0 - mins[0].a) < 1e-6


def test_min_entropy_pauli_ordering():
    # ordering q0 >= q2 >= q1 >= q3: minimum is H(q0 + q2) + 1
    q = (0.6, 0.1, 0.2, 0.1)
    spec = ChannelSpec.pauli_correlated(q)
    val, mins = min_output_entropy(GHZ, spec, 1)
    assert abs(val - (1.0 + binary_entropy(0.8))) < 1e-8
    # the reported minimizer achieves the reported value (closed form check)
    achieved = entropy_from_eigs(ghz_zeta_eigenvalues(spec, mins[0]))
    assert abs(achieved - val) < 1e-9


def test_min_entropy_pauli_headline_weights():
    for q in ([0.93, 0.01, 0.02, 0.04], [0.485, 0.015, 0.015, 0.485]):
        val, _ = min_output_entropy(GHZ, ChannelSpec.pauli_correlated(q), 1)
        assert abs(val - (1.0 + binary_entropy(0.97))) < 1e-8


def test_min_entropy_theta_flat_for_damping_channels():
    # eigenvalues of zeta^1 are theta-independent for the damping families
    for spec in (ChannelSpec.amplitude_damping(0.35, 0.35),
                 ChannelSpec.phase_damping(0.6, 0.6)):
        for a in (0.2, 0.6, 0.9):
            grid = [EncodingUnitaryParams(a, t1, t2)
                    for t1 in np.linspace(0, 2 * math.pi, 7, endpoint=False)
                    for t2 in np.linspace(0, 2 * math.pi, 7, endpoint=False)]
            vals = np.array([entropy_numeric(GHZ, spec, 1, p) for p in grid])
            assert vals.max() - vals.min() < 1e-10


def test_min_entropy_symmetric_channel_sides_agree():
    rng = np.random.default_rng(32)
    specs = [ChannelSpec.amplitude_damping(0.4, 0.4),
             ChannelSpec.pauli_correlated([0.8, 0.05, 0.1, 0.05])]
    for spec in specs:
        s1, _ = min_output_entropy(GHZ, spec, 1, DEFAULT_OPT)
        s2, _ = min_output_entropy(GHZ, spec, 2, DEFAULT_OPT)
        assert abs(s1 - s2) < 1e-10


def test_min_entropy_soundness_probes():
    # the reported minimum is never above the objective at 10^3 quasi-random
    # parameter probes over all of SU(2)
    from scipy.stats import qmc
    sobol = qmc.Sobol(d=3, scramble=True, seed=np.random.default_rng(33))
    probes = sobol.random_base2(10) * np.array([1.0, 2 * math.pi, 2 * math.pi])
    spec = ChannelSpec.pauli_correlated([0.7, 0.12, 0.1, 0.08])
    for sid in range(3):
        st = haar_random_pure(4, RngSeed(700, sid), LAYOUT)
        val, _ = min_output_entropy(st, spec, 1, DEFAULT_OPT)
        vals = np.array([entropy_numeric(st, spec, 1, EncodingUnitaryParams(*p))
                         for p in probes])
        assert val <= vals.min() + 1e-9


def test_min_entropy_product_parameterization_identity():
    ghz6 = make_ghz(6, RegisterLayout.split(4))
    cfg = OptConfig(starts=4)
    val, mins = min_output_entropy(ghz6, ChannelSpec.identity(), 1, cfg)
    keep = list(ghz6.layout.side_indices(1))
    want = von_neumann_entropy(partial_trace_matrix(
        np.outer(ghz6.amplitudes, ghz6.amplitudes.conj()), keep, 6))
    assert abs(val - want) < 1e-9
    assert len(mins) == 2


# ---------------------------------------------------------------------------
# noisy bound and covariant chi
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gamma", [0.1, 0.5, 0.9])
def test_noisy_bound_ad_closed_form(gamma):
    spec = ChannelSpec.amplitude_damping(gamma, gamma)
    rep = noisy_locc_bound(GHZ, spec)
    assert abs(rep.bound_bits - closed_form_ghz_bound(spec)) < 1e-6
    assert abs(rep.minimizer[0].a - 1 / math.sqrt(2)) < 1e-3


def test_noisy_bound_ad_asymmetric():
    spec = ChannelSpec.amplitude_damping(0.2, 0.7)
    rep = noisy_locc_bound(GHZ, spec)
    assert abs(rep.bound_bits - closed_form_ghz_bound(spec)) < 1e-6


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
def test_noisy_bound_pd_parameter_free(p):
    rep = noisy_locc_bound(GHZ, ChannelSpec.phase_damping(p, p))
    assert abs(rep.bound_bits - 3.0) < 1e-6


def test_noisy_bound_pauli_headline():
    spec = ChannelSpec.pauli_correlated([0.93, 0.01, 0.02, 0.04])
    rep = noisy_locc_bound(GHZ, spec)
    assert abs(rep.bound_bits - (3.0 - binary_entropy(0.97))) < 1e-6


def test_covariant_chi_headline():
    spec = ChannelSpec.pauli_correlated([0.485, 0.015, 0.015, 0.485])
    rep = covariant_chi(GHZ, spec)
    assert abs(rep.bound_bits - (3.0 - binary_entropy(0.97))) < 1e-6


def test_covariant_chi_requires_covariance():
    with pytest.raises(ValueError, match="covariant"):
        covariant_chi(GHZ, ChannelSpec.amplitude_damping(0.3, 0.3))


def test_covariant_chi_identity_equals_noiseless():
    rng = np.random.default_rng(34)
    for sid in range(5):
        st = haar_random_pure(4, RngSeed(800, sid), LAYOUT)
        chi = covariant_chi(st, ChannelSpec.identity(), DEFAULT_OPT)
        plain = locc_bound_noiseless(st)
        assert abs(chi.bound_bits - plain.bound_bits) < 1e-9


def test_covariant_chi_equals_noisy_bound():
    # on a covariant channel covariant_chi adds only its gate to the bound;
    # test_side_objective_matches_full_register_oracle checks the route itself
    rng = np.random.default_rng(35)
    for _ in range(5):
        q = rng.dirichlet(np.ones(4))
        spec = ChannelSpec.pauli_correlated(q / q.sum())
        a = covariant_chi(GHZ, spec)
        b = noisy_locc_bound(GHZ, spec)
        assert abs(a.bound_bits - b.bound_bits) < 1e-6


def test_identity_channel_equals_noiseless_on_random_states():
    # the objective is exactly flat without noise, so one start is exact
    # and keeps 100 instances fast
    flat = OptConfig(starts=1)
    for sid in range(100):
        st = haar_random_pure(4, RngSeed(900, sid), LAYOUT)
        noisy = noisy_locc_bound(st, ChannelSpec.identity(), flat)
        plain = locc_bound_noiseless(st)
        assert abs(noisy.bound_bits - plain.bound_bits) < 1e-9


def test_noisy_report_identity_and_ensemble_ordering():
    # the stored report satisfies its arithmetic identity exactly, and the
    # explicit uniform-Pauli ensemble value never exceeds the bound
    for spec in (ChannelSpec.pauli_correlated([0.93, 0.01, 0.02, 0.04]),
                 ChannelSpec.amplitude_damping(0.4, 0.4)):
        rep = noisy_locc_bound(GHZ, spec, DEFAULT_OPT)
        want = rep.n_sender_qubits + rep.term_S_R1 + rep.term_S_R2 \
            - rep.term_min_entropy
        assert rep.bound_bits == want
        chi = ensemble_chi(pauli_encoded_ensemble(GHZ, spec))
        assert chi <= rep.bound_bits + 1e-9


def test_general_pauli_marginal_rule():
    # bound = 3 - max(H(b1+b2), H(c1+c2)) with b, c the sorted marginals
    rng = np.random.default_rng(36)
    for _ in range(10):
        q = rng.dirichlet(np.ones(16)).reshape(4, 4)
        spec = ChannelSpec.pauli_general(q / q.sum())
        rep = covariant_chi(GHZ, spec)
        assert abs(rep.bound_bits - closed_form_ghz_bound(spec)) < 1e-6


def test_general_pauli_full_route():
    # noisy_locc_bound, which has no covariance gate, agrees with the
    # marginal rule too
    rng = np.random.default_rng(37)
    for _ in range(2):
        q = rng.dirichlet(np.ones(16)).reshape(4, 4)
        spec = ChannelSpec.pauli_general(q / q.sum())
        rep = noisy_locc_bound(GHZ, spec)
        assert abs(rep.bound_bits - closed_form_ghz_bound(spec)) < 1e-6


def test_campaign_config_matches_default_grid():
    # campaigns pass DEFAULT_OPT explicitly; it must equal the default
    spec = ChannelSpec.pauli_correlated([0.485, 0.015, 0.015, 0.485])
    st = haar_random_pure(4, RngSeed(1100, 0), LAYOUT)
    a = covariant_chi(st, spec, DEFAULT_OPT)
    b = covariant_chi(st, spec)
    assert abs(a.bound_bits - b.bound_bits) < 1e-6


def quaternion_unitary(q) -> np.ndarray:
    """U = w - i(x s_x + y s_y + z s_z) for the quaternion q = (w, x, y, z)."""
    w, x, y, z = q
    return w * SIGMA[0] - 1j * (x * SIGMA[1] + y * SIGMA[2] + z * SIGMA[3])


ORACLE_CASES = (
    [(2, c) for c in ("none", "ad:0.3,0.6", "pd:0.4,0.7", "pauli:0.7,0.1,0.15,0.05",
                      "pauli-gen:0.3,0.05,0.02,0.03,0.08,0.1,0.01,0.04,"
                      "0.06,0.02,0.09,0.03,0.05,0.01,0.07,0.04")]
    + [(k, c) for k in (3, 4)
       for c in ("ad:0.3,0.6", "pd:0.4,0.7", "pauli:0.7,0.1,0.15,0.05")])


@pytest.mark.parametrize("senders,channel", ORACLE_CASES)
def test_side_objective_matches_full_register_oracle(senders, channel):
    # the library builds each side on its reduced state; the oracle encodes,
    # sends every sender through the channel and traces on the full register
    layout = RegisterLayout.split(senders)
    st = haar_random_pure(senders + 2, RngSeed(1200, senders), layout)
    spec = parse_channel(channel)
    rng = np.random.default_rng(39)
    for side in (1, 2):
        k = len(layout.group_indices(side))
        q = rng.standard_normal((1, 20, k, 4))
        q /= np.linalg.norm(q, axis=-1, keepdims=True)
        forms = capacity._side_forms(st.density().matrix, spec, layout, side)
        values, _ = capacity._EntropyObjective(forms[None])(q)
        for row, value in zip(q[0], values[0]):
            zeta = side_state_full_register(st, spec, side,
                                            [quaternion_unitary(qj) for qj in row])
            assert abs(value - von_neumann_entropy(zeta)) < 1e-12


def test_cached_constants_are_read_only_and_stages_bounded(monkeypatch):
    assert not capacity._start_quaternions(16, 1).flags.writeable
    assert not capacity._unit_products(2).flags.writeable
    # the Kraus stages live in the channel memo, which check_covariance shares
    monkeypatch.setattr(channels, "CHANNEL_MEMO_SIZE", 2)
    monkeypatch.setattr(channels, "_channel_memo", {})
    rho = GHZ.density().matrix
    specs = [ChannelSpec.amplitude_damping(g, 1.0 - g) for g in (0.1, 0.2, 0.3)]
    first = [capacity._side_forms(rho, spec, LAYOUT, 1) for spec in specs]
    assert len(channels._channel_memo) == 2
    # an evicted stage is rebuilt to the same forms
    assert np.array_equal(capacity._side_forms(rho, specs[0], LAYOUT, 1), first[0])
    assert len(channels._channel_memo) == 2


# ---------------------------------------------------------------------------
# closed-form eigenvalues and the extremum condition
# ---------------------------------------------------------------------------

def test_zeta_eigenvalues_ad_example():
    # a = 0.6, gamma = 0.3: f = 0.891136, g = 0.655936
    spec = ChannelSpec.amplitude_damping(0.3, 0.3)
    params = EncodingUnitaryParams(0.6, 0.3, 0.1)
    got = np.sort(ghz_zeta_eigenvalues(spec, params))
    f, g = 0.891136, 0.655936
    want = np.sort([0.25 * (1 - math.sqrt(f)), 0.25 * (1 + math.sqrt(f)),
                    0.25 * (1 - math.sqrt(g)), 0.25 * (1 + math.sqrt(g))])
    assert np.abs(got - want).max() < 1e-12
    numeric = np.sort(np.linalg.eigvalsh(zeta_numeric(GHZ, spec, 1, params)))
    assert np.abs(got - numeric).max() < 1e-9


def test_zeta_eigenvalues_pd_endpoint():
    spec = ChannelSpec.phase_damping(0.7, 0.7)
    got = np.sort(ghz_zeta_eigenvalues(spec, EncodingUnitaryParams(0.0, 0.2, 0.4)))
    assert np.abs(got - [0.0, 0.0, 0.5, 0.5]).max() < 1e-12


def test_zeta_eigenvalues_pauli_example():
    spec = ChannelSpec.pauli_correlated([0.93, 0.01, 0.02, 0.04])
    params = EncodingUnitaryParams(1 / math.sqrt(2), math.pi / 2, 0.0)
    got = np.sort(ghz_zeta_eigenvalues(spec, params))
    assert np.abs(got - [0.025, 0.025, 0.475, 0.475]).max() < 1e-9
    numeric = np.sort(np.linalg.eigvalsh(zeta_numeric(GHZ, spec, 1, params)))
    assert np.abs(got - numeric).max() < 1e-9


@pytest.mark.parametrize("text,param_grid", [
    ("ad", np.linspace(0.05, 0.95, 5)),
    ("pd", np.linspace(0.05, 0.95, 5)),
])
def test_zeta_eigenvalues_match_numeric_damping(text, param_grid):
    make = (ChannelSpec.amplitude_damping if text == "ad"
            else ChannelSpec.phase_damping)
    for t in param_grid:
        spec = make(float(t), float(t))
        for a in np.linspace(0, 1, 5):
            for th in np.linspace(0, math.pi / 2, 3):
                params = EncodingUnitaryParams(float(a), float(th), 0.0)
                got = np.sort(ghz_zeta_eigenvalues(spec, params))
                numeric = np.sort(np.linalg.eigvalsh(
                    zeta_numeric(GHZ, spec, 1, params)))
                assert np.abs(got - numeric).max() < 1e-9
                assert abs(got.sum() - 1.0) < 1e-12


def test_zeta_eigenvalues_match_numeric_pauli_both_thetas():
    rng = np.random.default_rng(37)
    for _ in range(5):
        q = rng.dirichlet(np.ones(4))
        spec = ChannelSpec.pauli_correlated(q / q.sum())
        for a in np.linspace(0, 1, 4):
            for t1 in np.linspace(0, math.pi / 2, 3):
                for t2 in np.linspace(0, math.pi / 2, 3):
                    params = EncodingUnitaryParams(float(a), float(t1), float(t2))
                    got = np.sort(ghz_zeta_eigenvalues(spec, params))
                    numeric = np.sort(np.linalg.eigvalsh(
                        zeta_numeric(GHZ, spec, 1, params)))
                    assert np.abs(got - numeric).max() < 1e-9


def test_zeta_eigenvalues_rejects_unsupported():
    with pytest.raises(ValueError):
        ghz_zeta_eigenvalues(ChannelSpec.identity(), EncodingUnitaryParams(1, 0, 0))
    q = np.full((4, 4), 1 / 16)
    with pytest.raises(ValueError):
        ghz_zeta_eigenvalues(ChannelSpec.pauli_general(q),
                             EncodingUnitaryParams(1, 0, 0))


def test_extremum_residual_zero_at_balanced_point():
    for gamma in np.linspace(0.05, 0.95, 10):
        assert abs(extremum_residual_ad(1 / math.sqrt(2), float(gamma))) < 1e-10


def test_extremum_residual_sign_matches_entropy_slope():
    # residual is proportional to -dS/da: positive below the minimum
    def entropy_at(a, gamma):
        spec = ChannelSpec.amplitude_damping(gamma, gamma)
        return entropy_from_eigs(
            ghz_zeta_eigenvalues(spec, EncodingUnitaryParams(a, 0, 0)))

    for a, gamma in ((0.6, 0.3), (0.4, 0.5), (0.8, 0.3), (0.75, 0.7)):
        res = extremum_residual_ad(a, gamma)
        h = 1e-6
        slope = (entropy_at(a + h, gamma) - entropy_at(a - h, gamma)) / (2 * h)
        assert res != 0.0
        assert np.sign(res) == -np.sign(slope)


def test_extremum_second_derivative_positive():
    def entropy_at(a, gamma):
        spec = ChannelSpec.amplitude_damping(gamma, gamma)
        return entropy_from_eigs(
            ghz_zeta_eigenvalues(spec, EncodingUnitaryParams(a, 0, 0)))

    a0 = 1 / math.sqrt(2)
    h = 1e-4
    for gamma in np.linspace(0.1, 0.9, 9):
        second = (entropy_at(a0 + h, gamma) - 2 * entropy_at(a0, gamma)
                  + entropy_at(a0 - h, gamma)) / (h * h)
        assert second > 0


def test_extremum_residual_domain():
    with pytest.raises(ValueError):
        extremum_residual_ad(0.0, 0.3)
    with pytest.raises(ValueError):
        extremum_residual_ad(1.0, 0.3)
    with pytest.raises(ValueError):
        extremum_residual_ad(0.5, 0.0)


def test_encoding_params_validation():
    with pytest.raises(ValueError):
        EncodingUnitaryParams(1.2, 0, 0)
    with pytest.raises(ValueError):
        EncodingUnitaryParams(0.5, -0.2, 0)
    u = EncodingUnitaryParams(0.6, 0.3, 0.9).matrix()
    assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-12


def test_opt_config_rejects_non_positive_settings():
    for bad in (dict(starts=0), dict(max_steps=0), dict(grad_tol=0.0),
                dict(grad_tol=-1e-9)):
        with pytest.raises(ValueError):
            OptConfig(**bad)


@pytest.fixture
def rows_evaluated(monkeypatch):
    """Counts the objective rows each problem is evaluated on: one array per
    objective, in the order the objectives are first called."""
    counts = {}
    call = capacity._EntropyObjective.__call__

    def counting(self, q, problems=slice(None)):
        per = counts.setdefault(self, np.zeros(len(self.forms), dtype=int))
        np.add.at(per, np.arange(len(per))[problems], q.shape[1])
        return call(self, q, problems)

    monkeypatch.setattr(capacity._EntropyObjective, "__call__", counting)
    return counts


def assert_evaluations_counted(diags, evaluated):
    assert len(diags) == len(evaluated)
    for diag, rows in zip(diags, evaluated):
        assert diag.evaluations == rows
        assert diag.starts + diag.steps <= diag.evaluations <= diag.starts * (diag.steps + 1)


def test_bound_report_search_diagnostics(rows_evaluated):
    st = haar_random_pure(4, RngSeed(99, 1), LAYOUT)
    rep = noisy_locc_bound(st, ChannelSpec.amplitude_damping(0.6, 0.3))
    assert_evaluations_counted(rep.diagnostics, np.concatenate(list(rows_evaluated.values())))
    for value, diag in zip((rep.entropy_side1, rep.entropy_side2), rep.diagnostics):
        assert diag.starts == 16
        assert diag.final_value == value <= diag.start_value
        assert diag.converged and diag.grad_norm <= 1e-7
        assert diag.elapsed_s > 0.0
    assert locc_bound_noiseless(st).diagnostics == (None, None)


def test_encoding_params_cover_su2():
    # theta1 and theta2 range over [0, 2 pi), so every SU(2) element has
    # parameters; 2 pi itself is the same point as 0
    u = EncodingUnitaryParams(0.3, 5.9, 4.0).matrix()
    assert abs(np.linalg.det(u) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        EncodingUnitaryParams(0.5, 2 * math.pi, 0.0)
    with pytest.raises(ValueError):
        EncodingUnitaryParams(1.0 + 1e-12, 0.0, 0.0)


def test_quaternion_readout():
    # quaternion_unitary(q) must come back from its parameters
    rng = np.random.default_rng(20141222)
    qs = [q / np.linalg.norm(q) for q in rng.standard_normal((200, 4))]
    c, s = math.cos(0.7), math.sin(0.7)
    qs += [np.array(q) for q in ((0.0, c, s, 0.0), (0.0, 1.0, 0.0, 0.0),   # a = 0
                                 (0.0, 0.0, -1.0, 0.0), (c, 0.0, 0.0, s),   # a = 1
                                 (1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0))]
    for q in qs + [-q for q in qs]:
        want = quaternion_unitary(q)
        got = _params_from_quaternion(q).matrix()
        assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize("channel", ["ad:0.6,0.3", "pd:0.4,0.7"])
def test_bound_sides_equal_single_side_searches(channel):
    # both sides descend in one batch; each must match its own search
    spec = parse_channel(channel)
    steps = []
    for i in range(4):
        st = haar_random_pure(4, RngSeed(99, i), LAYOUT)
        rep = noisy_locc_bound(st, spec)
        steps.append([diag.steps for diag in rep.diagnostics])
        for side, value, params in ((1, rep.entropy_side1, rep.minimizer_side1),
                                    (2, rep.entropy_side2, rep.minimizer_side2)):
            alone, alone_params = min_output_entropy(st, spec, side)
            assert abs(value - alone) < 1e-10
            for got, want in zip(params, alone_params):
                assert np.abs(got.matrix() - want.matrix()).max() < 1e-9
    # a side that stops first leaves the batch and keeps its own step count
    assert any(s1 != s2 for s1, s2 in steps)


@pytest.mark.parametrize("senders", [3, 4])
def test_bound_sides_equal_min_output_entropy_exactly(senders):
    # a side alone (one problem) and both sides of a bound (two problems in
    # one descent) must run the same arithmetic, also for two-qubit groups
    layout = RegisterLayout.split(senders)
    for channel in ("ad:0.4,0.7", "pd:0.4,0.7"):
        spec = parse_channel(channel)
        for i in range(4):
            st = haar_random_pure(layout.n_qubits, RngSeed(99, i), layout)
            rep = noisy_locc_bound(st, spec)
            assert min_output_entropy(st, spec, 1) == (rep.entropy_side1, rep.minimizer_side1)
            assert min_output_entropy(st, spec, 2) == (rep.entropy_side2, rep.minimizer_side2)


def assert_same_report(got, want):
    for name in ("bound_bits", "entropy_side1", "entropy_side2",
                 "minimizer_side1", "minimizer_side2"):
        assert getattr(got, name) == getattr(want, name), name
    for a, b in zip(got.diagnostics, want.diagnostics, strict=True):
        assert (a is None) == (b is None)
        if a is not None:
            assert (a.steps, a.evaluations) == (b.steps, b.evaluations)


@pytest.mark.parametrize("senders,channel,rows,block", [
    (2, "ad:0.3,0.3", 130, None),
    (2, "pd:0.4,0.7", 130, None),
    (2, "pauli:0.7,0.1,0.1,0.1", 130, None),
    (2, "pauli-gen:0.85,0.05,0.05,0.05,0,0,0,0,0,0,0,0,0,0,0,0", 130, None),
    (1, "ad:0.3,0.5", 130, None),   # side 2 has no senders
    (3, "ad:0.4,0.7", 7, 3),        # slices of 3 keep the two-qubit side quick
])
def test_block_rows_equal_one_row_reports(monkeypatch, senders, channel, rows, block):
    # the rows make two full slices of BLOCK_STATES and a ragged tail, and
    # the last row is a mixed state
    if block is not None:
        monkeypatch.setattr(capacity, "BLOCK_STATES", block)
    layout = RegisterLayout.split(senders)
    spec = parse_channel(channel)
    states = [haar_random_pure(layout.n_qubits, RngSeed(99, i), layout)
              for i in range(rows)]
    states[-1] = DensityOp(0.5 * (states[-1].density().matrix
                                  + states[0].density().matrix), layout)
    block_reports = noisy_locc_bounds(np.stack([as_density_matrix(st) for st in states]),
                                      layout, spec)
    assert len(block_reports) == rows
    for got, st in zip(block_reports, states):
        assert_same_report(got, noisy_locc_bound(st, spec))


def test_block_descends_at_most_block_states(monkeypatch):
    # one objective per slice, holding the two sides of each of its states
    sizes = []
    init = capacity._EntropyObjective.__init__

    def recording(self, forms):
        sizes.append(len(forms))
        init(self, forms)

    monkeypatch.setattr(capacity._EntropyObjective, "__init__", recording)
    states = [haar_random_pure(4, RngSeed(99, i), LAYOUT) for i in range(130)]
    rhos = np.stack([as_density_matrix(st) for st in states])
    noisy_locc_bounds(rhos, LAYOUT, parse_channel("pauli:0.7,0.1,0.1,0.1"))
    assert sizes == [2 * capacity.BLOCK_STATES] * 2 + [4]


def test_unequal_sender_groups_descend_apart(rows_evaluated):
    # split(3): side 1 has a two-qubit group, side 2 a one-qubit group
    layout = RegisterLayout.split(3)
    assert [len(layout.group_indices(x)) for x in (1, 2)] == [2, 1]
    st = haar_random_pure(5, RngSeed(99, 0), layout)
    spec = parse_channel("ad:0.4,0.7")
    rep = noisy_locc_bound(st, spec)
    # one objective per group size, side 1's batch first
    assert_evaluations_counted(rep.diagnostics, np.concatenate(list(rows_evaluated.values())))
    for side, value, diag in ((1, rep.entropy_side1, rep.diagnostics[0]),
                              (2, rep.entropy_side2, rep.diagnostics[1])):
        alone, _ = min_output_entropy(st, spec, side)
        assert abs(value - alone) < 1e-10
        assert diag.final_value == value


def polar(q):
    """-z^2 on S^3 for every row of q, with its gradient. The identity is
    its maximum and +-(0, 0, 0, 1) are its minima."""
    grads = np.zeros(q.shape)
    grads[..., 3] = -2.0 * q[..., 3]
    return -(q[..., 3] ** 2).sum(axis=-1), grads


class PolarObjective:
    """``polar`` as a ``minimize`` objective that records each call's rows."""

    def __init__(self):
        self.calls = []

    def __call__(self, q, problems=slice(None)):
        self.calls.append(q.copy())
        return polar(q)


def polar_starts(*angles):
    """(1, S, 1, 4) starts (cos phi, 0, 0, sin phi), at -phi^2 about the identity."""
    return np.array([[[[math.cos(a), 0.0, 0.0, math.sin(a)]] for a in angles]])


def test_stopped_starts_are_not_evaluated_again():
    # the identity is stationary, so it stops at once; the start at 1.2
    # reaches the minimum well before the one that leaves the maximum at -1e-3
    objective = PolarObjective()
    res = capacity.minimize(objective, polar_starts(0.0, 1.2, -1e-3), DEFAULT_OPT)
    rows = [q.shape[0] * q.shape[1] for q in objective.calls]
    assert rows[0] == 3 and 1 in rows
    assert all(a >= b for a, b in zip(rows[1:], rows[2:]))
    assert max(rows[1:]) == 2
    assert res.steps[0] == len(rows) - 1 and res.evaluations[0] == sum(rows)
    assert res.nfev == sum(rows)
    for q in objective.calls[1:]:
        assert np.abs(q[..., 0]).max() < 1.0
    assert abs(res.fun[0] + 1.0) < 1e-12


def test_step_length_rule():
    # one start leaving the maximum: -z^2 is concave there, so <s, y> <= 0
    # and the step grows by _GROW; near the minimum the step is the
    # Barzilai-Borwein length. Each step's eta is read back from its trial.
    objective = PolarObjective()
    capacity.minimize(objective, polar_starts(1e-3), DEFAULT_OPT)
    q = objective.calls[0][0, 0]
    value, grad = polar(q)
    omega = capacity._tangent_gradient(q, grad)
    eta, grown, bb = capacity._STEP0, 0, 0
    for trial in objective.calls[1:]:
        trial = trial[0, 0]
        step = trial / (trial * q).sum() - q
        assert abs(2.0 * np.linalg.norm(step) / np.linalg.norm(omega) - eta) < 1e-9 * eta
        trial_value, trial_grad = polar(trial)
        if trial_value > value:
            eta *= capacity._SHRINK
            continue
        trial_omega = capacity._tangent_gradient(trial, trial_grad)
        s, y = trial - q, trial_omega - omega
        sy = (s * y).sum()
        if sy <= 0:
            eta, grown = capacity._GROW * eta, grown + 1
        else:
            eta, bb = float(np.clip(2.0 * (s * s).sum() / sy, 0.1 * eta, 10.0 * eta)), bb + 1
        q, value, omega = trial, trial_value, trial_omega
    assert grown >= 3 and bb >= 3
