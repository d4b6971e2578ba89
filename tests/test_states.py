import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from densecode.qcore import partial_trace_matrix
from densecode.states import (GghzParams, RngSeed, StateFormatError,
                              haar_amplitudes, haar_random_pure, load_state,
                              make_ghz, make_gghz, pcg64_seed_words, save_state)

from oracles import haar_state_draw

# one- and two-word seeds and spawn keys, at both ends of each width
SEEDS = [0, 1, 42, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
STREAMS = [0, 1, 2**31, 2**32 - 1, 2**32, 2**64 - 1]


def test_ghz_amplitudes():
    st = make_ghz(4)
    amps = st.amplitudes
    assert abs(amps[0] - 1 / math.sqrt(2)) < 1e-15
    assert abs(amps[15] - 1 / math.sqrt(2)) < 1e-15
    assert np.abs(amps[1:15]).max() == 0.0
    assert abs(np.vdot(amps, amps).real - 1.0) < 1e-12


def test_ghz_marginals_maximally_mixed():
    st = make_ghz(4)
    rho = np.outer(st.amplitudes, st.amplitudes.conj())
    for q in range(4):
        marg = partial_trace_matrix(rho, [q], 4)
        assert np.abs(marg - np.eye(2) / 2).max() < 1e-12


def test_ghz_rejects_small_n():
    with pytest.raises(ValueError):
        make_ghz(1)


def test_gghz_half_is_ghz():
    a = make_gghz(GghzParams(p=0.5)).amplitudes
    b = make_ghz(4).amplitudes
    assert np.abs(a - b).max() < 1e-15


def test_gghz_product_limit():
    st = make_gghz(GghzParams(p=1.0))
    assert st.amplitudes[0] == 1.0
    assert np.abs(st.amplitudes[1:]).max() == 0.0


@pytest.mark.parametrize("p", [0.2, 0.5, 0.8, 0.97])
def test_gghz_marginal_eigenvalues(p):
    # every bipartition of the two-term state has marginal spectrum {p, 1-p}
    st = make_gghz(GghzParams(p=p, phi=0.7))
    rho = np.outer(st.amplitudes, st.amplitudes.conj())
    for keep in ([0], [1], [2], [3], [0, 1], [0, 2], [0, 3]):
        w = np.sort(np.linalg.eigvalsh(partial_trace_matrix(rho, keep, 4)))[::-1]
        assert abs(w[0] - max(p, 1 - p)) < 1e-12
        assert abs(w[1] - min(p, 1 - p)) < 1e-12
        assert np.abs(w[2:]).max() < 1e-12 if len(w) > 2 else True


def test_gghz_params_validation():
    with pytest.raises(ValueError):
        GghzParams(p=1.2)


def test_haar_norm_and_determinism():
    a = haar_random_pure(4, RngSeed(seed=9, stream_index=5))
    b = haar_random_pure(4, RngSeed(seed=9, stream_index=5))
    c = haar_random_pure(4, RngSeed(seed=9, stream_index=6))
    assert abs(np.vdot(a.amplitudes, a.amplitudes).real - 1.0) < 1e-12
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert np.abs(a.amplitudes - c.amplitudes).max() > 1e-3


def test_haar_block_rows_are_the_per_state_draws():
    # the seed contract: row i of a block is RngSeed(seed, id_i)'s state, bit
    # for bit, whatever else the block holds
    ids = [3, 0, 17, 4]
    block = haar_amplitudes(4, [RngSeed(21, sid) for sid in ids])
    assert block.shape == (4, 16)
    for row, sid in zip(block, ids):
        assert np.array_equal(row, haar_random_pure(4, RngSeed(21, sid)).amplitudes)
    gen = np.random.default_rng(5)
    mixed = haar_amplitudes(3, [RngSeed(21, 3), gen])
    assert np.array_equal(mixed[0], haar_amplitudes(3, [RngSeed(21, 3)])[0])
    assert np.array_equal(
        mixed[1], haar_random_pure(3, np.random.default_rng(5)).amplitudes)


def test_seed_words_are_numpys_seed_sequence():
    keys = [RngSeed(seed, stream) for seed in SEEDS for stream in STREAMS]
    words = pcg64_seed_words(keys)
    assert words.dtype == np.uint64 and words.shape == (len(keys), 4)
    for key, row in zip(keys, words):
        ss = np.random.SeedSequence(entropy=key.seed, spawn_key=(key.stream_index,))
        assert np.array_equal(row, ss.generate_state(4, np.uint64)), key
    # the one-row call: the generator's PCG64 starts where numpy's does
    for key in keys[::5]:
        ss = np.random.SeedSequence(entropy=key.seed, spawn_key=(key.stream_index,))
        assert (key.generator().bit_generator.state
                == np.random.default_rng(ss).bit_generator.state)


@pytest.mark.parametrize("n", [1, 4, 6])
def test_haar_block_equals_the_oracle_draw(n):
    # seeds, stream indices and a Generator entry mixed in one block; every
    # row is bit for bit numpy's per-state draw
    entries = ([RngSeed(seed, stream) for seed in SEEDS[::2] for stream in STREAMS]
               + [np.random.default_rng(5)] + [RngSeed(9, sid) for sid in range(40)])
    block = haar_amplitudes(n, entries)
    assert block.shape == (len(entries), 1 << n)
    for i, (entry, row) in enumerate(zip(entries, block)):
        if not isinstance(entry, RngSeed):
            entry = np.random.default_rng(5)
        assert np.array_equal(row, haar_state_draw(n, entry)), i


def test_rng_seed_bounds_both_words():
    RngSeed(2**64 - 1, 2**64 - 1)
    for seed, stream, name in [(-1, 0, "seed"), (2**64, 0, "seed"),
                               (0, -1, "stream_index"), (0, 2**64, "stream_index")]:
        with pytest.raises(ValueError, match=f"^{name} must be a 64-bit unsigned integer"):
            RngSeed(seed, stream)


def test_haar_amplitudes_of_no_states():
    block = haar_amplitudes(4, [])
    assert block.shape == (0, 16) and block.dtype == complex
    assert pcg64_seed_words([]).shape == (0, 4)


def test_haar_mean_marginal_purity():
    # matches the Haar average (d_A + d_B) / (d_A d_B + 1) = 10/17 for 1|3 qubits
    n_samples = 10_000
    total = 0.0
    for sid in range(n_samples):
        st = haar_random_pure(4, RngSeed(seed=1000, stream_index=sid))
        m = st.amplitudes.reshape(2, 8)
        rho_a = m @ m.conj().T
        total += float(np.trace(rho_a @ rho_a).real)
    mean = total / n_samples
    assert abs(mean - 10 / 17) < 0.005


def test_haar_rotation_invariance_ks():
    # the marginal-eigenvalue distribution must be unchanged by a fixed
    # global unitary; two-sample KS statistic stays below the ~1% critical
    # value for 10^4 + 10^4 samples (~0.023) with margin
    n_samples = 10_000
    rng = np.random.default_rng(77)
    z = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    q, r = np.linalg.qr(z)
    fixed_u = q * (np.diag(r) / np.abs(np.diag(r)))

    def top_eig(amps):
        m = amps.reshape(2, 8)
        return float(np.linalg.eigvalsh(m @ m.conj().T)[-1])

    plain = np.empty(n_samples)
    rotated = np.empty(n_samples)
    for sid in range(n_samples):
        amps = haar_random_pure(4, RngSeed(seed=2000, stream_index=sid)).amplitudes
        plain[sid] = top_eig(amps)
        amps2 = haar_random_pure(4, RngSeed(seed=3000, stream_index=sid)).amplitudes
        rotated[sid] = top_eig(fixed_u @ amps2)
    stat = ks_2samp(plain, rotated).statistic
    assert stat < 0.03


def test_save_load_ghz_round_trip():
    st = make_ghz(4)
    text = save_state(st)
    lines = text.strip().splitlines()
    assert lines[0] == "n 4 S1 S2 R1 R2"
    assert len(lines) == 17
    nonzero = [ln for ln in lines[1:] if not ln.startswith("0.0 ")]
    assert len(nonzero) == 2
    back = load_state(text)
    assert np.array_equal(back.amplitudes, st.amplitudes)
    assert back.layout.roles == st.layout.roles
    assert back.layout.routing == {"S1": "R1", "S2": "R2"}


def test_load_wrong_line_count():
    st = make_ghz(4)
    lines = save_state(st).strip().splitlines()
    with pytest.raises(StateFormatError, match="expected 16 amplitudes"):
        load_state("\n".join(lines[:-1]))


def test_load_non_numeric_entry():
    st = make_ghz(4)
    lines = save_state(st).strip().splitlines()
    lines[7] = "zero nought"
    with pytest.raises(StateFormatError, match="line 8"):
        load_state("\n".join(lines))


def test_load_bad_norm():
    st = make_ghz(4)
    text = save_state(st).replace("0.7071067811865475", "0.9")
    with pytest.raises(StateFormatError, match="norm"):
        load_state(text)


def test_load_bad_header():
    with pytest.raises(StateFormatError, match="line 1"):
        load_state("m 4 S1 S2 R1 R2\n")


def test_random_round_trip_exact():
    for sid in range(5):
        st = haar_random_pure(4, RngSeed(seed=4000, stream_index=sid))
        back = load_state(save_state(st))
        assert np.abs(back.amplitudes - st.amplitudes).max() < 1e-15
