"""Checks of the benchmark's own reference code against closed forms.

    python3 -m pytest perfbench/test_reference.py -q
"""

import math

import numpy as np
import pytest

import reference as ref

GHZ = ref.ghz_amplitudes()
GHZ_CHANNELS = ["ad:0.3,0.3", "ad:0.6,0.3", "ad:0.9,0.1", "pd:0.4,0.7",
                "pauli:0.8,0.05,0.05,0.1", "pauli:0.485,0.015,0.015,0.485",
                ref.ASYM_PAULI]


@pytest.mark.parametrize("channel", GHZ_CHANNELS)
@pytest.mark.parametrize("side", [1, 2])
def test_ghz_side_minimum_matches_closed_form(channel, side):
    found = ref.side_min_entropy(GHZ, channel, side)
    assert found == pytest.approx(ref.ghz_side_min_entropy(channel, side), abs=1e-9)


def test_ghz_amplitude_damping_bound():
    # 3 - H((1 - sqrt(1 - g + g^2)) / 2) at g = 1/2
    side = ref.ghz_side_min_entropy("ad:0.5,0.5", 1)
    assert 4.0 - side == pytest.approx(2.6454210973347301, abs=1e-12)


@pytest.mark.parametrize("channel", ["ad:0.6,0.3", "pd:0.4,0.7", ref.ASYM_PAULI])
@pytest.mark.parametrize("side", [1, 2])
def test_tabulated_side_map_matches_explicit_route(channel, side):
    amps = ref.haar_amplitudes(5, 3)
    u = ref.euler_unitaries(np.array([[0.3, 1.1, -2.0]]))[0]
    factors = [ref.I2] * 4
    factors[ref.SENDER[side]] = u
    lift = factors[0]
    for f in factors[1:]:
        lift = np.kron(lift, f)
    rho = lift @ np.outer(amps, amps.conj()) @ lift.conj().T
    noisy = sum(np.kron(k, np.eye(4)) @ rho @ np.kron(k, np.eye(4)).conj().T
                for k in ref.sender_kraus(channel))
    want = ref.entropy_bits(ref.partial_trace(noisy, ref.SIDE[side]))
    got = ref.SideProblem(amps, channel, side).entropies(u[None])[0]
    assert got == pytest.approx(want, abs=1e-12)


def test_kraus_sets_are_complete():
    for channel in GHZ_CHANNELS:
        acc = sum(k.conj().T @ k for k in ref.sender_kraus(channel))
        assert np.abs(acc - np.eye(4)).max() < 1e-12


def test_noiseless_rows_of_ghz_and_product_state():
    product = np.zeros(16, dtype=complex)
    product[0] = 1.0
    rows = ref.noiseless_rows(np.stack([GHZ, product]))
    assert rows["ggm"] == pytest.approx([0.5, 0.0], abs=1e-12)
    assert rows["bound"] == pytest.approx([3.0, 2.0], abs=1e-12)
    assert rows["above"].tolist() == [True, True]


def test_paper_unitary_is_unitary():
    u = ref.paper_unitary(1 / math.sqrt(2), 0.4, 1.2)
    assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-12
