"""Tests for the Kruskal-mode amplitudes and the pair state built from them."""

import numpy as np
import pytest
from brute_force import kruskal_states, pair_state

from hawkpair.fock import mode_amplitudes
from hawkpair.kinematics import make_squeeze

SECH_1 = 0.6480542736638854  # 1/cosh(1)
TANH_SECH_1 = 0.4935543475645731  # tanh(1)/cosh(1)
SECH2_1 = 0.4199743416140261  # 1/cosh(1)^2
ONE_MINUS_TANH8_1 = 0.8868150136351250  # 1 - tanh(1)^8


def vacuum_norm_sq(x, n_max):
    # geometric identity: sum_{n<=N} x^n / cosh^2 = 1 - x^(N+1), x = tanh^2 r
    return 1.0 - x ** (n_max + 1)


def one_norm_sq(x, n_max):
    # (n+1)-weighted identity with top index N = n_max - 1
    n = n_max - 1
    return 1.0 - (n + 2) * x ** (n + 1) + (n + 1) * x ** (n + 2)


def norm_sq(amplitudes):
    return float(np.sum(amplitudes**2))


def test_vacuum_unsqueezed_is_fock_vacuum():
    v, _ = mode_amplitudes(make_squeeze(0.0), 3)
    np.testing.assert_array_equal(v, [1.0, 0.0, 0.0, 0.0])


def test_vacuum_amplitudes_at_unit_squeezing():
    v, _ = mode_amplitudes(make_squeeze(1.0), 3)
    assert v[0] == pytest.approx(SECH_1, rel=1e-12)
    assert v[1] == pytest.approx(TANH_SECH_1, rel=1e-12)


def test_vacuum_truncated_norm():
    v, _ = mode_amplitudes(make_squeeze(1.0), 3)
    assert norm_sq(v) == pytest.approx(ONE_MINUS_TANH8_1, abs=1e-13)


@pytest.mark.parametrize("r", [0.3, 1.0, 2.2])
@pytest.mark.parametrize("n_max", [1, 4, 9])
def test_norm_identities(r, n_max):
    sq = make_squeeze(r)
    x = sq.tanh_r**2
    v, o = mode_amplitudes(sq, n_max)
    assert norm_sq(v) == pytest.approx(vacuum_norm_sq(x, n_max), abs=1e-13)
    assert norm_sq(o) == pytest.approx(one_norm_sq(x, n_max), abs=1e-13)


def test_one_particle_unsqueezed():
    _, o = mode_amplitudes(make_squeeze(0.0), 2)
    np.testing.assert_array_equal(o, [1.0, 0.0, 0.0])


def test_one_particle_amplitude_at_unit_squeezing():
    _, o = mode_amplitudes(make_squeeze(1.0), 4)
    assert o[0] == pytest.approx(SECH2_1, rel=1e-12)


def test_one_particle_rejects_zero_cutoff():
    with pytest.raises(ValueError, match="n_max"):
        mode_amplitudes(make_squeeze(1.0), 0)


def test_one_particle_norm_converges_to_one():
    sq = make_squeeze(1.0)
    norms = [norm_sq(mode_amplitudes(sq, n)[1]) for n in (5, 10, 20, 40, 80)]
    assert all(a <= b + 1e-15 for a, b in zip(norms, norms[1:]))
    assert norms[-1] == pytest.approx(1.0, abs=1e-12)


def test_vacuum_one_orthogonal():
    for r in (0.0, 0.7, 1.5):
        vac, one = kruskal_states(r, 8)
        assert abs(float(np.sum(vac * one))) < 1e-15


def test_amplitudes_non_negative():
    for r in (0.0, 0.5, 2.0):
        v, o = mode_amplitudes(make_squeeze(r), 6)
        assert np.all(v >= 0.0) and np.all(o >= 0.0)
        assert np.all(pair_state(r, r, 6) >= 0.0)


def test_pair_state_bell_limit():
    psi = pair_state(0.0, 0.0, 1)
    nz = {idx: val for idx, val in np.ndenumerate(psi) if val != 0.0}
    assert set(nz) == {(0, 0, 0, 0), (0, 1, 0, 1)}
    for val in nz.values():
        assert val == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-15)


def test_pair_state_norm_product_of_factor_norms():
    x = make_squeeze(1.0).tanh_r ** 2
    n2 = norm_sq(pair_state(1.0, 1.0, 8))
    assert n2 < 1.0
    assert n2 == pytest.approx(0.5 * (vacuum_norm_sq(x, 8) ** 2 + one_norm_sq(x, 8) ** 2), abs=1e-13)
    # the fat (n+1)-weighted tail needs a deeper cutoff to get within 1e-3
    assert norm_sq(pair_state(1.0, 1.0, 22)) == pytest.approx(1.0, abs=1e-3)


def test_pair_state_norm_monotone_in_cutoff():
    norms = [norm_sq(pair_state(1.2, 1.2, n)) for n in (2, 4, 6, 8, 10)]
    assert all(a <= b + 1e-15 for a, b in zip(norms, norms[1:]))


def test_pair_state_component_orthogonality():
    # the |00> and |11> components have disjoint support (A_out differs by 1)
    for r in (0.4, 1.3):
        vac, one = kruskal_states(r, 6)
        c00 = np.einsum("ab,cd->abcd", vac, vac)
        c11 = np.einsum("ab,cd->abcd", one, one)
        assert float(np.sum(c00 * c11)) == 0.0


def test_pair_state_mode_order():
    # axes [A_in, A_out, B_in, B_out]: the one-particle excitation is on the out modes
    psi = pair_state(0.5, 0.9, 2)
    assert psi[0, 1, 0, 1] > 0.0
    assert psi[1, 0, 1, 0] == psi[0, 1, 1, 0] == 0.0
    v_a, _ = mode_amplitudes(make_squeeze(0.5), 2)
    v_b, _ = mode_amplitudes(make_squeeze(0.9), 2)
    assert psi[1, 1, 0, 0] == pytest.approx(v_a[1] * v_b[0] / np.sqrt(2.0), rel=1e-15)
