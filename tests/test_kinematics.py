"""Tests for the mass/frequency <-> squeezing-parameter conversions."""

import math
import re
import sys

import numpy as np
import pytest

from hawkpair.kinematics import R_MAX, ModeSpec, SqueezeParam, make_squeeze, mass_from_squeezing, squeezing_from_mode

# high-precision reference values (50-digit evaluation, frozen)
MW_FOR_HALF = 0.0551589000381628983  # ln(2)/(4 pi): makes exp(-4 pi M w) = 1/2
R_FOR_HALF = 0.5493061443340548457  # artanh(1/2)
MW_FOR_R1 = 0.0216722454931128668  # -ln(tanh 1)/(4 pi)
TANH_1 = 0.7615941559557648881
COSH_1 = 1.5430806348152437785
TANH_6 = 0.9999877116507955706
COSH_6 = 201.71563612245589448


def test_squeezing_from_mode_half_boltzmann():
    sq = squeezing_from_mode(ModeSpec(mass=MW_FOR_HALF, omega=1.0))
    assert sq.r == pytest.approx(R_FOR_HALF, rel=1e-12)
    assert sq.tanh_r == pytest.approx(0.5, rel=1e-12)


def test_squeezing_vanishes_for_heavy_hole():
    sq = squeezing_from_mode(ModeSpec(mass=10.0, omega=1.0))
    assert 0.0 <= sq.r < 1e-54


def test_squeezing_from_mode_refuses_infinite_r():
    # exp(-4 pi M omega) rounds to 1, and artanh(1) is infinite
    with pytest.raises(ValueError, match=r"M\*omega = 1e-15 \* 1e-15 .* r is infinite"):
        squeezing_from_mode(ModeSpec(mass=1e-15, omega=1e-15))


def test_squeezing_from_mode_unit_r():
    sq = squeezing_from_mode(ModeSpec(mass=MW_FOR_R1, omega=1.0))
    assert sq.r == pytest.approx(1.0, abs=1e-10)


def test_mass_from_squeezing_examples():
    assert mass_from_squeezing(R_FOR_HALF, 1.0) == pytest.approx(MW_FOR_HALF, rel=1e-12)
    # evaporation limit: huge squeezing means a nearly evaporated hole
    assert 0 < mass_from_squeezing(18.0, 1.0) < 1e-15
    assert mass_from_squeezing(1.0, 2.0) == pytest.approx(MW_FOR_R1 / 2.0, rel=1e-12)


@pytest.mark.parametrize(
    "r,tanh_r,cosh_r",
    [
        (0.0, 0.0, 1.0),
        (1.0, TANH_1, COSH_1),
        (6.0, TANH_6, COSH_6),
    ],
)
def test_make_squeeze_values(r, tanh_r, cosh_r):
    sq = make_squeeze(r)
    assert sq.tanh_r == pytest.approx(tanh_r, rel=1e-12, abs=1e-15)
    assert sq.cosh_r == pytest.approx(cosh_r, rel=1e-12)


@pytest.mark.parametrize("r", [1, np.int64(1), np.float32(0.5), np.float64(0.5)])
def test_make_squeeze_stores_r_as_float(r):
    sq = make_squeeze(r)
    assert type(sq.r) is float and sq.r == r
    assert sq == make_squeeze(float(r))


@pytest.mark.parametrize("mass,omega", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0), (math.inf, 1.0), (math.nan, 1.0)])
def test_mode_spec_rejects_bad_input(mass, omega):
    with pytest.raises(ValueError):
        ModeSpec(mass=mass, omega=omega)


@pytest.mark.parametrize("r", [-0.1, math.inf, math.nan, 177.5, 178.0, 355.5, 800.0, 1000.0])
def test_make_squeeze_rejects_bad_input(r):
    with pytest.raises(ValueError):
        make_squeeze(r)


def test_squeeze_param_derives_its_values_from_r():
    sq = SqueezeParam(1.0)
    assert sq == make_squeeze(1.0)
    assert (sq.tanh_r, sq.cosh_r) == (math.tanh(1.0), math.cosh(1.0))
    # tanh_r and cosh_r are not arguments: they cannot disagree with r
    with pytest.raises(TypeError):
        SqueezeParam(1.0, 0.2, 7.0)


@pytest.mark.parametrize(
    "r,message",
    [
        (177.5, "r must be at most 177.0 (past it cosh^4 r or its inverse is no normal float), got 177.5"),
        (math.nan, "r must be non-negative and finite, got nan"),
        (-0.1, "r must be non-negative and finite, got -0.1"),
        ("1", "r must be a real number, got '1'"),
    ],
)
def test_squeeze_param_refuses_bad_r(r, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        SqueezeParam(r)


def test_make_squeeze_largest_r_has_finite_cosh_squared():
    # r = R_MAX is the largest accepted: cosh^4 r, by which the series divide,
    # is finite, and the oracle's weight 1/(2 cosh^4 r) is a normal float
    sq = make_squeeze(R_MAX)
    assert math.isfinite(sq.cosh_r**4)
    assert 0.5 / sq.cosh_r**4 >= sys.float_info.min


@pytest.mark.parametrize("r,omega", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (20.0, 1.0), (500.0, 1.0)])
def test_mass_from_squeezing_rejects_bad_input(r, omega):
    # tanh r rounds to 1 from r ~ 19.07: the mass would be 0, so the error names r
    with pytest.raises(ValueError, match=f"r = {r} is too large" if r > 19 else None):
        mass_from_squeezing(r, omega)


def test_round_trip_mass_squeezing():
    for mw in np.geomspace(1e-3, 1.0, 25):
        mode = ModeSpec(mass=mw, omega=1.0)
        sq = squeezing_from_mode(mode)
        assert mass_from_squeezing(sq.r, 1.0) == pytest.approx(mw, rel=1e-12)


def test_r_decreases_with_mass_frequency_product():
    rs = [squeezing_from_mode(ModeSpec(mass=mw, omega=1.0)).r for mw in np.linspace(1e-3, 1.0, 40)]
    assert all(a > b for a, b in zip(rs, rs[1:]))


def test_hyperbolic_identity_cached_values():
    for r in np.linspace(0.0, 8.0, 33):
        sq = make_squeeze(float(r))
        assert abs(1.0 / sq.cosh_r**2 - (1.0 - sq.tanh_r**2)) < 1e-14
        assert 0.0 <= sq.tanh_r < 1.0
        assert sq.cosh_r >= 1.0
