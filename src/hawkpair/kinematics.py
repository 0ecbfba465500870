"""Conversion between black-hole/mode parameters and the squeezing parameter.

Geometric units (G = c = hbar = k_B = 1) throughout, so the product
mass * omega is the only physical degree of freedom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .closed_form import _real

# largest squeezing parameter accepted: the series divide by cosh^4 r, which
# overflows a float above r = 178.1, and the oracle's weight 1/(2 cosh^4 r)
# is subnormal from r = 177.6 (tanh r rounds to 1 from r ~ 19.1)
R_MAX = 177.0


@dataclass(frozen=True)
class ModeSpec:
    """Black-hole mass and field-mode frequency in geometric units."""

    mass: float
    omega: float

    def __post_init__(self):
        object.__setattr__(self, "mass", _real(self.mass, "mass"))
        object.__setattr__(self, "omega", _real(self.omega, "omega"))
        if not (math.isfinite(self.mass) and self.mass > 0):
            raise ValueError(f"mass must be positive and finite, got {self.mass}")
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise ValueError(f"omega must be positive and finite, got {self.omega}")


@dataclass(frozen=True)
class SqueezeParam:
    """Squeezing parameter with cached hyperbolic values.

    The Boltzmann-like factor exp(-4*pi*M*omega) equals tanh_r when the
    parameter is derived from a ModeSpec.
    """

    r: float
    tanh_r: float
    cosh_r: float

    def __post_init__(self):
        if not (math.isfinite(_real(self.r, "r")) and self.r >= 0):
            raise ValueError(f"r must be non-negative and finite, got {self.r}")


def make_squeeze(r: float) -> SqueezeParam:
    """Build a SqueezeParam directly from r (for sweeps over the r axis)."""
    r = _real(r, "r")
    if not (math.isfinite(r) and r >= 0):
        raise ValueError(f"r must be non-negative and finite, got {r}")
    if r > R_MAX:
        raise ValueError(f"r must be at most {R_MAX} (past it cosh^4 r or its inverse is no normal float), got {r}")
    return SqueezeParam(r=r, tanh_r=math.tanh(r), cosh_r=math.cosh(r))


def squeezing_from_mode(mode: ModeSpec) -> SqueezeParam:
    """r = artanh(exp(-4*pi*M*omega)).

    Large M*omega gives r -> 0 (heavy black hole, no radiation); an M*omega
    so small that exp(-4*pi*M*omega) rounds to 1 would give r = inf.
    """
    boltzmann = math.exp(-4.0 * math.pi * mode.mass * mode.omega)
    if boltzmann == 1.0:
        raise ValueError(
            f"M*omega = {mode.mass:g} * {mode.omega:g} is too small: exp(-4 pi M omega) "
            f"rounds to 1, so the squeezing r is infinite"
        )
    return make_squeeze(math.atanh(boltzmann))


def mass_from_squeezing(r: float, omega: float) -> float:
    """Invert the mass <-> squeezing relation: M = -ln(tanh r)/(4*pi*omega)."""
    r, omega = _real(r, "r"), _real(omega, "omega")
    if not (math.isfinite(r) and r > 0):
        raise ValueError(f"r must be positive and finite, got {r}")
    if not (math.isfinite(omega) and omega > 0):
        raise ValueError(f"omega must be positive and finite, got {omega}")
    return -math.log(math.tanh(r)) / (4.0 * math.pi * omega)
