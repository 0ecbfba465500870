"""Conversion between black-hole/mode parameters and the squeezing parameter,
the weight a mode's truncated Fock families leave out, and the batching both
method modules share: `_batches`, under the one budget _CHUNK_CELLS.

Geometric units (G = c = hbar = k_B = 1) throughout, so the product
mass * omega is the only physical degree of freedom.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

# largest squeezing parameter accepted: the series divide by cosh^4 r, which
# overflows a float above r = 178.1, and the oracle's weight 1/(2 cosh^4 r)
# is subnormal from r = 177.6 (tanh r rounds to 1 from r ~ 19.1)
R_MAX = 177.0
# floats in one temporary of either method module, 64 KiB: the series' node
# grid holds two (z and z ln z), the oracle its (2N+1)(N+1) block diagonals.
# glibc trims its heap as a batch's temporaries are freed, so a fig3 pass
# takes about 90 minor page faults (none with a 64 MiB trim threshold)
_CHUNK_CELLS = 1 << 13


def _integer(value, name: str) -> int:
    """value as a Python int: any integer type passes (numpy's too), anything else is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(value, name: str) -> float:
    """value as a Python float: any real number type passes (numpy's too), a
    bool or anything else (a string) is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _positive(value, name: str) -> float:
    """value as a Python float (_real) that is finite and above 0, else ValueError."""
    value = _real(value, name)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


@dataclass(frozen=True)
class ModeSpec:
    """Black-hole mass and field-mode frequency in geometric units."""

    mass: float
    omega: float

    def __post_init__(self):
        object.__setattr__(self, "mass", _positive(self.mass, "mass"))
        object.__setattr__(self, "omega", _positive(self.omega, "omega"))


@dataclass(frozen=True)
class SqueezeParam:
    """Squeezing parameter r, in 0..R_MAX, with its hyperbolic values derived from it.

    The Boltzmann-like factor exp(-4*pi*M*omega) equals tanh_r when the
    parameter is derived from a ModeSpec.
    """

    r: float
    tanh_r: float = field(init=False)
    cosh_r: float = field(init=False)

    def __post_init__(self):
        r = _real(self.r, "r")
        if not (math.isfinite(r) and r >= 0):
            raise ValueError(f"r must be non-negative and finite, got {r}")
        if r > R_MAX:
            raise ValueError(f"r must be at most {R_MAX} (past it cosh^4 r or its inverse is no normal float), got {r}")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "tanh_r", math.tanh(r))
        object.__setattr__(self, "cosh_r", math.cosh(r))


def make_squeeze(r: float) -> SqueezeParam:
    """SqueezeParam(r), kept as a public name."""
    return SqueezeParam(r)


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
    return SqueezeParam(math.atanh(boltzmann))


def mass_from_squeezing(r: float, omega: float) -> float:
    """Invert the mass <-> squeezing relation: M = -ln(tanh r)/(4*pi*omega)."""
    r, omega = _positive(r, "r"), _positive(omega, "omega")
    tanh_r = math.tanh(r)
    if tanh_r == 1.0:
        raise ValueError(f"r = {r} is too large: tanh r rounds to 1 (from r ~ 19.07), so the mass would be 0")
    return -math.log(tanh_r) / (4.0 * math.pi * omega)


def _tail(sq: SqueezeParam, m: int) -> float:
    """tanh^(2m) r for m >= 1 as exp(-2m log1p(2 / expm1(2r))), not a power of the rounded tanh r; 0 at r = 0."""
    return math.exp(-2.0 * m * math.log1p(2.0 / math.expm1(2.0 * sq.r))) if sq.r else 0.0


def _trace_deficit(sq_a: SqueezeParam, sq_b: SqueezeParam, vacuum: int, one: int) -> float:
    """1 - tr of the pair's weights with each mode's vacuum family cut to its
    first `vacuum` terms and its one-particle family to its first `one`, taken
    without cancellation as (X + Y - XY)/2 + (A + B - AB)/2: the families' tails
    X = tanh^(2 vacuum) r and A = tanh^(2 one) r (1 + one / cosh^2 r) at r_a, Y and B at r_b."""
    (x, a), (y, b) = ((_tail(sq, vacuum), _tail(sq, one) * (1.0 + one / sq.cosh_r**2)) for sq in (sq_a, sq_b))
    return 0.5 * (x + y - x * y) + 0.5 * (a + b - a * b)


def _batches(keys, cells):
    """Index arrays of the points that share a key, in chunks of at most
    _CHUNK_CELLS // cells(key) points (at least one)."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    for key, members in groups.items():
        step = max(1, _CHUNK_CELLS // cells(key))
        for lo in range(0, len(members), step):
            yield np.array(members[lo : lo + step])
