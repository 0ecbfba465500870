"""The benchmark's two workloads, generated from a seed.

Seed 0 gives the inputs described in bench/README.md. Any other seed moves
the r values a little while every point keeps its cutoff band (the same
resolved N for the oracle points, the same side of N = 6000 for the series),
so each band keeps its point count and its cost.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import reference as ref

TAIL_TOL = 1e-10
# resolved cutoffs above this run the joint series by Euler-Maclaurin
LARGE_N = 6000


@dataclass(frozen=True)
class Call:
    """One user query: a CLI invocation and its in-process twin.

    kind is "sweep" (kwargs of SweepConfig), "point" (kwargs of run_point) or
    "compare" (run_point, then compare_closed_vs_numeric). mode holds
    (mass, omega, omega_prime) when the point is given by --mass/--omega.
    """

    label: str
    kind: str
    argv: tuple
    out: str
    fmt: str
    ops: int
    n_max: int | None = None
    r_a: float | None = None
    mode: tuple | None = None
    methods: tuple = ("closed", "numeric")
    sweep: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple
    # (r_a, r_b, n_max or None, methods): one point per cutoff band, evaluated
    # first in a fresh process for setup_s and in-process before timing
    bands: tuple
    # (r_a, r_b) of the first point with resolved N > LARGE_N, if any
    large_point: tuple | None
    inproc_reps: int

    @property
    def ops(self) -> int:
        return sum(c.ops for c in self.calls)


def resolved_n(r_a: float, r_b: float) -> int:
    """The cutoff tail_tol resolves for a pair: from the larger tanh^2 r."""
    return ref.cutoff(max(math.tanh(r_a) ** 2, math.tanh(r_b) ** 2), TAIL_TOL)


def r_b_for_ratio(r: float, ratio: float) -> float:
    """Bob's r when his frequency is ratio times Alice's: tanh r_b = tanh^ratio r."""
    return math.atanh(math.tanh(r) ** ratio) if r > 0 else 0.0


def _jitter(rng, base, width, same):
    """base moved by up to +-width, resampled until same(value) holds."""
    if rng is None:
        return base
    for _ in range(1000):
        value = base + rng.uniform(-width, width)
        if same(value):
            return value
    return base


def _grid(r_min, r_max, steps):
    return [r_min + k * (r_max - r_min) / (steps - 1) for k in range(steps)]


def fig3_closed(seed: int) -> Workload:
    """The fig3 preset: r in [0, 6], 121 symmetric points, closed forms only."""
    rng = random.Random(seed) if seed else None

    def small_count(r_max):
        return sum(resolved_n(r, r) <= LARGE_N for r in _grid(0.0, r_max, 121))

    # +-0.004 on r_max moves the costliest direct-grid points by about 1 %
    r_max = _jitter(rng, 6.0, 0.004, lambda b: small_count(b) == small_count(6.0))
    if r_max == 6.0:
        argv = ("fig3",)
    else:
        argv = ("sweep", "--r-min", "0.0", "--r-max", repr(r_max), "--steps", "121",
                "--methods", "closed", "--tail-tol", repr(TAIL_TOL))
    call = Call(
        label="fig3", kind="sweep", argv=argv, out="fig3-closed.csv", fmt="csv", ops=121,
        methods=("closed",),
        sweep=dict(r_min=0.0, r_max=r_max, steps=121, omega_ratio=1.0),
    )
    grid = _grid(0.0, r_max, 121)
    small = next(r for r in grid if r > 0)
    large = next(r for r in grid if resolved_n(r, r) > LARGE_N)
    return Workload(
        name="fig3-closed", calls=(call,),
        bands=((small, small, None, ("closed",)), (large, large, None, ("closed",))),
        large_point=(large, large), inproc_reps=1,
    )


def oracle_sweep(seed: int) -> Workload:
    """Asymmetric sweeps (omega'/omega = 2), both methods, explicit cutoffs 8,
    11, 14, then a compare and a --mass/--omega point at 14."""
    rng = random.Random(seed) if seed else None
    calls = []
    bands = []
    for n_max in (8, 11, 14):
        r_min = _jitter(rng, 0.4, 0.01, lambda r: True)
        r_max = _jitter(rng, 1.4, 0.01, lambda r: True)
        argv = ("sweep", "--r-min", repr(r_min), "--r-max", repr(r_max), "--steps", "6",
                "--omega-ratio", "2.0", "--nmax", str(n_max))
        calls.append(Call(
            label=f"sweep-nmax{n_max}", kind="sweep", argv=argv, out=f"oracle-{n_max}.csv",
            fmt="csv", ops=6, n_max=n_max,
            sweep=dict(r_min=r_min, r_max=r_max, steps=6, omega_ratio=2.0),
        ))
        bands.append((r_min, r_b_for_ratio(r_min, 2.0), n_max, ("closed", "numeric")))
    r_cmp = _jitter(rng, 0.9, 0.01, lambda r: True)
    calls.append(Call(
        label="compare-nmax14", kind="compare", argv=("compare", "--r", repr(r_cmp), "--nmax", "14"),
        out="oracle-compare.json", fmt="compare", ops=1, n_max=14, r_a=r_cmp,
    ))
    # mass 0.025: r = 0.93 at omega = 1, 0.60 at omega' = 2
    mass = _jitter(rng, 0.025, 0.0005, lambda m: True)
    calls.append(Call(
        label="point-mass-omega-nmax14", kind="point",
        argv=("point", "--mass", repr(mass), "--omega", "1.0", "--omega-prime", "2.0",
              "--nmax", "14", "--format", "json"),
        out="oracle-point.json", fmt="json", ops=1, n_max=14, mode=(mass, 1.0, 2.0),
    ))
    return Workload(
        name="oracle-sweep", calls=tuple(calls), bands=tuple(bands),
        large_point=None, inproc_reps=3,
    )


WORKLOADS = {"fig3-closed": fig3_closed, "oracle-sweep": oracle_sweep}
