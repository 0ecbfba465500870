"""Parameter points and sweeps, one cutoff resolution a point, each row merged
from density.oracle and closed_form.closed_columns; the reports' CSV lines."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

from . import closed_form as cf
from .density import NUMERIC_CAP, NumericCapError, oracle  # NumericCapError: re-exported for callers
from .kinematics import ModeSpec, SqueezeParam, _integer, _positive, _real, squeezing_from_mode

DEFAULT_CUTOFF = cf.SeriesConfig(tail_tol=1e-10)
# most grid points of a sweep: 10^5 closed-form points over r in 0..6 take 190 MB
MAX_SWEEP_STEPS = 100_000


class SweepPointError(RuntimeError):
    """A sweep point's r_b, squeezing or cutoff failed; the message names the
    point, and the original error is its __cause__."""


def _check_methods(methods) -> None:
    """Refuse a methods tuple that is empty or names anything but closed and numeric."""
    bad = set(methods) - {"closed", "numeric"}
    if bad or not methods:
        raise ValueError(f"methods must be a non-empty subset of closed, numeric; got {methods}")


@dataclass(frozen=True)
class SweepConfig:
    r_min: float
    r_max: float
    steps: int
    omega_ratio: float = 1.0
    cutoff: cf.SeriesConfig = DEFAULT_CUTOFF
    methods: tuple = ("closed", "numeric")

    def __post_init__(self):
        for name in ("r_min", "r_max"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        object.__setattr__(self, "omega_ratio", _positive(self.omega_ratio, "omega_ratio"))
        if not (math.isfinite(self.r_min) and math.isfinite(self.r_max)):
            raise ValueError(f"r_min and r_max must be finite, got {self.r_min}, {self.r_max}")
        if not self.r_min < self.r_max:
            raise ValueError(f"need r_min < r_max, got [{self.r_min}, {self.r_max}]")
        if self.r_min < 0:
            raise ValueError("r_min must be non-negative")
        object.__setattr__(self, "steps", _integer(self.steps, "steps"))
        if not 2 <= self.steps <= MAX_SWEEP_STEPS:
            raise ValueError(f"steps must be in 2..{MAX_SWEEP_STEPS}, got {self.steps}")
        _check_methods(self.methods)


@dataclass(frozen=True)
class EntanglementReport:
    """One parameter point's closed-form and numeric measures.

    Numeric fields are None when the numeric method was not run; None means
    absent, never zero.
    """

    r_a: float
    r_b: float
    n_max: int
    e_n_block00: float | None = None
    neg_sum_num: float | None = None
    e_n_num: float | None = None
    s_a_closed: float | None = None
    s_b_closed: float | None = None
    s_ab_closed: float | None = None
    i_closed: float | None = None
    s_a_num: float | None = None
    s_b_num: float | None = None
    s_ab_num: float | None = None
    i_num: float | None = None
    trace_deficit: float | None = None


# a report's field names, in order: the CSV columns
_COLUMNS = tuple(f.name for f in fields(EntanglementReport))
CSV_HEADER = ",".join(_COLUMNS)


@dataclass(frozen=True)
class ComparisonReport:
    n_max: int
    diff_e_n: float
    diff_s_a: float
    diff_s_b: float
    diff_s_ab: float
    diff_i: float
    warnings: tuple


def run_point(
    r_a: float | None = None,
    r_b: float | None = None,
    mode: ModeSpec | None = None,
    omega_prime: float | None = None,
    cutoff: cf.SeriesConfig = DEFAULT_CUTOFF,
    methods=("closed", "numeric"),
) -> EntanglementReport:
    """Evaluate one parameter point, given either r values or a ModeSpec. A numeric
    method past NUMERIC_CAP raises the oracle's NumericCapError, before any
    series work (_reports)."""
    if mode is not None:
        if r_a is not None or r_b is not None:
            raise ValueError("give either r values or a ModeSpec, not both")
        sq_a = squeezing_from_mode(mode)
        omega_b = None if omega_prime is None else _positive(omega_prime, "omega_prime")
        sq_b = squeezing_from_mode(ModeSpec(mode.mass, omega_b)) if omega_b is not None else sq_a
    else:
        if omega_prime is not None:
            raise ValueError("omega_prime (--omega-prime) applies to a mass and omega, not to r values")
        if r_a is None:
            raise ValueError("r_a (or a ModeSpec) is required")
        sq_a = SqueezeParam(_real(r_a, "r_a"))
        sq_b = SqueezeParam(_real(r_b, "r_b")) if r_b is not None else sq_a
    _check_methods(methods)

    n_max = cf.resolve_cutoff(sq_a, sq_b, cutoff)
    return _reports([_Point(sq_a, sq_b, n_max, "closed" in methods, "numeric" in methods)], cutoff)[0]


@dataclass(frozen=True)
class _Point:
    """A point whose pair cutoff n_max is resolved, and which methods run at it."""

    sq_a: SqueezeParam
    sq_b: SqueezeParam
    n_max: int
    closed: bool
    numeric: bool


def _reports(points, cutoff: cf.SeriesConfig) -> list:
    """One report per _Point: the oracle of those it runs at in one oracle
    call, which checks their cutoffs first (NumericCapError past
    NUMERIC_CAP), then the closed columns of those the closed method runs at
    in one closed_columns call. On a row with both, the oracle's trace_deficit wins."""
    numeric = iter(oracle([(p.sq_a, p.sq_b, p.n_max) for p in points if p.numeric]))
    closed = iter(cf.closed_columns([(p.sq_a, p.sq_b, p.n_max) for p in points if p.closed], cutoff))
    reports = []
    for p in points:
        values = {**(next(closed) if p.closed else {}), **(next(numeric) if p.numeric else {})}
        reports.append(EntanglementReport(r_a=p.sq_a.r, r_b=p.sq_b.r, n_max=p.n_max, **values))
    return reports


def run_sweep(cfg: SweepConfig) -> list:
    """One report per grid point, ascending r, each resolving its cutoff once. A point
    past NUMERIC_CAP drops the numeric method (noted once on stderr), so its
    numeric fields are None; a numeric-only point keeps just r_a, r_b and n_max.
    A point whose r_b is infinite or whose cutoff does not resolve fails the
    sweep, named, with its error as the cause. Once every point is resolved,
    the oracle and the closed columns run on all of them together (_reports),
    which no resolved point fails; an error there propagates as itself."""
    points = []
    warned = False
    for k in range(cfg.steps):
        r = cfg.r_min + k * (cfg.r_max - cfg.r_min) / (cfg.steps - 1)
        # tanh r_b = tanh(r)^omega_ratio; a tiny ratio rounds it to 1 (r_b infinite)
        tanh_b = math.tanh(r) ** cfg.omega_ratio
        r_b = r if cfg.omega_ratio == 1.0 else math.atanh(tanh_b) if tanh_b < 1.0 else math.inf
        try:
            if r_b == math.inf:
                raise ValueError(
                    f"Bob's squeezing r_b is infinite at r = {r}: tanh(r)^omega_ratio rounds to 1 "
                    f"for omega_ratio = {cfg.omega_ratio:g}"
                )
            sq_a = SqueezeParam(r)
            sq_b = sq_a if r_b == r else SqueezeParam(r_b)
            n_max = cf.resolve_cutoff(sq_a, sq_b, cfg.cutoff)
            numeric = "numeric" in cfg.methods and n_max <= NUMERIC_CAP
            if "numeric" in cfg.methods and not numeric and not warned:
                print(
                    f"note: numeric method disabled where the resolved cutoff "
                    f"exceeds the oracle cap of {NUMERIC_CAP}",
                    file=sys.stderr,
                )
                warned = True
            points.append(_Point(sq_a, sq_b, n_max, "closed" in cfg.methods, numeric))
        except Exception as exc:
            raise SweepPointError(f"sweep failed at r = {r} (r_b = {r_b}): {exc}") from exc
    return _reports(points, cfg.cutoff)


def check_warn_threshold(warn_threshold: float) -> None:
    """Refuse a comparison threshold that is not a finite number >= 0."""
    if not (math.isfinite(_real(warn_threshold, "warn_threshold")) and warn_threshold >= 0.0):
        raise ValueError(f"warn_threshold must be finite and >= 0, got {warn_threshold}")


def compare_closed_vs_numeric(report: EntanglementReport, warn_threshold: float = 1e-2) -> ComparisonReport:
    """Per-measure |closed - numeric| differences; large ones are flagged,
    not failed (the closed forms are a per-block approximation). s_b is
    flagged only where r_b != r_a: at a symmetric point it is the same
    series and oracle value as s_a."""
    check_warn_threshold(warn_threshold)
    closed_ok = report.e_n_block00 is not None
    numeric_ok = report.e_n_num is not None
    if not (closed_ok and numeric_ok):
        missing = "closed" if not closed_ok else "numeric"
        raise ValueError(f"comparison needs both method families; {missing} is absent")
    diffs = {
        "e_n": abs(report.e_n_block00 - report.e_n_num),
        "s_a": abs(report.s_a_closed - report.s_a_num),
        "s_b": abs(report.s_b_closed - report.s_b_num),
        "s_ab": abs(report.s_ab_closed - report.s_ab_num),
        "i": abs(report.i_closed - report.i_num),
    }
    warnings = tuple(
        f"{name} differs by {diff:.3e} (> {warn_threshold:.0e}): per-block approximation gap"
        for name, diff in diffs.items()
        if diff > warn_threshold and (name != "s_b" or report.r_b != report.r_a)
    )
    return ComparisonReport(
        n_max=report.n_max, warnings=warnings, **{f"diff_{name}": diff for name, diff in diffs.items()}
    )


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return f"{value:.11e}"


def csv_lines(rows) -> list:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join(_fmt(getattr(row, name)) for name in _COLUMNS))
    return lines

