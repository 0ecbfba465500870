"""Parameter-point and sweep evaluation with deterministic CSV/JSON emission."""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields

from . import closed_form as cf
from .density import NUMERIC_CAP, NumericCapError, oracle  # NumericCapError: re-exported for callers
from .kinematics import ModeSpec, _integer, _real, make_squeeze, squeezing_from_mode

DEFAULT_CUTOFF = cf.SeriesConfig(tail_tol=1e-10)
# most grid points of a sweep: 10^5 closed-form points over r in 0..6 take 190 MB
MAX_SWEEP_STEPS = 100_000


class SweepPointError(RuntimeError):
    """A sweep point failed; the message names the point, and the original
    error is its __cause__."""


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
        for name in ("r_min", "r_max", "omega_ratio"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        if not all(math.isfinite(v) for v in (self.r_min, self.r_max, self.omega_ratio)):
            raise ValueError(
                f"r_min, r_max and omega_ratio must be finite, got "
                f"{self.r_min}, {self.r_max}, {self.omega_ratio}"
            )
        if not self.r_min < self.r_max:
            raise ValueError(f"need r_min < r_max, got [{self.r_min}, {self.r_max}]")
        if self.r_min < 0:
            raise ValueError("r_min must be non-negative")
        object.__setattr__(self, "steps", _integer(self.steps, "steps"))
        if not 2 <= self.steps <= MAX_SWEEP_STEPS:
            raise ValueError(f"steps must be in 2..{MAX_SWEEP_STEPS}, got {self.steps}")
        if self.omega_ratio <= 0:
            raise ValueError("omega_ratio must be positive")
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


# the CSV columns, in the order csv_lines writes a report's fields
CSV_HEADER = ",".join(f.name for f in fields(EntanglementReport))


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
        sq_b = squeezing_from_mode(ModeSpec(mode.mass, omega_prime)) if omega_prime is not None else sq_a
    else:
        if omega_prime is not None:
            raise ValueError("omega_prime (--omega-prime) applies to a mass and omega, not to r values")
        if r_a is None:
            raise ValueError("r_a (or a ModeSpec) is required")
        sq_a = make_squeeze(_real(r_a, "r_a"))
        sq_b = make_squeeze(_real(r_b, "r_b")) if r_b is not None else sq_a
    _check_methods(methods)

    n_max = cf.resolve_cutoff(sq_a, sq_b, cutoff)
    return _reports([_point(sq_a, sq_b, n_max, cutoff, methods)])[0]


def _past_cap(methods, n_max: int) -> bool:
    """Whether the numeric method is asked for past NUMERIC_CAP, where run_sweep drops it."""
    return "numeric" in methods and n_max > NUMERIC_CAP


def _point(sq_a, sq_b, n_max: int, cutoff: cf.SeriesConfig, methods) -> dict:
    """A point whose pair cutoff n_max is resolved: its squeezings and cutoff,
    whether the oracle runs at it (the numeric method), and the marginal
    series it needs when the closed method runs, as (squeezing, cutoff)
    pairs. Equal squeezing on both sides (every symmetric point) is one
    series. The pair's cutoff is that of its side with the larger tanh^2 r,
    so that side's marginal takes it as resolved; the other resolves its own."""
    point = {"sq_a": sq_a, "sq_b": sq_b, "n_max": n_max, "marginals": (), "numeric": "numeric" in methods}
    if "closed" in methods:
        point["marginals"] = ((sq_a, n_max),) if sq_b == sq_a else tuple(
            (sq, n_max if sq.tanh_r**2 >= other.tanh_r**2 else cutoff.n_max or cf.resolve_cutoff(sq, sq, cutoff))
            for sq, other in ((sq_a, sq_b), (sq_b, sq_a))
        )
    return point


def _reports(points) -> list:
    """One report per point of _point: the oracle of those it runs at in one
    oracle call, which checks their cutoffs first (NumericCapError past
    NUMERIC_CAP), then the closed forms of all of them summed in one
    closed_form call."""
    numeric = oracle([(p["sq_a"], p["sq_b"], p["n_max"]) for p in points if p["numeric"]])
    closed = [p for p in points if p["marginals"]]
    marginals, joints = cf.closed_form(
        [m for p in closed for m in p["marginals"]], [(p["sq_a"], p["sq_b"], p["n_max"]) for p in closed]
    )
    marginals, joints, numeric = iter(marginals), iter(joints), iter(numeric)
    reports = []
    for p in points:
        sq_a, sq_b, n_max = p["sq_a"], p["sq_b"], p["n_max"]
        values: dict = {}
        if p["marginals"]:
            s_a = next(marginals)
            s_b = s_a if sq_b == sq_a else next(marginals)
            s_ab = next(joints)
            x, y = sq_a.tanh_r**2, sq_b.tanh_r**2
            values.update(
                e_n_block00=cf.e_n_paper(sq_a, sq_b),
                s_a_closed=s_a,
                s_b_closed=s_b,
                s_ab_closed=s_ab,
                i_closed=s_a + s_b - s_ab,
                trace_deficit=1.0 - (1.0 - x ** (n_max + 1)) * (1.0 - y ** (n_max + 1)),
            )
        if p["numeric"]:
            values.update(next(numeric))
        reports.append(EntanglementReport(r_a=sq_a.r, r_b=sq_b.r, n_max=n_max, **values))
    return reports


def run_sweep(cfg: SweepConfig) -> list:
    """One report per grid point, ascending r, each resolving its cutoff once. A point
    past NUMERIC_CAP drops the numeric method (noted once on stderr), so its
    numeric fields are None; a numeric-only point keeps just r_a, r_b and n_max.
    Once every point is resolved, the closed forms and the oracle run on all
    of them together (_reports). A point that fails is named, with its error
    as the cause: when the batch fails, its points are run one at a time to
    find the first that does (if none does, the batch's error is raised)."""
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
            sq_a = make_squeeze(r)
            sq_b = sq_a if r_b == r else make_squeeze(r_b)
            n_max = cf.resolve_cutoff(sq_a, sq_b, cfg.cutoff)
            past_cap = _past_cap(cfg.methods, n_max)
            if past_cap and not warned:
                print(
                    f"note: numeric method disabled where the resolved cutoff "
                    f"exceeds the oracle cap of {NUMERIC_CAP}",
                    file=sys.stderr,
                )
                warned = True
            methods = tuple(m for m in cfg.methods if m != "numeric") if past_cap else cfg.methods
            points.append(_point(sq_a, sq_b, n_max, cfg.cutoff, methods))
        except Exception as exc:
            raise _point_error(r, r_b, exc) from exc
    try:
        return _reports(points)
    except Exception:
        for p in points:
            try:
                _reports([p])
            except Exception as exc:
                raise _point_error(p["sq_a"].r, p["sq_b"].r, exc) from exc
        raise


def _point_error(r: float, r_b: float, exc: Exception) -> SweepPointError:
    return SweepPointError(f"sweep failed at r = {r} (r_b = {r_b}): {exc}")


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
        lines.append(",".join(_fmt(getattr(row, f.name)) for f in fields(EntanglementReport)))
    return lines


@contextmanager
def open_output(path: str | None):
    """The text stream output goes to: stdout when path is None, else the
    file at path with LF line ends. An OSError names the path."""
    if path is None:
        yield sys.stdout
        return
    try:
        with open(path, "w", newline="\n") as fh:
            yield fh
    except OSError as exc:
        raise OSError(f"failed to write {path}: {exc}") from exc


def emit_rows(rows, fmt: str, stream) -> None:
    """Write reports to an open text stream as CSV (csv_lines) or as a JSON
    list of objects (fmt "json")."""
    if fmt == "csv":
        stream.write("\n".join(csv_lines(rows)) + "\n")
    else:
        payload = [{f.name: getattr(row, f.name) for f in fields(EntanglementReport)} for row in rows]
        json.dump(payload, stream, indent=2)
        stream.write("\n")
