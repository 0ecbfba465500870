"""Tests for point/sweep evaluation and the CSV/JSON emission contract."""

import io
import json
import math
import re
from dataclasses import fields

import numpy as np
import pytest

from hawkpair import closed_form as cf
from hawkpair import sweep
from hawkpair.closed_form import ConvergenceError, SeriesConfig
from hawkpair.kinematics import ModeSpec, SqueezeParam, make_squeeze, mass_from_squeezing
from hawkpair.sweep import (
    CSV_HEADER,
    MAX_SWEEP_STEPS,
    NUMERIC_CAP,
    EntanglementReport,
    NumericCapError,
    SweepConfig,
    SweepPointError,
    check_warn_threshold,
    compare_closed_vs_numeric,
    csv_lines,
    emit_rows,
    open_output,
    run_point,
    run_sweep,
)

MW_FOR_HALF = 0.0551589000381629  # makes exp(-4 pi M w) = 1/2
R_FOR_HALF = 0.5493061443340548457  # artanh(1/2)
SECH2_1 = 0.4199743416140261

FLOAT_RE = re.compile(r"^-?\d\.\d{11}e[+-]\d{2,3}$")


# ------------------------------------------------------------------ run_point


def test_run_point_bell_limit():
    rep = run_point(r_a=0.0, cutoff=SeriesConfig(tail_tol=1e-10))
    assert rep.n_max == 1
    assert rep.e_n_block00 == 1.0
    assert rep.e_n_num == pytest.approx(1.0, abs=1e-10)
    assert rep.i_closed == pytest.approx(2.0, abs=1e-12)
    assert rep.i_num == pytest.approx(2.0, abs=1e-9)
    assert rep.trace_deficit == pytest.approx(0.0, abs=1e-14)


def test_run_point_unit_squeezing_closed_only():
    rep = run_point(r_a=1.0, cutoff=SeriesConfig(tail_tol=1e-10), methods=("closed",))
    assert rep.e_n_block00 == pytest.approx(SECH2_1, rel=1e-12)
    assert rep.e_n_num is None and rep.s_a_num is None and rep.i_num is None
    assert rep.i_closed == rep.s_a_closed + rep.s_b_closed - rep.s_ab_closed


def test_run_point_numeric_negativity_gap():
    # frozen reference: the exact PT spectrum sits below the single-block value
    # for any r > 0 (the blocks share basis elements), and the gap closes as r -> 0
    rep = run_point(r_a=0.3, cutoff=SeriesConfig(tail_tol=1e-10))
    assert rep.e_n_num == pytest.approx(0.6953342012800581, abs=1e-9)
    assert rep.neg_sum_num == pytest.approx(0.35659833212151726, abs=1e-9)
    assert rep.e_n_num < rep.e_n_block00
    small = run_point(r_a=0.05, cutoff=SeriesConfig(tail_tol=1e-10))
    assert abs(small.e_n_num - small.e_n_block00) < abs(rep.e_n_num - rep.e_n_block00)
    assert small.e_n_num == pytest.approx(1.0, abs=0.02)


def test_run_point_mass_path_matches_r_path():
    via_mode = run_point(mode=ModeSpec(mass=MW_FOR_HALF, omega=1.0), methods=("closed",))
    via_r = run_point(r_a=R_FOR_HALF, methods=("closed",))
    assert via_mode.r_a == pytest.approx(via_r.r_a, abs=1e-12)
    assert via_mode.i_closed == pytest.approx(via_r.i_closed, abs=1e-12)
    assert via_mode.n_max == via_r.n_max


def test_run_point_omega_prime_changes_bob_only():
    rep = run_point(mode=ModeSpec(mass=MW_FOR_HALF, omega=1.0), omega_prime=2.0, methods=("closed",))
    assert rep.r_a == pytest.approx(R_FOR_HALF, abs=1e-12)
    # exp(-4 pi M * 2w) = 1/4, so tanh r_b = 1/4
    assert math.tanh(rep.r_b) == pytest.approx(0.25, abs=1e-12)
    assert rep.r_b < rep.r_a


def test_run_point_numeric_cap():
    with pytest.raises(NumericCapError):
        run_point(r_a=2.0, cutoff=SeriesConfig(tail_tol=1e-10))  # needs N = 395 > 200
    rep = run_point(r_a=1.0, cutoff=SeriesConfig(tail_tol=1e-10))  # N = 49
    assert rep.i_num is not None


def test_run_point_checks_numeric_cap_before_series(monkeypatch):
    def no_series(*args):
        raise AssertionError("series summed before the numeric cap check")

    for name in ("closed_form", "s_a_closed", "s_b_closed", "s_ab_closed"):
        monkeypatch.setattr(cf, name, no_series)
    with pytest.raises(NumericCapError):
        run_point(r_a=1.0, r_b=0.5, cutoff=SeriesConfig(n_max=NUMERIC_CAP + 1))


def test_run_point_argument_validation():
    with pytest.raises(ValueError):
        run_point()
    with pytest.raises(ValueError):
        run_point(r_a=1.0, mode=ModeSpec(mass=1.0, omega=1.0))
    with pytest.raises(ValueError):
        run_point(r_a=0.5, methods=("nope",))
    with pytest.raises(ValueError):
        run_point(r_a=0.5, methods=())
    with pytest.raises(ValueError, match="omega_prime"):
        run_point(r_a=0.3, omega_prime=5.0)  # omega' has no meaning on the r path
    with pytest.raises(ValueError, match="omega"):
        run_point(mode=ModeSpec(mass=MW_FOR_HALF, omega=1.0), omega_prime=0.0)  # 0 is not "absent"


def test_run_point_trace_deficit_is_state_norm_deficit():
    rep = run_point(r_a=0.4, cutoff=SeriesConfig(tail_tol=1e-10))
    x = math.tanh(0.4) ** 2
    big_n = rep.n_max
    vac2 = 1.0 - x ** (big_n + 1)
    one2 = 1.0 - (big_n + 1) * x**big_n + big_n * x ** (big_n + 1)
    assert rep.trace_deficit == pytest.approx(1.0 - 0.5 * (vac2**2 + one2**2), abs=1e-13)
    closed_only = run_point(r_a=0.4, cutoff=SeriesConfig(tail_tol=1e-10), methods=("closed",))
    assert closed_only.trace_deficit == pytest.approx(1.0 - vac2**2, abs=1e-13)


# ------------------------------------------------------------------ run_sweep


def test_sweep_grid_endpoints_and_size():
    cfg = SweepConfig(r_min=0.0, r_max=2.0, steps=5, methods=("closed",))
    rows = run_sweep(cfg)
    assert len(rows) == 5
    assert rows[0].r_a == 0.0
    assert rows[-1].r_a == 2.0
    np.testing.assert_allclose([r.r_a for r in rows], [0.0, 0.5, 1.0, 1.5, 2.0], atol=1e-15)


def test_sweep_entanglement_strictly_decreasing():
    rows = run_sweep(SweepConfig(r_min=0.0, r_max=3.0, steps=13, methods=("closed",)))
    e = [r.e_n_block00 for r in rows]
    assert all(a > b for a, b in zip(e, e[1:]))


def test_sweep_omega_ratio_squashes_bob():
    rows = run_sweep(SweepConfig(r_min=0.5, r_max=1.5, steps=3, omega_ratio=2.0, methods=("closed",)))
    for row in rows:
        assert math.tanh(row.r_b) == pytest.approx(math.tanh(row.r_a) ** 2, abs=1e-12)
        assert row.r_b < row.r_a


def test_sweep_numeric_auto_disable(capsys):
    # numeric runs at small r, silently drops out past the oracle cap
    # (r = 0.1, 0.7, 1.3 resolve N <= 200; r = 2.0 resolves N = 395)
    rows = run_sweep(SweepConfig(r_min=0.1, r_max=2.0, steps=4))
    assert rows[0].i_num is not None
    assert rows[-2].i_num is not None
    assert rows[-1].i_num is None
    assert rows[-1].i_closed is not None
    err = capsys.readouterr().err
    assert err.count("oracle cap") == 1


def test_sweep_resolves_each_point_once(monkeypatch):
    calls = []
    resolve = cf.resolve_cutoff

    def counted(*args):
        calls.append(args)
        return resolve(*args)

    monkeypatch.setattr(cf, "resolve_cutoff", counted)
    rows = run_sweep(SweepConfig(r_min=0.4, r_max=1.4, steps=6, omega_ratio=2.0, cutoff=SeriesConfig(n_max=8)))
    assert len(calls) == 6
    assert all(row.i_num is not None for row in rows)
    # r = 2.0 resolves N = 395, past the oracle cap: that point drops the
    # numeric method without resolving its cutoff again
    calls.clear()
    rows = run_sweep(SweepConfig(r_min=0.5, r_max=2.0, steps=2))
    assert len(calls) == 2
    assert rows[0].i_num is not None and rows[1].i_num is None and rows[1].i_closed is not None


def test_symmetric_sweep_builds_one_squeezing_per_point(monkeypatch):
    built = []
    post_init = SqueezeParam.__post_init__

    def counted(self):
        built.append(self.r)
        post_init(self)

    monkeypatch.setattr(SqueezeParam, "__post_init__", counted)
    rows = run_sweep(SweepConfig(r_min=0.2, r_max=1.0, steps=5))
    assert len(built) == 5
    assert all(row.r_b == row.r_a and row.i_num is not None for row in rows)


def test_sweep_failure_names_the_point():
    cfg = SweepConfig(r_min=6.5, r_max=7.0, steps=2, methods=("closed",))
    with pytest.raises(SweepPointError, match=r"sweep failed at r = 6\.5 \(r_b = 6\.5\)") as info:
        run_sweep(cfg)
    assert isinstance(info.value.__cause__, ConvergenceError)


def test_sweep_tiny_omega_ratio_names_the_point():
    # tanh(0.5)^1e-300 rounds to 1: Bob's r_b would be infinite, and the
    # point says so instead of a bare math domain error
    cfg = SweepConfig(r_min=0.0, r_max=1.0, steps=3, omega_ratio=1e-300, methods=("closed",))
    with pytest.raises(SweepPointError, match=r"sweep failed at r = 0\.5 .*r_b is infinite") as info:
        run_sweep(cfg)
    assert type(info.value.__cause__) is ValueError


class _TwoArgumentError(Exception):
    def __init__(self, code, detail):
        super().__init__(f"{code}: {detail}")


def test_sweep_failure_keeps_cause_with_other_constructor(monkeypatch):
    # the point error wraps the original instead of rebuilding its type from a message
    original = _TwoArgumentError(7, "stubbed failure")
    resolve = cf.resolve_cutoff

    def failing_resolve(sq_a, sq_b, cfg):
        if sq_a.r > 0.5:
            raise original
        return resolve(sq_a, sq_b, cfg)

    monkeypatch.setattr(cf, "resolve_cutoff", failing_resolve)
    with pytest.raises(SweepPointError, match=r"sweep failed at r = 1\.0 .*7: stubbed failure") as info:
        run_sweep(SweepConfig(r_min=0.0, r_max=1.0, steps=3, methods=("closed",)))
    assert info.value.__cause__ is original


def test_sweep_names_the_point_the_oracle_fails_at(monkeypatch):
    # the oracle runs on every point of a sweep at once; when that batch
    # fails, the points are re-run one at a time and the first failing one named
    original = ArithmeticError("stubbed oracle failure")
    oracle = sweep.oracle

    def failing_oracle(points):
        if any(abs(sq_a.r - 0.75) < 1e-12 for sq_a, _, _ in points):
            raise original
        return oracle(points)

    monkeypatch.setattr(sweep, "oracle", failing_oracle)
    cfg = SweepConfig(r_min=0.5, r_max=1.0, steps=5, cutoff=SeriesConfig(n_max=8))
    with pytest.raises(SweepPointError, match=r"sweep failed at r = 0\.75 \(r_b = 0\.75\): stubbed") as info:
        run_sweep(cfg)
    assert info.value.__cause__ is original


def test_sweep_reraises_a_batch_failure_no_single_point_has(monkeypatch):
    original = RuntimeError("fails only in a batch")
    oracle = sweep.oracle

    def failing_oracle(points):
        if len(points) > 1:
            raise original
        return oracle(points)

    monkeypatch.setattr(sweep, "oracle", failing_oracle)
    with pytest.raises(RuntimeError) as info:
        run_sweep(SweepConfig(r_min=0.5, r_max=1.0, steps=3, cutoff=SeriesConfig(n_max=8)))
    assert info.value is original


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(r_min=1.0, r_max=0.5, steps=3)
    with pytest.raises(ValueError):
        SweepConfig(r_min=-0.1, r_max=1.0, steps=3)
    with pytest.raises(ValueError):
        SweepConfig(r_min=0.0, r_max=1.0, steps=1)
    with pytest.raises(ValueError):
        SweepConfig(r_min=0.0, r_max=1.0, steps=3, omega_ratio=0.0)
    with pytest.raises(ValueError):
        SweepConfig(r_min=0.0, r_max=1.0, steps=3, methods=("bogus",))
    for bounds in (dict(r_min=0.0, r_max=math.inf), dict(r_min=0.0, r_max=1.0, omega_ratio=math.nan),
                   dict(r_min=0.0, r_max=1.0, omega_ratio=math.inf)):
        with pytest.raises(ValueError, match="finite"):
            SweepConfig(steps=3, **bounds)


REAL_FIELDS = {
    "SweepConfig.r_min": ("r_min", lambda bad: SweepConfig(r_min=bad, r_max=1.0, steps=3)),
    "SweepConfig.r_max": ("r_max", lambda bad: SweepConfig(r_min=0.0, r_max=bad, steps=3)),
    "SweepConfig.omega_ratio": ("omega_ratio", lambda bad: SweepConfig(r_min=0.0, r_max=1.0, steps=3, omega_ratio=bad)),
    "ModeSpec.mass": ("mass", lambda bad: ModeSpec(mass=bad, omega=1.0)),
    "ModeSpec.omega": ("omega", lambda bad: ModeSpec(mass=1.0, omega=bad)),
    "make_squeeze.r": ("r", make_squeeze),
    "mass_from_squeezing.r": ("r", lambda bad: mass_from_squeezing(bad, 1.0)),
    "mass_from_squeezing.omega": ("omega", lambda bad: mass_from_squeezing(0.5, bad)),
    "run_point.r_a": ("r_a", lambda bad: run_point(r_a=bad)),
    "run_point.r_b": ("r_b", lambda bad: run_point(r_a=0.5, r_b=bad)),
    "SeriesConfig.tail_tol": ("tail_tol", lambda bad: SeriesConfig(tail_tol=bad)),
    "check_warn_threshold": ("warn_threshold", check_warn_threshold),
}


@pytest.mark.parametrize("where", REAL_FIELDS)
@pytest.mark.parametrize("bad", ["1", True, np.bool_(False)], ids=["str", "bool", "numpy-bool"])
def test_real_fields_refuse_other_types_by_name(where, bad):
    # a string or a bool is no real number: refused naming the field, not a bare TypeError
    field, build = REAL_FIELDS[where]
    with pytest.raises(ValueError, match=f"^{field} must be a real number, got {re.escape(repr(bad))}$"):
        build(bad)


def test_real_fields_keep_numpy_floats_as_python_floats():
    cfg = SweepConfig(r_min=np.float64(0.0), r_max=np.float32(1.0), steps=3, omega_ratio=np.int64(2))
    mode = ModeSpec(mass=np.float32(0.5), omega=np.float64(1.0))
    values = (cfg.r_min, cfg.r_max, cfg.omega_ratio, mode.mass, mode.omega, SeriesConfig(tail_tol=np.float64(1e-9)).tail_tol)
    assert all(type(v) is float for v in values)
    assert values == (0.0, 1.0, 2.0, 0.5, 1.0, 1e-9)


def test_sweep_config_steps_must_be_an_integer():
    cfg = SweepConfig(r_min=0.0, r_max=1.0, steps=np.int64(3))
    assert cfg.steps == 3 and type(cfg.steps) is int
    for steps in (3.5, 3.0, "3", True):
        with pytest.raises(ValueError, match="steps must be an integer"):
            SweepConfig(r_min=0.0, r_max=1.0, steps=steps)


def test_sweep_config_refuses_more_than_max_steps():
    # refused at construction, before any point is evaluated
    assert SweepConfig(r_min=0.0, r_max=1.0, steps=MAX_SWEEP_STEPS).steps == MAX_SWEEP_STEPS
    for steps in (MAX_SWEEP_STEPS + 1, 100_000_000_000):
        with pytest.raises(ValueError, match=f"steps must be in 2..{MAX_SWEEP_STEPS}, got {steps}"):
            SweepConfig(r_min=0.0, r_max=1.0, steps=steps)


def test_symmetric_point_sums_marginal_series_once(monkeypatch):
    # s_b is s_a when both sides have the same squeezing, so a symmetric
    # sweep sums one marginal series per point, all in one closed_form call;
    # an asymmetric point still sums Bob's series
    calls = []
    closed_form = cf.closed_form

    def counted(marginals, joints):
        calls.append([sq.r for sq, _ in marginals])
        return closed_form(marginals, joints)

    monkeypatch.setattr(cf, "closed_form", counted)
    rows = run_sweep(SweepConfig(r_min=0.0, r_max=3.0, steps=4, methods=("closed",)))
    assert calls == [[0.0, 1.0, 2.0, 3.0]]
    assert all(row.s_b_closed == row.s_a_closed for row in rows)
    calls.clear()
    asym = run_point(r_a=1.0, r_b=0.5, methods=("closed",))
    assert calls == [[1.0, 0.5]]
    assert asym.s_b_closed == cf.s_b_closed(make_squeeze(0.5), SeriesConfig(tail_tol=1e-10))


@pytest.mark.parametrize("r_min", [0.0, 1e-160])
@pytest.mark.parametrize("omega_ratio", [1.0, 2.0, 0.5])
@pytest.mark.parametrize("n_max", [None, 1, 20, 40, 100, 5000])
def test_sweep_rows_do_not_depend_on_the_batch(r_min, omega_ratio, n_max):
    # the closed forms of a sweep are summed in one batch; each row must be
    # exactly what its point gives alone. r in [0, 4.5] crosses the
    # term-by-term, head and Euler-Maclaurin axes; tanh^2 r underflows to 0
    # at r = 0 and r = 1e-160
    cutoff = SeriesConfig(tail_tol=1e-10) if n_max is None else SeriesConfig(n_max=n_max)
    rows = run_sweep(SweepConfig(r_min=r_min, r_max=4.5, steps=31, omega_ratio=omega_ratio, cutoff=cutoff, methods=("closed",)))
    assert rows[0].r_a == r_min
    for row in rows:
        alone = run_point(r_a=row.r_a, r_b=row.r_b, cutoff=cutoff, methods=("closed",))
        for field in fields(EntanglementReport):
            assert getattr(row, field.name) == getattr(alone, field.name), (row.r_a, field.name)


@pytest.mark.parametrize("omega_ratio", [1.0, 2.0, 0.5])
@pytest.mark.parametrize("n_max", [1, 9, 14, 40])
def test_sweep_rows_do_not_depend_on_the_batch_with_the_oracle(omega_ratio, n_max):
    # the oracle also runs on a whole sweep at once, points of one cutoff and
    # symmetry in one stack; each row must still equal its point alone
    cutoff = SeriesConfig(n_max=n_max)
    rows = run_sweep(SweepConfig(r_min=0.0, r_max=1.6, steps=9, omega_ratio=omega_ratio, cutoff=cutoff))
    assert rows[0].r_a == 0.0
    for row in rows:
        alone = run_point(r_a=row.r_a, r_b=row.r_b, cutoff=cutoff)
        assert row.e_n_num is not None
        for field in fields(EntanglementReport):
            assert getattr(row, field.name) == getattr(alone, field.name), (row.r_a, field.name)


@pytest.mark.parametrize("r_a,r_b,resolves", [(2.0, 2.0, 1), (1.0, 0.5, 2), (0.5, 1.0, 2)])
def test_run_point_resolves_each_cutoff_once(monkeypatch, r_a, r_b, resolves):
    # the pair's cutoff is its more squeezed side's own, so only the other
    # side's marginal resolves again; every series keeps its own cutoff
    calls = []
    resolve = cf.resolve_cutoff

    def counted(*args):
        calls.append(args)
        return resolve(*args)

    monkeypatch.setattr(cf, "resolve_cutoff", counted)
    rep = run_point(r_a=r_a, r_b=r_b, methods=("closed",))
    assert len(calls) == resolves
    monkeypatch.setattr(cf, "resolve_cutoff", resolve)
    cfg = SeriesConfig(tail_tol=1e-10)
    sq_a, sq_b = make_squeeze(r_a), make_squeeze(r_b)
    assert rep.s_a_closed == cf.s_a_closed(sq_a, cfg)
    assert rep.s_b_closed == cf.s_b_closed(sq_b, cfg)
    assert rep.s_ab_closed == cf.s_ab_closed(sq_a, sq_b, cfg)


# ----------------------------------------------------------------- comparison


def test_compare_reports_recomputed_differences():
    rep = run_point(r_a=0.2, cutoff=SeriesConfig(tail_tol=1e-10))
    cmp_rep = compare_closed_vs_numeric(rep)
    assert cmp_rep.n_max == rep.n_max
    assert cmp_rep.diff_e_n == pytest.approx(abs(rep.e_n_block00 - rep.e_n_num), abs=1e-15)
    assert cmp_rep.diff_i == pytest.approx(abs(rep.i_closed - rep.i_num), abs=1e-15)
    # the per-block gap in the negativity is already visible here
    assert any("e_n" in w for w in cmp_rep.warnings)


def test_compare_flags_per_block_gap():
    rep = run_point(r_a=1.0, cutoff=SeriesConfig(tail_tol=1e-10))
    cmp_rep = compare_closed_vs_numeric(rep)
    # the joint-entropy series is a per-block approximation: visible gap
    assert cmp_rep.diff_s_ab > 1e-2
    assert any("s_ab" in w for w in cmp_rep.warnings)


def test_compare_flags_bob_marginal_gap_only_at_asymmetric_points():
    # the oracle-sweep point: r_a = 0.930, r_b = 0.595 at N = 14, where Bob's
    # marginal is off by 0.47 bits
    rep = run_point(mode=ModeSpec(0.025, 1.0), omega_prime=2.0, cutoff=SeriesConfig(n_max=14))
    cmp_rep = compare_closed_vs_numeric(rep)
    assert cmp_rep.diff_s_b == abs(rep.s_b_closed - rep.s_b_num)
    assert cmp_rep.diff_s_b == pytest.approx(0.4746, abs=1e-4)
    assert [w.split()[0] for w in cmp_rep.warnings] == ["e_n", "s_a", "s_b", "s_ab", "i"]
    # at a symmetric point s_b repeats s_a, and only s_a is flagged
    sym = run_point(r_a=0.9, cutoff=SeriesConfig(n_max=14))
    cmp_sym = compare_closed_vs_numeric(sym)
    assert cmp_sym.diff_s_b == cmp_sym.diff_s_a > 1e-2
    assert [w.split()[0] for w in cmp_sym.warnings] == ["e_n", "s_a", "s_ab", "i"]


def test_compare_rejects_meaningless_threshold():
    rep = run_point(r_a=0.2, cutoff=SeriesConfig(n_max=4))
    for threshold in (math.nan, math.inf, -1e-2):
        with pytest.raises(ValueError, match="warn_threshold"):
            compare_closed_vs_numeric(rep, warn_threshold=threshold)


def test_compare_requires_both_families():
    rep = run_point(r_a=0.2, methods=("closed",))
    with pytest.raises(ValueError):
        compare_closed_vs_numeric(rep)


# ------------------------------------------------------------------- emission


def test_csv_header_fixed():
    assert CSV_HEADER == (
        "r_a,r_b,n_max,e_n_block00,neg_sum_num,e_n_num,s_a_closed,s_b_closed,"
        "s_ab_closed,i_closed,s_a_num,s_b_num,s_ab_num,i_num,trace_deficit"
    )
    assert csv_lines([])[0] == CSV_HEADER


def test_csv_field_format():
    rows = run_sweep(SweepConfig(r_min=0.0, r_max=0.4, steps=3))
    lines = csv_lines(rows)
    assert len(lines) == 4
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == len(CSV_HEADER.split(","))
        assert cells[2] == str(int(cells[2]))  # n_max is a bare integer
        for cell in cells[:2] + cells[3:]:
            assert FLOAT_RE.match(cell), cell


@pytest.mark.parametrize("methods", [("closed",), ("closed", "numeric")])
def test_integer_inputs_keep_the_csv_and_json_contract(methods):
    # an int r writes as the float it is, a numpy integer cutoff as a bare integer
    row = run_point(r_a=1, r_b=np.int64(1), cutoff=SeriesConfig(n_max=np.int64(5)), methods=methods)
    want = run_point(r_a=1.0, cutoff=SeriesConfig(n_max=5), methods=methods)
    assert csv_lines([row]) == csv_lines([want])
    cells = csv_lines([row])[1].split(",")
    assert FLOAT_RE.match(cells[0]) and FLOAT_RE.match(cells[1]) and cells[2] == "5"
    stream = io.StringIO()
    emit_rows([row], "json", stream)
    assert json.loads(stream.getvalue())[0]["n_max"] == 5


def test_csv_empty_fields_for_absent_numeric():
    rows = run_sweep(SweepConfig(r_min=0.0, r_max=0.4, steps=3, methods=("closed",)))
    line = csv_lines(rows)[1]
    cells = dict(zip(CSV_HEADER.split(","), line.split(",")))
    assert cells["e_n_num"] == ""
    assert cells["i_num"] == ""
    assert cells["e_n_block00"] != ""


def test_csv_no_negative_zero():
    rows = run_sweep(SweepConfig(r_min=0.0, r_max=0.4, steps=3))
    for line in csv_lines(rows):
        assert "-0.00000000000e+00" not in line


def test_emit_csv_byte_deterministic(tmp_path):
    cfg = SweepConfig(r_min=0.0, r_max=0.4, steps=4)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (p1, p2):
        with open_output(str(path)) as fh:
            emit_rows(run_sweep(cfg), "csv", fh)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes().startswith(CSV_HEADER.encode())


def test_emit_csv_unwritable_path(tmp_path):
    with pytest.raises(OSError, match="no/such/dir"):
        with open_output(str(tmp_path / "no" / "such" / "dir" / "x.csv")) as fh:
            emit_rows([], "csv", fh)


def test_emit_json_round_trip(tmp_path):
    rows = run_sweep(SweepConfig(r_min=0.0, r_max=0.4, steps=3))
    path = tmp_path / "rows.json"
    with open_output(str(path)) as fh:
        emit_rows(rows, "json", fh)
    payload = json.loads(path.read_text())
    assert len(payload) == 3
    for obj, row in zip(payload, rows):
        assert obj["n_max"] == row.n_max
        assert obj["r_a"] == row.r_a
        assert obj["i_closed"] == row.i_closed


def test_report_fields_match_csv_header():
    import dataclasses

    assert tuple(f.name for f in dataclasses.fields(EntanglementReport)) == tuple(CSV_HEADER.split(","))


def test_default_numeric_cap_is_desk_scale():
    assert NUMERIC_CAP == 200
