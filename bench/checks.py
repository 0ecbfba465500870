"""Correctness checks of the benchmark's outputs.

Every value is checked against bench/reference.py or against a property the
method must have, never against a stored copy of an earlier output. Each
check returns a list of error strings; an empty list means the output passed.
"""

from __future__ import annotations

import dataclasses
import json

import reference as ref
from workloads import LARGE_N, TAIL_TOL, r_b_for_ratio, resolved_n

FORMULA_RTOL = 1e-14  # e_n_block00 and r from (M, omega): same formula, one rounding
NUMERIC_TOL = 1e-12  # oracle columns against the rebuilt matrices
SERIES_TOL = 1e-12  # marginal series against the plain 1-D sum
JOINT_RTOL = 1e-12  # joint series against the direct double sum
MONOTONE_TOL = 5e-9  # converged i_closed may not rise by more than this along r
SAMPLE_ALL_BELOW = 1000  # joint series checked at every point with N up to this

NUMERIC_COLUMNS = ("neg_sum_num", "e_n_num", "s_a_num", "s_b_num", "s_ab_num", "i_num", "trace_deficit")


def _cutoff(call, r_a, r_b) -> int:
    return call.n_max if call.n_max is not None else resolved_n(r_a, r_b)


def _expected_r(call, k):
    """(r_a, r_b) the k-th row must carry, from the call's own inputs."""
    if call.kind == "sweep":
        s = call.sweep
        r = s["r_min"] + k * (s["r_max"] - s["r_min"]) / (s["steps"] - 1)
        return r, (r if s["omega_ratio"] == 1.0 else r_b_for_ratio(r, s["omega_ratio"]))
    if call.mode is not None:
        mass, omega, omega_prime = call.mode
        r_a = ref.r_from_mode(mass, omega)
        return r_a, (ref.r_from_mode(mass, omega_prime) if omega_prime else r_a)
    return call.r_a, call.r_a


def _joint_sample(call, rows) -> set:
    """Rows whose joint series is checked by the direct double sum: every
    small one, and the rows on each side of resolved cutoff LARGE_N."""
    picked = {k for k, row in enumerate(rows) if row.n_max <= SAMPLE_ALL_BELOW}
    below = [k for k, row in enumerate(rows) if row.n_max <= LARGE_N]
    above = [k for k, row in enumerate(rows) if row.n_max > LARGE_N]
    if below:
        picked.add(max(below, key=lambda k: rows[k].n_max))
    if above:
        picked.add(min(above, key=lambda k: rows[k].n_max))
    return picked


def check_rows(call, rows) -> list:
    """Reference and property checks of one call's in-process rows."""
    errors = []

    def close(row, name, got, want, tol, rel=False):
        scale = abs(want) if rel else 1.0
        if got is None or not abs(got - want) <= tol * scale:
            errors.append(f"{call.label} r_a={row.r_a!r}: {name} = {got!r}, reference {want!r}")

    if call.kind == "sweep" and len(rows) != call.sweep["steps"]:
        return [f"{call.label}: {len(rows)} rows for {call.sweep['steps']} steps"]
    joint = _joint_sample(call, rows)
    for k, row in enumerate(rows):
        r_a, r_b = _expected_r(call, k)
        close(row, "r_a", row.r_a, r_a, FORMULA_RTOL, rel=True)
        close(row, "r_b", row.r_b, r_b, FORMULA_RTOL, rel=True)
        n_max = _cutoff(call, r_a, r_b)
        if row.n_max != n_max:
            errors.append(f"{call.label} r_a={row.r_a!r}: n_max = {row.n_max}, reference {n_max}")
            continue
        if "closed" in call.methods:
            close(row, "e_n_block00", row.e_n_block00, ref.e_n_block00(r_a, r_b), FORMULA_RTOL, rel=True)
            for name, r in (("s_a_closed", r_a), ("s_b_closed", r_b)):
                close(row, name, getattr(row, name), ref.s_a_series(r, _cutoff(call, r, r)), SERIES_TOL)
            if row.s_ab_closed is not None and row.s_a_closed is not None and row.s_b_closed is not None:
                close(row, "i_closed", row.i_closed, row.s_a_closed + row.s_b_closed - row.s_ab_closed, 1e-15)
            if k in joint:
                close(row, "s_ab_closed", row.s_ab_closed, ref.s_ab_series(r_a, r_b, n_max), JOINT_RTOL, rel=True)
            if "numeric" not in call.methods and not (0.0 <= row.trace_deficit <= 2 * TAIL_TOL):
                errors.append(f"{call.label} r_a={row.r_a!r}: closed trace_deficit {row.trace_deficit!r} > 2 tail_tol")
        if "numeric" in call.methods:
            # a row that asked for the oracle must carry it: a sweep that
            # drops the numeric method at some point fails here
            want = ref.numeric_columns(r_a, r_b, n_max)
            for name in NUMERIC_COLUMNS:
                close(row, name, getattr(row, name), want[name], NUMERIC_TOL)
    if call.kind == "sweep" and "closed" in call.methods:
        errors += _sweep_properties(call, rows)
    return errors


def _sweep_properties(call, rows) -> list:
    errors = []
    e_n = [row.e_n_block00 for row in rows]
    if any(b >= a for a, b in zip(e_n, e_n[1:])):
        errors.append(f"{call.label}: e_n_block00 does not strictly decrease along r")
    if call.n_max is None and call.sweep["omega_ratio"] == 1.0:
        i = [row.i_closed for row in rows]
        if any(b > a + MONOTONE_TOL for a, b in zip(i, i[1:])):
            errors.append(f"{call.label}: i_closed rises along r by more than {MONOTONE_TOL}")
        if rows[0].r_a == 0.0 and rows[0].i_closed != 2.0:
            errors.append(f"{call.label}: i_closed(0) = {rows[0].i_closed!r}, not 2")
    return errors


def check_comparison(call, row, comparison) -> list:
    """compare's differences are the |closed - numeric| gaps of its own point."""
    want = {
        "n_max": row.n_max,
        "diff_e_n": abs(row.e_n_block00 - row.e_n_num),
        "diff_s_a": abs(row.s_a_closed - row.s_a_num),
        "diff_s_ab": abs(row.s_ab_closed - row.s_ab_num),
        "diff_i": abs(row.i_closed - row.i_num),
    }
    errors = [
        f"{call.label}: {name} = {getattr(comparison, name)!r}, expected {value!r}"
        for name, value in want.items()
        if getattr(comparison, name) != value
    ]
    flagged = sum(value > 1e-2 for name, value in want.items() if name != "n_max")
    if len(comparison.warnings) != flagged:
        errors.append(f"{call.label}: {len(comparison.warnings)} warnings for {flagged} gaps above 1e-2")
    return errors


def check_cli_output(call, outcome, exit_code, path) -> list:
    """The CLI gives the in-process outcome: exit 0 exactly when the call
    succeeded in process and, on success, the same bytes (CSV) or the same
    values (JSON)."""
    if (exit_code == 0) != (not outcome.error):
        return [f"{call.label}: CLI exit {exit_code}, in process {outcome.error or 'succeeded'}"]
    if exit_code != 0:
        return []
    try:
        data = path.read_bytes()
    except OSError as exc:
        return [f"{call.label}: CLI output unreadable: {exc}"]
    if call.fmt == "csv":
        if data != outcome.csv.encode():
            return [f"{call.label}: CLI CSV differs from csv_lines of the same points"]
        return []
    got = json.loads(data)
    if call.fmt == "json":
        want = [dataclasses.asdict(row) for row in outcome.rows]
    else:
        want = dataclasses.asdict(outcome.comparison)
        want["warnings"] = list(want["warnings"])
    if got != want:
        return [f"{call.label}: CLI JSON differs from the in-process values"]
    return []
