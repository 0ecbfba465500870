"""Property tests of the closed-form series: against their term-by-term sums,
the cutoff rule, and the swap of Alice and Bob."""

import math

import pytest

from hawkpair import closed_form
from hawkpair.closed_form import HARD_SERIES_CAP, SeriesConfig, resolve_cutoff, s_ab_closed
from hawkpair.kinematics import make_squeeze
from hawkpair.sweep import run_point

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def r_of(decay):
    """The squeezing whose axis has decay length 1/(-ln tanh^2 r) = decay."""
    return math.atanh(math.exp(-0.5 / decay))


# decay lengths on both sides of HEAD_SCALE (8) and SMOOTH_SCALE (64)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(decay=st.floats(min_value=8.0, max_value=96.0), ratio=st.floats(min_value=0.05, max_value=1.0))
def test_s_ab_matches_term_by_term_sum(decay, ratio):
    sq_a, sq_b = make_squeeze(r_of(decay)), make_squeeze(r_of(decay * ratio))
    cfg = SeriesConfig(n_max=resolve_cutoff(sq_a, sq_b, SeriesConfig(tail_tol=1e-10)))
    value = s_ab_closed(sq_a, sq_b, cfg)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(closed_form, "HEAD_SCALE", math.inf)
        direct = s_ab_closed(sq_a, sq_b, cfg)
    assert value == pytest.approx(direct, rel=1e-15, abs=0.0)


def passes(x, tol, n):
    """resolve_cutoff's test, as documented: (n+1) ln x + ln(n+2) < ln tol."""
    return (n + 1) * math.log(x) + math.log(n + 2) < math.log(tol)


# tolerances on (N+2) x^(N+1), for an N near where the tolerance puts the
# answer, and on its two float neighbours on each side: where a rounding
# decides between N and N + 1
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(r=st.floats(min_value=0.01, max_value=6.0), log10_tol=st.floats(min_value=-300.0, max_value=-0.01))
def test_resolve_cutoff_is_the_smallest_cutoff_that_passes(r, log10_tol):
    sq = make_squeeze(r)
    x = sq.tanh_r**2
    n = max(1, math.floor(log10_tol * math.log(10.0) / math.log(x)))
    assume(n < HARD_SERIES_CAP)
    boundary = math.exp((n + 1) * math.log(x) + math.log(n + 2))
    down, up = math.nextafter(boundary, 0.0), math.nextafter(boundary, 1.0)
    for tol in (math.nextafter(down, 0.0), down, boundary, up, math.nextafter(up, 1.0)):
        if not 0.0 < tol < 1.0:
            continue
        got = resolve_cutoff(sq, sq, SeriesConfig(tail_tol=tol))
        assert passes(x, tol, got), (r, tol, got)
        assert got == 1 or not passes(x, tol, got - 1), (r, tol, got)


# out to r = 6, where each side's marginal takes its own cutoff and the
# Euler-Maclaurin paths run
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(r_a=st.floats(min_value=0.0, max_value=6.0), r_b=st.floats(min_value=0.0, max_value=6.0))
def test_swapping_alice_and_bob_swaps_the_closed_marginals(r_a, r_b):
    got, swapped = (run_point(r, other, methods=("closed",)) for r, other in ((r_a, r_b), (r_b, r_a)))
    assert (got.s_a_closed.hex(), got.s_b_closed.hex()) == (swapped.s_b_closed.hex(), swapped.s_a_closed.hex())
