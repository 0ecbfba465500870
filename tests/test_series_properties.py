"""Property tests of the closed-form series against their term-by-term sums."""

import math

import pytest

from hawkpair import closed_form
from hawkpair.closed_form import SeriesConfig, resolve_cutoff, s_ab_closed
from hawkpair.kinematics import make_squeeze

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
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
