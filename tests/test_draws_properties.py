"""Property tests for the closed-form draws of rows of one and two actions:
``rollout_average``'s against the capped ``bisect_right`` it replaces for
such rows, and ``train_step``'s against ``policies.pick``."""

from bisect import bisect_right

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from diftgame.policies import pick  # noqa: E402


def capped_bisect(cum, x):
    return min(bisect_right(cum, x), len(cum) - 1)


PROBS = st.one_of(st.just(0.0), st.just(-0.0), st.just(1.0), st.floats(0.0, 1.0))
UNIT = st.one_of(st.just(0.0), st.just(-0.0), st.floats(0.0, 1.0, exclude_max=True))


@given(PROBS, PROBS, st.one_of(UNIT, st.just(1.0)))
@example(0.5, 0.5, 0.5)  # u * total exactly at the first cumulative sum
@example(0.25, 0.75, 0.25)
@example(-0.0, 1.0, 0.0)
@example(0.0, 0.0, 0.0)
def test_closed_forms_equal_the_searches(p0, p1, u):
    # rollout_average: the cumulative row comes from np.cumsum, the total is its last entry
    c0 = float(np.cumsum([p0])[0])
    assert capped_bisect([c0], u * c0) == 0
    cum = np.cumsum([p0, p1]).tolist()
    total = cum[1]
    assert (0 if u * total < cum[0] else 1) == capped_bisect(cum, u * total)
    # train_step: pick's loop unrolled
    assert pick([p0], u) == 0
    assert (0 if u < p0 else 1) == pick([p0, p1], u)


@given(st.floats(-1e-9, 1.0), st.floats(-1e-9, 1.0), UNIT)
def test_closed_form_holds_for_rows_that_pass_validation(p0, p1, u):
    # a validated row may hold entries down to -atol; for u < 1 and a
    # positive total, u * total stays below the total and the forms agree
    cum = np.cumsum([p0, p1]).tolist()
    total = cum[1]
    if total > 0:
        assert (0 if u * total < cum[0] else 1) == capped_bisect(cum, u * total)
    assert (0 if u < p0 else 1) == pick([p0, p1], u)
