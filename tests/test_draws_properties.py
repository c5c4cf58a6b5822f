"""Property tests for the closed-form draws of rows of one and two actions:
``rollout_average``'s against the capped ``bisect_right`` it replaces for
such rows, and ``train_step``'s against ``policies.pick``.  A longer row is
searched with ``bisect_right`` and no cap, which the last test shows to
stay within the row."""

from bisect import bisect_right

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, strategies as st  # noqa: E402

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


# entries of a row that Policy.validate accepts: down to -atol, at most 1
ENTRY = st.one_of(st.just(0.0), st.just(-1e-9), st.floats(-1e-9, 1.0))


@st.composite
def validated_rows(draw):
    """Rows of 3-30 entries, each at least -1e-9, summing to within 1e-9
    of 1: the rows ``PolicyPair.validate`` lets ``rollout_average`` search.
    The positive entries are scaled to reach a drawn total."""
    row = np.array(draw(st.lists(ENTRY, min_size=3, max_size=30)))
    positive = row > 0
    assume(row[positive].sum() >= 1e-12)  # a finite scale
    target = 1.0 + draw(st.one_of(st.just(-1e-9), st.just(1e-9), st.floats(-1e-9, 1e-9)))
    row[positive] *= (target - row[~positive].sum()) / row[positive].sum()
    assume(abs(row.sum() - 1.0) <= 1e-9 and row.min() >= -1e-9)  # Policy.validate's test
    return row


@given(
    validated_rows(),
    st.one_of(st.just(0.0), st.just(1 - 2**-53), st.floats(0.0, 1.0, exclude_max=True)),
)
@example(np.array([0.5, 0.5 + 1e-9, -1e-9]), 1 - 2**-53)  # cum falls at its end
@example(np.array([1.0 - 1e-9, 0.0, 0.0]), 1 - 2**-53)  # total below 1
@example(np.array([0.0, -1e-9, 1.0 + 1e-9, -1e-9]), 1 - 2**-53)
def test_search_stays_within_rows_that_pass_validation(row, u):
    # rollout_average's search on a row of 3 or more actions, without a
    # cap: x = u * total < total = cum[-1], so bisect_right never passes
    # the last index, even where a negative entry makes cum non-monotone
    cum = np.cumsum(row).tolist()
    assert bisect_right(cum, u * cum[-1]) <= len(row) - 1
