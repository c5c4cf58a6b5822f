"""Property tests for the simplex projection, policy validation and the
policy file format."""

import json
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from diftgame import training  # noqa: E402
from diftgame.game import FnRates, RewardParams, build_game  # noqa: E402
from diftgame.ifg import generate_synthetic  # noqa: E402
from diftgame.policies import (  # noqa: E402
    Policy,
    policy_from_json,
    policy_to_json,
    project_simplex,
)

GAME = build_game(
    generate_synthetic(6, 2, 1, (1, 1), 0.4, seed=0), RewardParams.defaults(2), FnRates(0.2)
)


@st.composite
def projection_inputs(draw):
    """A vector of up to 8 entries and a floor that keeps the floored simplex nonempty."""
    n = draw(st.integers(1, 8))
    v = np.array(draw(st.lists(st.floats(-100.0, 100.0), min_size=n, max_size=n)))
    floor = draw(st.floats(0.0, 0.999 / n))
    return v, floor


@settings(max_examples=300, deadline=None)
@given(projection_inputs())
def test_projection_lands_on_floored_simplex_and_is_idempotent(case):
    v, floor = case
    p = np.array(project_simplex(v, floor))
    assert p.shape == v.shape
    assert np.isfinite(p).all()
    assert p.min() >= floor - 1e-12
    assert abs(p.sum() - 1.0) <= 1e-12
    np.testing.assert_allclose(project_simplex(p, floor), p, rtol=0, atol=1e-12)


@st.composite
def learner_rows(draw):
    """A row of 1-30 entries (the learner's rows reach 27 at 481 states) and
    a feasible floor: none, the default exploration floor or a drawn one."""
    n = draw(st.integers(1, 30))
    v = draw(st.lists(st.floats(-100.0, 100.0), min_size=n, max_size=n))
    floor = draw(st.one_of(st.just(0.0), st.just(1e-3), st.floats(0.0, 0.999 / n)))
    return v, floor


def numpy_projection(v: np.ndarray, floor: float) -> np.ndarray:
    """The sort-and-threshold projection written with numpy's sort and cumsum."""
    n = v.size
    mass = 1.0 - floor * n
    w = v - floor
    u = np.sort(w)[::-1]
    cssv = np.cumsum(u) - mass
    idx = np.arange(1, n + 1)
    rho = int(idx[u - cssv / idx > 0][-1])
    return floor + np.maximum(w - cssv[rho - 1] / rho, 0.0)


@st.composite
def two_entry_rows(draw):
    """A 2-entry row, which ``project_simplex`` projects without its loop:
    ties, entries at the floor, negative entries and magnitudes up to 1e17
    (where the threshold test can fail for every t), at floor 0, the
    default exploration floor or a drawn one."""
    floor = draw(st.one_of(st.just(0.0), st.just(1e-3), st.floats(0.0, 0.4995)))
    entry = st.one_of(
        st.just(floor),
        st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.0 + floor]),
        st.floats(-2.0, 2.0),
        st.floats(-1e17, 1e17),
    )
    a = draw(entry)
    b = draw(st.one_of(st.just(a), entry))
    return [a, b], floor


@settings(max_examples=600, deadline=None)
@given(st.one_of(learner_rows(), two_entry_rows()))
def test_learner_projection_is_bit_identical_to_the_library_one(case):
    v, floor = case
    try:
        want = numpy_projection(np.array(v), floor)
    except IndexError:  # no t passes the threshold test
        with pytest.raises(ValueError, match="no simplex threshold"):
            training.project_simplex(v, floor)
        return
    got = np.array(training.project_simplex(v, floor))
    assert got.tobytes() == want.tobytes()


def loop_projection(v: list[float], floor: float) -> list[float]:
    """The sort-and-threshold loop for every row length, as the library
    ran it before 2-entry rows took their own path."""
    n = len(v)
    if floor < 0 or floor * n >= 1.0:
        raise ValueError(f"floor {floor} infeasible for {n} actions")
    mass = 1.0 - floor * n
    w = [x - floor for x in v]
    rho = 0
    acc = 0.0
    for i, u in enumerate(sorted(w, reverse=True), 1):
        acc += u
        t = (acc - mass) / i
        if u - t > 0:
            rho, theta = i, t
    if not rho:
        raise ValueError(f"no simplex threshold for {v}")
    return [floor + (0.0 if (d := x - theta) <= 0.0 else d) for x in w]


def outcome(project, v, floor):
    """The output's bytes, or the ``ValueError`` message."""
    try:
        return np.array(project(v, floor)).tobytes()
    except ValueError as e:
        return str(e)


@st.composite
def rows_off_the_domain(draw):
    """Rows of 1-4 entries, mostly 2, holding NaN or +-inf entries, or
    with a floor that is infeasible, negative, infinite or NaN."""
    n = draw(st.sampled_from([1, 2, 2, 2, 3, 4]))
    special = st.sampled_from([np.nan, np.inf, -np.inf])
    v = draw(st.lists(st.one_of(special, st.floats(-2.0, 2.0)), min_size=n, max_size=n))
    feasible = st.one_of(st.just(0.0), st.floats(0.0, 0.999 / n))
    infeasible = st.one_of(
        st.floats(1.0 / n, 2.0), st.floats(-1.0, -1e-300), st.sampled_from([np.inf, -np.inf, np.nan])
    )
    if draw(st.booleans()):
        v[draw(st.integers(0, n - 1))] = draw(special)
        floor = draw(feasible)
    else:
        floor = draw(infeasible)
    return v, floor


def finite_loop_projection(v: list[float], floor: float) -> list[float]:
    """The loop, with every row that holds NaN or inf raising as a row
    with no threshold does: an infeasible floor is still reported first."""
    out = loop_projection(v, floor)
    if not all(map(math.isfinite, v)):
        raise ValueError(f"no simplex threshold for {v}")
    return out


@settings(max_examples=400, deadline=None)
@given(rows_off_the_domain())
@example(([1.0, np.nan], 0.0))
@example(([0.2, np.nan, 0.3], 0.0))
@example(([-np.inf, 0.0], 0.0))
@example(([0.5, -np.inf, 0.2], 1e-3))
def test_projection_of_non_finite_rows_and_bad_floors_matches_the_loop(case):
    # an infeasible floor raises, and a row with no threshold raises, as
    # the loop does; so does every row holding NaN or inf, which the loop
    # alone does not always do ([1.0, nan] gave [1.0, nan], [-inf, 0.0]
    # gave [0.0, 1.0]), on the 2-entry path and the loop alike
    v, floor = case
    got = outcome(training.project_simplex, v, floor)
    assert got == outcome(finite_loop_projection, v, floor)
    if not all(map(math.isfinite, v)):
        assert isinstance(got, str)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(2, 6).flatmap(
        lambda n: st.tuples(
            st.lists(st.floats(-1e308, 1e308), min_size=n, max_size=n),
            st.one_of(st.just(0.0), st.floats(0.0, 0.999 / n)),
        )
    )
)
@example(([1.7e308, -1.7e308], 0.0))
@example(([1.7e308, 1.7e308, -1e308], 0.0))
@example(([1e308, 1e308, 1.0, 0.5], 0.0))
def test_finite_rows_of_any_magnitude_keep_the_loop_outcome(case):
    # the finiteness check must not touch a finite row, even one whose
    # sum overflows
    v, floor = case
    assert outcome(training.project_simplex, v, floor) == outcome(loop_projection, v, floor)


@st.composite
def learner_shaped_rows(draw):
    """A row as the learner makes it: 3-30 entries on the floored simplex,
    with a run of entries exactly at the floor, then one entry moved up or
    down by an actor step, at floor 0, the default exploration floor or a
    drawn one.  The top-down search passes such a run in one jump."""
    n = draw(st.integers(3, 30))
    floor = draw(st.one_of(st.just(0.0), st.just(1e-3), st.floats(0.0, 0.999 / n)))
    active = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 1, unique=True))
    weights = draw(st.lists(st.floats(1e-9, 1.0), min_size=len(active), max_size=len(active)))
    mass = 1.0 - floor * n
    v = [floor] * n
    for i, weight in zip(active, weights):
        v[i] = floor + mass * weight / sum(weights)
    step = st.one_of(
        st.floats(-1.0, 1.0),
        st.floats(-1e-6, 1e-6),
        st.sampled_from([0.0, -floor, floor, 1e-15, -1e-15, 2.0**-52, -(2.0**-52)]),
    )
    v[draw(st.integers(0, n - 1))] += draw(step)
    return v, floor


def corner_row(n, floor, moved):
    """The learner's corner row: one entry holds the mass, the others sit
    at the floor, and entry 1 is moved by ``moved``."""
    v = [1.0 - floor * (n - 1)] + [floor] * (n - 1)
    v[1] += moved
    return v


@settings(max_examples=600, deadline=None)
@given(learner_shaped_rows())
@example((corner_row(27, 1e-3, -4e-4), 1e-3))  # moved entry below the floor
@example((corner_row(27, 1e-3, 4e-4), 1e-3))
@example((corner_row(27, 0.0, -1e-3), 0.0))
@example((corner_row(3, 1e-3, -1e-3), 1e-3))  # moved entry to 0, the rest at the floor
def test_learner_shaped_rows_match_the_loop(case):
    v, floor = case
    assert outcome(training.project_simplex, v, floor) == outcome(loop_projection, v, floor)


@pytest.mark.parametrize("floor", [0.0, 1e-3, 0.02])
@pytest.mark.parametrize("k", range(3, 31))
def test_uniform_start_rows_match_the_loop(k, floor):
    # init_trainer projects one uniform row per action count
    v = [1.0 / k] * k
    assert outcome(training.project_simplex, v, floor) == outcome(loop_projection, v, floor)


@st.composite
def policies(draw):
    """A policy for GAME; rows with no positive weight become deterministic."""
    player = draw(st.sampled_from("DA"))
    sets = GAME.actions_d if player == "D" else GAME.actions_a
    table = []
    for acts in sets:
        w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=len(acts), max_size=len(acts))))
        table.append(w / w.sum() if w.sum() > 0 else np.eye(len(acts))[0])
    return Policy(player, table)


@settings(max_examples=100, deadline=None)
@given(policies())
def test_policy_json_round_trip_is_bit_exact(pol):
    back = policy_from_json(GAME, json.loads(json.dumps(policy_to_json(GAME, pol))))
    assert back.player == pol.player
    assert len(back.table) == len(pol.table)
    for a, b in zip(pol.table, back.table):
        assert b.dtype == a.dtype and b.tobytes() == a.tobytes()


def validate_by_rows(pol, floor):
    """Row-by-row reference for ``Policy.validate``'s value checks."""
    for vec in pol.table:
        if not (np.isfinite(vec).all() and abs(float(vec.sum()) - 1.0) <= 1e-9):
            return False
        if float(vec.min()) < floor - 1e-9:
            return False
    return True


@st.composite
def noisy_policies(draw):
    """A policy for GAME whose rows may be off the simplex: unnormalized,
    negative, NaN or infinite entries, a sum off by about atol, or mass
    moved between two entries so that one drops below the floor or zero."""
    player = draw(st.sampled_from("DA"))
    sets = GAME.actions_d if player == "D" else GAME.actions_a
    table = []
    for acts in sets:
        vec = np.full(len(acts), 1.0 / len(acts))
        i, j = draw(st.integers(0, len(acts) - 1)), draw(st.integers(0, len(acts) - 1))
        kind = draw(st.integers(0, 7))
        if kind == 0:
            vec[i] += draw(st.sampled_from([np.nan, np.inf, -np.inf, -0.5, 1e-9, 2e-9, 1e-3]))
        elif kind == 1 and i != j:
            moved = draw(st.sampled_from([0.2, 0.3, 0.5, 0.9]))
            vec[i] -= moved
            vec[j] += moved
        table.append(vec)
    return Policy(player, table), draw(st.sampled_from([0.0, 0.05]))


@settings(max_examples=150, deadline=None)
@given(noisy_policies())
def test_validate_matches_row_by_row_reference(case):
    pol, floor = case
    try:
        pol.validate(GAME, floor=floor)
        ok = True
    except ValueError:
        ok = False
    assert ok == validate_by_rows(pol, floor)
