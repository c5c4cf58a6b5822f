"""Property tests for the simplex projection, policy validation and the
policy file format."""

import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

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


@settings(max_examples=300, deadline=None)
@given(learner_rows())
def test_learner_projection_is_bit_identical_to_the_library_one(case):
    v, floor = case
    got = np.array(training.project_simplex(v, floor))
    assert got.tobytes() == numpy_projection(np.array(v), floor).tobytes()


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


def validate_by_rows(pol, floor, live=None):
    """Row-by-row reference for ``Policy.validate``'s value checks, over
    the states in the mask ``live`` when one is given."""
    for s, vec in enumerate(pol.table):
        if live is not None and not live[s]:
            continue
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


@settings(max_examples=150, deadline=None)
@given(noisy_policies())
def test_reachable_rows_validate_matches_row_by_row_reference(case):
    # the check the pair oracles make before evaluating on the restart DAG
    pol, floor = case
    assert (~GAME.reachable & (np.diff(pol.first) > 1)).any()  # rows left unchecked
    try:
        pol._validate(GAME, floor=floor, live=GAME.reachable)
        ok = True
    except ValueError:
        ok = False
    assert ok == validate_by_rows(pol, floor, GAME.reachable)
