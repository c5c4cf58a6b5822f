"""Property tests for the simplex projection and the policy file format."""

import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

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
    p = project_simplex(v, floor)
    assert p.shape == v.shape
    assert np.isfinite(p).all()
    assert p.min() >= floor - 1e-12
    assert abs(p.sum() - 1.0) <= 1e-12
    np.testing.assert_allclose(project_simplex(p, floor), p, rtol=0, atol=1e-12)


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
