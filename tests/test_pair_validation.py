"""One policy-pair check for every oracle that takes a pair.

Each of them calls ``PolicyPair.validate`` before any arithmetic (and
``best_response`` checks its opponent the same way): the defender's policy
comes first, every row has its state's length, and every row at a reachable
state is a finite probability vector.  Rows at unreachable states go
unchecked, and since every weight vector is read through ``Game._weights``
they have no effect anywhere: a NaN or inf there gives the clean pair's
outputs, bit for bit, with no warning.
"""

import warnings

import numpy as np
import pytest

from diftgame.env import Env, rollout_average
from diftgame.equilibrium import (
    EvalResult,
    best_response,
    certify_arne,
    compare_defenses,
    delta,
    evaluate_policy_pair,
    exact_gradient,
    omega,
    residuals,
    td_errors,
)
from diftgame.game import FnRates, Game, RewardParams, build_game
from diftgame.ifg import generate_synthetic
from diftgame.policies import Policy, PolicyPair, uniform_policy

# f(game, pair, ev, om): ev and om are the clean pair's evaluation and omega
CONSUMERS = {
    "evaluate_policy_pair": lambda g, pi, ev, om: evaluate_policy_pair(g, pi),
    "certify_arne": lambda g, pi, ev, om: certify_arne(g, pi, 0.5).to_json(),
    "compare_defenses": lambda g, pi, ev, om: compare_defenses(g, pi),
    "omega": lambda g, pi, ev, om: omega(g, pi),
    "omega at ev": lambda g, pi, ev, om: omega(g, pi, ev),
    "residuals": lambda g, pi, ev, om: residuals(g, pi),
    "residuals at ev": lambda g, pi, ev, om: residuals(g, pi, ev),
    "exact_gradient": lambda g, pi, ev, om: exact_gradient(g, pi),
    "exact_gradient at ev": lambda g, pi, ev, om: exact_gradient(g, pi, ev),
    "td_errors": lambda g, pi, ev, om: td_errors(g, pi),
    "td_errors at rho, v": lambda g, pi, ev, om: td_errors(
        g, pi, rho=(ev.rho_d, ev.rho_a), v=(ev.v_d, ev.v_a)
    ),
    "delta": lambda g, pi, ev, om: delta(g, pi, om),
    "rollout_average": lambda g, pi, ev, om: rollout_average(Env(g, 1), pi, 2000, 3),
    "best_response": lambda g, pi, ev, om: (best_response(g, pi.a, "D"), best_response(g, pi.d, "A")),
}


@pytest.fixture(scope="module")
def game40():
    ifg = generate_synthetic(40, 3, 2, (1, 1, 1), 0.1, 1)
    return build_game(ifg, RewardParams.defaults(3), FnRates(0.2))


def uniform_pair(game):
    return PolicyPair(uniform_policy(game, "D"), uniform_policy(game, "A"))


def plain(x):
    """An oracle's output as plain, exactly comparable Python values."""
    if isinstance(x, Policy):
        return (x.player, x.flat.tolist())
    if isinstance(x, EvalResult):
        return plain(vars(x))
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, dict):
        return {k: plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [plain(v) for v in x]
    return vars(x) if hasattr(x, "__dict__") else x


def reachable_state(game, pol):
    return next(int(s) for s in np.flatnonzero(game.reachable) if len(pol.table[s]) > 1)


SPOILS = {
    "nan": lambda row: np.full_like(row, np.nan),
    "unnormalized": lambda row: row * 3.0,
    "negative": lambda row: np.eye(len(row))[0] * 1.5 - np.eye(len(row))[1] * 0.5,  # sums to 1
}


@pytest.mark.parametrize("spoil", list(SPOILS))
@pytest.mark.parametrize("player", ["d", "a"])
@pytest.mark.parametrize("consumer", list(CONSUMERS))
def test_invalid_reachable_row_raises(game40, consumer, player, spoil):
    clean = uniform_pair(game40)
    ev = evaluate_policy_pair(game40, clean)
    om = omega(game40, clean, ev)
    pi = clean.copy()
    pol = getattr(pi, player)
    s = reachable_state(game40, pol)
    pol.table[s][:] = SPOILS[spoil](pol.table[s])
    with pytest.raises(ValueError, match=f"state {s}: probabilities invalid"):
        CONSUMERS[consumer](game40, pi, ev, om)


def test_certify_validates_before_any_dense_work(game40, monkeypatch):
    pi = uniform_pair(game40)
    s = reachable_state(game40, pi.a)
    pi.a.table[s][:] = SPOILS["negative"](pi.a.table[s])

    def refuse(*args, **kwargs):
        raise AssertionError("the pair was read before it was validated")

    monkeypatch.setattr(Game, "induced_chain", refuse)
    monkeypatch.setattr(Game, "marginalize", refuse)
    with pytest.raises(ValueError, match=f"state {s}: probabilities invalid"):
        certify_arne(game40, pi, 0.5)


UNREACHABLE = {
    "nan": lambda row: np.full_like(row, np.nan),
    "inf": lambda row: np.full_like(row, np.inf),
    "mixed": lambda row: np.resize([np.inf, -np.inf, np.nan], len(row)),
}


@pytest.mark.parametrize("spoil", list(UNREACHABLE))
@pytest.mark.parametrize("players", ["d", "a", "da"])
def test_unreachable_rows_have_no_effect(game40, players, spoil):
    clean = uniform_pair(game40)
    ev = evaluate_policy_pair(game40, clean)
    om = omega(game40, clean, ev)
    dirty = clean.copy()
    dead = np.flatnonzero(~game40.reachable)
    assert len(dead) and any(len(clean.d.table[s]) > 1 for s in dead)
    for player in players:
        pol = getattr(dirty, player)
        for s in dead:
            pol.table[s][:] = UNREACHABLE[spoil](pol.table[s])
    R = np.flatnonzero(game40.reachable)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, f in CONSUMERS.items():
            assert plain(f(game40, dirty, ev, om)) == plain(f(game40, clean, ev, om)), name
        for f, rows in ((game40.induced_chain, R), (game40.expected_rewards, slice(None))):
            got, want = (np.asarray(f(pi))[rows][..., R] for pi in (dirty, clean))
            assert np.array_equal(got, want), f.__name__


@pytest.mark.parametrize("consumer", list(CONSUMERS))
def test_row_of_the_wrong_length_raises_at_an_unreachable_state(game40, consumer):
    clean = uniform_pair(game40)
    ev = evaluate_policy_pair(game40, clean)
    rows = list(clean.d.table)
    s = int(next(s for s in np.flatnonzero(~game40.reachable) if len(rows[s]) > 1))
    rows[s] = rows[s][1:]
    with pytest.raises(ValueError, match=f"state {s}: {len(rows[s])} probs"):
        CONSUMERS[consumer](game40, PolicyPair(Policy("D", rows), clean.a), ev, omega(game40, clean, ev))
