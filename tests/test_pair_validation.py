"""One policy-pair check for every oracle that takes a pair.

Each of them calls ``PolicyPair.validate`` before any arithmetic (and
``best_response`` checks its opponent the same way): the defender's policy
comes first, every row has its state's length, and every row is a finite
probability vector.  Every state of a built game is reachable from the
root, so no row goes unchecked.
"""

import numpy as np
import pytest

from diftgame.env import Env, rollout_average
from diftgame.equilibrium import (
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


def multi_action_state(pol):
    return next(s for s, row in enumerate(pol.table) if len(row) > 1)


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
    s = multi_action_state(pol)
    pol.table[s][:] = SPOILS[spoil](pol.table[s])
    with pytest.raises(ValueError, match=f"state {s}: probabilities invalid"):
        CONSUMERS[consumer](game40, pi, ev, om)


def test_certify_validates_before_any_dense_work(game40, monkeypatch):
    pi = uniform_pair(game40)
    s = multi_action_state(pi.a)
    pi.a.table[s][:] = SPOILS["negative"](pi.a.table[s])

    def refuse(*args, **kwargs):
        raise AssertionError("the pair was read before it was validated")

    monkeypatch.setattr(Game, "induced_chain", refuse)
    monkeypatch.setattr(Game, "marginalize", refuse)
    with pytest.raises(ValueError, match=f"state {s}: probabilities invalid"):
        certify_arne(game40, pi, 0.5)


@pytest.mark.parametrize("consumer", list(CONSUMERS))
def test_row_of_the_wrong_length_raises(game40, consumer):
    clean = uniform_pair(game40)
    ev = evaluate_policy_pair(game40, clean)
    rows = list(clean.d.table)
    s = multi_action_state(clean.d)
    rows[s] = rows[s][1:]
    with pytest.raises(ValueError, match=f"state {s}: {len(rows[s])} probs"):
        CONSUMERS[consumer](game40, PolicyPair(Policy("D", rows), clean.a), ev, omega(game40, clean, ev))
