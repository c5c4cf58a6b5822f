"""Best responses by back-substitution against dense policy iteration.

``best_response`` evaluates every policy-iteration round by
back-substitution on the restart DAG; ``_dense.dense_best_response`` runs
the same iteration on dense solves.  On every input both must pick the same
actions, with gains within 1e-12.
"""

import numpy as np
import pytest

from _dense import dense_best_response
from diftgame.equilibrium import best_response
from diftgame.game import FnRates, RewardParams, build_game
from diftgame.ifg import generate_synthetic
from diftgame.policies import Policy, PolicyPair
from test_acceptance import fixture_game

KINDS = ("dirichlet", "deterministic", "sparse")


def make_pair(game, kind, seed=1):
    """A Dirichlet pair, a pure pair, or a sparse pair whose rows spread
    uniformly over a random nonempty subset of their actions."""
    rng = np.random.default_rng([seed, 12])

    def row(k):
        if kind == "dirichlet":
            return rng.dirichlet(np.ones(k))
        keep = rng.random(k) < 0.5 if kind == "sparse" else np.zeros(k, dtype=bool)
        keep[rng.integers(k)] = True
        return keep / keep.sum()

    tabs = [[row(len(acts)) for acts in sets] for sets in (game.actions_d, game.actions_a)]
    return PolicyPair(Policy("D", tabs[0]), Policy("A", tabs[1]))


def assert_same_replies(game, pair):
    for player, opp in (("D", pair.a), ("A", pair.d)):
        reply, gain = best_response(game, opp, player)
        want, want_gain, _ = dense_best_response(game, opp, player)
        assert all(np.array_equal(a, b) for a, b in zip(reply.table, want.table))
        assert abs(gain - want_gain) <= 1e-12


def synthetic(n):
    return build_game(generate_synthetic(n, 3, 2, (1, 1, 1), 0.1, 1), RewardParams.defaults(3), FnRates(0.2))


@pytest.fixture(scope="module")
def games():
    return {"learn": fixture_game(), 160: synthetic(160), 640: synthetic(640)}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("which", ["learn", 160, 640])
def test_matches_dense_policy_iteration(games, which, kind):
    game = games[which]
    assert_same_replies(game, make_pair(game, kind))
