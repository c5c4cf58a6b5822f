"""The pair oracles' own evaluation on the restart DAG against the dense one.

Given no evaluation, ``exact_gradient``, ``omega``, ``residuals`` and
``td_errors`` evaluate the pair themselves, by back-substitution on the
restart DAG: no n x n matrix, no ``classify_chain``, no linear solve.  Given
``evaluate_policy_pair``'s dense evaluation instead, they use that.  Both
routes must agree within 1e-12 on every input, and the restart route keeps
the 1e-9 residual check and validates the policies' rows.
"""

import numpy as np
import pytest

from diftgame import equilibrium
from diftgame.equilibrium import (
    UnichainViolationError,
    evaluate_policy_pair,
    exact_gradient,
    omega,
    residuals,
    td_errors,
)
from diftgame.game import Game, Marginal
from diftgame.policies import Policy, PolicyPair
from test_acceptance import fixture_game
from test_best_response import KINDS, make_pair, synthetic

ORACLES = (exact_gradient, omega, residuals, td_errors)


def dense(f, game, pi, ev):
    """``f`` at the dense evaluation ``ev`` of ``pi``."""
    if f is td_errors:
        return f(game, pi, rho=(ev.rho_d, ev.rho_a), v=(ev.v_d, ev.v_a))
    return f(game, pi, ev)


def values(out) -> np.ndarray:
    """The numbers an oracle returns, as one vector."""
    if isinstance(out, dict):  # per-player per-state tables
        return np.concatenate([np.concatenate(out[k]) for k in ("D", "A")])
    return np.array(list(vars(out).values()) if hasattr(out, "__dict__") else out, dtype=float)


@pytest.fixture(scope="module")
def games():
    return {"learn": fixture_game(), 160: synthetic(160)}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("which", ["learn", 160])
def test_matches_the_dense_evaluation(games, which, kind):
    game = games[which]
    pi = make_pair(game, kind)
    ev = evaluate_policy_pair(game, pi)
    for f in ORACLES:
        got, want = values(f(game, pi)), values(dense(f, game, pi, ev))
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12, f.__name__


@pytest.mark.parametrize("f", ORACLES, ids=lambda f: f.__name__)
def test_no_matrix_class_split_or_solve(games, f, monkeypatch):
    game = games["learn"]
    pi = make_pair(game, "dirichlet")
    want = values(dense(f, game, pi, evaluate_policy_pair(game, pi)))

    def refuse(*args, **kwargs):
        raise AssertionError("the dense route was taken")

    monkeypatch.setattr(equilibrium.np.linalg, "solve", refuse)
    monkeypatch.setattr(equilibrium, "classify_chain", refuse)
    monkeypatch.setattr(Game, "induced_chain", refuse)
    monkeypatch.setattr(Marginal, "chain", refuse)
    assert np.abs(values(f(game, pi)) - want).max() <= 1e-12


@pytest.mark.parametrize("f", ORACLES, ids=lambda f: f.__name__)
def test_nudged_restart_bias_raises(games, f, monkeypatch):
    game = games["learn"]
    restart = Marginal.restart_solve
    s = 2

    def nudged(*args):
        gain, v = restart(*args)
        v[s] += 1e-6
        return gain, v

    monkeypatch.setattr(Marginal, "restart_solve", nudged)
    with pytest.raises(UnichainViolationError, match="residual"):
        f(game, make_pair(game, "dirichlet"))


@pytest.mark.parametrize("spoil", ["nan", "sum 0.99"])
@pytest.mark.parametrize("player", ["d", "a"])
@pytest.mark.parametrize("f", ORACLES, ids=lambda f: f.__name__)
def test_invalid_reachable_row_raises(games, f, player, spoil):
    game = games["learn"]
    pi = make_pair(game, "dirichlet")
    pol = getattr(pi, player)
    s = next(s for s, row in enumerate(pol.table) if len(row) > 1)
    if spoil == "nan":
        pol.table[s][:] = np.nan
    else:
        pol.table[s][:] *= 0.99
    with pytest.raises(ValueError, match=f"state {s}: probabilities invalid"):
        f(game, pi)


def test_rows_of_the_wrong_length_raise(games):
    game = games["learn"]
    pi = make_pair(game, "dirichlet")
    rows = list(pi.a.table)
    s = next(s for s, row in enumerate(rows) if len(row) > 1)
    rows[s] = rows[s][1:] / rows[s][1:].sum()
    with pytest.raises(ValueError, match=f"state {s}: {len(rows[s])} probs"):
        exact_gradient(game, PolicyPair(pi.d, Policy("A", rows)))
