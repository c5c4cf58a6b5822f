"""Dense oracles for the tests: policy iteration and stationary distributions.

This is the route ``equilibrium.best_response`` took before it evaluated
each round by back-substitution on the restart DAG.  Every round weighs the
marginal's rows into a transition matrix and solves it with
``equilibrium._solve_gain_bias`` (``classify_chain`` and one dense LU); the
improvement step walks the states one by one in Python.  A
state's candidate is its first action within 1e-10 of the best lookahead,
so actions tied in exact arithmetic are told apart the same way on both
routes, whatever their rounding.  ``stationary_distribution`` gives the
independent gain oracle: stationary averages on the recurrent class.
"""

import numpy as np

from diftgame.equilibrium import UnichainViolationError, _solve_gain_bias
from diftgame.game import classify_chain
from diftgame.policies import Policy


def stationary_distribution(P: np.ndarray) -> np.ndarray:
    """Unique stationary distribution of an irreducible row-stochastic matrix."""
    rec, trans = classify_chain(P)
    if len(rec) != 1 or trans:
        raise UnichainViolationError("matrix is not irreducible")
    n = P.shape[0]
    A = np.vstack([(P.T - np.eye(n))[:-1], np.ones(n)])
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        p = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise UnichainViolationError(f"singular stationary system: {exc}") from exc
    if p.min() < -1e-10:
        raise UnichainViolationError("stationary solve produced negative mass")
    p = np.maximum(p, 0.0)
    return p / p.sum()


def dense_best_response(game, opponent, player):
    """(reply, gain, rounds) of policy iteration with dense evaluations."""
    m = game.marginalize(opponent, player)
    r = m.r[0 if player == "D" else 1]
    first = m.first.tolist()
    choice = first[:-1]  # chosen row per state

    for rounds in range(1, 10 + len(r) + 1):
        P = m.chain(np.bincount(choice, minlength=len(r)))
        g, v, _, _ = _solve_gain_bias(P, r[choice])
        gain = float(g[0])
        q = (r + m.expect(v[:, 0])).tolist()
        changed = False
        for s in range(game.n_states):
            seg = q[first[s] : first[s + 1]]
            top = max(seg)
            best = first[s] + next(j for j, x in enumerate(seg) if x >= top - 1e-10)
            if q[best] > q[choice[s]] + 1e-10:
                choice[s] = best
                changed = True
        if not changed:
            break
    else:
        raise UnichainViolationError("policy iteration failed to settle")

    flat = np.zeros(len(r))
    flat[choice] = 1.0
    return Policy(player, np.split(flat, m.first[1:-1])), gain, rounds
