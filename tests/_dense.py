"""Dense policy iteration: the best-response oracle for the tests.

This is the route ``equilibrium.best_response`` took before it evaluated
each round by back-substitution on the restart DAG.  Every round weighs the
marginal's rows into a transition matrix among the reachable states and
solves it with ``equilibrium._solve_gain_bias`` (``classify_chain`` and one
dense LU); the improvement step walks the states one by one in Python.  A
state's candidate is its first action within 1e-10 of the best lookahead,
so actions tied in exact arithmetic are told apart the same way on both
routes, whatever their rounding.
"""

import numpy as np

from diftgame.equilibrium import UnichainViolationError, _solve_gain_bias
from diftgame.policies import Policy


def dense_best_response(game, opponent, player):
    """(reply, gain, rounds) of policy iteration with dense evaluations."""
    m = game.marginalize(opponent, player)
    r = m.r[0 if player == "D" else 1]
    R = np.flatnonzero(game.reachable)
    first = m.first.tolist()
    choice = [first[s] for s in R]  # chosen row per reachable state

    max_rounds = 10 + sum(first[s + 1] - first[s] for s in R)
    for rounds in range(1, max_rounds + 1):
        P = m.chain(np.bincount(choice, minlength=len(r)))[np.ix_(R, R)]
        g, v, _, _ = _solve_gain_bias(P, r[choice])
        gain = float(g[0])
        v_full = np.zeros(game.n_states)
        v_full[R] = v[:, 0]
        q = (r + m.expect(v_full)).tolist()
        changed = False
        for i, s in enumerate(R):
            seg = q[first[s] : first[s + 1]]
            top = max(seg)
            best = first[s] + next(j for j, x in enumerate(seg) if x >= top - 1e-10)
            if q[best] > q[choice[i]] + 1e-10:
                choice[i] = best
                changed = True
        if not changed:
            break
    else:
        raise UnichainViolationError("policy iteration failed to settle")

    picks = m.first[:-1].copy()  # unreachable states keep their first action
    picks[R] = choice
    flat = np.zeros(len(r))
    flat[picks] = 1.0
    return Policy(player, np.split(flat, m.first[1:-1])), gain, rounds
