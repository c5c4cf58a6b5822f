"""Sampling environment for the inspection game.

The environment hides the transition kernel and false-negative rates from
learners: its public surface returns only sampled transitions and realized
payoffs, plus the structural facts both players legitimately know (state
count, per-state action sets).

Randomness comes from a counter-based Philox stream keyed by the seed.
Exactly one uniform is consumed per step, so the environment state after n
steps is a pure function of (seed, n) and reruns are bit-reproducible.

A step samples from its game's ``Game.case_outcomes``: the row of the
intruder's action holds one outcome tuple per defender case, and the
defender's action selects the case as in ``Game.outcomes``.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterator

import numpy as np

from .game import AtkAction, DefAction, Game, InvalidActionError, ROOT

_BLOCK = 8192


def uniforms(key: list[int]) -> Iterator[float]:
    """Uniform draws from the Philox stream with the given key, fetched in
    blocks.  Philox output does not depend on how it is chunked, so the
    k-th draw is a pure function of (key, k).  Each key entry must be an
    integer in [0, 2**63), the range ``TrainConfig`` allows for seeds."""
    for k in key:
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 0 <= k < 2**63:
            raise ValueError(f"Philox key entries must be integers in [0, 2**63), got {k!r}")
    # as Python ints: Philox rounds a numpy.uint64 entry above 2**53 through a float
    rng = np.random.Generator(np.random.Philox(key=[int(k) for k in key]))
    # a list is never None, so the blocks never end
    return itertools.chain.from_iterable(iter(lambda: rng.random(_BLOCK).tolist(), None))


class Env:
    """Stateful simulator walking one trajectory of the game."""

    def __init__(self, game: Game, seed: int = 0):
        self._game = game
        self._actions_d = game.actions_d
        self._actions_a = game.actions_a
        self._rows = game.case_outcomes
        self.n_states = game.n_states
        self.seed = seed
        self.current = ROOT
        self.step_count = 0
        self.reset()

    def reset(self) -> int:
        """Restart at the root state and rewind the random stream."""
        self._uniforms = uniforms([self.seed, 0])
        self.current = ROOT
        self.step_count = 0
        return self.current

    def actions(self, s: int) -> tuple[tuple[DefAction, ...], tuple[AtkAction, ...]]:
        """Action sets (defender, intruder) available at a state."""
        return self._actions_d[s], self._actions_a[s]

    def step(self, d: DefAction, a: AtkAction) -> tuple[int, float, float]:
        """Play one joint action; returns (next state, defender pay, intruder pay)."""
        s = self.current
        try:
            di = self._actions_d[s].index(d)
            ai = self._actions_a[s].index(a)
        except ValueError:
            raise InvalidActionError(
                f"action pair ({d}, {a}) unavailable at state {s}"
            ) from None
        # the case of (di, ai), as in Game.outcomes
        out = self._rows[s][ai][0 if di == 0 else 2 if di == ai + 1 else 1]
        u = next(self._uniforms)
        if len(out) == 1 or u < out[0][1]:
            s2, _, r_d, r_a = out[0]
        else:
            s2, _, r_d, r_a = out[1]
        self.current = s2
        self.step_count += 1
        return s2, r_d, r_a


def rollout_average(
    env: Env, pi, steps: int, action_seed: int = 0
) -> tuple[float, float]:
    """Trajectory-average payoffs under a fixed policy pair.

    Actions are drawn in (defender, intruder) pairs from a separate Philox
    stream so the environment's transition stream stays aligned with its
    step counter.  The loop body works on plain Python floats and lists;
    long Monte-Carlo runs are two orders of magnitude faster that way than
    through per-step array ops.  The pair is validated against the env's
    game first (``PolicyPair.validate``): a malformed row would otherwise
    sample its first action.

    A row is drawn by inverse CDF on its cumulative sums ``cum``: the
    action is ``bisect_right(cum, u * total)``, where ``total`` is
    ``cum``'s last entry.  That index is at most the row's last: a
    validated row's total is positive (within 1e-9 of 1), and a draw is at
    most ``1 - 2**-53``, so ``x = u * total < total = cum[-1]``, and
    ``bisect_right`` moves its low end past an index only where ``x`` is at
    least the entry there.  This holds even when an entry down to -1e-9
    makes ``cum`` non-monotone.  A per-state table, built once per call,
    holds each player's ``cum``, total and last index next to the state's
    outcome rows.  Rows of one or two actions skip the search, and give its
    action on every input: one action is 0, and ``bisect_right([c0, c1],
    x)`` with ``x < c1`` is 0 exactly when ``x < c0``.  Every row still
    takes its uniform, a 1-action row too, so every draw, action, state and
    running sum is the search's, and the averages keep their bits.
    """
    from bisect import bisect_right

    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or steps < 1:
        raise ValueError(f"steps must be an integer >= 1, got {steps!r}")
    steps = operator.index(steps)  # a numpy integer would make the averages numpy floats
    pi.validate(env._game)
    cum_d, cum_a = (
        [np.cumsum(pol.flat[i:j]).tolist() for i, j in itertools.pairwise(pol.first.tolist())]
        for pol in (pi.d, pi.a)
    )
    table = [
        (cd, cd[-1], len(cd) - 1, ca, ca[-1], len(ca) - 1, out)
        for cd, ca, out in zip(cum_d, cum_a, env._rows)
    ]
    total_d = 0.0
    total_a = 0.0
    au = uniforms([action_seed, 1])
    s = env.current
    # The range comes first, so zip stops without drawing past the last
    # step.  Continuing the env's transition stream keeps the env replayable.
    for _, u_d, u_a, u in zip(range(steps), au, au, env._uniforms):
        cd, t_d, last_d, ca, t_a, last_a, rows = table[s]
        if last_d == 1:
            di = 0 if u_d * t_d < cd[0] else 1
        elif last_d == 0:
            di = 0
        else:
            di = bisect_right(cd, u_d * t_d)
        if last_a == 1:
            ai = 0 if u_a * t_a < ca[0] else 1
        elif last_a == 0:
            ai = 0
        else:
            ai = bisect_right(ca, u_a * t_a)
        # the case of (di, ai), as in Game.outcomes
        out = rows[ai][0 if di == 0 else 2 if di == ai + 1 else 1]
        if len(out) == 1 or u < out[0][1]:
            s, _, r_d, r_a = out[0]
        else:
            s, _, r_d, r_a = out[1]
        total_d += r_d
        total_a += r_a
    env.current = s
    env.step_count += steps
    return total_d / steps, total_a / steps
