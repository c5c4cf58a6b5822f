"""Sampling environment for the inspection game.

The environment hides the transition kernel and false-negative rates from
learners: its public surface returns only sampled transitions and realized
payoffs, plus the structural facts both players legitimately know (state
count, per-state action sets).

Randomness comes from a counter-based Philox stream keyed by the seed.
Exactly one uniform is consumed per step, so the environment state after n
steps is a pure function of (seed, n) and reruns are bit-reproducible.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .game import AtkAction, DefAction, Game, InvalidActionError, ROOT

_BLOCK = 8192


def uniforms(key: list[int]) -> Iterator[float]:
    """Uniform draws from the Philox stream with the given key, fetched in
    blocks.  Philox output does not depend on how it is chunked, so the
    k-th draw is a pure function of (key, k)."""
    rng = np.random.Generator(np.random.Philox(key=key))
    while True:
        yield from rng.random(_BLOCK).tolist()


class Env:
    """Stateful simulator walking one trajectory of the game."""

    def __init__(self, game: Game, seed: int = 0):
        self._game = game
        self._actions_d = game.actions_d
        self._actions_a = game.actions_a
        self._outs = game.outcome_table
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
        out = self._outs[s][di][ai]
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
    through per-step array ops.
    """
    from bisect import bisect_right

    if steps < 1:
        raise ValueError("steps must be >= 1")
    cum_d = [np.cumsum(v).tolist() for v in pi.d.table]
    cum_a = [np.cumsum(v).tolist() for v in pi.a.table]
    outs = env._outs
    total_d = 0.0
    total_a = 0.0
    au = uniforms([action_seed, 1])
    s = env.current
    # The range comes first, so zip stops without drawing past the last
    # step.  Continuing the env's transition stream keeps the env replayable.
    for _, u_d, u_a, u in zip(range(steps), au, au, env._uniforms):
        cd = cum_d[s]
        last = len(cd) - 1
        di = bisect_right(cd, u_d * cd[last])
        if di > last:
            di = last
        ca = cum_a[s]
        last = len(ca) - 1
        ai = bisect_right(ca, u_a * ca[last])
        if ai > last:
            ai = last
        out = outs[s][di][ai]
        if len(out) == 1 or u < out[0][1]:
            s, _, r_d, r_a = out[0]
        else:
            s, _, r_d, r_a = out[1]
        total_d += r_d
        total_a += r_a
    env.current = s
    env.step_count += steps
    return total_d / steps, total_a / steps
