"""Property test of the factored kernel build on random small attack graphs.

``build_game`` applies the transition and payoff rule once per (state,
intruder action, defender case) and derives every joint action's outcomes
from that table.  The oracle here is the rule written per joint action, as
the paper states it, independently of the package's case mapping: for every
joint action the kernel entries, ``Game.outcomes`` and the reachable set
must equal what that rule gives, bit for bit.
"""

import dataclasses

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from diftgame.game import ROOT, FnRates, RewardParams, build_game  # noqa: E402
from diftgame.ifg import IfgNode, RawLogGraph, prune_attack_subgraph, to_ifg  # noqa: E402


def joint_rule(game, s, d, a):
    """(s', p, r_d, r_a) of each outcome of the joint action (d, a) at s."""
    j = int(game.stage_of[s]) - 1
    p = game.params
    inspects = d.kind == "inspect"
    cost = float(game.cost_d[s]) if inspects else 0.0
    if a.kind == "quit":
        return [(ROOT, 1.0, p.sigma_d[j] + cost, p.sigma_a[j])]
    t = a.target
    hit = bool(game.is_dest[t]) and int(game.stage_of[t]) == j + 1
    caught = inspects and d.target == t
    if hit and (not inspects or not p.strict_table):
        arrive = (p.beta_d[j], p.beta_a[j])
    else:
        arrive = (cost if inspects and not caught else 0.0, p.beta_a[j] if hit else 0.0)
    if not caught:
        return [(t, 1.0, *arrive)]
    miss = float(game.fn[t])
    catch = (ROOT, 1.0 - miss, p.alpha_d[j] + cost, p.alpha_a[j])
    return [catch] if miss == 0.0 else [(t, miss, *arrive), catch]


@st.composite
def small_games(draw):
    """A random DAG with a spine from entry 0 through one target per stage,
    pruned and densified; then drawn false-negative overrides (0.0 among
    them), inspection-cost overrides (-0.0 among them) and table mode."""
    stages = draw(st.integers(1, 2))
    n = draw(st.integers(stages + 3, 9))
    targets = list(range(n - stages, n))
    cut = sorted(draw(st.sets(st.integers(1, n - stages - 1), max_size=n - stages - 1)))
    spine = [0, *cut, *targets]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    edges = set(zip(spine, spine[1:])) | {(u, v) for u, v in extra if u < v}
    entries = {0, 1} if draw(st.booleans()) else {0}
    raw = RawLogGraph(
        [IfgNode(i, "process", f"n{i}") for i in range(n)],
        sorted(edges),
        entries,
        [{t} for t in targets],
    )
    ifg = to_ifg(prune_attack_subgraph(raw, raw.entries, raw.destinations))

    pair = st.tuples(st.integers(0, ifg.n_nodes - 1), st.integers(1, stages))
    rates = st.sampled_from([0.0, 0.0, 0.25, 0.9])
    fn = FnRates(draw(rates), draw(st.dictionaries(pair, rates, max_size=4)))
    free = ifg.entries | set().union(*ifg.destinations)
    chargeable = [i for i in range(ifg.n_nodes) if i not in free]
    costs = {}
    if chargeable:
        key = st.tuples(st.sampled_from(chargeable), st.integers(1, stages))
        costs = draw(st.dictionaries(key, st.sampled_from([-0.0, -0.5, -2.5]), max_size=3))
    params = dataclasses.replace(
        RewardParams.defaults(stages), cost_overrides=costs, strict_table=draw(st.booleans())
    )
    return build_game(ifg, params, fn)


@settings(max_examples=150, deadline=None)
@given(small_games())
def test_factored_build_matches_the_joint_action_rule(game):
    k = game.kernel
    kernel = list(zip(k.s.tolist(), k.d.tolist(), k.a.tolist(), k.nxt.tolist(),
                      k.p.tolist(), *k.r.tolist()))
    first = k.first.tolist()
    nexts = {}
    j = 0
    for s in range(game.n_states):
        for di, d in enumerate(game.actions_d[s]):
            for ai, a in enumerate(game.actions_a[s]):
                want = [tuple(map(float, o)) for o in joint_rule(game, s, d, a)]
                want = [(int(s2), *rest) for s2, *rest in want]
                got = kernel[first[j]:first[j + 1]]
                assert [x[:3] for x in got] == [(s, di, ai)] * len(want)
                # repr tells -0.0 from 0.0 and compares floats bit for bit
                assert repr([x[3:] for x in got]) == repr(want), (s, d, a)
                assert repr(list(game.outcomes(s, di, ai))) == repr(want), (s, d, a)
                nexts.setdefault(s, set()).update(x[0] for x in want)
                j += 1
    assert len(first) == j + 1 and first[-1] == len(kernel)

    reach, stack = {ROOT}, [ROOT]
    while stack:
        for s2 in nexts[stack.pop()] - reach:
            reach.add(s2)
            stack.append(s2)
    assert np.flatnonzero(game.reachable).tolist() == sorted(reach)
