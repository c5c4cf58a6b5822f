"""Property tests of the factored game on random small attack graphs.

``build_game`` applies the transition and payoff rule once per (state,
intruder action, defender case) and derives every joint action's outcomes
from that table.  The oracle here is the rule written per joint action, as
the paper states it, independently of the package's case mapping: for every
joint action ``Game.outcomes`` and the reachable set must equal what that
rule gives, bit for bit.

``Game.marginalize`` reads the case table, not the joint actions.  Its
oracle is the marginal summed per joint action from ``Game.outcomes``.
``best_response`` evaluates its rounds by back-substitution; its oracle is
the same policy iteration on dense solves (``_dense``).
"""

import dataclasses

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from _dense import dense_best_response  # noqa: E402
from diftgame.equilibrium import best_response  # noqa: E402
from diftgame.game import ROOT, FnRates, Marginal, RewardParams, build_game  # noqa: E402
from diftgame.ifg import IfgNode, RawLogGraph, prune_attack_subgraph, to_ifg  # noqa: E402
from diftgame.policies import Policy, PolicyPair  # noqa: E402


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
    nexts = {}
    for s in range(game.n_states):
        for di, d in enumerate(game.actions_d[s]):
            for ai, a in enumerate(game.actions_a[s]):
                want = [tuple(map(float, o)) for o in joint_rule(game, s, d, a)]
                want = [(int(s2), *rest) for s2, *rest in want]
                # repr tells -0.0 from 0.0 and compares floats bit for bit
                assert repr(list(game.outcomes(s, di, ai))) == repr(want), (s, d, a)
                nexts.setdefault(s, set()).update(x[0] for x in want)

    reach, stack = {ROOT}, [ROOT]
    while stack:
        for s2 in nexts[stack.pop()] - reach:
            reach.add(s2)
            stack.append(s2)
    assert np.flatnonzero(game.reachable).tolist() == sorted(reach)


def random_policy(rng, game, player):
    """Per state, one of: a Dirichlet row, a deterministic row, a Dirichlet
    row with about half its entries zeroed, or (defender) all inspection
    mass on one successor, with the idle mass 0 or drawn."""
    table = []
    for acts in game.actions_d if player == "D" else game.actions_a:
        k, mode = len(acts), rng.integers(4)
        x = rng.dirichlet(np.ones(k))
        if mode == 1:
            x = np.eye(k)[rng.integers(k)]
        elif mode == 2 and k > 2:
            x[rng.choice(k, k // 2, replace=False)] = 0.0
            x /= x.sum()
        elif mode == 3 and player == "D" and k > 1:
            x = np.zeros(k)
            x[0] = rng.choice([0.0, rng.random()])
            x[rng.integers(1, k)] = 1.0 - x[0]
        table.append(x)
    return Policy(player, table)


def joint_marginal(game, opponent, actor):
    """The marginal summed per joint action from ``Game.outcomes``, with
    every row taking the empty slot."""
    first = np.cumsum([0, *map(len, game.actions_d if actor == "D" else game.actions_a)])
    entries = []
    for s in range(game.n_states):
        for di in range(len(game.actions_d[s])):
            for ai in range(len(game.actions_a[s])):
                own, opp = (di, ai) if actor == "D" else (ai, di)
                w = opponent.table[s][opp]
                entries += [(first[s] + own, s, s2, w * p, r_d, r_a)
                            for s2, p, r_d, r_a in game.outcomes(s, di, ai)]
    row, at, nxt = (np.array([e[i] for e in entries]) for i in range(3))
    prob, *pay = (np.array([e[i] for e in entries]) for i in range(3, 6))
    r = np.array([np.bincount(row, prob * x, minlength=first[-1]) for x in pay])
    state = np.repeat(np.arange(game.n_states), np.diff(first))
    share = np.full(first[-1], first[-1] + game.n_states)
    return Marginal(first, state, share, r, row, at, nxt, prob)


def assert_close(got, want):
    want = np.asarray(want)
    assert np.all(np.abs(np.asarray(got) - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@settings(max_examples=100, deadline=None)
@given(small_games(), st.integers(0, 2**32 - 1))
def test_marginal_matches_the_joint_action_sums(game, seed):
    rng = np.random.default_rng(seed)
    pi = PolicyPair(random_policy(rng, game, "D"), random_policy(rng, game, "A"))
    v = rng.normal(0.0, 50.0, game.n_states)
    for actor, opp in (("D", pi.a), ("A", pi.d)):
        m, ref = game.marginalize(opp, actor), joint_marginal(game, opp, actor)
        assert_close(m.r, ref.r)
        assert_close(m.expect(v), ref.expect(v))
        gain = best_response(game, opp, actor)[1]
        game.marginalize = lambda *_: ref
        assert_close(gain, best_response(game, opp, actor)[1])
        del game.marginalize

    n = game.n_states
    P, rew = np.zeros((n, n)), np.zeros((2, n))
    for s in range(n):
        for di, wd in enumerate(pi.d.table[s]):
            for ai, wa in enumerate(pi.a.table[s]):
                for s2, p, r_d, r_a in game.outcomes(s, di, ai):
                    P[s, s2] += wd * wa * p
                    rew[:, s] += wd * wa * p * np.array([r_d, r_a])
    assert_close(game.expected_rewards(pi), rew)
    assert np.array_equal(game.induced_chain(pi) > 0, P > 0)


@settings(max_examples=100, deadline=None)
@given(small_games(), st.integers(0, 2**32 - 1))
def test_best_response_matches_dense_policy_iteration(game, seed):
    rng = np.random.default_rng(seed)
    for actor, opp in (("D", random_policy(rng, game, "A")), ("A", random_policy(rng, game, "D"))):
        reply, gain = best_response(game, opp, actor)
        want, want_gain, _ = dense_best_response(game, opp, actor)
        assert all(np.array_equal(a, b) for a, b in zip(reply.table, want.table))
        assert abs(gain - want_gain) <= 1e-12
