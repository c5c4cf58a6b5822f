"""Action draws of the Monte Carlo rollout and the learner, bit for bit.

``rollout_average`` and ``train_step`` draw a row of one or two actions in
closed form instead of searching it.  ``reference_rollout`` keeps the
rollout loop that searched every row with a capped ``bisect_right``; the
closed forms must give the same actions, states and running sums, so the
averages must be equal, not merely close.
"""

import itertools
from bisect import bisect_right

import numpy as np
import pytest

from diftgame.env import Env, rollout_average, uniforms
from diftgame.game import FnRates, RewardParams, build_game
from diftgame.ifg import (
    IfgNode,
    RawLogGraph,
    collapse_multi_edges,
    generate_synthetic,
    prune_attack_subgraph,
    remove_cycles_by_versioning,
    to_ifg,
)
from diftgame.policies import Policy, PolicyPair, pick
from diftgame.training import TrainConfig, init_trainer, train, train_step
from test_acceptance import fixture_game


def reference_rollout(env, pi, steps, action_seed=0):
    """The rollout loop that searches every row: inverse CDF by a
    ``bisect_right`` on the row's cumulative sums, capped at the last index."""
    pi.validate(env._game)
    cum_d, cum_a = (
        [np.cumsum(pol.flat[i:j]).tolist() for i, j in itertools.pairwise(pol.first.tolist())]
        for pol in (pi.d, pi.a)
    )
    rows = env._rows
    total_d = 0.0
    total_a = 0.0
    au = uniforms([action_seed, 1])
    s = env.current
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
        out = rows[s][ai][0 if di == 0 else 2 if di == ai + 1 else 1]
        if len(out) == 1 or u < out[0][1]:
            s, _, r_d, r_a = out[0]
        else:
            s, _, r_d, r_a = out[1]
        total_d += r_d
        total_a += r_a
    env.current = s
    env.step_count += steps
    return total_d / steps, total_a / steps


def cyclic_game(seed, n):
    """A pruned game from a raw cyclic multigraph built like prune-cyclic's:
    an entry-to-target spine with two stage targets on it, plus n..3n random
    edges (parallel edges, self-loops and cycles), through prune's pipeline."""
    rng = np.random.default_rng(seed)
    spine = [int(x) for x in rng.permutation(n)[: max(3, n // 2)]]
    kinds = ("process", "file", "socket")
    nodes = [IfgNode(i, kinds[i % 3], f"{kinds[i % 3]}:{i}") for i in range(n)]
    edges = list(zip(spine, spine[1:]))
    for _ in range(int(rng.integers(n, 3 * n))):
        edges.append((int(rng.integers(n)), int(rng.integers(n))))
    mid, last = spine[len(spine) // 2], spine[-1]
    g = collapse_multi_edges(RawLogGraph(nodes, edges, {spine[0]}, [{mid}, {last}]))
    g = prune_attack_subgraph(g, g.entries, g.destinations)
    g = remove_cycles_by_versioning(g)
    g = prune_attack_subgraph(g, g.entries, g.destinations)
    return build_game(to_ifg(g), RewardParams.defaults(2), FnRates(0.2))


GAMES = {
    "learn": fixture_game,
    "160": lambda: build_game(
        generate_synthetic(160, 3, 2, (1, 1, 1), 0.1, 1), RewardParams.defaults(3), FnRates(0.2)
    ),
    "cyclic-a": lambda: cyclic_game(8, 24),
    "cyclic-b": lambda: cyclic_game(9, 26),
}


@pytest.fixture(scope="module", params=list(GAMES))
def game(request):
    return GAMES[request.param]()


def pair_of(game, kind):
    """A policy pair of one kind: Dirichlet rows, one-hot rows on the first
    or last action, Dirichlet rows with entries set to exactly zero, or the
    learner's output with no exploration floor."""
    if kind == "learned":
        cfg = TrainConfig(iterations=3000, warmup=750, seed=5, exploration_floor=0.0)
        return train(Env(game, seed=5), cfg)[0]
    rng = np.random.default_rng([len(kind), game.n_states])
    tables = []
    for sets in (game.actions_d, game.actions_a):
        rows = []
        for acts in sets:
            k = len(acts)
            if kind == "dirichlet":
                row = rng.dirichlet(np.ones(k))
            elif kind.startswith("onehot"):
                row = np.zeros(k)
                row[0 if kind == "onehot-first" else -1] = 1.0
            else:
                row = rng.dirichlet(np.ones(k)) * (rng.random(k) < 0.5)
                if not row.any():
                    row[rng.integers(k)] = 1.0
                row = row / row.sum()
            rows.append(row)
        tables.append(rows)
    return PolicyPair(Policy("D", tables[0]), Policy("A", tables[1]))


@pytest.mark.parametrize("kind", ["dirichlet", "onehot-first", "onehot-last", "zeros", "learned"])
def test_rollout_equals_reference(game, kind):
    # 9000 steps draw 18000 action uniforms and 9000 transition uniforms,
    # so both streams cross the 8192-draw block boundary; the second call
    # continues the transition stream from where the first left it
    pair = pair_of(game, kind)
    env, ref = Env(game, seed=11), Env(game, seed=11)
    for steps, action_seed in ((9000, 3), (8500, 4)):
        assert rollout_average(env, pair, steps, action_seed) == reference_rollout(
            ref, pair, steps, action_seed
        )
        assert (env.current, env.step_count) == (ref.current, ref.step_count)


@pytest.mark.parametrize("below_one", [False, True])
def test_rollout_draw_exactly_at_the_boundary(game, below_one):
    # From a state whose rows hold two actions, the first draw of each
    # player is its row's first entry: with a total of exactly 1,
    # u * total equals cum[0] and the search gives action 1; with a total
    # just below 1, u * total falls below cum[0] and it gives action 0.
    s = next(
        t for t in range(game.n_states) if len(game.actions_d[t]) == len(game.actions_a[t]) == 2
    )
    u_d, u_a = itertools.islice(uniforms([6, 1]), 2)
    tables = [[np.full(len(a), 1.0 / len(a)) for a in sets]
              for sets in (game.actions_d, game.actions_a)]
    for table, u in zip(tables, (u_d, u_a)):
        table[s] = np.array([u, 1.0 - u - (4e-10 if below_one else 0.0)])
        cum = np.cumsum(table[s]).tolist()
        assert (u * cum[1] < cum[0]) if below_one else (u * cum[1] == cum[0])
    pair = PolicyPair(Policy("D", tables[0]), Policy("A", tables[1]))
    for steps in (1, 200):
        env, ref = Env(game, seed=2), Env(game, seed=2)
        env.current = ref.current = s
        assert rollout_average(env, pair, steps, 6) == reference_rollout(ref, pair, steps, 6)
        assert env.current == ref.current


def test_learner_draw_exactly_at_the_boundary(monkeypatch):
    # From a state whose rows hold two actions, the learner's first draw of
    # each player is its row's first entry, so pick compares u with itself
    # and gives action 1.
    game = fixture_game()
    cfg = TrainConfig(iterations=1, seed=6)
    env = Env(game, seed=6)
    st = init_trainer(env, cfg)
    s = next(
        t for t in range(game.n_states) if len(game.actions_d[t]) == len(game.actions_a[t]) == 2
    )
    st.current = env.current = s
    u_d, u_a = itertools.islice(uniforms([cfg.seed, 1]), 2)
    st.pi_d[s] = [u_d, 1.0 - u_d]
    st.pi_a[s] = [u_a, 1.0 - u_a]
    want = (game.actions_d[s][pick(st.pi_d[s], u_d)], game.actions_a[s][pick(st.pi_a[s], u_a)])
    assert want == (game.actions_d[s][1], game.actions_a[s][1])
    played = []
    step = Env.step
    monkeypatch.setattr(Env, "step", lambda self, d, a: played.append((d, a)) or step(self, d, a))
    train_step(st, env, cfg)
    assert played == [want]


def test_pairs_reach_every_row_form(game):
    # the fixtures hold rows of 1 and 2 actions, the learned and zeroed
    # pairs hold exact zeros, and the synthetic game rows of 3 or more
    lengths = {len(a) for sets in (game.actions_d, game.actions_a) for a in sets}
    assert {1, 2} <= lengths
    for kind in ("zeros", "learned"):
        pair = pair_of(game, kind)
        assert any(0.0 in row for pol in (pair.d, pair.a) for row in pol.table if len(row) > 1)


def test_rollout_golden_on_learn_fixture():
    # recorded with the loop that searched every row
    game = fixture_game()
    env = Env(game, seed=17)
    assert rollout_average(env, pair_of(game, "dirichlet"), 20000, 17) == (10.61125, -8.46)
    assert rollout_average(env, pair_of(game, "learned"), 9000, 18) == (
        17.363777777777777,
        -8.887777777777778,
    )
    assert (env.current, env.step_count) == (3, 29000)
