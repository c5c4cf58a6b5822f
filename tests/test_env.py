"""Simulator tests: determinism, kernel fidelity, information hiding."""

import itertools

import numpy as np
import pytest

from diftgame.env import Env, rollout_average, uniforms
from diftgame.game import (
    NO_INSPECT,
    QUIT,
    ROOT,
    AtkAction,
    DefAction,
    FnRates,
    InvalidActionError,
    RewardParams,
    build_game,
)
from diftgame.ifg import Ifg, IfgNode, generate_synthetic
from diftgame.policies import Policy, PolicyPair, pick, uniform_policy
from test_acceptance import fixture_game


def small_game(fn=0.3):
    ifg = Ifg(
        [IfgNode(i, "process", f"n{i}") for i in range(3)],
        {(0, 1), (1, 2)},
        {0},
        [{2}],
    )
    return build_game(ifg, RewardParams.defaults(1), FnRates(default=fn))


@pytest.fixture(scope="module")
def game():
    ifg = generate_synthetic(10, 3, 2, (1, 1, 1), 0.25, seed=3)
    return build_game(ifg, RewardParams.defaults(3), FnRates(default=0.2))


def walk(env, pair, steps, seed=0):
    rng = np.random.default_rng(seed)
    trace = []
    for _ in range(steps):
        s = env.current
        acts_d, acts_a = env.actions(s)
        d = acts_d[pick(pair.d.table[s], rng.random())]
        a = acts_a[pick(pair.a.table[s], rng.random())]
        trace.append(env.step(d, a))
    return trace


class TestDeterminism:
    def test_same_seed_same_trajectory(self, game):
        pair = PolicyPair(uniform_policy(game, "D"), uniform_policy(game, "A"))
        t1 = walk(Env(game, seed=5), pair, 400)
        t2 = walk(Env(game, seed=5), pair, 400)
        assert t1 == t2

    def test_different_seeds_differ(self, game):
        pair = PolicyPair(uniform_policy(game, "D"), uniform_policy(game, "A"))
        t1 = walk(Env(game, seed=5), pair, 400)
        t2 = walk(Env(game, seed=6), pair, 400)
        assert t1 != t2

    def test_reset_rewinds_stream(self, game):
        pair = PolicyPair(uniform_policy(game, "D"), uniform_policy(game, "A"))
        env = Env(game, seed=1)
        t1 = walk(env, pair, 300)
        assert env.step_count == 300
        env.reset()
        assert (env.current, env.step_count) == (ROOT, 0)
        t2 = walk(env, pair, 300)
        assert t1 == t2

    def test_one_uniform_per_step(self, game):
        # state after n steps depends only on (seed, n): replaying the
        # first half then continuing matches an uninterrupted run
        pair = PolicyPair(uniform_policy(game, "D"), uniform_policy(game, "A"))
        env = Env(game, seed=9)
        full = walk(env, pair, 200, seed=0)
        env.reset()
        first = walk(env, pair, 100, seed=0)
        # re-derive the action rng state by replaying 100 action draws
        rng = np.random.default_rng(0)
        replay = []
        cur = ROOT
        for s2, _, _ in first:
            acts_d, acts_a = env.actions(cur)
            pick(pair.d.table[cur], rng.random())
            pick(pair.a.table[cur], rng.random())
            cur = s2
        for _ in range(100):
            s = env.current
            acts_d, acts_a = env.actions(s)
            d = acts_d[pick(pair.d.table[s], rng.random())]
            a = acts_a[pick(pair.a.table[s], rng.random())]
            replay.append(env.step(d, a))
        assert first + replay == full


class TestDynamics:
    def test_deterministic_edges_follow_kernel(self):
        game = small_game()
        env = Env(game, seed=0)
        s1 = game.state_index(0, 1)
        t = game.state_index(1, 1)
        a = game.actions_a[ROOT][0]
        s2, r_d, r_a = env.step(NO_INSPECT, a)
        assert (s2, r_d, r_a) == (s1, 0.0, 0.0)
        s2, r_d, r_a = env.step(NO_INSPECT, AtkAction("move", t))
        assert (s2, r_d, r_a) == (t, 0.0, 0.0)
        s2, r_d, r_a = env.step(NO_INSPECT, QUIT)
        assert (s2, r_d, r_a) == (ROOT, 30.0, -30.0)

    def test_detection_frequency_matches_miss_rate(self):
        game = small_game(fn=0.3)
        env = Env(game, seed=42)
        s = game.state_index(1, 1)
        t = game.state_index(2, 1)
        caught = passed = 0
        for _ in range(4000):
            env.current = s
            s2, r_d, r_a = env.step(DefAction("inspect", t), AtkAction("move", t))
            if s2 == ROOT:
                caught += 1
                assert (r_d, r_a) == (40.0 - 1.0, -20.0)
            else:
                passed += 1
                assert (r_d, r_a) == (0.0, 20.0)
        assert passed / 4000 == pytest.approx(0.3, abs=0.02)
        assert caught + passed == 4000

    def test_rewards_match_game_table(self, game):
        pair = PolicyPair(uniform_policy(game, "D"), uniform_policy(game, "A"))
        env = Env(game, seed=3)
        rng = np.random.default_rng(11)
        for _ in range(500):
            s = env.current
            acts_d, acts_a = env.actions(s)
            d = acts_d[pick(pair.d.table[s], rng.random())]
            a = acts_a[pick(pair.a.table[s], rng.random())]
            s2, r_d, r_a = env.step(d, a)
            assert (r_d, r_a) == game.reward(s, d, a, s2)
            assert s2 in [t for t, _ in game.transition_dist(s, d, a)]

    def test_invalid_action_rejected(self, game):
        env = Env(game, seed=0)
        with pytest.raises(InvalidActionError):
            env.step(NO_INSPECT, QUIT)  # no quitting at the root
        assert env.step_count == 0


class TestInformationHiding:
    def test_public_surface_excludes_model(self):
        public = {n for n in dir(Env) if not n.startswith("_")}
        assert public == {"reset", "actions", "step"}

    def test_instance_exposes_counters_only(self, game):
        env = Env(game, seed=0)
        attrs = {n for n in vars(env) if not n.startswith("_")}
        assert attrs == {"n_states", "seed", "current", "step_count"}


class TestOutcomeTable:
    def test_envs_share_the_games_table(self, game):
        one, two = Env(game, seed=0), Env(game, seed=1)
        assert one._rows is two._rows is game.case_outcomes

    def test_outcomes_returns_the_tables_tuple(self, game):
        for s in range(game.n_states):
            for di, d in enumerate(game.actions_d[s]):
                for ai, a in enumerate(game.actions_a[s]):
                    case = 0 if d.kind == "none" else 2 if d.target == a.target else 1
                    assert game.outcomes(s, di, ai) is game.case_outcomes[s][ai][case]

    @pytest.mark.parametrize("which", ["learn", 160])
    def test_step_plays_every_joint_action_as_outcomes(self, which):
        if which == "learn":
            g = fixture_game()
        else:
            g = build_game(generate_synthetic(160, 3, 2, (1, 1, 1), 0.1, 1),
                           RewardParams.defaults(3), FnRates(0.2))
        env, draws = Env(g, seed=4), uniforms([4, 0])
        for s in range(g.n_states):
            for di, d in enumerate(g.actions_d[s]):
                for ai, a in enumerate(g.actions_a[s]):
                    env.current = s
                    out, u = g.outcomes(s, di, ai), next(draws)
                    s2, _, r_d, r_a = out[0] if len(out) == 1 or u < out[0][1] else out[1]
                    assert env.step(d, a) == (s2, r_d, r_a), (s, d, a)


class TestSeedValidation:
    @pytest.mark.parametrize("seed", [1.5, -1, 2**64, 2**63, True])
    def test_bad_seed_rejected(self, game, seed):
        with pytest.raises(ValueError, match="2\\*\\*63"):
            Env(game, seed=seed)

    def test_numpy_and_largest_seeds_accepted(self):
        draws = [list(itertools.islice(uniforms([k, 0]), 3))
                 for k in (np.int64(7), 7, np.uint64(2**63 - 1), 2**63 - 1)]
        assert draws[0] == draws[1] != draws[2] == draws[3]

    @pytest.mark.parametrize("steps", [True, 10.0])
    def test_bad_steps_rejected(self, game, steps):
        pair = PolicyPair(uniform_policy(game, "D"), uniform_policy(game, "A"))
        env = Env(game, seed=0)
        with pytest.raises(ValueError, match="integer"):
            rollout_average(env, pair, steps)
        assert (env.current, env.step_count) == (ROOT, 0)


class TestRolloutAverage:
    def test_matches_manual_walk_average(self, game):
        pair = PolicyPair(uniform_policy(game, "D"), uniform_policy(game, "A"))
        env = Env(game, seed=2)
        rd, ra = rollout_average(env, pair, 5000, action_seed=0)
        assert env.step_count == 5000
        env2 = Env(game, seed=2)
        total_d = total_a = 0.0
        arng = np.random.Generator(np.random.Philox(key=[0, 1]))
        for _ in range(5000):
            s = env2.current
            acts_d, acts_a = env2.actions(s)
            u_d, u_a = arng.random(2)
            d = acts_d[_pick(pair.d.table[s], u_d)]
            a = acts_a[_pick(pair.a.table[s], u_a)]
            _, r_d, r_a = env2.step(d, a)
            total_d += r_d
            total_a += r_a
        assert rd == pytest.approx(total_d / 5000, abs=1e-12)
        assert ra == pytest.approx(total_a / 5000, abs=1e-12)
        assert env.current == env2.current

    def test_stream_stays_replayable(self, game):
        # interleaving a rollout between manual steps must consume the
        # same uniforms as stepping through by hand
        pair = PolicyPair(uniform_policy(game, "D"), uniform_policy(game, "A"))
        env = Env(game, seed=8)
        walk(env, pair, 37, seed=1)
        rollout_average(env, pair, 1000, action_seed=3)
        tail = walk(env, pair, 37, seed=2)

        env2 = Env(game, seed=8)
        walk(env2, pair, 37, seed=1)
        # burn exactly 1000 transition uniforms without the rollout helper
        rng = np.random.Generator(np.random.Philox(key=[3, 1]))
        au = rng.random(2000)
        cur = env2.current
        for k in range(1000):
            d_i = _pick(pair.d.table[cur], au[2 * k])
            a_i = _pick(pair.a.table[cur], au[2 * k + 1])
            acts_d, acts_a = env2.actions(cur)
            cur, _, _ = env2.step(acts_d[d_i], acts_a[a_i])
        tail2 = walk(env2, pair, 37, seed=2)
        assert tail == tail2

    def test_golden_floats(self):
        # Recorded before the kernel was stored as flat arrays, and again when
        # build_game dropped the states no play reaches, which changed the
        # Dirichlet rows drawn here.  The second call continues the
        # transition stream across block boundaries.
        game = build_game(
            generate_synthetic(160, 3, 2, (1, 1, 1), 0.1, 1), RewardParams.defaults(3), FnRates(0.2)
        )
        rng = np.random.default_rng([7, 2])
        tables = [
            [rng.dirichlet(np.ones(len(a))) for a in sets]
            for sets in (game.actions_d, game.actions_a)
        ]
        pair = PolicyPair(Policy("D", tables[0]), Policy("A", tables[1]))
        env = Env(game, seed=3)
        assert rollout_average(env, pair, 20000, 3) == (7.6576, -6.587)
        assert rollout_average(env, pair, 7777, 4) == (7.653593930821653, -6.717243152886717)
        assert (env.current, env.step_count) == (1, 27777)

    def test_numpy_integer_steps(self, game):
        pair = PolicyPair(uniform_policy(game, "D"), uniform_policy(game, "A"))
        env, ref = Env(game, seed=5), Env(game, seed=5)
        got = rollout_average(env, pair, np.int64(10), 2)
        assert got == rollout_average(ref, pair, 10, 2)
        assert [type(x) for x in got] == [float, float]
        assert type(env.step_count) is int and env.step_count == 10

    def test_zero_steps_rejected(self, game):
        pair = PolicyPair(uniform_policy(game, "D"), uniform_policy(game, "A"))
        env = Env(game, seed=0)
        with pytest.raises(ValueError):
            rollout_average(env, pair, 0)

    @pytest.mark.parametrize("bad", ["all-zero", "nan", "short", "swapped"])
    def test_malformed_pair_rejected(self, game, bad):
        pair = PolicyPair(uniform_policy(game, "D"), uniform_policy(game, "A"))
        if bad == "all-zero":
            pair.a = Policy("A", [np.zeros_like(v) for v in pair.a.table])
        elif bad == "nan":
            pair.a = Policy("A", [np.full_like(v, np.nan) for v in pair.a.table])
        elif bad == "short":
            pair.a = Policy("A", [np.ones(1) for _ in pair.a.table])
        else:
            pair = PolicyPair(pair.a, pair.d)
        env = Env(game, seed=0)
        with pytest.raises(ValueError):
            rollout_average(env, pair, 100)
        assert (env.current, env.step_count) == (ROOT, 0)


def _pick(probs, u):
    acc = 0.0
    scaled = u * float(np.sum(probs))
    for i, w in enumerate(probs):
        acc += w
        if scaled < acc:
            return i
    return len(probs) - 1
