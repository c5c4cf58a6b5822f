"""Learner tests: schedules, single-step updates, short-run behavior."""

import math

import numpy as np
import pytest

from diftgame.env import Env
from diftgame.game import FnRates, RewardParams, build_game
from diftgame.ifg import Ifg, IfgNode, generate_synthetic
from diftgame.training import (
    TrainConfig,
    init_trainer,
    schedules,
    td_residual,
    train,
    train_step,
)


def tiny_game():
    ifg = Ifg(
        [IfgNode(i, "process", f"n{i}") for i in range(3)],
        {(0, 1), (1, 2)},
        {0},
        [{2}],
    )
    return build_game(ifg, RewardParams.defaults(1), FnRates(default=0.2))


@pytest.fixture(scope="module")
def game():
    ifg = generate_synthetic(10, 3, 2, (1, 1, 1), 0.25, seed=3)
    return build_game(ifg, RewardParams.defaults(3), FnRates(default=0.2))


class TestConfig:
    def test_defaults_roundtrip(self):
        cfg = TrainConfig(iterations=100)
        cfg.validate()
        assert (cfg.warmup, cfg.stride) == (7000, 500)

    def test_rejections(self):
        with pytest.raises(ValueError):
            TrainConfig(iterations=-1).validate()
        with pytest.raises(ValueError):
            TrainConfig(iterations=0, warmup=-1).validate()
        with pytest.raises(ValueError):
            TrainConfig(iterations=0, stride=0).validate()
        with pytest.raises(ValueError):
            TrainConfig(iterations=0, exploration_floor=0.5).validate(max_actions=3)
        with pytest.raises(ValueError):
            TrainConfig(iterations=0, sgn_sharpness=0.0).validate()
        for field, bad in (
            ("step_pre", math.nan),
            ("step_pre", -0.1),
            ("step_post", math.inf),
            ("step_post", -1.0),
            ("sgn_sharpness", math.nan),
            ("sgn_sharpness", math.inf),
        ):
            with pytest.raises(ValueError):
                TrainConfig(iterations=0, **{field: bad}).validate()


class TestSchedules:
    def test_warmup_constants(self):
        cfg = TrainConfig(iterations=0)
        visits = np.zeros(5, dtype=np.int64)
        assert schedules(0, 2, cfg, visits) == (0.5, 1.0, 0.5, 1.0)
        assert schedules(6999, 2, cfg, visits) == (0.5, 1.0, 0.5, 1.0)

    def test_post_warmup_decay(self):
        cfg = TrainConfig(iterations=0)
        visits = np.array([0, 3, 10], dtype=np.int64)
        d_v, d_rho, d_eps, d_pi = schedules(7000, 1, cfg, visits)
        assert d_v == d_eps == pytest.approx(1.6 / 3)
        assert d_pi == 1.0  # tau = 1
        assert d_rho == pytest.approx(1.0 / (1.0 + 1.0 * math.log(1.0)))
        d_v, _, _, d_pi = schedules(7009, 2, cfg, visits)
        assert d_v == pytest.approx(1.6 / 10)
        assert d_pi == pytest.approx(1.0 / 10.0)

    def test_unvisited_state_clamps_to_one(self):
        cfg = TrainConfig(iterations=0)
        visits = np.zeros(3, dtype=np.int64)
        d_v, _, d_eps, _ = schedules(8000, 0, cfg, visits)
        assert d_v == d_eps == pytest.approx(1.6)

    def test_timescale_separation(self):
        # actor slower than critic slower than nothing: at large tau the
        # actor step is o(critic step) for a recurrent state
        cfg = TrainConfig(iterations=0)
        visits = np.full(3, 40000, dtype=np.int64)
        d_v, d_rho, d_eps, d_pi = schedules(200000, 0, cfg, visits)
        assert d_pi < d_v
        assert d_rho < d_pi


class TestTdResidual:
    def test_formula(self):
        v = np.array([0.0, 2.5, -1.0])
        assert td_residual(4.0, 1.5, v, 1, 2) == pytest.approx(4.0 - 1.5 - 1.0 - 2.5)


class TestInit:
    def test_uniform_tables_with_floor(self, game):
        env = Env(game, seed=0)
        st = init_trainer(env, TrainConfig(iterations=0))
        assert st.n == 0 and st.current == 0
        assert not st.v_d.any() and not st.v_a.any()
        assert st.rho_d == st.rho_a == 0.0
        for s in range(game.n_states):
            k = len(game.actions_d[s])
            np.testing.assert_allclose(st.pi.d.table[s], 1.0 / k, atol=1e-12)
            assert all(not e.any() for e in (st.eps_d[s], st.eps_a[s]))


class TestTrainStep:
    def test_single_step_updates_match_hand_computation(self):
        game = tiny_game()
        env = Env(game, seed=11)
        cfg = TrainConfig(iterations=1, warmup=7000, seed=4)
        st = init_trainer(env, cfg)
        # replay the same action draws from the trainer's stream
        rng = np.random.Generator(np.random.Philox(key=[4, 1]))
        u = rng.random(8192)
        probe = Env(game, seed=11)
        train_step(st, env, cfg)
        # root state: one defender action, two attacker actions
        s2, r_d, r_a = probe.step(
            game.actions_d[0][0], game.actions_a[0][0 if u[1] < 0.5 else 1]
        )
        assert st.current == s2 == env.current
        assert st.n == 1
        # v update: v[0] += 0.5 * (r - rho + v[s2] - v[0]) with zeros inside
        assert st.v_d[0] == pytest.approx(0.5 * r_d)
        assert st.v_a[0] == pytest.approx(0.5 * r_a)
        # payoff estimate after first sample is that sample's payoff
        assert st.rho_d == pytest.approx(r_d)
        assert st.rho_a == pytest.approx(r_a)

    def test_rho_is_exact_mean_of_realized_payoffs(self):
        # the payoff iterate is a plain running mean over the whole run,
        # warmup included; check it against payoffs collected by a spy
        game = tiny_game()
        cfg = TrainConfig(iterations=0, warmup=50, seed=9)
        env = Env(game, seed=7)
        st = init_trainer(env, cfg)
        got = []
        orig_step = env.step

        def spy(d, a):
            out = orig_step(d, a)
            got.append((out[1], out[2]))
            return out

        env.step = spy
        for _ in range(300):
            train_step(st, env, cfg)
        assert st.rho_d == pytest.approx(np.mean([g[0] for g in got]), abs=1e-10)
        assert st.rho_a == pytest.approx(np.mean([g[1] for g in got]), abs=1e-10)

    def test_rho_bounded_by_reward_range(self, game):
        env = Env(game, seed=1)
        cfg = TrainConfig(iterations=0, warmup=100, seed=1)
        st = init_trainer(env, cfg)
        lo = min(
            r
            for s in range(game.n_states)
            for di in range(len(game.actions_d[s]))
            for ai in range(len(game.actions_a[s]))
            for _, _, r, _ in game.outcomes(s, di, ai)
        )
        hi = max(
            r
            for s in range(game.n_states)
            for di in range(len(game.actions_d[s]))
            for ai in range(len(game.actions_a[s]))
            for _, _, r, _ in game.outcomes(s, di, ai)
        )
        for _ in range(2000):
            train_step(st, env, cfg)
            assert lo - 1e-9 <= st.rho_d <= hi + 1e-9

    def test_policy_rows_stay_on_floored_simplex(self, game):
        env = Env(game, seed=3)
        cfg = TrainConfig(iterations=0, warmup=200, seed=5)
        st = init_trainer(env, cfg)
        for _ in range(3000):
            train_step(st, env, cfg)
        for s in range(game.n_states):
            for tab in (st.pi.d.table[s], st.pi.a.table[s]):
                assert abs(float(np.sum(tab)) - 1.0) < 1e-9
                assert float(np.min(tab)) >= cfg.exploration_floor - 1e-12

    def test_visits_counted_after_warmup_only(self, game):
        env = Env(game, seed=0)
        cfg = TrainConfig(iterations=0, warmup=100, seed=0)
        st = init_trainer(env, cfg)
        for _ in range(100):
            train_step(st, env, cfg)
        assert st.visits.sum() == 0
        for _ in range(50):
            train_step(st, env, cfg)
        assert st.visits.sum() == 50

    def test_critic_moves_policy_toward_better_action(self):
        # defender at the single interior state: inspecting the next hop
        # catches an always-moving attacker 80% of the time, which pays far
        # better than idling; after a short run the policy must lean that way
        game = tiny_game()
        env = Env(game, seed=21)
        cfg = TrainConfig(iterations=0, warmup=400, seed=21)
        st = init_trainer(env, cfg)
        for _ in range(20000):
            train_step(st, env, cfg)
        s = game.state_index(1, 1)
        assert st.pi.d.table[s][1] > 0.9  # index 1 = inspect the edge to n2
        assert st.pi.a.table[s][0] > 0.9  # index 0 = keep moving


class TestTrain:
    def test_history_sampling_and_final_projection(self, game):
        cfg = TrainConfig(iterations=1200, warmup=100, seed=2, stride=500)
        pair, hist = train(game, cfg)
        assert [row[0] for row in hist.rows] == [1, 500, 1000]
        for row in hist.rows:
            assert row[3] is not None and row[5] is not None
        for s in range(game.n_states):
            for tab in (pair.d.table[s], pair.a.table[s]):
                assert abs(float(np.sum(tab)) - 1.0) < 1e-12
                # zero-floor projection may park mass exactly at zero
                assert float(np.min(tab)) >= 0.0

    def test_env_target_keeps_model_free_columns_empty(self, game):
        env = Env(game, seed=4)
        cfg = TrainConfig(iterations=600, warmup=100, seed=4, stride=200)
        pair, hist = train(env, cfg)
        assert [row[0] for row in hist.rows] == [1, 200, 400, 600]
        assert all(row[3] is None and row[4] is None and row[5] is None for row in hist.rows)

    def test_game_and_env_targets_agree(self, game):
        cfg = TrainConfig(iterations=800, warmup=100, seed=6, stride=400)
        pair1, hist1 = train(game, cfg)
        pair2, hist2 = train(Env(game, seed=6), cfg)
        for s in range(game.n_states):
            np.testing.assert_allclose(pair1.d.table[s], pair2.d.table[s], atol=0)
            np.testing.assert_allclose(pair1.a.table[s], pair2.a.table[s], atol=0)
        assert [(r[0], r[1], r[2]) for r in hist1.rows] == [
            (r[0], r[1], r[2]) for r in hist2.rows
        ]

    def test_deterministic_given_seed(self, game):
        cfg = TrainConfig(iterations=500, warmup=100, seed=8, stride=100)
        _, h1 = train(game, cfg)
        _, h2 = train(game, cfg)
        assert h1.rows == h2.rows

    def test_csv_round_trip(self, game, tmp_path):
        cfg = TrainConfig(iterations=300, warmup=100, seed=1, stride=100)
        _, hist = train(game, cfg)
        path = tmp_path / "hist.csv"
        hist.to_csv(str(path))
        import csv

        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "rho_D", "rho_A", "phi_D", "phi_A", "phi_T"]
        assert len(rows) == 1 + len(hist.rows)
        got = [
            (int(r[0]), float(r[1]), float(r[2]), float(r[3]), float(r[4]), float(r[5]))
            for r in rows[1:]
        ]
        assert got == [tuple(map(float, r)) for r in hist.rows]
