"""Learner tests: step sizes, single-step updates, short-run behavior."""

import hashlib
import math
from collections import Counter

import numpy as np
import pytest

from diftgame import training
from diftgame.env import Env
from diftgame.game import FnRates, RewardParams, build_game
from diftgame.ifg import Ifg, IfgNode, generate_synthetic
from diftgame.training import (
    TrainConfig,
    init_trainer,
    train,
    train_step,
)
from test_acceptance import fixture_game


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

    @pytest.mark.parametrize("seed", [-1, 2**63, 2**64 - 1, 2**64 + 5])
    def test_seed_outside_philox_key_range_rejected(self, seed):
        # Philox takes the seed as one 64-bit key word: from 2**64 on numpy
        # raised OverflowError, and [2**63, 2**64) went through an invalid
        # cast with a RuntimeWarning
        with pytest.raises(ValueError, match="seed"):
            TrainConfig(iterations=0, seed=seed).validate()

    def test_largest_seed_accepted(self):
        TrainConfig(iterations=0, seed=2**63 - 1).validate()


class TestSchedules:
    """The step sizes train_step uses, read back from one step's moves at
    state 1 of ``tiny_game``, where each player has two actions."""

    @staticmethod
    def step_sizes(n, visits):
        """One step from state 1 at iteration n, with its visit count
        preset; returns the bias, critic and actor step sizes the
        intruder's moves imply, and the state's visit count after the step."""
        game = tiny_game()
        env = Env(game, seed=11)
        cfg = TrainConfig(iterations=0, seed=4)
        st = init_trainer(env, cfg)
        s = env.current = st.current = 1
        st.n = n
        st.visits[s] = visits
        # nonzero tables, so that every difference below is nonzero
        st.v_d = [0.25 * t for t in range(game.n_states)]
        st.v_a = [0.5 * t - 2.0 for t in range(game.n_states)]
        v_d, v_a = list(st.v_d), list(st.v_a)
        st.rho_d, st.rho_a = 0.75, 0.25
        st.eps_d[s] = [0.05, 0.05]
        st.eps_a[s] = [0.05, 0.05]
        row = st.pi_a[s]
        p = list(row)
        played = []
        step = env.step

        def spy(d, a):
            out = step(d, a)
            played.append((a, out))
            return out

        env.step = spy
        train_step(st, env, cfg)
        ((a, (s2, r_d, r_a)),) = played
        ai = game.actions_a[s].index(a)
        td_d = r_d - 0.75 + v_d[s2] - v_d[s]
        td_a = r_a - 0.25 + v_a[s2] - v_a[s]
        d_v = (st.v_a[s] - v_a[s]) / td_a
        d_eps = (st.eps_a[s][ai] - 0.05) / (td_d + td_a - 0.05)
        # the actor adds its move into the row, then replaces it by the projection
        d_pi = (row[ai] - p[ai]) / (math.sqrt(p[ai]) * abs(td_a) * math.tanh(10 * 0.05))
        return d_v, d_eps, d_pi, int(st.visits[s])

    def test_warmup_constants(self):
        for n in (0, 6999):
            d_v, d_eps, d_pi, visits = self.step_sizes(n, 0)
            assert d_v == pytest.approx(0.5) and d_eps == pytest.approx(0.5)
            assert d_pi == pytest.approx(1.0)
            assert visits == 0  # warmup steps are not counted

    def test_post_warmup_decay(self):
        d_v, d_eps, d_pi, visits = self.step_sizes(7000, 2)
        assert visits == 3
        assert d_v == pytest.approx(1.6 / 3) and d_eps == pytest.approx(1.6 / 3)
        assert d_pi == pytest.approx(1.0)  # tau = 1
        d_v, d_eps, d_pi, visits = self.step_sizes(7009, 9)
        assert d_v == pytest.approx(1.6 / 10) and d_eps == pytest.approx(1.6 / 10)
        assert d_pi == pytest.approx(1.0 / 10.0)

    def test_first_visit_after_warmup_steps_at_step_post(self):
        # the visit is counted before it is read, so the count is never 0
        d_v, d_eps, _, visits = self.step_sizes(8000, 0)
        assert visits == 1
        assert d_v == pytest.approx(1.6) and d_eps == pytest.approx(1.6)

    def test_timescale_separation(self):
        # at large tau the actor step is o(critic step) for a recurrent state
        d_v, d_eps, d_pi, _ = self.step_sizes(200000, 39999)
        assert d_v == pytest.approx(1.6 / 40000) and d_eps == pytest.approx(1.6 / 40000)
        assert d_pi == pytest.approx(1.0 / 193001)
        assert d_pi < d_v


class TestInit:
    def test_uniform_tables_with_floor(self, game):
        env = Env(game, seed=0)
        st = init_trainer(env, TrainConfig(iterations=0))
        assert st.n == 0 and st.current == 0
        assert not np.any(st.v_d) and not np.any(st.v_a)
        assert st.rho_d == st.rho_a == 0.0
        for s in range(game.n_states):
            k = len(game.actions_d[s])
            np.testing.assert_allclose(st.pi_d[s], 1.0 / k, atol=1e-12)
            assert all(not np.any(e) for e in (st.eps_d[s], st.eps_a[s]))


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
            for tab in (st.pi_d[s], st.pi_a[s]):
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
        assert st.pi_d[s][1] > 0.9  # index 1 = inspect the edge to n2
        assert st.pi_a[s][0] > 0.9  # index 0 = keep moving


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


@pytest.mark.parametrize(
    "seed, digest",
    [
        (1, "670ce6dbd6404b42969678c6f80b63673d0302e6557d80590072cc8841e43b6f"),
        (2, "740187022847b5b33ea430688c2f3e5f8eff2769fd6c3b51eb6c94cf11878122"),
    ],
)
def test_model_free_train_golden(seed, digest):
    # sha256 of model-free training on an Env over the 160-node game,
    # recorded while the learner state was held in numpy arrays: the final
    # tables' bytes, then the history rows.  Where the learner keeps its
    # state must not change the trained bits.  Re-recorded when build_game
    # dropped the states no play reaches (481 to 328); matched by state
    # label, the kept rows and the history are unchanged.
    game = build_game(
        generate_synthetic(160, 3, 2, (1, 1, 1), 0.1, 1), RewardParams.defaults(3), FnRates(0.2)
    )
    pair, hist = train(Env(game, seed=seed), TrainConfig(iterations=2500, warmup=625, seed=seed))
    h = hashlib.sha256()
    for pol in (pair.d, pair.a):
        for row in pol.table:
            h.update(np.asarray(row, dtype=float).tobytes())
    h.update(repr([(n, float(rd), float(ra)) for n, rd, ra, *_ in hist.rows]).encode())
    assert h.hexdigest() == digest


@pytest.mark.parametrize(
    "which, iterations, digest",
    [
        ("learn", 20000, "ba180fe93f92981ebaf186bff10dd4c21b954269cbc0c58fa9df71d7abe7f7b2"),
        ("160", 2500, "251c5eba690f2dd0b5f209b7129ca7dee314deed611a808bd85bc24af88fae01"),
    ],
)
def test_model_free_train_golden_without_floor(which, iterations, digest):
    # sha256 as in test_model_free_train_golden, recorded while train_step
    # drew every row through pick.  With no exploration floor the learner's
    # rows reach exact zeros, which the draws of 1- and 2-action rows must
    # compare as pick does.
    if which == "learn":
        game = fixture_game()
    else:
        game = build_game(
            generate_synthetic(160, 3, 2, (1, 1, 1), 0.1, 1), RewardParams.defaults(3), FnRates(0.2)
        )
    cfg = TrainConfig(iterations=iterations, warmup=iterations // 4, seed=3, exploration_floor=0.0)
    pair, hist = train(Env(game, seed=3), cfg)
    h = hashlib.sha256()
    for pol in (pair.d, pair.a):
        for row in pol.table:
            h.update(np.asarray(row, dtype=float).tobytes())
    h.update(repr([(n, float(rd), float(ra)) for n, rd, ra, *_ in hist.rows]).encode())
    assert h.hexdigest() == digest
    env = Env(game, seed=3)
    st = init_trainer(env, cfg)
    for _ in range(iterations):
        train_step(st, env, cfg)
    assert any(0.0 in row for row in st.pi_d + st.pi_a if len(row) == 2)


class TestDistinctRowProjection:
    """``init_trainer`` projects each distinct start row once and ``train``
    each distinct final row once; every row must still be the per-state
    projection, bit for bit, and no two states may share a row object, as
    ``train_step`` writes an actor's move into the row in place."""

    @pytest.fixture(scope="class")
    def game160(self):
        return build_game(
            generate_synthetic(160, 3, 2, (1, 1, 1), 0.1, 1), RewardParams.defaults(3), FnRates(0.2)
        )

    @staticmethod
    def bits(row):
        return np.asarray(row, dtype=float).tobytes()

    def test_start_rows_are_per_state_projections(self, game160):
        cfg = TrainConfig(iterations=0)
        st = init_trainer(Env(game160, seed=1), cfg)
        for rows, sets in ((st.pi_d, game160.actions_d), (st.pi_a, game160.actions_a)):
            assert len(rows) == len(sets) == game160.n_states
            for row, acts in zip(rows, sets):
                k = len(acts)
                want = training.project_simplex([1.0 / k] * k, cfg.exploration_floor)
                assert self.bits(row) == self.bits(want)

    def test_a_write_into_one_start_row_changes_no_other(self, game160):
        st = init_trainer(Env(game160, seed=1), TrainConfig(iterations=0))
        rows = st.pi_d + st.pi_a
        before = [list(row) for row in rows]
        for i, row in enumerate(rows):
            row[-1] = float(i)
            assert all(
                other == (before[j][:-1] + [float(j)] if j <= i else before[j])
                for j, other in enumerate(rows)
            )

    @pytest.mark.parametrize("seed", [1, 2])
    def test_final_rows_are_per_state_projections(self, game160, seed):
        cfg = TrainConfig(iterations=2500, warmup=625, seed=seed)
        pair, _ = train(Env(game160, seed=seed), cfg)
        env = Env(game160, seed=seed)
        env.reset()
        st = init_trainer(env, cfg)
        for _ in range(cfg.iterations):
            train_step(st, env, cfg)
        for pol, rows in ((pair.d, st.pi_d), (pair.a, st.pi_a)):
            assert len(pol.table) == len(rows)
            for got, row in zip(pol.table, rows):
                assert self.bits(got) == self.bits(training.project_simplex(row, 0.0))


def test_traced_entry_points_run_once_per_step(monkeypatch):
    # perfbench counts calls to training.train_step, Env.step and
    # training.project_simplex for its env.step_calls, train_step_calls,
    # project_simplex_calls and actor_update_ratio figures; a train or
    # train_step that inlined one of them would leave its figure unmeasured.
    # 31129 projections: 31115 actor updates, 2 at the start (one uniform
    # row per action count, 1 and 2 on this 13-state game) and 12 at the
    # end (one per distinct final row of 26).
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(training, "train_step", counted("train_step", training.train_step))
    monkeypatch.setattr(Env, "step", counted("step", Env.step))
    monkeypatch.setattr(training, "project_simplex", counted("project", training.project_simplex))
    train(Env(fixture_game(), seed=17), TrainConfig(iterations=20000, seed=17))
    assert counts == {"train_step": 20000, "step": 20000, "project": 31129}
