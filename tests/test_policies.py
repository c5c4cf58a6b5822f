"""Policy table validation, baselines, simplex projection, persistence."""

import numpy as np
import pytest

from diftgame.game import NO_INSPECT, FnRates, RewardParams, build_game
from diftgame.ifg import Ifg, IfgNode, generate_synthetic
from diftgame.policies import (
    Policy,
    PolicyPair,
    cut_policy,
    load_policy,
    policy_from_json,
    policy_to_json,
    project_simplex,
    sample,
    save_policy,
    uniform_policy,
)


@pytest.fixture(scope="module")
def game():
    ifg = generate_synthetic(10, 3, 2, (1, 1, 1), 0.25, seed=3)
    return build_game(ifg, RewardParams.defaults(3), FnRates(default=0.2))


class TestProjection:
    def test_already_on_simplex_is_fixed_point(self):
        v = np.array([0.2, 0.5, 0.3])
        np.testing.assert_allclose(project_simplex(v), v, atol=1e-12)

    def test_clips_negative_coordinate(self):
        got = project_simplex(np.array([1.2, -0.2]))
        np.testing.assert_allclose(got, [1.0, 0.0], atol=1e-12)

    def test_uniform_shift_invariance(self):
        v = np.array([0.4, 1.1, -0.3, 0.05])
        np.testing.assert_allclose(
            project_simplex(v + 7.3), project_simplex(v), atol=1e-10
        )

    def test_floor_respected_and_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            v = rng.normal(size=n) * rng.uniform(0.1, 10)
            floor = float(rng.uniform(0, 0.9 / n))
            p = project_simplex(v, floor)
            assert p.min() >= floor - 1e-12
            assert abs(p.sum() - 1.0) < 1e-9

    def test_is_euclidean_projection(self):
        # no feasible point may be closer than the returned one
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = rng.normal(size=4) * 3
            p = project_simplex(v, 0.05)
            d0 = float(np.sum((p - v) ** 2))
            for _ in range(40):
                q = project_simplex(rng.normal(size=4), 0.05)
                assert float(np.sum((q - v) ** 2)) >= d0 - 1e-9

    def test_single_action_goes_to_one(self):
        np.testing.assert_allclose(project_simplex(np.array([-5.0])), [1.0])

    def test_infeasible_floor_rejected(self):
        with pytest.raises(ValueError):
            project_simplex(np.array([0.5, 0.5]), floor=0.6)
        with pytest.raises(ValueError):
            project_simplex(np.array([1.0]), floor=-0.1)


class TestBaselines:
    def test_uniform_rows(self, game):
        pol = uniform_policy(game, "A")
        pol.validate(game)
        for s, acts in enumerate(game.actions_a):
            np.testing.assert_allclose(pol.table[s], 1.0 / len(acts))

    def test_cut_inspects_target_feeders_only(self, game):
        pol = cut_policy(game)
        pol.validate(game)
        for s, acts in enumerate(game.actions_d):
            feeders = [
                i
                for i, a in enumerate(acts)
                if a.kind == "inspect" and game.is_dest[a.target]
            ]
            if feeders:
                assert pol.table[s][0] == 0.0
                for i in feeders:
                    assert pol.table[s][i] == pytest.approx(1.0 / len(feeders))
            else:
                assert pol.table[s][0] == 1.0
                assert acts[0] == NO_INSPECT

    def test_cut_idles_when_no_inspectable_target(self):
        ifg = Ifg(
            [IfgNode(i, "process", f"n{i}") for i in range(3)],
            {(0, 1), (1, 2)},
            {0},
            [{2}],
        )
        game = build_game(ifg, RewardParams.defaults(1))
        pol = cut_policy(game)
        s = game.state_index(0, 1)  # neighbor 1 is not a stage-1 target
        assert pol.table[s][0] == 1.0


class TestValidation:
    def test_wrong_length_table(self, game):
        pol = uniform_policy(game, "D")
        pol.table.pop()
        with pytest.raises(ValueError):
            pol.validate(game)

    def test_wrong_row_width(self, game):
        pol = uniform_policy(game, "D")
        pol.table[3] = np.array([1.0])
        if len(game.actions_d[3]) == 1:
            pol.table[3] = np.array([0.5, 0.5])
        with pytest.raises(ValueError):
            pol.validate(game)

    def test_bad_sum_and_negative(self, game):
        pol = uniform_policy(game, "A")
        pol.table[0] = pol.table[0] * 0.9
        with pytest.raises(ValueError):
            pol.validate(game)

    @pytest.mark.parametrize(
        "width, row", [(2, [np.nan, 1.0]), (1, [[0.5, 0.5]])], ids=["nan", "2-d"]
    )
    def test_malformed_row_rejected(self, game, width, row):
        pol = uniform_policy(game, "A")
        s = next(s for s in range(game.n_states) if len(game.actions_a[s]) == width)
        pol.table[s] = np.array(row)
        with pytest.raises(ValueError):
            pol.validate(game)

    def test_floor_argument(self, game):
        pol = uniform_policy(game, "A")
        pol.validate(game, floor=1e-3)
        s = next(s for s in range(game.n_states) if len(game.actions_a[s]) > 1)
        vec = np.zeros_like(pol.table[s])
        vec[0] = 1.0
        pol.table[s] = vec
        pol.validate(game)
        with pytest.raises(ValueError):
            pol.validate(game, floor=1e-3)

    def test_copy_is_deep(self, game):
        pol = uniform_policy(game, "D")
        cp = pol.copy()
        cp.table[0][0] = 0.123
        assert pol.table[0][0] != 0.123
        pair = PolicyPair(uniform_policy(game, "D"), uniform_policy(game, "A"))
        pc = pair.copy()
        pc.a.table[0][0] = 0.321
        assert pair.a.table[0][0] != 0.321


class TestSampling:
    def test_deterministic_row_always_picked(self, game):
        pol = uniform_policy(game, "A")
        s = next(s for s in range(game.n_states) if len(game.actions_a[s]) > 1)
        vec = np.zeros_like(pol.table[s])
        vec[1] = 1.0
        pol.table[s] = vec
        rng = np.random.default_rng(0)
        assert all(sample(pol, s, rng) == 1 for _ in range(100))

    def test_frequencies_match_probabilities(self, game):
        # chi-square goodness of fit on 20k draws from a 3-way mixture
        from scipy import stats

        s = next(s for s in range(game.n_states) if len(game.actions_a[s]) >= 3)
        pol = uniform_policy(game, "A")
        k = len(pol.table[s])
        probs = project_simplex(np.arange(1.0, k + 1.0), 0.05)
        pol.table[s] = probs
        rng = np.random.default_rng(7)
        counts = np.zeros(k)
        n = 20000
        for _ in range(n):
            counts[sample(pol, s, rng)] += 1
        _, pval = stats.chisquare(counts, probs * n)
        assert pval > 1e-3

    def test_rounding_tail_falls_back_to_last_action(self):
        pol = Policy("A", [np.array([0.3, 0.7 - 1e-13])])

        class High:
            def random(self):
                return 1.0 - 1e-16

        assert sample(pol, 0, High()) == 1


class TestPersistence:
    def test_round_trip(self, game, tmp_path):
        rng = np.random.default_rng(5)
        table = [
            project_simplex(rng.random(len(acts)), 0.0) for acts in game.actions_d
        ]
        pol = Policy("D", table)
        path = tmp_path / "pol.json"
        save_policy(game, pol, str(path))
        back = load_policy(game, str(path))
        assert back.player == "D"
        for a, b in zip(pol.table, back.table):
            np.testing.assert_allclose(a, b, atol=0)

    def test_labels_are_human_readable(self, game):
        data = policy_to_json(game, uniform_policy(game, "A"))
        labels = data["states"][0]["actions"]
        assert all(isinstance(x, str) for x in labels)
        assert len(set(labels)) == len(labels)

    def test_wrong_game_rejected(self, game, tmp_path):
        other = build_game(
            generate_synthetic(12, 3, 2, (1, 1, 1), 0.25, seed=9),
            RewardParams.defaults(3),
        )
        path = tmp_path / "pol.json"
        save_policy(other, uniform_policy(other, "A"), str(path))
        with pytest.raises(ValueError):
            load_policy(game, str(path))

    def test_bad_player_rejected(self, game):
        data = policy_to_json(game, uniform_policy(game, "A"))
        data["player"] = "X"
        with pytest.raises(ValueError):
            policy_from_json(game, data)

    def test_tampered_probabilities_rejected(self, game):
        data = policy_to_json(game, uniform_policy(game, "A"))
        data["states"][2]["probs"][0] += 0.2
        with pytest.raises(ValueError):
            policy_from_json(game, data)
