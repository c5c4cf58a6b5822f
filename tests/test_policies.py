"""Policy layout and validation, baselines, simplex projection, persistence."""

import copy
import json
import pickle

import numpy as np
import pytest

from diftgame.game import NO_INSPECT, FnRates, RewardParams, build_game
from diftgame.ifg import Ifg, IfgNode, generate_synthetic
from diftgame.policies import (
    Policy,
    PolicyPair,
    cut_policy,
    load_policy,
    pick,
    policy_from_json,
    policy_to_json,
    project_simplex,
    save_policy,
    uniform_policy,
)
from test_acceptance import fixture_game


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
            p = np.array(project_simplex(v, floor))
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


def uniform_by_states(game, player):
    """Per-state reference for :func:`uniform_policy`."""
    sets = game.actions_d if player == "D" else game.actions_a
    return Policy(player, [np.full(len(acts), 1.0 / len(acts)) for acts in sets])


def cut_by_states(game):
    """Per-state reference for :func:`cut_policy`."""
    table = []
    for acts in game.actions_d:
        vec = np.zeros(len(acts))
        hits = [i for i, a in enumerate(acts) if a.kind == "inspect" and game.is_dest[a.target]]
        if hits:
            vec[hits] = 1.0 / len(hits)
        else:
            vec[0] = 1.0
        table.append(vec)
    return Policy("D", table)


def no_target_game():
    """One stage target, two hops from the entry: the entry state has no
    target successor, its neighbor does."""
    ifg = Ifg([IfgNode(i, "process", f"n{i}") for i in range(3)], {(0, 1), (1, 2)}, {0}, [{2}])
    return build_game(ifg, RewardParams.defaults(1))


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
        game = no_target_game()
        pol = cut_policy(game)
        s = game.state_index(0, 1)  # neighbor 1 is not a stage-1 target
        assert pol.table[s][0] == 1.0


class TestFlatLayout:
    @pytest.mark.parametrize("make", [
        fixture_game,
        lambda: build_game(generate_synthetic(160, 3, 2, (1, 1, 1), 0.1, 1),
                           RewardParams.defaults(3), FnRates(0.2)),
        no_target_game,
    ], ids=["learn", "synthetic-160", "no-target"])
    def test_baselines_are_byte_identical_to_per_state_loops(self, make):
        game = make()
        for got, want in ((uniform_policy(game, "D"), uniform_by_states(game, "D")),
                          (uniform_policy(game, "A"), uniform_by_states(game, "A")),
                          (cut_policy(game), cut_by_states(game))):
            assert got.player == want.player
            assert got.flat.dtype == np.float64 and got.flat.tobytes() == want.flat.tobytes()
            assert np.array_equal(got.first, want.first)
            assert np.array_equal(got.first, game.frames[got.player][0].first)
        # some state idles for want of a target successor
        assert (cut_by_states(game).flat[game.frames["D"][0].first[:-1]] == 1.0).any()

    def test_row_writes_reach_flat(self, game):
        pol = uniform_policy(game, "A")
        s = next(s for s in range(game.n_states) if len(game.actions_a[s]) > 1)
        pol.table[s][1] = 0.25
        assert pol.flat[pol.first[s] + 1] == 0.25
        pol.table[s][:] = np.eye(len(pol.table[s]))[0]
        assert pol.flat[pol.first[s]] == 1.0
        pol.validate(game)
        # copies rebuild their rows over their own vector
        for cp in (copy.deepcopy(pol), pickle.loads(pickle.dumps(pol))):
            cp.table[s][0] = 0.5
            assert cp.flat[pol.first[s]] == 0.5 and pol.flat[pol.first[s]] == 1.0

    def test_rows_and_fields_cannot_be_replaced(self, game):
        pol = uniform_policy(game, "D")
        with pytest.raises(TypeError):
            pol.table[0] = np.ones(1)
        for name in ("table", "flat", "first"):
            with pytest.raises(AttributeError):
                setattr(pol, name, getattr(pol, name))

    def test_two_dimensional_row_rejected(self):
        with pytest.raises(ValueError, match="state 1"):
            Policy("A", [np.ones(1), np.full((1, 2), 0.5)])


class TestValidation:
    def test_wrong_length_table(self, game):
        pol = Policy("D", uniform_policy(game, "D").table[:-1])
        with pytest.raises(ValueError):
            pol.validate(game)

    def test_wrong_row_width(self, game):
        rows = list(uniform_policy(game, "D").table)
        rows[3] = np.array([1.0])
        if len(game.actions_d[3]) == 1:
            rows[3] = np.array([0.5, 0.5])
        with pytest.raises(ValueError):
            Policy("D", rows).validate(game)

    def test_bad_sum_and_negative(self, game):
        rows = list(uniform_policy(game, "A").table)
        rows[0] = rows[0] * 0.9
        with pytest.raises(ValueError):
            Policy("A", rows).validate(game)

    @pytest.mark.parametrize(
        "width, row", [(2, [np.nan, 1.0]), (1, [[0.5, 0.5]])], ids=["nan", "2-d"]
    )
    def test_malformed_row_rejected(self, game, width, row):
        rows = list(uniform_policy(game, "A").table)
        s = next(s for s in range(game.n_states) if len(game.actions_a[s]) == width)
        rows[s] = np.array(row)
        with pytest.raises(ValueError):
            Policy("A", rows).validate(game)

    @pytest.mark.parametrize("player", ["X", "d", ""])
    def test_policy_for_no_player_rejected(self, game, player):
        # the intruder's rows, which would fit, under a name that is no player
        pol = Policy(player, uniform_policy(game, "A").table)
        with pytest.raises(ValueError, match=f"{player!r} is neither 'D' nor 'A'"):
            pol.validate(game)

    def test_floor_argument(self, game):
        pol = uniform_policy(game, "A")
        pol.validate(game, floor=1e-3)
        s = next(s for s in range(game.n_states) if len(game.actions_a[s]) > 1)
        vec = np.zeros_like(pol.table[s])
        vec[0] = 1.0
        pol.table[s][:] = vec
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
        pol.table[s][:] = vec
        rng = np.random.default_rng(0)
        assert all(pick(pol.table[s], rng.random()) == 1 for _ in range(100))

    def test_frequencies_match_probabilities(self, game):
        # chi-square goodness of fit on 20k draws from a 3-way mixture
        from scipy import stats

        s = next(s for s in range(game.n_states) if len(game.actions_a[s]) >= 3)
        pol = uniform_policy(game, "A")
        k = len(pol.table[s])
        probs = np.array(project_simplex(np.arange(1.0, k + 1.0), 0.05))
        pol.table[s][:] = probs
        rng = np.random.default_rng(7)
        counts = np.zeros(k)
        n = 20000
        for _ in range(n):
            counts[pick(pol.table[s], rng.random())] += 1
        _, pval = stats.chisquare(counts, probs * n)
        assert pval > 1e-3

    def test_rounding_tail_falls_back_to_last_action(self):
        assert pick(np.array([0.3, 0.7 - 1e-13]), 1.0 - 1e-16) == 1


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

    @pytest.mark.parametrize("nodes", [None, 160])
    def test_file_bytes_are_json_dump_with_indent_1(self, nodes, tmp_path):
        # save_policy builds its text itself; it must write what
        # json.dump(policy_to_json(...), fh, indent=1) plus "\n" would, for
        # Dirichlet, pure and sparse rows, for values with long and short
        # reprs, and for NaN and inf, which json writes as NaN and Infinity
        game = fixture_game() if nodes is None else build_game(
            generate_synthetic(nodes, 3, 2, (1, 1, 1), 0.1, 1), RewardParams.defaults(3), FnRates(0.2)
        )
        rng = np.random.default_rng(nodes or 10)
        rows = {
            "dirichlet": lambda k: rng.dirichlet(np.ones(k)),
            "pure": lambda k: np.eye(k)[rng.integers(k)],
            "sparse": lambda k: np.where(rng.random(k) < 0.5, 0.0, 1e-300 * rng.random(k)),
            "nonfinite": lambda k: rng.choice([np.nan, np.inf, -np.inf, -0.0, 1e17, 0.1], k),
        }
        for kind, row in rows.items():
            for player, sets in (("D", game.actions_d), ("A", game.actions_a)):
                pol = Policy(player, [row(len(acts)) for acts in sets])
                path = tmp_path / f"{kind}_{player}.json"
                save_policy(game, pol, str(path))
                want = json.dumps(policy_to_json(game, pol), indent=1) + "\n"
                assert path.read_bytes() == want.encode()

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
