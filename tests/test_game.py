"""Game construction tests: state space, action cases, kernel, payoffs.

The numeric expectations were computed by hand from the transition and
payoff rules on small fixtures and frozen here.
"""

import dataclasses
import math

import numpy as np
import pytest

from diftgame.game import (
    NO_INSPECT,
    QUIT,
    ROOT,
    AtkAction,
    DefAction,
    FnRates,
    GameBuildError,
    InvalidActionError,
    RewardParams,
    build_game,
    classify_chain,
)
from diftgame.ifg import Ifg, IfgNode, generate_synthetic
from diftgame.policies import PolicyPair, uniform_policy


def make_ifg(n, edges, entries, destinations, kinds=None):
    nodes = [
        IfgNode(i, kinds[i] if kinds else "process", f"n{i}") for i in range(n)
    ]
    g = Ifg(nodes, set(edges), set(entries), [set(d) for d in destinations])
    g.validate()
    return g


@pytest.fixture
def chain_game():
    """entry 0 -> 1 -> 2 (stage-1 target) -> 3 (stage-2 target)."""
    ifg = make_ifg(4, [(0, 1), (1, 2), (2, 3)], [0], [[2], [3]])
    return build_game(ifg, RewardParams.defaults(2))


@pytest.fixture
def fork_game():
    """entry 0 -> 1, fork 1 -> {2, 3}, both -> 4 (single-stage target)."""
    ifg = make_ifg(5, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)], [0], [[4]])
    return build_game(ifg, RewardParams.defaults(1), FnRates(default=0.3))


class TestStateSpace:
    def test_paper_sized_count(self):
        ifg = generate_synthetic(18, 3, 2, (1, 1, 1), 0.12, seed=7)
        game = build_game(ifg, RewardParams.defaults(3))
        assert game.n_states == 18 * 3 + 1 == 55

    def test_dense_indexing(self, chain_game):
        g = chain_game
        assert g.state_index(0, 1) == 1
        assert g.state_index(3, 1) == 4
        assert g.state_index(0, 2) == 5
        assert g.state_index(2, 2) == 7
        assert g.state_label(0) == "s0"
        assert g.state_label(7) == "n2@2"

    def test_out_of_range_state_rejected(self, chain_game):
        with pytest.raises(GameBuildError):
            chain_game.state_index(4, 1)
        with pytest.raises(GameBuildError):
            chain_game.state_index(0, 3)


class TestActionCases:
    def test_root_case(self):
        ifg = generate_synthetic(10, 3, 2, (1, 1, 1), 0.25, seed=0)
        game = build_game(ifg, RewardParams.defaults(3))
        assert game.actions_d[ROOT] == (NO_INSPECT,)
        assert len(game.actions_a[ROOT]) == 2
        targets = {a.target for a in game.actions_a[ROOT]}
        assert targets == {game.state_index(e, 1) for e in ifg.entries}

    def test_nondestination_case(self, chain_game):
        s = chain_game.state_index(1, 1)
        t = chain_game.state_index(2, 1)
        assert chain_game.actions_d[s] == (NO_INSPECT, DefAction("inspect", t))
        assert chain_game.actions_a[s] == (AtkAction("move", t), QUIT)

    def test_intermediate_destination_forced_advance(self, chain_game):
        s = chain_game.state_index(2, 1)
        assert chain_game.actions_d[s] == (NO_INSPECT,)
        assert chain_game.actions_a[s] == (
            AtkAction("move", chain_game.state_index(2, 2)),
        )

    def test_final_destination_forced_restart(self, chain_game):
        s = chain_game.state_index(3, 2)
        assert chain_game.actions_a[s] == (AtkAction("move", ROOT),)

    def test_quit_absent_from_forced_states(self, chain_game):
        for s in range(chain_game.n_states):
            acts = chain_game.actions_a[s]
            if s == ROOT or chain_game.is_dest[s]:
                assert QUIT not in acts


class TestKernel:
    def test_uninspected_move_is_certain(self, fork_game):
        s = fork_game.state_index(1, 1)
        t = fork_game.state_index(2, 1)
        dist = fork_game.transition_dist(s, NO_INSPECT, AtkAction("move", t))
        assert dist == [(t, 1.0)]

    def test_matching_inspection_splits_on_miss_rate(self, fork_game):
        s = fork_game.state_index(1, 1)
        t = fork_game.state_index(2, 1)
        dist = fork_game.transition_dist(
            s, DefAction("inspect", t), AtkAction("move", t)
        )
        assert dist == [(t, 0.3), (ROOT, 1.0 - 0.3)]

    def test_mismatched_inspection_never_detects(self, fork_game):
        s = fork_game.state_index(1, 1)
        t2 = fork_game.state_index(2, 1)
        t3 = fork_game.state_index(3, 1)
        dist = fork_game.transition_dist(
            s, DefAction("inspect", t2), AtkAction("move", t3)
        )
        assert dist == [(t3, 1.0)]

    def test_quit_returns_to_root(self, fork_game):
        s = fork_game.state_index(1, 1)
        dist = fork_game.transition_dist(s, NO_INSPECT, QUIT)
        assert dist == [(ROOT, 1.0)]

    def test_perfect_inspection_drops_zero_branch(self):
        ifg = make_ifg(3, [(0, 1), (1, 2)], [0], [[2]])
        game = build_game(
            ifg, RewardParams.defaults(1), FnRates(default=0.2, overrides={(2, 1): 0.0})
        )
        s = game.state_index(1, 1)
        t = game.state_index(2, 1)
        dist = game.transition_dist(s, DefAction("inspect", t), AtkAction("move", t))
        assert dist == [(ROOT, 1.0)]

    def test_distributions_sum_to_one_everywhere(self, fork_game):
        g = fork_game
        for s in range(g.n_states):
            for d in g.actions_d[s]:
                for a in g.actions_a[s]:
                    dist = g.transition_dist(s, d, a)
                    assert all(p > 0 for _, p in dist)
                    assert abs(sum(p for _, p in dist) - 1.0) < 1e-12

    def test_invalid_actions_rejected(self, fork_game):
        s = fork_game.state_index(1, 1)
        with pytest.raises(InvalidActionError):
            fork_game.transition_dist(s, NO_INSPECT, AtkAction("move", ROOT))
        with pytest.raises(InvalidActionError):
            fork_game.transition_dist(ROOT, NO_INSPECT, QUIT)


class TestRewards:
    def test_detection_pays_catch_bonus_minus_inspection_cost(self, chain_game):
        s = chain_game.state_index(1, 1)
        t = chain_game.state_index(2, 1)
        r_d, r_a = chain_game.reward(
            s, DefAction("inspect", t), AtkAction("move", t), ROOT
        )
        assert (r_d, r_a) == (40.0 + (-1.0), -20.0)

    def test_quit_without_inspection(self, chain_game):
        s = chain_game.state_index(1, 1)
        r_d, r_a = chain_game.reward(s, NO_INSPECT, QUIT, ROOT)
        assert (r_d, r_a) == (30.0, -30.0)

    def test_quit_while_inspecting_still_charges_cost(self, chain_game):
        s = chain_game.state_index(1, 1)
        t = chain_game.state_index(2, 1)
        r_d, r_a = chain_game.reward(s, DefAction("inspect", t), QUIT, ROOT)
        assert (r_d, r_a) == (30.0 - 1.0, -30.0)

    def test_mismatched_inspection_costs_only(self, fork_game):
        s = fork_game.state_index(1, 1)
        t2 = fork_game.state_index(2, 1)
        t3 = fork_game.state_index(3, 1)
        r_d, r_a = fork_game.reward(
            s, DefAction("inspect", t2), AtkAction("move", t3), t3
        )
        assert (r_d, r_a) == (-1.0, 0.0)

    def test_idle_defender_pays_for_target_hit(self, chain_game):
        s = chain_game.state_index(1, 1)
        t = chain_game.state_index(2, 1)
        r_d, r_a = chain_game.reward(s, NO_INSPECT, AtkAction("move", t), t)
        assert (r_d, r_a) == (-30.0, 20.0)

    def test_miss_on_correct_inspection_pays_nothing(self, chain_game):
        # flow reaches the target despite a matching inspection: the listed
        # order keeps the idle-defender penalty conditional on no inspection
        s = chain_game.state_index(1, 1)
        t = chain_game.state_index(2, 1)
        r_d, r_a = chain_game.reward(
            s, DefAction("inspect", t), AtkAction("move", t), t
        )
        assert (r_d, r_a) == (0.0, 20.0)

    def test_relaxed_table_charges_beta_despite_inspection(self):
        ifg = make_ifg(4, [(0, 1), (1, 2), (2, 3)], [0], [[2], [3]])
        params = RewardParams.defaults(2)
        relaxed = RewardParams(
            params.alpha_d,
            params.beta_d,
            params.sigma_d,
            params.alpha_a,
            params.beta_a,
            params.sigma_a,
            params.cost_d_per_stage,
            strict_table=False,
        )
        game = build_game(ifg, relaxed)
        s = game.state_index(1, 1)
        t = game.state_index(2, 1)
        r_d, r_a = game.reward(s, DefAction("inspect", t), AtkAction("move", t), t)
        assert (r_d, r_a) == (-30.0, 20.0)

    def test_stage_two_scales(self, chain_game):
        s = chain_game.state_index(2, 2)
        t = chain_game.state_index(3, 2)
        r_d, r_a = chain_game.reward(
            s, DefAction("inspect", t), AtkAction("move", t), ROOT
        )
        # stage-2 scales; node 2 is a stage-1 target, so no inspection cost
        assert (r_d, r_a) == (80.0, -40.0)

    def test_root_and_forced_moves_pay_zero(self, chain_game):
        r = chain_game.reward(
            ROOT, NO_INSPECT, chain_game.actions_a[ROOT][0], chain_game.state_index(0, 1)
        )
        assert r == (0.0, 0.0)
        s = chain_game.state_index(2, 1)
        r = chain_game.reward(
            s, NO_INSPECT, chain_game.actions_a[s][0], chain_game.state_index(2, 2)
        )
        assert r == (0.0, 0.0)

    def test_nonzero_sum_witness(self, chain_game):
        s = chain_game.state_index(1, 1)
        t = chain_game.state_index(2, 1)
        r_d, r_a = chain_game.reward(
            s, DefAction("inspect", t), AtkAction("move", t), ROOT
        )
        assert r_d != -r_a

    def test_pure_and_repeatable(self, fork_game):
        s = fork_game.state_index(1, 1)
        t = fork_game.state_index(2, 1)
        args = (s, DefAction("inspect", t), AtkAction("move", t), ROOT)
        assert fork_game.reward(*args) == fork_game.reward(*args)

    def test_impossible_landing_state_rejected(self, chain_game):
        s = chain_game.state_index(1, 1)
        t = chain_game.state_index(2, 1)
        with pytest.raises(InvalidActionError):
            chain_game.reward(s, NO_INSPECT, AtkAction("move", t), ROOT)


class TestParams:
    def test_sign_violations_rejected(self):
        good = RewardParams.defaults(1)
        with pytest.raises(GameBuildError):
            RewardParams(
                (-1.0,), good.beta_d, good.sigma_d,
                good.alpha_a, good.beta_a, good.sigma_a, (0.0,),
            )
        with pytest.raises(GameBuildError):
            RewardParams(
                good.alpha_d, (5.0,), good.sigma_d,
                good.alpha_a, good.beta_a, good.sigma_a, (0.0,),
            )

    def test_non_finite_values_rejected(self):
        good = RewardParams.defaults(1)
        for field, bad in (
            ("alpha_d", (math.nan,)),
            ("alpha_d", (math.inf,)),
            ("beta_a", (math.inf,)),
            ("sigma_a", (-math.inf,)),
            ("cost_d_per_stage", (-math.inf,)),
            ("cost_overrides", {(1, 1): math.nan}),
        ):
            with pytest.raises(GameBuildError):
                dataclasses.replace(good, **{field: bad})
        for factor in (math.nan, math.inf):
            with pytest.raises(GameBuildError):
                good.scaled(factor)

    def test_length_mismatch_rejected(self):
        good = RewardParams.defaults(2)
        with pytest.raises(GameBuildError):
            RewardParams(
                good.alpha_d, good.beta_d, good.sigma_d,
                good.alpha_a, good.beta_a, (-30.0,), good.cost_d_per_stage,
            )

    def test_default_escalation(self):
        p = RewardParams.defaults(3)
        assert p.alpha_d == (40.0, 80.0, 120.0)
        assert p.beta_d == (-30.0, -60.0, -90.0)
        assert p.sigma_d == (30.0, 50.0, 70.0)
        assert p.alpha_a == (-20.0, -40.0, -60.0)
        assert p.beta_a == (20.0, 40.0, 60.0)
        assert p.sigma_a == (-30.0, -50.0, -70.0)
        assert p.cost_d_per_stage == (-1.0, -2.0, -3.0)

    def test_scaled_copy(self):
        p = RewardParams.defaults(2).scaled(0.5)
        assert p.alpha_d == (20.0, 40.0)
        assert p.sigma_a == (-15.0, -25.0)
        with pytest.raises(GameBuildError):
            RewardParams.defaults(2).scaled(-1.0)

    def test_fn_range_enforced(self):
        with pytest.raises(GameBuildError):
            FnRates(default=1.0)
        with pytest.raises(GameBuildError):
            FnRates(default=0.2, overrides={(0, 1): -0.1})

    def test_stage_count_must_match_graph(self):
        ifg = make_ifg(3, [(0, 1), (1, 2)], [0], [[2]])
        with pytest.raises(GameBuildError):
            build_game(ifg, RewardParams.defaults(2))

    def test_cost_override_validation(self):
        ifg = make_ifg(3, [(0, 1), (1, 2)], [0], [[2]])
        params = RewardParams.defaults(1)
        bad_node = RewardParams(
            params.alpha_d, params.beta_d, params.sigma_d,
            params.alpha_a, params.beta_a, params.sigma_a,
            params.cost_d_per_stage, cost_overrides={(7, 1): -2.0},
        )
        with pytest.raises(GameBuildError):
            build_game(ifg, bad_node)
        cost_free = RewardParams(
            params.alpha_d, params.beta_d, params.sigma_d,
            params.alpha_a, params.beta_a, params.sigma_a,
            params.cost_d_per_stage, cost_overrides={(0, 1): -2.0},
        )
        with pytest.raises(GameBuildError):
            build_game(ifg, cost_free)

    def test_fn_override_outside_graph_rejected(self):
        ifg = make_ifg(3, [(0, 1), (1, 2)], [0], [[2]])
        with pytest.raises(GameBuildError):
            build_game(
                ifg, RewardParams.defaults(1), FnRates(overrides={(9, 1): 0.5})
            )

    def test_cost_free_states(self, chain_game):
        g = chain_game
        assert g.cost_d[ROOT] == 0.0
        assert g.cost_d[g.state_index(0, 1)] == 0.0  # entry
        assert g.cost_d[g.state_index(2, 1)] == 0.0  # stage-1 target
        assert g.cost_d[g.state_index(2, 2)] == 0.0  # target node at stage 2
        assert g.cost_d[g.state_index(1, 1)] == -1.0
        assert g.cost_d[g.state_index(1, 2)] == -2.0


class TestInducedChain:
    def test_root_row_is_entry_distribution(self):
        ifg = generate_synthetic(10, 3, 2, (1, 1, 1), 0.25, seed=0)
        game = build_game(ifg, RewardParams.defaults(3))
        pair = PolicyPair(uniform_policy(game, "D"), uniform_policy(game, "A"))
        P = game.induced_chain(pair)
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)
        for a, w in zip(game.actions_a[ROOT], pair.a.table[ROOT]):
            assert P[ROOT, a.target] == pytest.approx(w)

    def test_uniform_mixture_on_fork(self, fork_game):
        g = fork_game
        pair = PolicyPair(uniform_policy(g, "D"), uniform_policy(g, "A"))
        s = g.state_index(1, 1)
        t2, t3 = g.state_index(2, 1), g.state_index(3, 1)
        P = g.induced_chain(pair)
        # per move target: prob 1/3, detected in 1 of 3 defender picks at 0.7
        assert P[s, t2] == pytest.approx((1 / 3) * (2 / 3 + 1 / 3 * 0.3))
        assert P[s, t3] == pytest.approx((1 / 3) * (2 / 3 + 1 / 3 * 0.3))
        quit_p = 1 / 3
        detect_p = 2 * (1 / 3) * (1 / 3) * 0.7
        assert P[s, ROOT] == pytest.approx(quit_p + detect_p)

    def test_expected_rewards_match_hand_sum(self, chain_game):
        g = chain_game
        pair = PolicyPair(uniform_policy(g, "D"), uniform_policy(g, "A"))
        s = g.state_index(1, 1)
        rd, ra = g.expected_rewards(pair)
        # defender:  .25*quit*(30) + .25*quit-inspected*(29)
        #          + .25*idle-move*(-30) + .25*inspected-move*(.8*39 + .2*0)
        want_d = 0.25 * 30 + 0.25 * 29 + 0.25 * (-30) + 0.25 * (0.8 * 39)
        want_a = 0.5 * (-30) + 0.25 * 20 + 0.25 * (0.8 * (-20) + 0.2 * 20)
        assert rd[s] == pytest.approx(want_d)
        assert ra[s] == pytest.approx(want_a)


class TestClassifyChain:
    def test_identity_gives_singletons(self):
        rec, tr = classify_chain(np.eye(3))
        assert rec == [{0}, {1}, {2}]
        assert tr == set()

    def test_period_two_single_class(self):
        rec, tr = classify_chain(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert rec == [{0, 1}]
        assert tr == set()

    def test_two_state_mixing(self):
        rec, tr = classify_chain(np.array([[0.9, 0.1], [0.5, 0.5]]))
        assert rec == [{0, 1}]
        assert tr == set()

    def test_absorbing_state_and_transient(self):
        rec, tr = classify_chain(np.array([[1.0, 0.0], [0.5, 0.5]]))
        assert rec == [{0}]
        assert tr == {1}

    def test_non_stochastic_rejected(self):
        with pytest.raises(ValueError):
            classify_chain(np.array([[0.5, 0.0], [0.0, 1.0]]))

    def test_game_chains_have_single_class_with_root(self):
        rng = np.random.default_rng(2)
        ifg = generate_synthetic(10, 3, 2, (1, 1, 1), 0.25, seed=1)
        game = build_game(ifg, RewardParams.defaults(3))
        R = np.flatnonzero(game.reachable)
        idx = {int(s): k for k, s in enumerate(R)}
        for _ in range(20):
            tabs = []
            for pol, acts in (("D", game.actions_d), ("A", game.actions_a)):
                table = []
                for s in range(game.n_states):
                    v = np.zeros(len(acts[s]))
                    v[rng.integers(len(v))] = 1.0
                    table.append(v)
                tabs.append(table)
            from diftgame.policies import Policy

            pair = PolicyPair(Policy("D", tabs[0]), Policy("A", tabs[1]))
            P = game.induced_chain(pair)[np.ix_(R, R)]
            rec, _ = classify_chain(P)
            assert len(rec) == 1
            assert idx[ROOT] in rec[0]


class TestReachability:
    def test_root_always_reachable(self, chain_game):
        assert chain_game.reachable[ROOT]

    def test_stage_mismatched_states_unreachable(self, chain_game):
        g = chain_game
        assert not g.reachable[g.state_index(0, 2)]
        assert not g.reachable[g.state_index(3, 1)]
        assert g.reachable[g.state_index(2, 2)]

    def test_reachable_closed_under_kernel(self, fork_game):
        g = fork_game
        for s in np.flatnonzero(g.reachable):
            for di in range(len(g.actions_d[s])):
                for ai in range(len(g.actions_a[s])):
                    for s2, _, _, _ in g.outcomes(s, di, ai):
                        assert g.reachable[s2]
