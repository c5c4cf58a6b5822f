"""Game construction tests: state space, action cases, kernel, payoffs.

The numeric expectations were computed by hand from the transition and
payoff rules on small fixtures and frozen here.
"""

import dataclasses
import hashlib
import itertools
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
    UnichainViolationError,
    _heights,
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
        n = fork_game.n_states
        for s2, di, ai in ((s, 0, 99), (s, 99, 0), (s, -1, 0), (s, 0, -1), (-1, 0, 0), (n, 0, 0)):
            with pytest.raises(InvalidActionError):
                fork_game.outcomes(s2, di, ai)

    @pytest.mark.parametrize("which", ["fork", "chain", "relaxed"])
    def test_outcomes_match_the_rule(self, which, fork_game, chain_game):
        if which == "relaxed":
            # strict_table off, a perfect inspection (fn 0.0) and a cost override
            ifg = make_ifg(5, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)], [0], [[4]])
            params = dataclasses.replace(
                RewardParams.defaults(1), strict_table=False, cost_overrides={(2, 1): -2.5}
            )
            g = build_game(ifg, params, FnRates(0.3, {(2, 1): 0.0, (3, 1): 0.6}))
        else:
            g = fork_game if which == "fork" else chain_game
        for s in range(g.n_states):
            for di, d in enumerate(g.actions_d[s]):
                for ai, a in enumerate(g.actions_a[s]):
                    want = [(s2, p, *g.reward(s, d, a, s2)) for s2, p in g.transition_dist(s, d, a)]
                    assert list(g.outcomes(s, di, ai)) == want


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

    @pytest.mark.parametrize("excess", [0.0, -1e-9, 1e-5, 1.00009e-5, 1.0002e-5, -2e-5, np.nan, np.inf])
    def test_row_sum_check_gives_allcloses_verdict(self, excess):
        P = np.array([[0.5, 0.5 + excess], [0.0, 1.0]])
        if np.allclose(P.sum(axis=1), 1.0, atol=1e-9):
            assert classify_chain(P) == ([{1}], {0})
        else:
            with pytest.raises(ValueError, match="sum to one"):
                classify_chain(P)

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


class TestRestartHeights:
    def test_heights_by_hand(self, fork_game):
        # root -> 0 -> 1 -> {2, 3} -> 4, the target, which restarts
        g = fork_game
        want = {g.state_index(i, 1): h for i, h in enumerate((3, 2, 1, 1, 0))}
        want[ROOT] = 4
        assert {int(s): int(g.height[s]) for s in np.flatnonzero(g.reachable)} == want
        assert (g.height[~g.reachable] == -1).all()

    def test_every_outcome_but_a_restart_descends(self, fork_game, chain_game):
        for g in (fork_game, chain_game):
            for s in np.flatnonzero(g.reachable):
                for di in range(len(g.actions_d[s])):
                    for ai in range(len(g.actions_a[s])):
                        for s2, _, _, _ in g.outcomes(s, di, ai):
                            assert s2 == ROOT or g.height[s2] < g.height[s]

    def test_cycle_raises(self):
        # 0 -> 1 -> 2 -> 1 can loop without passing through the root
        at, nxt = np.array([0, 1, 2]), np.array([1, 2, 1])
        with pytest.raises(UnichainViolationError, match="cycle"):
            _heights(3, at, nxt)


class TestKernelGolden:
    # sha256 of repr of every joint action's outcomes indexed [s][di][ai],
    # recorded while build_game still applied the rule once per joint
    # action, and of each Cases field (dtype, shape and bytes), recorded
    # before marginalize read the case table.  "learn" is the criterion-5
    # fixture; the sizes are generate_synthetic(n, 3, 2, (1, 1, 1), 0.1, 1)
    # games.
    DIGESTS = {
        "learn": {
            "first": "443e6f4ff0d8cb10bcfeaeffc9e007e75d63620a041f559279604c8fe18dcabd",
            "out": "add5ae108bd6645dbaa68ab22e0b2a57a3b433f218b315c358a9e3a4a7b8a6c9",
            "nxt": "065575b2ec852093b42fe9bfbf7ea2099d276ffb6a8d88cacf688d8725eee2fb",
            "p": "bf22e75656df2a3775fcbd0aa7df32671d1c9b12a209f571be3ddc6a4812e852",
            "r": "f6cd07b1df6bcb34cdb3dbd3082c52886152799faa93e1348926d41402447ef4",
            "outcome_table": "a4e5c3b89aa4a5b001471f0f5fb0aa3c5cbf740bae71fcd41684c231a0c6eb74",
        },
        160: {
            "first": "5d6cc4fa8df1a116aa6f7002c9b3e797b4e7a3ca94b57dde05df9b07352b4165",
            "out": "1e4b9664037dca995b13a593bb48552248664e6a5aa7d56acb7120bc80fdb7be",
            "nxt": "c20e8184e7a9d40afc38e87015803bee6bd1669c2bb8e172ec80466fcc780693",
            "p": "9dedcfb973f41d4c97943d2945d8a4469db726e8b5a145eb5bb5da6793ef1531",
            "r": "7d115845405ba0fee664f62fb205359f7b1be9fc77d8ee96e090bc52f6a91739",
            "outcome_table": "04e4f2923b81b3951a1a5151663d7698279cf76ddc8a50601c009b47e2c08e20",
        },
        320: {
            "first": "28c6fe13747a93a339478a76093acaa07018cf7605ffe0c7e371cad68bddfd04",
            "out": "c71426201bcf04f23629ab837498c9ddee01ba927a9a138d6a7cda7d9f1821b6",
            "nxt": "97b8f12d51a9c7d1e21bebe80407507053b9b2971c03c12819fa4379bc4af50f",
            "p": "5c706999041bc9aef79f4bb3b3f07f29bc226a3505d686c2c37713d8436f2262",
            "r": "b50a3d375391c5595d3e08c7a74e04280e611cd7905ddaf955fc4f6de3343871",
            "outcome_table": "8c98a89f68128fbc023ea10f1d822ed04c49b0771f44ecf688f018dce66c04d7",
        },
    }

    @staticmethod
    def build(which):
        if which == "learn":
            kinds = ["process", "file", "socket", "other"]
            ifg = make_ifg(
                10,
                [(0, 2), (1, 3), (2, 4), (3, 5), (4, 6), (5, 6), (6, 7), (7, 8), (8, 9)],
                [0, 1],
                [[6], [8], [9]],
                kinds=[kinds[i % 4] for i in range(10)],
            )
        else:
            ifg = generate_synthetic(which, 3, 2, (1, 1, 1), 0.1, 1)
        return build_game(ifg, RewardParams.defaults(3), FnRates(0.2))

    @pytest.mark.parametrize("which", ["learn", 160, 320])
    def test_kernel_and_outcome_table_digests(self, which):
        g = self.build(which)
        got = {
            f: hashlib.sha256(f"{a.dtype.str}{a.shape}".encode() + a.tobytes()).hexdigest()
            for f, a in g.cases._asdict().items()
        }
        table = [[[g.outcomes(s, di, ai) for ai in range(len(acts_a))] for di in range(len(acts_d))]
                 for s, (acts_d, acts_a) in enumerate(zip(g.actions_d, g.actions_a))]
        got["outcome_table"] = hashlib.sha256(repr(table).encode()).hexdigest()
        assert got == self.DIGESTS[which]

    # sha256 of every frame array (dtype, shape and bytes; a Levels' steps
    # fold into one digest) and of Game.height, recorded while build_game
    # still applied the rule once per (state, intruder action, case) in Python
    FRAME_DIGESTS = {
        "learn": {
            "height": "f47ba5576b75648974421783acdeefa2f70aaad37be5ceaa311f185bf6d84402",
            "D.first": "954a6afdd7b5897f2d27c078cd6a67c36bd4a8088ad0e33344d0fc24b5726560",
            "D.state": "924bc4739d1cdf4616b266408c52c64f6e63de9dc7aec7e24c3516fb42d262b5",
            "D.share": "87da8607230e5f76c9ab491cd77fb5bb74d8f0cb344a55bb22a774b6ed751153",
            "D.r": "6bc1e4d9ee42b25efb4ca33506c5baad44e2ee5ce7761cd56f21de0f4bbe40c6",
            "D.row": "de22b58e14db7f0b26574344b4ceb2675ca31b89efe9a4e70df920790c42b276",
            "D.at": "1b1c4cd7e1fa60fc0117e4ee708bc068b6d3f56a5a422383d5a8d9ce8667c3a4",
            "D.nxt": "a9362c567764c383ef3199282d2e46981228c60b6959fa24531f42304b241c15",
            "D.prob": "63a1f93234efb975eb393665fe8ab1950a237bb65787f09a07e0caba7096b34e",
            "D.levels.order": "3cdb5c0430adc4f29de49e191c3c533ef21128bdc6aad58bd2cee1ef321a5796",
            "D.levels.row": "e251d8041fa08f2e0aaf7ece41edf28d329f6c6f9efb8f226caf66a8e7ed99a7",
            "D.levels.nxt": "e39f2b0b7ecebfd4fb404ca502127d5bb5af7c02e1553fa3763107ab8a6048d3",
            "D.levels.steps": "f4a7c41ae9ff1b603273a646c1ec5b679075d93ef53771c79b8ca89ed982a953",
            "D.u": "dda7bc48144995d5b6e73296f3945f82981d343a1fa9ce20cd80800c1d1e7851",
            "D.v": "6ef8a4f7452767069e8b4b853e76f5997a8d2c2eab4caded4a7c168261a004a5",
            "A.first": "73cfd28113b28855ac12dba5fadc9922fa0e17161afc156615738056413c654d",
            "A.state": "b9b2dd8ee109875e1617fd0673145f025cad64288f150a82dea7727b11ff92d2",
            "A.share": "a234d0abb7474f5fd33e0fe485d585846826adf4e688ed2eb25dc8bc8f8d7f10",
            "A.r": "f6cd07b1df6bcb34cdb3dbd3082c52886152799faa93e1348926d41402447ef4",
            "A.row": "bf59665875b03d1b103da23994eb6f1b2a79d64fc387331d1df95e7851fc2ecc",
            "A.at": "2068e686d188fff756f5750fe44e9af32ec2974590984042047231e39c9db151",
            "A.nxt": "065575b2ec852093b42fe9bfbf7ea2099d276ffb6a8d88cacf688d8725eee2fb",
            "A.prob": "bf22e75656df2a3775fcbd0aa7df32671d1c9b12a209f571be3ddc6a4812e852",
            "A.levels.order": "cec2d2fc5ad453c413deaa3eac55b2c76d21156222d957397f6104b6b80e9915",
            "A.levels.row": "309170a8868ec1bdb3a04f52f1044c0545d3f3ab8aa7a603237a92023a9863ab",
            "A.levels.nxt": "1872e363e2a42b06b00e1c3954cbf595bbe78b0581fa0771b53f01158058bf2c",
            "A.levels.steps": "eaa4c675620b848e27d974ce6cf27e7acbd26ea903ab5ab3560b58894f59669b",
            "A.u": "c0619890f85db9172758e784d7ee2e910ac8f1d2610c1169879763e634705f86",
            "A.v": "86e833cef5d7816104dd10aeac1b20801820d080e8b04276be16165b6525476d",
        },
        160: {
            "height": "9a0a243c38a468ff2c650b2badab72c2c58f27be517ba56f91c01073d5a9655e",
            "D.first": "6652ba76055a01c0da258aaf125a286f56aa9cae8425d1599e6b962bca765f68",
            "D.state": "8fb9e2e0c6fe9b462f2c22d49712bcd3875da39452db349f2d1fa96b53197cad",
            "D.share": "e587c905534ea0c433b9c59b76e661e8eda7522d6de344880314b47c8bcc3cda",
            "D.r": "63c12ae6eac0beb75e1c07d7d54380c43b5d24abb7358043c52bd97eb878d3ae",
            "D.row": "419cdb1a44523f7b45b1f036edfcce6415d3b1dba0bd084d5a58fafecf3f0be1",
            "D.at": "2deb8af22d41604f04d9a29a0a6c0ea5c1a1facb5285a3e196ca10ee4f6e237a",
            "D.nxt": "7b7019b68eee3159db4485575d958e0fb269ee90e1d6f5f46efcc2aca9eac9a4",
            "D.prob": "15a6b33ef884cf824ae1cdd571ead12c5068560ebc9ced2e68e5fbb8e5c68eef",
            "D.levels.order": "7205fb1daa74161ddab73230f2d98e09b4a43d431c57e3c90e35bfc5465ceaf8",
            "D.levels.row": "09d5f54f7b72b257bec55778f960894201992a59206af2f3df1fc765dbb05081",
            "D.levels.nxt": "d0f0f55d7b82f34ddbb7f625eaa8829d6ed8105564fa301612c4f4cc88a29f5e",
            "D.levels.steps": "92c40fccd7b12dc89d7002e7b1a8c1edb6abd3f1fb88b9515da26a64b8934b0d",
            "D.u": "07fbcb6756ba88a175275ada1ea6071b7cf5bad81ff9f924489175c728e54ce5",
            "D.v": "d39cb5b6d63a501b41f11d4d9236b2aac8e5c8f2e016df339bfe573fa28221c4",
            "A.first": "4cca9491047578dd6455dd635d9a9046e9bb72d66f55d673fc2138db2a38ba85",
            "A.state": "3f5f69084ad17d96da9ea05dd8502c4adea5662f4aabc1fd7d4eb6f73d2e0bd9",
            "A.share": "451292343ac2afe0965c0bae00771973f20fddc558a5d6091975086523cef41c",
            "A.r": "7d115845405ba0fee664f62fb205359f7b1be9fc77d8ee96e090bc52f6a91739",
            "A.row": "16e93c97e182f40b956cbe38a525ed271e0a78192848f286aa95812d68a37770",
            "A.at": "77f9b84eac1facd5eb3b3a7d6870ded14b7e6b530b62554bc104bf69747c8217",
            "A.nxt": "c20e8184e7a9d40afc38e87015803bee6bd1669c2bb8e172ec80466fcc780693",
            "A.prob": "9dedcfb973f41d4c97943d2945d8a4469db726e8b5a145eb5bb5da6793ef1531",
            "A.levels.order": "20c8f5132c2421c6633a388c77cdcc8689dc7a10ce48d01fc8c9b0d94520a3c0",
            "A.levels.row": "81438ee8fdef6f16a739565092acf3a4c42d4d2ed4bd8022f9288bf41adb2b8f",
            "A.levels.nxt": "b0c00c0faac5d2d72c489cbfe33dcd1067262bdb76c4d69e9e42743178fefb15",
            "A.levels.steps": "cf79afccbbaa4e657bb913886825c14e54dffa0b9e2f6c2ef81ba2c37fe6f3d3",
            "A.u": "96d46d3fbf92587671b57514f9a776c8b68ab8926131e6cde80e25ec80da956d",
            "A.v": "a6f60f365b8b4ef4e64abbe9178e450c43eae2d5a7bdfcae941b0cc512c90d73",
        },
    }

    @staticmethod
    def digest(x):
        h = hashlib.sha256()

        def feed(y):
            if isinstance(y, np.ndarray):
                h.update(f"{y.dtype.str}{y.shape}".encode() + y.tobytes())
            elif isinstance(y, (tuple, list)):
                for z in y:
                    feed(z)
            else:
                h.update(repr(y).encode())

        feed((x,))
        return h.hexdigest()

    @pytest.mark.parametrize("which", ["learn", 160])
    def test_frames_and_height_digests(self, which):
        g = self.build(which)
        got = {"height": self.digest(g.height)}
        for player, (m, u, v) in g.frames.items():
            for f, a in m._asdict().items():
                if f == "levels":
                    got.update({f"{player}.levels.{lf}": self.digest(la)
                                for lf, la in a._asdict().items()})
                else:
                    got[f"{player}.{f}"] = self.digest(a)
            got[f"{player}.u"], got[f"{player}.v"] = self.digest(u), self.digest(v)
        assert got == self.FRAME_DIGESTS[which]

    @pytest.mark.parametrize("which", ["learn", 160])
    def test_actions_are_named_tuples(self, which):
        g = self.build(which)
        for cls, sets in ((DefAction, g.actions_d), (AtkAction, g.actions_a)):
            assert all(type(a) is cls for acts in sets for a in acts)
            assert all(type(acts) is tuple for acts in sets)

    def test_target_d_names_each_defender_rows_target(self):
        g = self.build(160)
        assert g.target_d.tolist() == [a.target for acts in g.actions_d for a in acts]


def dict_case_outcomes(g):
    """The table as sampling reads it, deduplicated through one dict the way
    the first Python build did it: each equal tuple is stored once, as the
    first of its group."""
    c, shared = g.cases, {}
    entries = zip(c.nxt.tolist(), c.p.tolist(), *c.r.tolist())
    entries = [shared.setdefault(e, e) for e in entries]
    outs = (tuple(entries[i:j]) for i, j in itertools.pairwise(c.out.tolist()))
    outs = [shared.setdefault(o, o) for o in outs]
    by_action = [tuple(outs[i:j]) for i, j in itertools.pairwise(c.first.tolist())]
    first = itertools.accumulate(map(len, g.actions_a), initial=0)
    return [by_action[i:j] for i, j in itertools.pairwise(first)]


def sharing(table):
    """Per outcome and per case, the position of the first one that is the
    same object: equal lists mean equal sharing."""
    seen_e, seen_o, es, os = {}, {}, [], []
    for row in table:
        for outs in row:
            for o in outs:
                os.append(seen_o.setdefault(id(o), len(os)))
                es += [seen_e.setdefault(id(e), len(es)) for e in o]
    return es, os


class TestCaseOutcomes:
    @pytest.mark.parametrize("which", ["learn", 160, "relaxed", "negzero"])
    def test_matches_the_dict_dedupe(self, which):
        if which == "relaxed":
            ifg = make_ifg(5, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)], [0], [[4]])
            params = dataclasses.replace(RewardParams.defaults(1), strict_table=False,
                                         cost_overrides={(2, 1): -2.5, (3, 1): -0.0})
            g = build_game(ifg, params, FnRates(0.3, {(2, 1): 0.0, (3, 1): 0.6}))
        else:
            g = TestKernelGolden.build("learn" if which == "negzero" else which)
        if which == "negzero":
            # -0.0 == 0.0: the first of each group must be the one kept
            r = g.cases.r.copy()
            zero = np.flatnonzero(r.ravel() == 0.0)
            r.ravel()[zero[1::2]] = -0.0
            g.cases = g.cases._replace(r=r)
        got, want = g.case_outcomes, dict_case_outcomes(g)
        # repr tells -0.0 from 0.0 and compares floats bit for bit
        assert repr(got) == repr(want)
        assert sharing(got) == sharing(want)
