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
        # the root and the 32 of the 18 * 3 (node, stage) pairs a play reaches
        assert game.n_states == 33

    def test_dense_indexing(self, chain_game):
        # the reachable pairs in (stage, node) order: 0, 1, 2 at stage 1, 2, 3 at 2
        g = chain_game
        pairs = ((0, 1), (1, 1), (2, 1), (2, 2), (3, 2))
        assert [g.state_index(i, j) for i, j in pairs] == [1, 2, 3, 4, 5]
        assert g.n_states == 6
        assert g.state_label(0) == "s0"
        assert g.state_label(4) == "n2@2"

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

    def test_cost_free_states(self):
        # entry 0 -> 1 -> 2 (stage-1 target) -> 3 -> 4 (stage-2 target)
        g = build_game(make_ifg(5, [(0, 1), (1, 2), (2, 3), (3, 4)], [0], [[2], [4]]),
                       RewardParams.defaults(2))
        assert g.cost_d[ROOT] == 0.0
        assert g.cost_d[g.state_index(0, 1)] == 0.0  # entry
        assert g.cost_d[g.state_index(2, 1)] == 0.0  # stage-1 target
        assert g.cost_d[g.state_index(2, 2)] == 0.0  # target node at stage 2
        assert g.cost_d[g.state_index(1, 1)] == -1.0
        assert g.cost_d[g.state_index(3, 2)] == -2.0


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
            rec, _ = classify_chain(game.induced_chain(pair))
            assert len(rec) == 1
            assert ROOT in rec[0]


class TestReachability:
    def test_root_always_reachable(self, chain_game):
        assert chain_game.reachable[ROOT]

    def test_dropped_pairs_raise(self, chain_game):
        # no play reaches node 0 at stage 2 or node 3 at stage 1
        g = chain_game
        for node, stage in ((0, 2), (3, 1)):
            with pytest.raises(GameBuildError, match=f"node {node}, stage {stage}"):
                g.state_index(node, stage)
        assert g.state_label(g.state_index(2, 2)) == "n2@2"

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
        assert dict(enumerate(g.height.tolist())) == want

    def test_every_outcome_but_a_restart_descends(self, fork_game, chain_game):
        for g in (fork_game, chain_game):
            for s in range(g.n_states):
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
    # games.  Re-recorded when build_game dropped the states no play reaches:
    # matched by state label, the kept states' outcomes are unchanged.
    DIGESTS = {
        "learn": {
            "first": "c3491054e4de2e827d3bbf39a546d0821ded968c0fc0bc748b445effcf7e4a81",
            "out": "112cf4697e04f3d5b525e492175ed3eba10f898664e915dd96bf6ada60caebb2",
            "nxt": "68a20984e73483a0587a06338c4cc9bb039fdd46d0e89ef074c374ff05f1c957",
            "p": "c9c1c421a6c85709c6d3d35944d3323dbf7b60849661331800e998be0cd254e9",
            "r": "af6f7ce1699cc57765d0561a19258e62f7966d5093fe8fd670e5b1dfd0746a5d",
            "outcome_table": "b9b2f5d7c9e1d4d6e2de97544e695aa791d4f2c7b44bd5d4d0b017390618aa57",
        },
        160: {
            "first": "2dc620fce98e93bda8be4565f3eb882eb2710f98fc50de745eb5430e8015ab3f",
            "out": "2c3bfd12c0edde3b0d81c86f76952ef0ccacf6bc65310a36823001d21187dbb1",
            "nxt": "86eca1e8230973aaa3b8d71f3d8bbaed9a0572b4dedb7ef99520f396a23b102f",
            "p": "7aa13f24a6af7c5fd5537903dab7a199cd3ee47fa0b31db251f6aea34d83daed",
            "r": "bb7874b5e89f40ca717be0f565847a22cfd3a8cb085733cc480a7aa3826ccb96",
            "outcome_table": "8c126d4a90216d9a3446f640a340c2bda00e38d00c7195082cd8901425d16194",
        },
        320: {
            "first": "302e9f559302500a78259dfa1895651d5d0345a753a7eac62892142c1e1bdfd8",
            "out": "0501e93e8db4ac426a44a43c3b88724958e94a6c7130583ba5d0bab9b799649c",
            "nxt": "20e2bd3a8d59428967e60742f7df9216ed82af71a13df21c6a4dbecd075cc8a6",
            "p": "2da29dc63bd58d846f146b4592f1523b839d4b570ce304aa621fc1581b2c7e5c",
            "r": "d0785689e0869033e7094c1829743b40df7fdae7db6c43b81181985b5c68720e",
            "outcome_table": "93a94ee3c29e292a43622f32a1ff51f680f1daa1df3bc795ecec4037b813e58e",
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
    # still applied the rule once per (state, intruder action, case) in Python,
    # and re-recorded when it dropped the states no play reaches
    FRAME_DIGESTS = {
        "learn": {
            "height": "203bc8766d325a0eb9813e259ac5165e1bcb720fd93b12fad37597debcf9f94f",
            "D.first": "2d28dbe695aedf12e28e56f19769def061de892506f3dcd0d60ad97ccced161a",
            "D.state": "872ff12f0df876221044b345deefad6bd09fc62e18154e64a642d1e8467b3019",
            "D.share": "b45cc603713264e77dfcc631796c77348e83564105f394daba0f59dce0a0bfe1",
            "D.r": "e4132c975b899e02a005e64823f40629b4c0b7c2c9ac9083789a13c4e9dc2644",
            "D.row": "dab6512dfc60771cb9c744c0e9b4585e5fb330323a9ed4faa3bcf79444790555",
            "D.at": "2ceb7d5820613837fe90e5a713ff355aa9208656a3ef92f75f83c6763dbf3b63",
            "D.nxt": "afba4b0bd73ef2d97e3c3879b067afee475b62a00a53ee311f17a2a4317fe1d4",
            "D.prob": "51c21e98a706d6913b062673fdb854b84fdee59462c348b7c471739faf8ed769",
            "D.levels.order": "51a0e6cf9ef0719b8cc4bee0f8dbe039c656da953de173a50ce5ef6e3c30d50e",
            "D.levels.row": "96374fb1ccdbe134f74997a11de743fdd5962fe8b86366758e33c1cb9c0cb484",
            "D.levels.nxt": "0728b8f2938100c59e1a8a9370a9e19648cc73f1227bf51ecb7ccca292ee1cee",
            "D.levels.steps": "b692af5f2afa0e9b71218aff7326f86dedfae82922a6cb3f35d22e95e37c063f",
            "D.u": "94ef5ba48d6792af4236ea1e385cca17e2cc56e0cab3020e2894fb3a4c5cb50f",
            "D.v": "0f7671c2a8effc0745fb42940df230dcd9e2d8bf19364938ea3465efda65365a",
            "A.first": "66a23877d03545f80ea9ff2f7e36444e27873cd6260ac78717b67b51bea242d5",
            "A.state": "be15f018fff7cc4a6d98aa19f84f323a1c93a4538166145fb710e8fcc5fbfac7",
            "A.share": "8918babc99d1134806342ed2906b859dcf22b3fc9aa1cae611b9d298d388e576",
            "A.r": "af6f7ce1699cc57765d0561a19258e62f7966d5093fe8fd670e5b1dfd0746a5d",
            "A.row": "1865efdc27730c84e12fca72ada3d49006e9a8d02d684da416ccd11b9a7db9c1",
            "A.at": "59da9cc322eadc8e59844a954e3060e26d3a83e385b066a288a7100b16f981ef",
            "A.nxt": "68a20984e73483a0587a06338c4cc9bb039fdd46d0e89ef074c374ff05f1c957",
            "A.prob": "c9c1c421a6c85709c6d3d35944d3323dbf7b60849661331800e998be0cd254e9",
            "A.levels.order": "65c091de194e64fc27dbe66e17a681cbb025fc0ededb271dfc2c6b72a6af6792",
            "A.levels.row": "3fc4bd33e8c5729b35c6bf42a155f3817728e90bd7472c5ea1d82a572e17fa17",
            "A.levels.nxt": "3b1eca0a98e16e9b3d879f279269b43d54077b750ef89602900993d15572de6d",
            "A.levels.steps": "e12da3d9272b8313bccbe531ff04293566c4fb4853f753f59d179ec8a53d1a54",
            "A.u": "cbea6a636a106729fb2a8bfac066b10202966d3e6d9300e826574b11aab6d087",
            "A.v": "d5ca91d5e455f0fd3314eac512e5808e29a95ec1c721d214752eff341ec58f81",
        },
        160: {
            "height": "72923a4b20ebfb0b69374525e48fd2c06fc3e6d1e403552ec93fee0d9e756c2d",
            "D.first": "4ac59dd72b16ca23a1759b038d10fe789b121fb6c3c3ff9548b79994a9f37f3c",
            "D.state": "0c2e380207ee58ab0033f00187fb301cd256842b6edd95acf1a2bb5fe09a8698",
            "D.share": "eb72e7684b1798abbf23b13df843034489f5fb2196a09a76a2ff1e6565621aaa",
            "D.r": "620157c183c56284fd646a78c8c3495b7ffdf6e70da2419a6f0480ccca3cbaef",
            "D.row": "0398d5dbc5f16cb1bb82ae483b6273f4e912580e65d5c44ba45f9fe7d588e520",
            "D.at": "617de2d2f486526d51825a92adeba04d55af6ff9158ba49fb6f6c93f665d52f8",
            "D.nxt": "3ff438cf8ee3aed9ebee36fbf6230de5b8714c33ab9dff5006edcfe2f5708242",
            "D.prob": "e267050e64032c9e63ec1b99149db8e7728cf009a6a6a1a14b4a77d8c0a52479",
            "D.levels.order": "c46c4cc75ff9021e68f78f8d7b9a1d71c2c2e3334498389f3dd6fdd6abbd5787",
            "D.levels.row": "9935e0fb1510c86c44015627073d807e4b0a2ee6fc291b7cf63df93063fb8e57",
            "D.levels.nxt": "3ed5a29727dc6712d4627c8b826efb6909f19ea76bc48b112a8be6a76369f921",
            "D.levels.steps": "c934ba36ad77e39be48ac9bb491245a04c53b8927330b8e7bbb11f1d380e5f8b",
            "D.u": "09a96ad36c103297c6157fa368aea384f95a98e3331f0a9e90458a574f5f4f99",
            "D.v": "e78abe7c27f0bfcfa16fc0e540855edeb12b81a4052ae07808450802080cfdd9",
            "A.first": "e70b0ce0ebdd343e8a28f5febca954a59e6c439e8c5012ee9b369b69a812e34f",
            "A.state": "851282f3d20437416463341eb40ec6ccb984140a3711bd4e90388cedbae816b8",
            "A.share": "4188137aa97a9ce6106fc25c12e1d2d82d8afb06c989ef3b70a0413b5bc9a195",
            "A.r": "bb7874b5e89f40ca717be0f565847a22cfd3a8cb085733cc480a7aa3826ccb96",
            "A.row": "b9249d829d84f157d651d23be3b543e759f142397ca8829c29a62c8e70af3632",
            "A.at": "16705bb2468ee4a9d09bb79a282725753b4943005279fedb5c058d2e9f097604",
            "A.nxt": "86eca1e8230973aaa3b8d71f3d8bbaed9a0572b4dedb7ef99520f396a23b102f",
            "A.prob": "7aa13f24a6af7c5fd5537903dab7a199cd3ee47fa0b31db251f6aea34d83daed",
            "A.levels.order": "cea88559ad35d4daadd79ab62aba1960950b0d5d0aae292c7ed7755073f57b1f",
            "A.levels.row": "9570039a752585548876a524b427f40b24cba2fd8e9b6a268fa9dd903c3bfbc8",
            "A.levels.nxt": "ab338fa18fb1aabf05ef089fa389f57666d8fd025a2ebc56be4c03da9f81c544",
            "A.levels.steps": "3c9ba0771c62969ee10d842cdc6281326072e8d3d219a9e4313a70b190d914ee",
            "A.u": "1a9f8788fbd6b0926415b2fa80411d067e2b8d9f6681c6425eb8a2bf7a580b18",
            "A.v": "ce0fa77ca34f749c621874ea66b160855071019bf2e4336decfde877cb8e44ba",
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
