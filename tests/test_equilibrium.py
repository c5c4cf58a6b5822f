"""Analytic oracle tests: evaluation, residuals, gradients, best responses.

Expected numbers on the two-node fixture are worked out by hand from the
cycle structure: a quit loop is s0 -> entry -> s0 (length 2), a full
intrusion is s0 -> entry -> target -> s0 (length 3), and the gain is cycle
payoff divided by cycle length.
"""

import itertools

import numpy as np
import pytest

from diftgame.equilibrium import (
    UnichainViolationError,
    best_response,
    certify_arne,
    compare_defenses,
    delta,
    evaluate_policy_pair,
    exact_gradient,
    omega,
    residuals,
    stationary_distribution,
    td_errors,
)
from diftgame.game import FnRates, RewardParams, build_game
from diftgame.ifg import Ifg, IfgNode, generate_synthetic
from diftgame.policies import Policy, PolicyPair, project_simplex, uniform_policy


def two_node_game():
    """Entry 0 -> target 1, one stage, FN 0.2."""
    ifg = Ifg(
        [IfgNode(0, "process", "entry"), IfgNode(1, "file", "target")],
        {(0, 1)},
        {0},
        [{1}],
    )
    return build_game(ifg, RewardParams.defaults(1), FnRates(default=0.2))


def pure(game, player, picks):
    sets = game.actions_d if player == "D" else game.actions_a
    table = []
    for s, acts in enumerate(sets):
        vec = np.zeros(len(acts))
        vec[picks.get(s, 0)] = 1.0
        table.append(vec)
    return Policy(player, table)


@pytest.fixture(scope="module")
def synth():
    ifg = generate_synthetic(10, 3, 2, (1, 1, 1), 0.25, seed=3)
    return build_game(ifg, RewardParams.defaults(3), FnRates(default=0.2))


def random_pair(game, seed):
    rng = np.random.default_rng(seed)
    tabs = []
    for sets in (game.actions_d, game.actions_a):
        tabs.append(
            [project_simplex(rng.random(len(acts)), 0.01) for acts in sets]
        )
    return PolicyPair(Policy("D", tabs[0]), Policy("A", tabs[1]))


class TestStationaryDistribution:
    def test_two_state_chain(self):
        P = np.array([[0.9, 0.1], [0.5, 0.5]])
        np.testing.assert_allclose(
            stationary_distribution(P), [5 / 6, 1 / 6], atol=1e-12
        )

    def test_periodic_chain(self):
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(stationary_distribution(P), [0.5, 0.5], atol=1e-12)

    def test_reducible_rejected(self):
        with pytest.raises(UnichainViolationError):
            stationary_distribution(np.eye(2))


class TestEvaluation:
    def test_quit_loop_by_hand(self):
        game = two_node_game()
        s_entry = game.state_index(0, 1)
        s_target = game.state_index(1, 1)
        pair = PolicyPair(
            pure(game, "D", {}),  # idle everywhere
            pure(game, "A", {s_entry: 1}),  # quit at the entry state
        )
        ev = evaluate_policy_pair(game, pair)
        # cycle s0 -> entry -> s0 pays (30, -30) every 2 steps
        assert ev.rho_d == pytest.approx(15.0, abs=1e-12)
        assert ev.rho_a == pytest.approx(-15.0, abs=1e-12)
        assert ev.v_d[0] == ev.v_a[0] == 0.0  # anchored at the root
        assert ev.v_d[s_entry] == pytest.approx(15.0, abs=1e-10)
        assert ev.v_a[s_entry] == pytest.approx(-15.0, abs=1e-10)
        # the target state is transient here; its bias solves the same rows
        assert ev.v_d[s_target] == pytest.approx(-15.0, abs=1e-10)
        assert ev.v_a[s_target] == pytest.approx(15.0, abs=1e-10)
        assert ev.recurrent == {0, s_entry}
        assert ev.residual_norm < 1e-10

    def test_always_move_vs_idle_by_hand(self):
        game = two_node_game()
        pair = PolicyPair(pure(game, "D", {}), pure(game, "A", {}))
        ev = evaluate_policy_pair(game, pair)
        # full intrusion every 3 steps: defender -30, intruder +20
        assert ev.rho_d == pytest.approx(-10.0, abs=1e-12)
        assert ev.rho_a == pytest.approx(20.0 / 3.0, abs=1e-12)

    def test_inspection_with_misses_by_hand(self):
        game = two_node_game()
        s_entry = game.state_index(0, 1)
        pair = PolicyPair(pure(game, "D", {s_entry: 1}), pure(game, "A", {}))
        ev = evaluate_policy_pair(game, pair)
        # catch (prob .8, +40, cycle 2) or miss (prob .2, 0, cycle 3);
        # entry states are inspection-cost-free
        assert ev.rho_d == pytest.approx(32.0 / 2.2, abs=1e-12)
        assert ev.rho_a == pytest.approx((0.8 * -20 + 0.2 * 20) / 2.2, abs=1e-12)

    def test_evaluation_identities_on_random_pairs(self, synth):
        for seed in range(6):
            pair = random_pair(synth, seed)
            ev = evaluate_policy_pair(synth, pair)
            assert ev.residual_norm < 1e-9
            assert 0 in ev.recurrent
            assert ev.v_d[0] == 0.0 and ev.v_a[0] == 0.0
            # gains live inside the reward range
            assert -90.0 <= ev.rho_d <= 120.0
            assert -60.0 <= ev.rho_a <= 60.0

    def test_rho_matches_stationary_average(self, synth):
        pair = random_pair(synth, 11)
        ev = evaluate_policy_pair(synth, pair)
        R = np.flatnonzero(synth.reachable)
        P = synth.induced_chain(pair)[np.ix_(R, R)]
        mu = stationary_distribution(P)
        rd, ra = synth.expected_rewards(pair)
        assert float(mu @ rd[R]) == pytest.approx(ev.rho_d, abs=1e-9)
        assert float(mu @ ra[R]) == pytest.approx(ev.rho_a, abs=1e-9)


class TestResiduals:
    def test_exact_evaluation_zeroes_everything(self, synth):
        pair = random_pair(synth, 3)
        ev = evaluate_policy_pair(synth, pair)
        om = omega(synth, pair, ev)
        # state-wise policy-weighted slack vanishes
        for s in np.flatnonzero(synth.reachable):
            assert abs(float(pair.d.table[s] @ om["D"][s])) < 1e-10
            assert abs(float(pair.a.table[s] @ om["A"][s])) < 1e-10
        assert abs(delta(synth, pair, om)) < 1e-9
        phi_d, phi_a, phi_t = td_errors(synth, pair)
        assert abs(phi_d) < 1e-9 and abs(phi_a) < 1e-9 and abs(phi_t) < 1e-9

    def test_unreachable_states_excluded(self, synth):
        pair = random_pair(synth, 4)
        om = omega(synth, pair)
        for s in range(synth.n_states):
            if not synth.reachable[s]:
                assert not om["D"][s].any() and not om["A"][s].any()

    def test_perturbed_bias_breaks_delta(self, synth):
        pair = random_pair(synth, 5)
        ev = evaluate_policy_pair(synth, pair)
        s = int(np.flatnonzero(synth.reachable)[2])
        ev.v_d[s] += 1.0
        om = omega(synth, pair, ev)
        assert abs(delta(synth, pair, om)) > 1e-3

    def test_anchor_shift_leaves_residuals_alone(self, synth):
        # adding a constant to the bias on the reachable set is the
        # rank-deficiency direction: residuals must not move
        pair = random_pair(synth, 6)
        ev = evaluate_policy_pair(synth, pair)
        base = td_errors(synth, pair, rho=(ev.rho_d, ev.rho_a), v=(ev.v_d, ev.v_a))
        mask = synth.reachable.astype(float)
        shifted = td_errors(
            synth,
            pair,
            rho=(ev.rho_d, ev.rho_a),
            v=(ev.v_d + 3.7 * mask, ev.v_a - 1.2 * mask),
        )
        assert base == pytest.approx(shifted, abs=1e-9)

    def test_iterate_residuals_by_hand(self):
        game = two_node_game()
        s_entry = game.state_index(0, 1)
        pair = PolicyPair(pure(game, "D", {}), pure(game, "A", {s_entry: 1}))
        zeros = np.zeros(game.n_states)
        phi_d, phi_a, phi_t = td_errors(game, pair, rho=(0.0, 0.0), v=(zeros, zeros))
        # only the entry state carries payoff under pure quitting
        assert phi_d == pytest.approx(-30.0)
        assert phi_a == pytest.approx(30.0)
        assert phi_t == pytest.approx(0.0)

    def test_residuals_bundle_consistent(self, synth):
        pair = random_pair(synth, 7)
        res = residuals(synth, pair)
        om = omega(synth, pair)
        want_min = min(
            float(om[k][s].min())
            for k in ("D", "A")
            for s in np.flatnonzero(synth.reachable)
        )
        assert res.min_omega == pytest.approx(want_min, abs=1e-12)
        assert abs(res.delta) < 1e-9
        assert abs(res.phi_t - res.phi_d - res.phi_a) < 1e-12


def bilinear_residual_form(game, ev):
    """Per-state joint-action slack matrices, stacked (D payoff, A payoff).

    W[s][k][b, c] is the slack of player k's evaluation equation at s under
    the joint action (b, c), with the evaluation pair frozen, so that
    Delta = sum_s piD (W[s][0] + W[s][1]) piA.  This is the polynomial
    extension of the aggregate residual: probability vectors are then
    treated as free coordinates.
    """
    W = {}
    for s in np.flatnonzero(game.reachable):
        nd = len(game.actions_d[s])
        na = len(game.actions_a[s])
        m = np.zeros((2, nd, na))
        for b in range(nd):
            for c in range(na):
                q_d = q_a = 0.0
                for s2, p, r_d, r_a in game.outcomes(s, b, c):
                    q_d += p * (r_d + ev.v_d[s2])
                    q_a += p * (r_a + ev.v_a[s2])
                m[0, b, c] = ev.rho_d + ev.v_d[s] - q_d
                m[1, b, c] = ev.rho_a + ev.v_a[s] - q_a
        W[int(s)] = m
    return W


class TestExactGradient:
    def test_matches_finite_differences(self, synth):
        pair = random_pair(synth, 8)
        ev = evaluate_policy_pair(synth, pair)
        grads = exact_gradient(synth, pair, ev)
        W = bilinear_residual_form(synth, ev)

        def delta_ext(p):
            return sum(
                float(p.d.table[s] @ m.sum(axis=0) @ p.a.table[s])
                for s, m in W.items()
            )

        h = 1e-5
        rng = np.random.default_rng(0)
        reach = np.flatnonzero(synth.reachable)
        for player in ("D", "A"):
            pol = pair.d if player == "D" else pair.a
            for _ in range(8):
                s = int(rng.choice(reach))
                b = int(rng.integers(len(pol.table[s])))
                up = pair.copy()
                dn = pair.copy()
                (up.d if player == "D" else up.a).table[s][b] += h
                (dn.d if player == "D" else dn.a).table[s][b] -= h
                fd = (delta_ext(up) - delta_ext(dn)) / (2 * h)
                got = float(grads[player][s][b])
                assert got == pytest.approx(fd, rel=1e-6, abs=1e-7)

    def test_sums_to_delta_on_the_simplex(self, synth):
        # contracting the joint form with the actual policies reproduces
        # the aggregate residual, which is zero at exact evaluation
        pair = random_pair(synth, 13)
        ev = evaluate_policy_pair(synth, pair)
        W = bilinear_residual_form(synth, ev)
        total = sum(
            float(pair.d.table[s] @ m.sum(axis=0) @ pair.a.table[s])
            for s, m in W.items()
        )
        om = omega(synth, pair, ev)
        assert total == pytest.approx(delta(synth, pair, om), abs=1e-9)

    def test_omega_and_gradient_match_enumeration_with_zero_rows(self, synth):
        # deterministic rows at every other state put exact zeros in the
        # opponent mixtures; every entry must still equal the joint-action
        # sum over game.outcomes
        pair = random_pair(synth, 14)
        rng = np.random.default_rng(14)
        for tab in (pair.d.table, pair.a.table):
            for s in range(0, synth.n_states, 2):
                tab[s] = np.eye(len(tab[s]))[rng.integers(len(tab[s]))]
        ev = evaluate_policy_pair(synth, pair)
        W = bilinear_residual_form(synth, ev)
        om = omega(synth, pair, ev)
        grads = exact_gradient(synth, pair, ev)
        close = dict(rtol=0, atol=1e-9)
        for s in range(synth.n_states):
            p_d, p_a = pair.d.table[s], pair.a.table[s]
            w_d, w_a = W.get(s, np.zeros((2, len(p_d), len(p_a))))
            np.testing.assert_allclose(om["D"][s], w_d @ p_a, **close)
            np.testing.assert_allclose(om["A"][s], p_d @ w_a, **close)
            np.testing.assert_allclose(grads["D"][s], (w_d + w_a) @ p_a, **close)
            np.testing.assert_allclose(grads["A"][s], p_d @ (w_d + w_a), **close)


class TestBestResponse:
    def test_attacker_reply_to_idle_by_hand(self):
        game = two_node_game()
        br, gain = best_response(game, pure(game, "D", {}), "A")
        # moving scores +20 every 3 steps, quitting loses 30 every 2
        assert gain == pytest.approx(20.0 / 3.0, abs=1e-10)
        s_entry = game.state_index(0, 1)
        assert br.table[s_entry][0] == 1.0  # move, not quit

    def test_defender_reply_to_mover_by_hand(self):
        game = two_node_game()
        br, gain = best_response(game, pure(game, "A", {}), "D")
        # inspect: 40 with prob .8 over a mixed 2/3-step cycle
        assert gain == pytest.approx(160.0 / 11.0, abs=1e-10)
        s_entry = game.state_index(0, 1)
        assert br.table[s_entry][1] == 1.0  # inspect the edge into the target

    def test_matches_exhaustive_enumeration(self):
        ifg = generate_synthetic(5, 1, 1, (1,), 0.6, seed=5)
        game = build_game(ifg, RewardParams.defaults(1), FnRates(default=0.2))
        atk = random_pair(game, 0).a
        _, gain = best_response(game, atk, "D")
        best = -np.inf
        reach = [int(s) for s in np.flatnonzero(game.reachable)]
        options = [range(len(game.actions_d[s])) for s in reach]
        for picks in itertools.product(*options):
            det = pure(game, "D", dict(zip(reach, picks)))
            ev = evaluate_policy_pair(game, PolicyPair(det, atk))
            best = max(best, ev.rho_d)
        assert gain == pytest.approx(best, abs=1e-9)

    def test_gain_dominates_any_candidate(self, synth):
        atk = random_pair(synth, 9).a
        _, gain = best_response(synth, atk, "D")
        for seed in range(5):
            other = random_pair(synth, 20 + seed).d
            ev = evaluate_policy_pair(synth, PolicyPair(other, atk))
            assert gain >= ev.rho_d - 1e-9

    def test_player_validation(self, synth):
        with pytest.raises(ValueError):
            best_response(synth, uniform_policy(synth, "A"), "X")
        with pytest.raises(ValueError):
            best_response(synth, uniform_policy(synth, "A"), "A")


class TestCertification:
    def test_pure_equilibrium_certifies(self):
        game = two_node_game()
        pi_d = uniform_policy(game, "D")
        pi_a = uniform_policy(game, "A")
        for _ in range(6):
            pi_d = best_response(game, pi_a, "D")[0]
            pi_a = best_response(game, pi_d, "A")[0]
        pair = PolicyPair(pi_d, pi_a)
        cert = certify_arne(game, pair, tol=1e-6)
        assert cert.verdict
        assert cert.gaps["D"] <= 1e-9 and cert.gaps["A"] <= 1e-9
        assert cert.min_omega >= -1e-9
        assert abs(cert.delta) <= 1e-9

    def test_uniform_pair_refuted(self, synth):
        pair = PolicyPair(uniform_policy(synth, "D"), uniform_policy(synth, "A"))
        cert = certify_arne(synth, pair, tol=0.5)
        assert not cert.verdict
        assert max(cert.gaps.values()) > 0.5

    def test_certificate_serialization(self, synth, tmp_path):
        import json

        pair = random_pair(synth, 10)
        cert = certify_arne(synth, pair, tol=0.5)
        path = tmp_path / "cert.json"
        cert.save(str(path))
        with open(path) as fh:
            data = json.load(fh)
        assert set(data) == {"gaps", "delta", "min_omega", "phi", "verdict", "tol"}
        assert data["verdict"] == cert.verdict
        assert data["gaps"]["D"] == pytest.approx(cert.gaps["D"])


class TestCompareDefenses:
    def test_rows_and_reference_point(self, synth):
        pair = random_pair(synth, 12)
        rows = compare_defenses(synth, pair)
        assert [r[0] for r in rows] == ["learned", "uniform", "cut"]
        ev = evaluate_policy_pair(synth, pair)
        assert rows[0][1] == pytest.approx(ev.rho_d, abs=1e-12)
        assert rows[0][2] == pytest.approx(ev.rho_a, abs=1e-12)
