"""Analytic oracle tests: evaluation, residuals, gradients, best responses.

Expected numbers on the two-node fixture are worked out by hand from the
cycle structure: a quit loop is s0 -> entry -> s0 (length 2), a full
intrusion is s0 -> entry -> target -> s0 (length 3), and the gain is cycle
payoff divided by cycle length.
"""

import itertools
import pathlib

import numpy as np
import pytest

from diftgame import equilibrium
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
from _dense import dense_best_response
from diftgame.game import FnRates, Game, Marginal, RewardParams, build_game, classify_chain
from diftgame.ifg import Ifg, IfgNode, generate_synthetic
from diftgame.policies import Policy, PolicyPair, cut_policy, project_simplex, uniform_policy
from test_acceptance import fixture_game


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


def dirichlet_pair(game, seed):
    """Interior pair with one Dirichlet(1, ..., 1) row per state and player."""
    rng = np.random.default_rng([seed, 2])
    tabs = [[rng.dirichlet(np.ones(len(a))) for a in sets] for sets in (game.actions_d, game.actions_a)]
    return PolicyPair(Policy("D", tabs[0]), Policy("A", tabs[1]))


def stationary_gains(game, pair):
    """Independent gain oracle: stationary averages of the one-step payoffs
    on the induced chain's recurrent class."""
    R = np.flatnonzero(game.reachable)
    P = game.induced_chain(pair)[np.ix_(R, R)]
    (rec,), _ = classify_chain(P)
    C = sorted(rec)
    mu = stationary_distribution(P[np.ix_(C, C)])
    rd, ra = game.expected_rewards(pair)
    return float(mu @ rd[R[C]]), float(mu @ ra[R[C]])


def hand_pairs(game):
    """The by-hand pairs on the two-node game: quit at the entry, always
    move against an idle defender, inspect the entry's edge."""
    s_entry = game.state_index(0, 1)
    return [
        PolicyPair(pure(game, "D", {}), pure(game, "A", {s_entry: 1})),
        PolicyPair(pure(game, "D", {}), pure(game, "A", {})),
        PolicyPair(pure(game, "D", {s_entry: 1}), pure(game, "A", {})),
    ]


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
        # every pair this class evaluates, against the oracle the library
        # no longer runs
        game = two_node_game()
        cases = [(game, pair) for pair in hand_pairs(game)]
        cases += [(synth, random_pair(synth, seed)) for seed in (*range(6), 11)]
        for g, pair in cases:
            ev = evaluate_policy_pair(g, pair)
            assert stationary_gains(g, pair) == pytest.approx((ev.rho_d, ev.rho_a), abs=1e-9)

    def test_rho_matches_stationary_average_at_481_states(self):
        game = build_game(
            generate_synthetic(160, 3, 2, (1, 1, 1), 0.1, 1), RewardParams.defaults(3), FnRates(0.2)
        )
        pair = dirichlet_pair(game, 1)
        ev = evaluate_policy_pair(game, pair)
        assert ev.residual_norm <= 1e-9
        assert stationary_gains(game, pair) == pytest.approx((ev.rho_d, ev.rho_a), abs=1e-9)


class TestOneSolve:
    """Each pair evaluation classifies its chain once and solves once; the
    residual of that one solve is the only consistency check.  Best
    responses and the defense comparison make neither call: each
    policy-iteration round, and each defender's payoff, is one
    back-substitution, with the same residual check."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"classify": 0, "solve": 0, "evaluations": 0}

        def counted(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(equilibrium, "classify_chain", counted("classify", equilibrium.classify_chain))
        monkeypatch.setattr(equilibrium.np.linalg, "solve", counted("solve", equilibrium.np.linalg.solve))
        # one call per evaluate_policy_pair
        monkeypatch.setattr(
            equilibrium, "_solve_gain_bias", counted("evaluations", equilibrium._solve_gain_bias)
        )
        return calls

    def test_evaluate_calls_each_once(self, synth, calls):
        for seed in range(3):
            calls.update(classify=0, solve=0, evaluations=0)
            evaluate_policy_pair(synth, random_pair(synth, seed))
            assert calls == {"classify": 1, "solve": 1, "evaluations": 1}

    def test_best_response_back_substitutes_once_per_round(self, synth, calls, monkeypatch):
        restart = Marginal.restart_solve

        def counted(*args):
            calls["restarts"] += 1
            return restart(*args)

        monkeypatch.setattr(Marginal, "restart_solve", counted)
        for player, opp in (("D", random_pair(synth, 9).a), ("A", random_pair(synth, 9).d)):
            rounds = dense_best_response(synth, opp, player)[2]
            assert rounds >= 2
            calls.update(classify=0, solve=0, evaluations=0, restarts=0)
            best_response(synth, opp, player)
            assert calls == {"classify": 0, "solve": 0, "evaluations": 0, "restarts": rounds}

    def test_compare_defenses_back_substitutes_per_gain(self, synth, calls, monkeypatch):
        restart = Marginal.restart_solve

        def counted(*args):
            calls["restarts"] += 1
            return restart(*args)

        monkeypatch.setattr(Marginal, "restart_solve", counted)
        calls["restarts"] = 0
        compare_defenses(synth, random_pair(synth, 9))
        # three defenders, two payoffs each
        assert calls == {"classify": 0, "solve": 0, "evaluations": 0, "restarts": 6}

    def test_perturbed_bias_raises(self, synth, monkeypatch):
        solve = np.linalg.solve

        def nudged(A, b):
            x = solve(A, b)
            x[2, 0] += 1e-6  # row 0 holds the gain, every later row a bias
            return x

        monkeypatch.setattr(equilibrium.np.linalg, "solve", nudged)
        with pytest.raises(UnichainViolationError, match="residual"):
            evaluate_policy_pair(synth, random_pair(synth, 0))

    def test_nudged_restart_bias_raises_in_best_response(self, synth, monkeypatch):
        restart = Marginal.restart_solve
        s = int(np.flatnonzero(synth.reachable)[2])

        def nudged(*args):
            gain, v = restart(*args)
            v[s] += 1e-6
            return gain, v

        monkeypatch.setattr(Marginal, "restart_solve", nudged)
        with pytest.raises(UnichainViolationError, match="residual"):
            best_response(synth, random_pair(synth, 0).a, "D")

    def test_nudged_restart_bias_raises_in_compare_defenses(self, synth, monkeypatch):
        restart = Marginal.restart_solve
        s = int(np.flatnonzero(synth.reachable)[2])

        def nudged(*args):
            gain, v = restart(*args)
            v[s] += 1e-6
            return gain, v

        monkeypatch.setattr(Marginal, "restart_solve", nudged)
        with pytest.raises(UnichainViolationError, match="residual"):
            compare_defenses(synth, random_pair(synth, 0))

    def test_library_never_calls_stationary_distribution(self):
        pkg = pathlib.Path(equilibrium.__file__).parent
        callers = [
            path.name
            for path in sorted(pkg.glob("*.py"))
            if "stationary_distribution(" in path.read_text().replace("def stationary_distribution(", "")
        ]
        assert callers == []


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

    def test_half_given_iterates_rejected(self, synth):
        # one of rho and v alone must not fall back to the exact evaluation
        pair = random_pair(synth, 6)
        ev = evaluate_policy_pair(synth, pair)
        with pytest.raises(ValueError, match="both rho and v"):
            td_errors(synth, pair, rho=(ev.rho_d, ev.rho_a))
        with pytest.raises(ValueError, match="both rho and v"):
            td_errors(synth, pair, v=(ev.v_d, ev.v_a))

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


@pytest.fixture(scope="module", params=["learn", "synth160"])
def slack_game(request):
    """The criterion-5 fixture and a 160-node synthetic game (481 states)."""
    if request.param == "learn":
        return fixture_game()
    ifg = generate_synthetic(160, 3, 2, (1, 1, 1), 0.1, 1)
    return build_game(ifg, RewardParams.defaults(3), FnRates(default=0.2))


def nudged_eval(game, pair):
    """The exact evaluation with one reachable bias nudged and the gains
    shifted: iterates that do not satisfy the evaluation equations."""
    ev = evaluate_policy_pair(game, pair)
    reach = np.flatnonzero(game.reachable)
    s = int(reach[len(reach) // 2])
    ev.v_d[s] += 0.5
    ev.v_a[s] -= 0.25
    ev.rho_d += 0.37
    ev.rho_a -= 1.1
    return ev


class TestFlatSlack:
    """The aggregates reduce one slack vector per player over the reachable
    rows; these pin them to the per-state sums over :func:`omega`."""

    def test_aggregates_match_per_state_sums(self, slack_game):
        pair = dirichlet_pair(slack_game, 1)
        ev = nudged_eval(slack_game, pair)
        om = omega(slack_game, pair, ev)
        reach = np.flatnonzero(slack_game.reachable)
        want = [
            sum(float(pol.table[s] @ om[k][s]) for s in reach)
            for k, pol in (("D", pair.d), ("A", pair.a))
        ]
        got = td_errors(slack_game, pair, rho=(ev.rho_d, ev.rho_a), v=(ev.v_d, ev.v_a))
        assert abs(want[0]) > 1e-3 and abs(want[1]) > 1e-3  # the iterates are off
        assert got[:2] == pytest.approx(want, rel=1e-12)
        assert got[2] == pytest.approx(sum(want), rel=1e-12)
        assert delta(slack_game, pair, om) == pytest.approx(sum(want), rel=1e-12)

    def test_min_omega_is_the_per_state_minimum(self, slack_game):
        pair = dirichlet_pair(slack_game, 2)
        for ev in (evaluate_policy_pair(slack_game, pair), nudged_eval(slack_game, pair)):
            om = omega(slack_game, pair, ev)
            want = min(
                float(om[k][s].min()) for k in ("D", "A") for s in np.flatnonzero(slack_game.reachable)
            )
            assert residuals(slack_game, pair, ev).min_omega == want

    def test_unreachable_rows_are_ignored(self, slack_game):
        # a dot product over all rows would turn phi into NaN here
        clean = dirichlet_pair(slack_game, 3)
        dirty = clean.copy()
        s = int(np.flatnonzero(~slack_game.reachable)[0])
        dirty.d.table[s][:] = np.nan
        dirty.a.table[s][:] = np.inf
        ev = nudged_eval(slack_game, clean)
        iterates = dict(rho=(ev.rho_d, ev.rho_a), v=(ev.v_d, ev.v_a))
        dirty_td = [td_errors(slack_game, dirty, **iterates), td_errors(slack_game, dirty)]
        dirty_res = [residuals(slack_game, dirty, ev), residuals(slack_game, dirty)]
        assert dirty_td == [td_errors(slack_game, clean, **iterates), td_errors(slack_game, clean)]
        assert dirty_res == [residuals(slack_game, clean, ev), residuals(slack_game, clean)]


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
                tab[s][:] = np.eye(len(tab[s]))[rng.integers(len(tab[s]))]
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

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda row: np.where(np.arange(len(row)) == 0, np.nan, row),
            lambda row: np.where(np.arange(len(row)) == 0, np.inf, row),
            lambda row: np.eye(len(row))[0] * 1.5 - np.eye(len(row))[1] * 0.5,  # sums to 1
            lambda row: row * 3.0,
        ],
        ids=["nan", "inf", "negative", "unnormalized"],
    )
    def test_opponent_rows_validated(self, spoil):
        game = fixture_game()
        for player, opp in (("D", "A"), ("A", "D")):
            rows = list(uniform_policy(game, opp).table)
            s = next(s for s, row in enumerate(rows) if len(row) > 1 and game.reachable[s])
            rows[s] = spoil(rows[s])
            pol = Policy(opp, rows)
            with pytest.raises(ValueError, match=f"state {s}:"):
                best_response(game, pol, player)


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

    @pytest.mark.parametrize("tol", [float("inf"), float("nan"), -1.0])
    def test_bad_tol_rejected(self, synth, tol):
        pair = PolicyPair(uniform_policy(synth, "D"), uniform_policy(synth, "A"))
        with pytest.raises(ValueError, match="tol"):
            certify_arne(synth, pair, tol)

    def test_residuals_and_best_responses_share_two_marginals(self, synth, monkeypatch):
        pair = dirichlet_pair(synth, 3)
        ev = evaluate_policy_pair(synth, pair)
        res = residuals(synth, pair, ev)
        gaps = {"D": best_response(synth, pair.a, "D")[1] - ev.rho_d,
                "A": best_response(synth, pair.d, "A")[1] - ev.rho_a}
        calls = []
        marginalize = Game.marginalize
        monkeypatch.setattr(Game, "marginalize",
                            lambda g, opp, actor: calls.append(actor) or marginalize(g, opp, actor))
        cert = certify_arne(synth, pair, tol=0.5)
        # the evaluation's induced_chain and expected_rewards share the
        # intruder's marginal; residuals' slack adds the defender's, and both
        # best responses reuse the two
        assert calls == ["D", "A"]
        assert cert.gaps == gaps
        assert (cert.delta, cert.min_omega) == (res.delta, res.min_omega)
        assert cert.phi == {"D": res.phi_d, "A": res.phi_a, "T": res.phi_t}

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


class TestPairOrder:
    """Every oracle that takes a policy pair rejects one whose policies are
    swapped, before any array arithmetic can mix the players' rows up."""

    ORACLES = {
        "evaluate_policy_pair": lambda g, pi, ev: evaluate_policy_pair(g, pi),
        "certify_arne": lambda g, pi, ev: certify_arne(g, pi, 0.5),
        "compare_defenses": lambda g, pi, ev: compare_defenses(g, pi),
        "exact_gradient": lambda g, pi, ev: exact_gradient(g, pi),
        "exact_gradient at ev": exact_gradient,
        "omega": lambda g, pi, ev: omega(g, pi),
        "omega at ev": omega,
        "residuals": lambda g, pi, ev: residuals(g, pi),
        "residuals at ev": residuals,
        "td_errors": lambda g, pi, ev: td_errors(g, pi),
        "td_errors at ev": lambda g, pi, ev: td_errors(
            g, pi, rho=(ev.rho_d, ev.rho_a), v=(ev.v_d, ev.v_a)
        ),
    }

    @pytest.fixture(scope="class")
    def game40(self):
        ifg = generate_synthetic(40, 3, 2, (1, 1, 1), 0.1, 1)
        return build_game(ifg, RewardParams.defaults(3), FnRates(default=0.2))

    @pytest.mark.parametrize("oracle", list(ORACLES))
    def test_swapped_pair_raises(self, game40, oracle):
        pair = dirichlet_pair(game40, 1)
        ev = evaluate_policy_pair(game40, pair)
        with pytest.raises(ValueError, match="defender's then the intruder's"):
            self.ORACLES[oracle](game40, PolicyPair(pair.a, pair.d), ev)


class TestCompareDefenses:
    def test_rows_and_reference_point(self, synth):
        pair = random_pair(synth, 12)
        rows = compare_defenses(synth, pair)
        assert [r[0] for r in rows] == ["learned", "uniform", "cut"]
        ev = evaluate_policy_pair(synth, pair)
        assert rows[0][1] == pytest.approx(ev.rho_d, abs=1e-12)
        assert rows[0][2] == pytest.approx(ev.rho_a, abs=1e-12)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_row_matches_dense_evaluation(self, slack_game, seed):
        pair = dirichlet_pair(slack_game, seed)
        rows = compare_defenses(slack_game, pair)
        defenders = (pair.d, uniform_policy(slack_game, "D"), cut_policy(slack_game))
        assert [r[0] for r in rows] == ["learned", "uniform", "cut"]
        for (_, rho_d, rho_a), pol_d in zip(rows, defenders):
            ev = evaluate_policy_pair(slack_game, PolicyPair(pol_d, pair.a))
            assert abs(rho_d - ev.rho_d) <= 1e-12
            assert abs(rho_a - ev.rho_a) <= 1e-12

    @pytest.mark.parametrize("bad", ["sum", "nan"])
    @pytest.mark.parametrize("player", ["d", "a"])
    def test_malformed_learned_row_raises(self, synth, player, bad):
        pair = random_pair(synth, 12)
        pol = getattr(pair, player)
        s = next(int(s) for s in np.flatnonzero(synth.reachable) if len(pol.table[s]) > 1)
        pol.table[s][0] = np.nan if bad == "nan" else pol.table[s][0] + 0.1
        with pytest.raises(ValueError, match=f"state {s}"):
            compare_defenses(synth, pair)

    def test_swapped_pair_raises(self, synth):
        pair = random_pair(synth, 12)
        with pytest.raises(ValueError, match="defender's then the intruder's"):
            compare_defenses(synth, PolicyPair(pair.a, pair.d))
