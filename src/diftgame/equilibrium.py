"""Exact evaluation and equilibrium certification for the inspection game.

These routines never sample.  Each one fixes one player's mixture and
reads the kernel through :meth:`Game.marginalize`, which sums the opponent
out and leaves per-(state, own action) rows of expected payoffs and sparse
next-state distributions; gains and biases then come from small dense
linear systems.  All sums run over the states reachable from the root in
the game graph; states that exist only as indices (a node paired with a
stage the intrusion can never be in) are ignored.

For a policy pair the induced chain has a single recurrent class containing
the root, so the long-run average payoff (gain) is the stationary
expectation of the one-step payoff, and the bias vector solves the usual
evaluation equations anchored at the root.  Per-(state, action) slack of
those equations drives both the certification residuals and the exact
gradient of their policy-weighted aggregate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .game import Game, Marginal, classify_chain
from .policies import Policy, PolicyPair, cut_policy, uniform_policy


class UnichainViolationError(RuntimeError):
    """The induced chain does not have a single root recurrent class."""


OmegaTable = dict[str, list[np.ndarray]]


@dataclass
class EvalResult:
    rho_d: float
    rho_a: float
    v_d: np.ndarray  # bias per state, zero at unreachable states and the root
    v_a: np.ndarray
    residual_norm: float
    recurrent: set[int]

    def rho(self, player: str) -> float:
        return self.rho_d if player == "D" else self.rho_a

    def v(self, player: str) -> np.ndarray:
        return self.v_d if player == "D" else self.v_a


@dataclass
class Residuals:
    omega: OmegaTable
    delta: float
    phi_d: float
    phi_a: float
    phi_t: float
    min_omega: float


@dataclass
class Certificate:
    gaps: dict[str, float]
    delta: float
    min_omega: float
    phi: dict[str, float]
    verdict: bool
    tol: float

    def to_json(self) -> dict:
        return {
            "gaps": {k: float(v) for k, v in self.gaps.items()},
            "delta": float(self.delta),
            "min_omega": float(self.min_omega),
            "phi": {k: float(v) for k, v in self.phi.items()},
            "verdict": bool(self.verdict),
            "tol": float(self.tol),
        }

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1)
            fh.write("\n")


def stationary_distribution(P: np.ndarray) -> np.ndarray:
    """Unique stationary distribution of an irreducible row-stochastic matrix."""
    rec, trans = classify_chain(P)
    if len(rec) != 1 or trans:
        raise UnichainViolationError("matrix is not irreducible")
    n = P.shape[0]
    A = np.vstack([(P.T - np.eye(n))[:-1], np.ones(n)])
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        p = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise UnichainViolationError(f"singular stationary system: {exc}") from exc
    if p.min() < -1e-10:
        raise UnichainViolationError("stationary solve produced negative mass")
    p = np.maximum(p, 0.0)
    return p / p.sum()


def _solve_gain_bias(
    P: np.ndarray, rbar: np.ndarray
) -> tuple[np.ndarray, np.ndarray, set[int]]:
    """Gain and bias on a reachable-state restriction, anchored at row 0.

    ``rbar`` may carry several payoff columns; gains and biases come back
    with one column per payoff.  The gain is the stationary average on the
    recurrent class; the bias solves rho + v(s) = rbar(s) + sum P v with
    v(anchor) = 0, which is a square nonsingular system once the gain is an
    unknown.  Both routes must agree to 1e-9, which doubles as a sanity
    check on the unichain structure.
    """
    m = P.shape[0]
    rbar = np.atleast_2d(rbar.T).T  # (m, k)
    rec, _ = classify_chain(P)
    if len(rec) != 1:
        raise UnichainViolationError(
            f"expected one recurrent class, found {len(rec)}"
        )
    if 0 not in rec[0]:
        raise UnichainViolationError("anchor state is not recurrent")
    C = sorted(rec[0])
    p_stat = stationary_distribution(P[np.ix_(C, C)])
    gain = p_stat @ rbar[C, :]

    A = np.zeros((m, m))
    A[:, 0] = 1.0
    A[:, 1:] = (np.eye(m) - P)[:, 1:]
    try:
        x = np.linalg.solve(A, rbar)
    except np.linalg.LinAlgError as exc:
        raise UnichainViolationError(f"singular evaluation system: {exc}") from exc
    if np.max(np.abs(x[0, :] - gain)) > 1e-9:
        raise UnichainViolationError(
            "gain mismatch between stationary and evaluation solves"
        )
    v = np.vstack([np.zeros((1, rbar.shape[1])), x[1:, :]])
    return gain, v, set(C)


def evaluate_policy_pair(game: Game, pi: PolicyPair) -> EvalResult:
    """Exact gains and biases of both players under a fixed policy pair."""
    R = np.flatnonzero(game.reachable)
    P = game.induced_chain(pi)[np.ix_(R, R)]
    rd, ra = game.expected_rewards(pi)
    rbar = np.column_stack([rd[R], ra[R]])
    gain, v, C = _solve_gain_bias(P, rbar)

    n = game.n_states
    v_d = np.zeros(n)
    v_a = np.zeros(n)
    v_d[R] = v[:, 0]
    v_a[R] = v[:, 1]
    resid = np.abs(gain[None, :] + v - rbar - P @ v).max()
    return EvalResult(
        rho_d=float(gain[0]),
        rho_a=float(gain[1]),
        v_d=v_d,
        v_a=v_a,
        residual_norm=float(resid),
        recurrent={int(R[i]) for i in C},
    )


def _slack(game: Game, m: Marginal, pay: np.ndarray, rho: float, v: np.ndarray) -> list:
    """Evaluation-equation slack per own action, one vector per state.

    Entry (s, b) is rho + v(s) minus the expected (``pay`` + next bias) when
    the marginal's actor commits to action b at s.  The payoff may belong to
    either player; the gain and bias passed in must belong to the same one.
    Unreachable states get zero vectors.
    """
    vec = rho + v[m.state] - pay - m.expect(v)
    vec[~game.reachable[m.state]] = 0.0
    return np.split(vec, m.first[1:-1])


def _omega(game: Game, pi: PolicyPair, rho: tuple, v: tuple) -> OmegaTable:
    """Both players' own-payoff slack for gains ``rho`` and biases ``v``."""
    om: OmegaTable = {}
    for k, (player, opp) in enumerate((("D", pi.a), ("A", pi.d))):
        m = game.marginalize(opp, player)
        om[player] = _slack(game, m, m.r[k], rho[k], v[k])
    return om


def _phis(game: Game, pi: PolicyPair, om: OmegaTable) -> list[float]:
    """Policy-weighted slack sums (phi_D, phi_A) over the reachable states."""
    reach = np.flatnonzero(game.reachable)
    pols = {"D": pi.d, "A": pi.a}
    return [sum(float(pols[k].table[s] @ om[k][s]) for s in reach) for k in pols]


def omega(game: Game, pi: PolicyPair, ev: EvalResult | None = None) -> OmegaTable:
    """Per-(player, state, own action) equilibrium residuals.

    Entry (k, s, b) is the slack of player k's evaluation equation when k
    commits to action b at s against the opponent's mixture.  At an exact
    evaluation the policy-weighted slack vanishes state by state, and at an
    equilibrium no entry is meaningfully negative.
    """
    ev = ev or evaluate_policy_pair(game, pi)
    return _omega(game, pi, (ev.rho_d, ev.rho_a), (ev.v_d, ev.v_a))


def delta(game: Game, pi: PolicyPair, om: OmegaTable) -> float:
    """Policy-weighted aggregate of all residuals (zero at exact evaluation)."""
    return sum(_phis(game, pi, om))


def td_errors(
    game: Game,
    pi: PolicyPair,
    rho: tuple[float, float] | None = None,
    v: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[float, float, float]:
    """Aggregated per-player residuals (phi_D, phi_A, phi_T).

    With ``rho``/``v`` omitted the exact evaluation is used and both values
    are zero up to solver tolerance; passing learner iterates instead
    measures how far those iterates are from satisfying the evaluation
    equations under the current policies.
    """
    if rho is None or v is None:
        ev = evaluate_policy_pair(game, pi)
        rho = (ev.rho_d, ev.rho_a)
        v = (ev.v_d, ev.v_a)
    phi_d, phi_a = _phis(game, pi, _omega(game, pi, rho, v))
    return phi_d, phi_a, phi_d + phi_a


def exact_gradient(
    game: Game, pi: PolicyPair, ev: EvalResult | None = None
) -> OmegaTable:
    """Gradient of the aggregate residual in each policy coordinate.

    The aggregate is bilinear in the two policies once the evaluation pair
    (gain, bias) is frozen, so the derivative in coordinate (k, s, b) is the
    sum over both payoff players of the slack at (s, b) with the opponent
    marginalized.  Slack is linear in payoff, gain and bias, so that sum is
    the slack of the summed payoffs against the summed gains and biases.
    """
    ev = ev or evaluate_policy_pair(game, pi)
    rho, v = ev.rho_d + ev.rho_a, ev.v_d + ev.v_a
    grads: OmegaTable = {}
    for player, opp in (("D", pi.a), ("A", pi.d)):
        m = game.marginalize(opp, player)
        grads[player] = _slack(game, m, m.r.sum(axis=0), rho, v)
    return grads


def best_response(game: Game, opponent: Policy, player: str) -> tuple[Policy, float]:
    """Optimal deterministic reply and its gain against a fixed opponent.

    Policy iteration on the opponent-marginalized decision process restricted
    to reachable states: evaluate the current deterministic reply (gain and
    bias, root-anchored), then switch each state to an action whose one-step
    lookahead improves the bias equation, keeping the incumbent on ties.
    """
    if player not in ("D", "A"):
        raise ValueError(f"bad player {player!r}")
    if opponent.player != ("A" if player == "D" else "D"):
        raise ValueError("opponent policy is for the wrong player")
    m = game.marginalize(opponent, player)
    r = m.r[0 if player == "D" else 1]
    R = np.flatnonzero(game.reachable)
    n, nr = game.n_states, len(R)
    pos = np.zeros(n, dtype=int)
    pos[R] = np.arange(nr)
    cell = pos[m.state[m.row]] * nr + pos[m.nxt]  # entry -> (row, col) of P_pol
    first = m.first.tolist()
    choice = [first[s] for s in R]  # chosen row per reachable state

    max_rounds = 10 + sum(first[s + 1] - first[s] for s in R)
    for _ in range(max_rounds):
        chosen = np.zeros(len(r), dtype=bool)
        chosen[choice] = True
        on = chosen[m.row]
        P_pol = np.bincount(cell[on], m.prob[on], minlength=nr * nr).reshape(nr, nr)
        g, v, _ = _solve_gain_bias(P_pol, r[choice])
        gain = float(g[0])
        v_full = np.zeros(n)
        v_full[R] = v[:, 0]
        q = (r + m.expect(v_full)).tolist()
        changed = False
        for i, s in enumerate(R):
            seg = q[first[s] : first[s + 1]]
            best = first[s] + seg.index(max(seg))
            if q[best] > q[choice[i]] + 1e-10:
                choice[i] = best
                changed = True
        if not changed:
            break
    else:
        raise UnichainViolationError("policy iteration failed to settle")

    picks = m.first[:-1].copy()  # unreachable states keep their first action
    picks[R] = choice
    flat = np.zeros(len(r))
    flat[picks] = 1.0
    return Policy(player, np.split(flat, m.first[1:-1])), gain


def residuals(game: Game, pi: PolicyPair, ev: EvalResult | None = None) -> Residuals:
    ev = ev or evaluate_policy_pair(game, pi)
    om = omega(game, pi, ev)
    phi_d, phi_a = _phis(game, pi, om)
    reach = np.flatnonzero(game.reachable)
    min_om = min(float(om[k][s].min()) for k in ("D", "A") for s in reach)
    return Residuals(om, phi_d + phi_a, phi_d, phi_a, phi_d + phi_a, min_om)


def certify_arne(game: Game, pi: PolicyPair, tol: float) -> Certificate:
    """Certificate that a policy pair is (within ``tol``) an equilibrium.

    Gap of player k is how much gain k could add by switching to a best
    response while the opponent stays put.  The verdict also requires no
    meaningfully negative residual and a near-zero aggregate.
    """
    ev = evaluate_policy_pair(game, pi)
    res = residuals(game, pi, ev)
    br_d_gain = best_response(game, pi.a, "D")[1]
    br_a_gain = best_response(game, pi.d, "A")[1]
    gaps = {"D": br_d_gain - ev.rho_d, "A": br_a_gain - ev.rho_a}
    verdict = (
        gaps["D"] <= tol
        and gaps["A"] <= tol
        and res.min_omega >= -tol
        and abs(res.delta) <= tol
    )
    return Certificate(
        gaps=gaps,
        delta=res.delta,
        min_omega=res.min_omega,
        phi={"D": res.phi_d, "A": res.phi_a, "T": res.phi_t},
        verdict=verdict,
        tol=tol,
    )


def compare_defenses(game: Game, learned: PolicyPair) -> list[tuple[str, float, float]]:
    """Gains of the learned, uniform, and cut defenders versus the learned
    intruder, as (name, rho_D, rho_A) rows."""
    rows = []
    for name, pol_d in (
        ("learned", learned.d),
        ("uniform", uniform_policy(game, "D")),
        ("cut", cut_policy(game)),
    ):
        ev = evaluate_policy_pair(game, PolicyPair(pol_d, learned.a))
        rows.append((name, ev.rho_d, ev.rho_a))
    return rows
