"""Exact evaluation and equilibrium certification for the inspection game.

These routines never sample.  Each one fixes one player's mixture and
reads the case table through :meth:`Game.marginalize`, which sums the
opponent out and leaves per-(state, own action) rows of expected payoffs
and sparse next-state distributions.  All sums run over the states
reachable from the root in the game graph; states that exist only as
indices (a node paired with a stage the intrusion can never be in) are
ignored.

For a policy pair the induced chain has a single recurrent class containing
the root, so the evaluation equations anchored at the root have a unique
solution.  :func:`evaluate_policy_pair` weighs the rows into the induced
transition matrix (:meth:`Game.induced_chain`), checks its classes with
``classify_chain`` and makes one dense linear solve for the long-run
average payoff (gain) and the bias vector together.  Its residual, checked
against 1e-9, guards the unichain structure.  The slack of those equations
is one vector per player, an entry per (state, own action) row in the order
of the player's ``Policy.flat``; phi, Delta and min_omega reduce it over the
reachable rows.  Only :func:`omega`, :func:`exact_gradient` and
:func:`best_response` return per-state tables; :class:`Residuals` holds none.

No other oracle needs a matrix.  The game graph without its edges into
the root is acyclic (the restart DAG), so a row weighting is evaluated
exactly by back-substitution over the heights ``build_game`` computes
(:meth:`Marginal.restart_solve`), with the same 1e-9 residual check.  The
oracles take these routes:

* :func:`best_response`: one back-substitution per policy-iteration round,
  of its deterministic reply.
* :func:`compare_defenses`: one per payoff and defender, against one
  marginal of the learned intruder.
* :func:`exact_gradient`, :func:`omega`, :func:`residuals` and
  :func:`td_errors`, when they evaluate the pair themselves: one per payoff
  against one marginal of the intruder, whose lookahead also gives the
  defender's slack rows, after the reachable rows of both policies are
  validated.  The evaluation is linear in the payoff, so
  :func:`exact_gradient` makes one, of both players' summed payoff.  Given
  an evaluation, they use it instead.
* :func:`evaluate_policy_pair`, and so :func:`certify_arne`: the dense
  route.  ``perfbench`` reads its per-layer figures for ``induced_chain``,
  ``expected_rewards``, ``classify_chain`` and the linear solves from the
  certificate's evaluation, so it stays until those figures are re-pointed
  (ROADMAP item 1).

Every oracle that takes a policy pair first checks that it holds the
defender's policy, then the intruder's.
"""

from __future__ import annotations

import copy
import itertools
import json
from dataclasses import dataclass

import numpy as np

from .game import Game, Marginal, UnichainViolationError, classify_chain
from .policies import Policy, PolicyPair, cut_policy, uniform_policy


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
) -> tuple[np.ndarray, np.ndarray, set[int], float]:
    """Gain, bias, recurrent class and residual, anchored at row 0.

    ``rbar`` may carry several payoff columns; gains and biases come back
    with one column per payoff.  With one recurrent class, and the anchor
    in it, rho + v(s) = rbar(s) + sum P v with v(anchor) = 0 is a square
    nonsingular system once the gain takes the anchor's unknown, so one
    solve gives both.  Its largest residual over all rows must stay within
    1e-9, which doubles as a sanity check on the unichain structure.
    """
    rbar = np.atleast_2d(rbar.T).T  # (m, k)
    rec, _ = classify_chain(P)
    if len(rec) != 1 or 0 not in rec[0]:
        raise UnichainViolationError(
            f"expected one recurrent class holding the anchor, found {len(rec)}"
        )
    A = np.eye(P.shape[0]) - P
    A[:, 0] = 1.0
    try:
        x = np.linalg.solve(A, rbar)
    except np.linalg.LinAlgError as exc:
        raise UnichainViolationError(f"singular evaluation system: {exc}") from exc
    gain, v = x[0, :].copy(), x
    v[0, :] = 0.0
    resid = float(np.abs(gain + v - rbar - P @ v).max())
    if not resid <= 1e-9:
        raise UnichainViolationError(f"evaluation residual {resid:.3g} exceeds 1e-9")
    return gain, v, rec[0], resid


def _check_order(pi: PolicyPair) -> None:
    if pi.d.player != "D" or pi.a.player != "A":
        raise ValueError("policy pair must hold the defender's then the intruder's policy")


def evaluate_policy_pair(game: Game, pi: PolicyPair) -> EvalResult:
    """Exact gains and biases of both players under a fixed policy pair."""
    _check_order(pi)
    R = np.flatnonzero(game.reachable)
    P = game.induced_chain(pi)[R[:, None], R]
    rd, ra = game.expected_rewards(pi)
    gain, v, C, resid = _solve_gain_bias(P, np.column_stack([rd[R], ra[R]]))

    n = game.n_states
    v_d = np.zeros(n)
    v_a = np.zeros(n)
    v_d[R] = v[:, 0]
    v_a[R] = v[:, 1]
    return EvalResult(
        rho_d=float(gain[0]),
        rho_a=float(gain[1]),
        v_d=v_d,
        v_a=v_a,
        residual_norm=resid,
        recurrent={int(R[i]) for i in C},
    )


def _slack(
    game: Game, pi: PolicyPair, rho: tuple, v: tuple, own: bool = True, lookahead_d: tuple = ()
) -> dict:
    """Evaluation-equation slack per player, one entry per row of its
    marginal in the order of its ``Policy.flat``: rho[k] + v[k](s) minus the
    expected (payoff + next v[k]) when k plays the row at its state s against
    the opponent's mixture.  The payoff is k's own, or with ``own`` false
    both players' summed.  Rows at unreachable states get zero.
    ``lookahead_d``, when given, is the defender's marginal and that
    expectation q per row, as :func:`_restart_eval` computed them."""
    _check_order(pi)
    out = {}
    for k, (player, opp) in enumerate((("D", pi.a), ("A", pi.d))):
        if player == "D" and lookahead_d:
            m, q = lookahead_d
            vec = rho[k] + v[k][m.state] - q
        else:
            m = game.marginalize(opp, player)
            pay = m.r[k] if own else m.r.sum(axis=0)
            vec = rho[k] + v[k][m.state] - pay - m.expect(v[k])
        vec[~game.reachable[m.state]] = 0.0
        out[player] = vec
    return out


def _exact_slack(game: Game, pi: PolicyPair, own: bool = True) -> dict:
    """:func:`_slack` at the pair's exact evaluation, made on the restart
    DAG: no matrix, class split or linear solve.

    The reachable rows of both policies are validated.  One marginal of the
    intruder serves one :func:`_restart_eval` per payoff, or one of both
    players' summed payoff with ``own`` false; the evaluation is linear in
    the payoff, so that gives the summed gain and bias.  The lookahead of
    the first payoff then gives the defender's slack rows."""
    _check_order(pi)
    for pol in (pi.d, pi.a):
        pol._validate(game, live=game.reachable)
    m = game.marginalize(pi.a, "D")
    pays = m.r if own else (m.r[0] + m.r[1],)
    evals = [_restart_eval(game, m, pi.d.flat, pay) for pay in pays]
    (rho_d, v_d, q), (rho_a, v_a, _) = evals if own else evals * 2
    return _slack(game, pi, (rho_d, rho_a), (v_d, v_a), own, (m, q))


def _rows(first: np.ndarray, vec: np.ndarray) -> list[np.ndarray]:
    """Per-state tables of a per-row vector; state s owns rows first[s]:first[s + 1]."""
    return [vec[i:j] for i, j in itertools.pairwise(first.tolist())]


def _live(game: Game, player: str) -> np.ndarray:
    """Mask of the player's rows at reachable states."""
    return game.reachable[game.frames[player][0].state]


def _phis(game: Game, pi: PolicyPair, slack: dict[str, np.ndarray]) -> list[float]:
    """Policy-weighted slack sums (phi_D, phi_A) over the reachable rows only."""
    out = []
    for k, pol in (("D", pi.d), ("A", pi.a)):
        live = _live(game, k)
        out.append(float(pol.flat[live] @ slack[k][live]))
    return out


def omega(game: Game, pi: PolicyPair, ev: EvalResult | None = None) -> OmegaTable:
    """Per-(player, state, own action) equilibrium residuals.

    Entry (k, s, b) is the slack of player k's evaluation equation when k
    commits to action b at s against the opponent's mixture.  At an exact
    evaluation the policy-weighted slack vanishes state by state, and at an
    equilibrium no entry is meaningfully negative.
    """
    if ev is None:
        slack = _exact_slack(game, pi)
    else:
        slack = _slack(game, pi, (ev.rho_d, ev.rho_a), (ev.v_d, ev.v_a))
    return {k: _rows(game.frames[k][0].first, vec) for k, vec in slack.items()}


def delta(game: Game, pi: PolicyPair, om: OmegaTable) -> float:
    """Policy-weighted aggregate of all residuals (zero at exact evaluation)."""
    return sum(_phis(game, pi, {k: np.concatenate(om[k]) for k in ("D", "A")}))


def td_errors(
    game: Game,
    pi: PolicyPair,
    rho: tuple[float, float] | None = None,
    v: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[float, float, float]:
    """Aggregated per-player residuals (phi_D, phi_A, phi_T).

    With ``rho`` and ``v`` omitted the exact evaluation is used and both
    values are zero up to solver tolerance; passing learner iterates instead
    measures how far those iterates are from satisfying the evaluation
    equations under the current policies.  Passing only one of the two
    raises ``ValueError``.
    """
    if (rho is None) != (v is None):
        raise ValueError("pass both rho and v, or neither")
    slack = _exact_slack(game, pi) if rho is None else _slack(game, pi, rho, v)
    phi_d, phi_a = _phis(game, pi, slack)
    return phi_d, phi_a, phi_d + phi_a


def exact_gradient(game: Game, pi: PolicyPair, ev: EvalResult | None = None) -> OmegaTable:
    """Gradient of the aggregate residual in each policy coordinate.

    The aggregate is bilinear in the two policies once the evaluation pair
    (gain, bias) is frozen, so the derivative in coordinate (k, s, b) is the
    sum over both payoff players of the slack at (s, b) with the opponent
    marginalized.  Slack is linear in payoff, gain and bias, so that sum is
    the slack of the summed payoffs against the summed gains and biases.
    """
    if ev is None:
        slack = _exact_slack(game, pi, own=False)
    else:
        rho, v = ev.rho_d + ev.rho_a, ev.v_d + ev.v_a
        slack = _slack(game, pi, (rho, rho), (v, v), own=False)
    return {k: _rows(game.frames[k][0].first, vec) for k, vec in slack.items()}


def _restart_eval(
    game: Game, m: Marginal, w: np.ndarray, pay: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Gain, bias v and per-row lookahead q = pay + E v when
    ``m``'s rows are played with weights ``w`` and pay ``pay``, by
    back-substitution on the restart DAG (:meth:`Marginal.restart_solve`).
    Raises ``UnichainViolationError`` unless gain + v(s) = sum_b w_b q_b
    holds within 1e-9 at every reachable state s."""
    gain, v = m.restart_solve(w, pay, game.height)
    q = pay + m.expect(v)
    slack = gain + v - np.bincount(m.state, w * q, minlength=len(v))
    resid = float(np.abs(slack[game.reachable]).max())
    if not resid <= 1e-9:
        raise UnichainViolationError(f"evaluation residual {resid:.3g} exceeds 1e-9")
    return gain, v, q


def best_response(game: Game, opponent: Policy, player: str) -> tuple[Policy, float]:
    """Optimal deterministic reply and its gain against a fixed opponent.

    Policy iteration on the opponent-marginalized decision process restricted
    to reachable states.  Each round evaluates the current deterministic
    reply exactly by back-substitution on the restart DAG
    (:meth:`Marginal.restart_solve`) and checks that gain + v = rbar + P v
    holds within 1e-9 on every reachable state.  Then each state's candidate
    is its first action whose one-step lookahead is within 1e-10 of the
    best, and the state switches to it if that beats the incumbent by more
    than 1e-10; ties keep the incumbent.
    """
    if player not in ("D", "A"):
        raise ValueError(f"bad player {player!r}")
    if opponent.player != ("A" if player == "D" else "D"):
        raise ValueError("opponent policy is for the wrong player")
    opponent.validate(game)
    m = game.marginalize(opponent, player)
    r = m.r[0 if player == "D" else 1]
    R = np.flatnonzero(game.reachable)
    heads = m.first[:-1]
    choice = heads[R]  # chosen row per reachable state

    max_rounds = 10 + int(np.diff(m.first)[R].sum())
    for _ in range(max_rounds):
        gain, _, q = _restart_eval(game, m, np.bincount(choice, minlength=len(r)), r)
        # the first row within 1e-10 of its state's max: rows tied in exact
        # arithmetic pick the same candidate whatever the rounding
        hits = np.flatnonzero(q >= np.maximum.reduceat(q, heads)[m.state] - 1e-10)
        best = hits[np.searchsorted(m.state[hits], R)]
        better = q[best] > q[choice] + 1e-10
        if not better.any():
            break
        choice = np.where(better, best, choice)
    else:
        raise UnichainViolationError("policy iteration failed to settle")

    picks = heads.copy()  # unreachable states keep their first action
    picks[R] = choice
    flat = np.zeros(len(r))
    flat[picks] = 1.0
    return Policy._from_flat(player, m.first, flat), gain


def residuals(game: Game, pi: PolicyPair, ev: EvalResult | None = None) -> Residuals:
    if ev is None:
        slack = _exact_slack(game, pi)
    else:
        slack = _slack(game, pi, (ev.rho_d, ev.rho_a), (ev.v_d, ev.v_a))
    phi_d, phi_a = _phis(game, pi, slack)
    min_om = min(float(vec[_live(game, k)].min()) for k, vec in slack.items())
    return Residuals(phi_d + phi_a, phi_d, phi_a, phi_d + phi_a, min_om)


def _sharing_marginals(game: Game, pi: PolicyPair) -> Game:
    """A shallow copy of ``game`` whose ``marginalize`` builds the marginal
    against each policy of ``pi`` once and then hands it out again, so that
    :func:`evaluate_policy_pair` (through ``Game.induced_chain`` and
    ``Game.expected_rewards``), :func:`residuals` and both best responses
    share two marginals.  They stay public calls, which ``perfbench``
    traces."""
    shared, built = copy.copy(game), {}

    def marginalize(opponent, actor: str) -> Marginal:
        if opponent is not (pi.a if actor == "D" else pi.d):
            return game.marginalize(opponent, actor)
        if actor not in built:
            built[actor] = game.marginalize(opponent, actor)
        return built[actor]

    shared.marginalize = marginalize
    return shared


def certify_arne(game: Game, pi: PolicyPair, tol: float) -> Certificate:
    """Certificate that a policy pair is (within ``tol``) an equilibrium.

    Gap of player k is how much gain k could add by switching to a best
    response while the opponent stays put.  The verdict also requires no
    meaningfully negative residual and a near-zero aggregate.  The
    evaluation, the residuals and both best responses share one marginal of
    each opponent policy.
    """
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    game = _sharing_marginals(game, pi)
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
    intruder, as (name, rho_D, rho_A) rows.

    Only the gains are needed, so no chain is built: one marginal of the
    learned intruder serves all three defenders, and each gain is one
    back-substitution on the restart DAG per payoff, with the defender's
    rows as weights and the same 1e-9 residual check as
    :func:`best_response`.  The pair is validated first.
    """
    _check_order(learned)
    learned.d.validate(game)
    learned.a.validate(game)
    m = game.marginalize(learned.a, "D")
    rows = []
    for name, pol_d in (
        ("learned", learned.d),
        ("uniform", uniform_policy(game, "D")),
        ("cut", cut_policy(game)),
    ):
        rho_d, rho_a = (_restart_eval(game, m, pol_d.flat, pay)[0] for pay in m.r)
        rows.append((name, rho_d, rho_a))
    return rows
