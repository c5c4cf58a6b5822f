"""Exact evaluation and equilibrium certification for the inspection game.

These routines never sample.  Each one fixes one player's mixture and
reads the case table through :meth:`Game.marginalize`, which sums the
opponent out and leaves per-(state, own action) rows of expected payoffs
and sparse next-state distributions.  Every state of a built game is
reachable from the root, so every sum runs over all states and rows, with
no mask.

For a policy pair the induced chain has a single recurrent class containing
the root, so the evaluation equations anchored at the root have a unique
solution.  :func:`evaluate_policy_pair` weighs the rows into the induced
transition matrix (:meth:`Game.induced_chain`), checks its classes with
``classify_chain`` and makes one dense linear solve for the long-run
average payoff (gain) and the bias vector together.  Its residual, checked
against 1e-9, guards the unichain structure.  The slack of those equations
is one vector per player, an entry per (state, own action) row in the order
of the player's ``Policy.flat``.  One routine, ``_pair_slack``, computes it
for every oracle, at an evaluation it is given or at one it makes; phi,
Delta and min_omega reduce it over all rows.  Only :func:`omega` (own
payoffs), :func:`exact_gradient` (summed payoffs) and :func:`best_response`
return per-state tables; :class:`Residuals` holds none.

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
  :func:`td_errors`, when ``_pair_slack`` evaluates the pair for them: one
  per payoff against one marginal of the intruder, whose lookahead also
  gives the defender's slack rows.  The evaluation is linear in the payoff, so
  :func:`exact_gradient` makes one, of both players' summed payoff.  Given
  an evaluation, they use it instead.
* :func:`evaluate_policy_pair`, and so :func:`certify_arne`: the dense
  route.  ``perfbench`` reads its per-layer figures for ``induced_chain``,
  ``expected_rewards``, ``classify_chain`` and the linear solves from the
  certificate's evaluation, so it stays until those figures are re-pointed
  (ROADMAP item 1).

Every oracle that takes a policy pair first calls
:meth:`PolicyPair.validate`, and :func:`best_response` checks its opponent
with :meth:`Policy.validate`: every row must be a finite probability vector.
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
    v_d: np.ndarray  # bias per state, zero at the root
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


def evaluate_policy_pair(game: Game, pi: PolicyPair) -> EvalResult:
    """Exact gains and biases of both players under a fixed policy pair."""
    pi.validate(game)
    gain, v, C, resid = _solve_gain_bias(
        game.induced_chain(pi), np.column_stack(game.expected_rewards(pi)))
    v_d, v_a = v.T.copy()
    return EvalResult(float(gain[0]), float(gain[1]), v_d, v_a, resid, C)


def _pair_slack(game: Game, pi: PolicyPair, ev=None, own: bool = True) -> dict:
    """Validate ``pi``, then take the evaluation-equation slack of each
    player k, one entry per row of its marginal in ``Policy.flat`` order:
    rho[k] + v[k](s) minus the expected (payoff + next v[k]) when k plays the
    row at its state s against the opponent's mixture.  With ``own`` false
    the payoffs, gains and biases are both players' summed.

    ``(rho, v)`` is read off ``ev``: an :class:`EvalResult`, the iterates as
    :func:`td_errors` takes them, or ``None`` for the exact evaluation on the
    restart DAG.  That takes one marginal of the intruder and one
    :func:`_restart_eval` per payoff (one of the summed payoff: evaluation is
    linear in it), whose first lookahead gives the defender's slack rows."""
    pi.validate(game)
    m = game.marginalize(pi.a, "D")
    if ev is None:
        pays = m.r if own else (m.r[0] + m.r[1],)
        evals = [_restart_eval(m, pi.d.flat, pay) for pay in pays]
        (rho_d, v_d, q), (rho_a, v_a, _) = evals if own else evals * 2
        rho, v = (rho_d, rho_a), (v_d, v_a)
    else:
        rho, v = ((ev.rho_d, ev.rho_a), (ev.v_d, ev.v_a)) if isinstance(ev, EvalResult) else ev
        if not own:
            rho, v = (rho[0] + rho[1],) * 2, (v[0] + v[1],) * 2

    def slack(k: int, mk: Marginal) -> np.ndarray:
        pay = mk.r[k] if own else mk.r.sum(axis=0)
        return rho[k] + v[k][mk.state] - pay - mk.expect(v[k])

    return {"D": rho[0] + v[0][m.state] - q if ev is None else slack(0, m),
            "A": slack(1, game.marginalize(pi.d, "A"))}


def _tables(game: Game, pi: PolicyPair, ev: EvalResult | None, own: bool) -> OmegaTable:
    """Per-state tables of :func:`_pair_slack`; state s owns rows first[s]:first[s + 1]."""
    return {k: [vec[i:j] for i, j in itertools.pairwise(game.frames[k][0].first.tolist())]
            for k, vec in _pair_slack(game, pi, ev, own).items()}


def _phis(pi: PolicyPair, slack: dict[str, np.ndarray]) -> list[float]:
    """Policy-weighted slack sums (phi_D, phi_A)."""
    return [float(pol.flat @ slack[k]) for k, pol in (("D", pi.d), ("A", pi.a))]


def omega(game: Game, pi: PolicyPair, ev: EvalResult | None = None) -> OmegaTable:
    """Per-(player, state, own action) equilibrium residuals.

    Entry (k, s, b) is the slack of player k's evaluation equation when k
    commits to action b at s against the opponent's mixture.  At an exact
    evaluation the policy-weighted slack vanishes state by state, and at an
    equilibrium no entry is meaningfully negative.
    """
    return _tables(game, pi, ev, own=True)


def delta(game: Game, pi: PolicyPair, om: OmegaTable) -> float:
    """Policy-weighted aggregate of all residuals (zero at exact evaluation)."""
    pi.validate(game)
    return sum(_phis(pi, {k: np.concatenate(om[k]) for k in ("D", "A")}))


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
    phi_d, phi_a = _phis(pi, _pair_slack(game, pi, None if rho is None else (rho, v)))
    return phi_d, phi_a, phi_d + phi_a


def exact_gradient(game: Game, pi: PolicyPair, ev: EvalResult | None = None) -> OmegaTable:
    """Gradient of the aggregate residual in each policy coordinate.

    The aggregate is bilinear in the two policies once the evaluation pair
    (gain, bias) is frozen, so the derivative in coordinate (k, s, b) is the
    sum over both payoff players of the slack at (s, b) with the opponent
    marginalized.  Slack is linear in payoff, gain and bias, so that sum is
    the slack of the summed payoffs against the summed gains and biases.
    """
    return _tables(game, pi, ev, own=False)


def _restart_eval(m: Marginal, w: np.ndarray, pay: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Gain, bias v and per-row lookahead q = pay + E v when
    ``m``'s rows are played with weights ``w`` and pay ``pay``, by
    back-substitution on the restart DAG (:meth:`Marginal.restart_solve`).
    Raises ``UnichainViolationError`` unless gain + v(s) = sum_b w_b q_b
    holds within 1e-9 at every state s."""
    gain, v = m.restart_solve(w, pay)
    q = pay + m.expect(v)
    slack = gain + v - np.bincount(m.state, w * q, minlength=len(v))
    resid = float(np.abs(slack).max())
    if not resid <= 1e-9:
        raise UnichainViolationError(f"evaluation residual {resid:.3g} exceeds 1e-9")
    return gain, v, q


def best_response(game: Game, opponent: Policy, player: str) -> tuple[Policy, float]:
    """Optimal deterministic reply and its gain against a fixed opponent.

    Policy iteration on the opponent-marginalized decision process.  Each
    round evaluates the current deterministic reply exactly by
    back-substitution on the restart DAG (:meth:`Marginal.restart_solve`)
    and checks that gain + v = rbar + P v holds within 1e-9 on every state.
    Then each state's candidate is its first action whose one-step lookahead
    is within 1e-10 of the best, and the state switches to it if that beats
    the incumbent by more than 1e-10; ties keep the incumbent.
    """
    if player not in ("D", "A"):
        raise ValueError(f"bad player {player!r}")
    if opponent.player != ("A" if player == "D" else "D"):
        raise ValueError("opponent policy is for the wrong player")
    opponent.validate(game)
    m = game.marginalize(opponent, player)
    r = m.r[0 if player == "D" else 1]
    heads = m.first[:-1]
    choice = heads  # chosen row per state

    for _ in range(10 + len(r)):
        gain, _, q = _restart_eval(m, np.bincount(choice, minlength=len(r)), r)
        # the first row within 1e-10 of its state's max: rows tied in exact
        # arithmetic pick the same candidate whatever the rounding
        hits = np.flatnonzero(q >= np.maximum.reduceat(q, heads)[m.state] - 1e-10)
        best = hits[np.searchsorted(m.state[hits], np.arange(len(heads)))]
        better = q[best] > q[choice] + 1e-10
        if not better.any():
            break
        choice = np.where(better, best, choice)
    else:
        raise UnichainViolationError("policy iteration failed to settle")

    flat = np.zeros(len(r))
    flat[choice] = 1.0
    return Policy._from_flat(player, m.first, flat), gain


def residuals(game: Game, pi: PolicyPair, ev: EvalResult | None = None) -> Residuals:
    slack = _pair_slack(game, pi, ev)
    phi_d, phi_a = _phis(pi, slack)
    min_om = min(float(vec.min()) for vec in slack.values())
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
    pi.validate(game)
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
    :func:`best_response`.
    """
    learned.validate(game)
    m = game.marginalize(learned.a, "D")
    rows = []
    for name, pol_d in (
        ("learned", learned.d),
        ("uniform", uniform_policy(game, "D")),
        ("cut", cut_policy(game)),
    ):
        rho_d, rho_a = (_restart_eval(m, pol_d.flat, pay)[0] for pay in m.r)
        rows.append((name, rho_d, rho_a))
    return rows
