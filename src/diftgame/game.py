"""Average-reward stochastic game between a taint-tracking defender and an intruder
moving through an information-flow graph.

States are the root, state 0, and the (node, stage) pairs that some play reaches from it,
in (stage, node) order; :func:`build_game` drops every other pair, so no oracle meets a
state that cannot matter.  At the root the intruder picks an entry node.  At an ordinary
state the intruder moves the tainted flow along an out-edge or quits, while the defender
either inspects one out-neighbor or stays idle; inspecting the neighbor the flow actually
moves to catches it, up to a per-state false-negative rate.  Reaching a stage target
advances the intrusion to the next stage; after the final stage the episode restarts at
the root, so every policy pair induces a recurrent walk and long-run average rewards are
well defined.  :func:`build_game` applies the transition and payoff rule to every intruder
action at once, as numpy expressions over per-state and per-action arrays, into the case
table (:class:`Cases`).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import astuple, dataclass, field
from typing import NamedTuple

import numpy as np

from .ifg import Ifg, _sccs


class GameBuildError(ValueError):
    """Inconsistent game inputs (graph, parameters, rates)."""


class InvalidActionError(ValueError):
    """Action not available at the given state."""


class UnichainViolationError(RuntimeError):
    """The induced chain does not have a single root recurrent class."""


class DefAction(NamedTuple):
    kind: str  # "none" | "inspect"
    target: int  # inspected state index, -1 when idle


class AtkAction(NamedTuple):
    kind: str  # "move" | "quit"
    target: int  # next state index, -1 for quit


NO_INSPECT = DefAction("none", -1)
QUIT = AtkAction("quit", -1)

ROOT = 0  # state index of the root (pre-intrusion) state


def _check_signs(name: str, vals: tuple[float, ...], positive: bool) -> None:
    bad = [v for v in vals if not (math.isfinite(v) and (v > 0 if positive else v < 0))]
    if bad:
        want = "positive" if positive else "negative"
        raise GameBuildError(f"{name} entries must be {want}, got {vals}")


@dataclass(frozen=True)
class RewardParams:
    """Per-stage payoff scales.

    Defender: ``alpha_d`` reward for catching the flow, ``beta_d`` penalty
    when an idle defender lets the intrusion reach a stage target,
    ``sigma_d`` reward when the intruder quits, ``cost_d_per_stage`` the
    (non-positive) cost of running an inspection.  Intruder parameters
    mirror these with opposite signs.  The game is not zero-sum: the
    magnitudes differ on purpose.

    ``strict_table`` keeps the idle-defender condition on the ``beta``
    penalty; switching it off charges ``beta_d`` whenever the flow reaches a
    target, for sensitivity runs.
    """

    alpha_d: tuple[float, ...]
    beta_d: tuple[float, ...]
    sigma_d: tuple[float, ...]
    alpha_a: tuple[float, ...]
    beta_a: tuple[float, ...]
    sigma_a: tuple[float, ...]
    cost_d_per_stage: tuple[float, ...]
    cost_overrides: dict[tuple[int, int], float] = field(default_factory=dict)
    strict_table: bool = True

    def __post_init__(self) -> None:
        m = len(self.alpha_d)
        fields = (
            self.beta_d,
            self.sigma_d,
            self.alpha_a,
            self.beta_a,
            self.sigma_a,
            self.cost_d_per_stage,
        )
        if any(len(f) != m for f in fields):
            raise GameBuildError("all per-stage parameter tuples need equal length")
        _check_signs("alpha_d", self.alpha_d, positive=True)
        _check_signs("beta_d", self.beta_d, positive=False)
        _check_signs("sigma_d", self.sigma_d, positive=True)
        _check_signs("alpha_a", self.alpha_a, positive=False)
        _check_signs("beta_a", self.beta_a, positive=True)
        _check_signs("sigma_a", self.sigma_a, positive=False)
        if not all(math.isfinite(c) and c <= 0 for c in self.cost_d_per_stage):
            raise GameBuildError("inspection costs must be finite and <= 0")
        if not all(math.isfinite(c) and c <= 0 for c in self.cost_overrides.values()):
            raise GameBuildError("inspection cost overrides must be finite and <= 0")

    @property
    def stages(self) -> int:
        return len(self.alpha_d)

    @classmethod
    def defaults(cls, stages: int = 3) -> RewardParams:
        """Escalating per-stage scales used throughout the demos and tests."""
        j = range(1, stages + 1)
        return cls(
            alpha_d=tuple(40.0 * x for x in j),
            beta_d=tuple(-30.0 * x for x in j),
            sigma_d=tuple(30.0 + 20.0 * (x - 1) for x in j),
            alpha_a=tuple(-20.0 * x for x in j),
            beta_a=tuple(20.0 * x for x in j),
            sigma_a=tuple(-(30.0 + 20.0 * (x - 1)) for x in j),
            cost_d_per_stage=tuple(-1.0 * x for x in j),
        )

    def scaled(self, factor: float) -> RewardParams:
        """Uniformly rescaled copy (signs preserved for factor > 0)."""
        if not (math.isfinite(factor) and factor > 0):
            raise GameBuildError("scale factor must be finite and positive")

        def mul(t: tuple[float, ...]) -> tuple[float, ...]:
            return tuple(factor * x for x in t)

        return RewardParams(
            mul(self.alpha_d),
            mul(self.beta_d),
            mul(self.sigma_d),
            mul(self.alpha_a),
            mul(self.beta_a),
            mul(self.sigma_a),
            mul(self.cost_d_per_stage),
            {k: factor * v for k, v in self.cost_overrides.items()},
            self.strict_table,
        )


@dataclass(frozen=True)
class FnRates:
    """False-negative rate of inspection per targeted state.

    ``overrides`` maps (node, stage) to a rate; everything else gets
    ``default``.  A rate is the probability that inspecting the exact state
    the flow moves to still misses it.
    """

    default: float = 0.2
    overrides: dict[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        rates = [self.default, *self.overrides.values()]
        if any(not (0.0 <= r < 1.0) for r in rates):
            raise GameBuildError("false-negative rates must lie in [0, 1)")


class Cases(NamedTuple):
    """The kernel factored by defender case, one array entry per outcome.

    The defender cannot see where the flow moves, so an outcome depends on its action only
    through the case: idle (0), inspecting another successor (1) or inspecting the
    intruder's target (2).  States whose defender can only idle have case 0 alone, and a
    quit has no case 2.  Defender action di = 1 + i inspects the target of intruder action
    i, so the joint action (di, ai) takes case ``0 if di == 0 else 2 if di == ai + 1 else
    1`` (:meth:`Game.outcomes`).  The cases of the k-th intruder action, counting through
    the states in order, are numbers ``first[k]`` to ``first[k + 1] - 1``; the outcomes of
    case c are entries ``out[c]`` to ``out[c + 1] - 1``: one, or for case 2 a miss (unless
    the miss rate is 0) and a catch.  :func:`build_game` fills the table with numpy.
    """

    first: np.ndarray  # per intruder action, plus the case count
    out: np.ndarray  # per case, plus the entry count
    nxt: np.ndarray
    p: np.ndarray
    r: np.ndarray  # payoffs of D (row 0) and A (row 1)


class Marginal(NamedTuple):
    """One player's view of the game with the opponent's mixture summed out.

    The actor's own actions at state s are rows ``first[s]`` to
    ``first[s + 1] - 1``; ``r`` holds the expected payoffs of D and A per
    row.  Entry k puts ``prob[k]`` of a move from ``at[k]`` to ``nxt[k]`` in
    slot ``row[k]``.  A row moves as its own slot plus slot ``share``: the
    defender's inspections at s share s's slot, other rows the empty last.
    ``levels`` groups the entries for :meth:`restart_solve`.
    """

    first: np.ndarray
    state: np.ndarray  # state of each row
    share: np.ndarray
    r: np.ndarray
    row: np.ndarray
    at: np.ndarray
    nxt: np.ndarray
    prob: np.ndarray
    levels: Levels | None = None  # the entries by height, built once per frame

    def _sum(self, x: np.ndarray) -> np.ndarray:
        """Per-row sums of the per-entry values ``x``."""
        y = np.bincount(self.row, x, minlength=len(self.state) + len(self.first))
        return y[: len(self.state)] + y[self.share]

    def slots(self, w: np.ndarray) -> np.ndarray:
        """Per-row weights ``w`` over the slots: a state's slot sums the
        weights of the rows that take it, and the empty slot is 0."""
        x = np.bincount(self.share, w, minlength=len(self.state) + len(self.first))
        x[: len(w)], x[-1] = w, 0.0
        return x

    def expect(self, v: np.ndarray) -> np.ndarray:
        """Expected value of ``v`` at the next state, per row."""
        return self._sum(self.prob * v[self.nxt])

    def chain(self, w: np.ndarray) -> np.ndarray:
        """State transition matrix when each row is played with weight ``w``."""
        n = len(self.first) - 1
        cell = self.at * n + self.nxt
        return np.bincount(cell, self.prob * self.slots(w)[self.row], minlength=n * n).reshape(n, n)

    def restart_solve(self, w: np.ndarray, pay: np.ndarray) -> tuple[float, np.ndarray]:
        """Gain and root-anchored bias when each row is played with weight
        ``w`` and pays ``pay``, by back-substitution on the restart DAG.

        With P' the chain less its root column, a = rbar + P'a is the payoff
        and b = 1 + P'b the time until the next visit to the root.  Both
        solve level by level, sinks first (``levels``, see :func:`_heights`);
        then gain = a(root) / b(root) and v = a - gain b, so
        gain + v = rbar + P v with v(root) = 0.
        """
        lv = self.levels
        # a and b ride as the real and imaginary parts of one vector, so a
        # level takes one gather and one sum; real weights keep them apart
        x = np.bincount(self.state, w * pay, minlength=len(self.first) - 1) + 1j
        pe = self.prob[lv.order] * self.slots(w)[lv.row]
        for s, lo, hi, starts in lv.steps:
            x[s] += np.add.reduceat(pe[lo:hi] * x[lv.nxt[lo:hi]], starts)
        gain = float(x[ROOT].real / x[ROOT].imag)
        v = x.real - gain * x.imag
        v[ROOT] = 0.0
        return gain, v


class Levels(NamedTuple):
    """A marginal's entries into states other than the root, grouped sinks
    first by the height of the state they leave (see :func:`_heights`).

    Entry ``order[i]`` moves to ``nxt[i]`` in slot ``row[i]``.  Per height
    from 1 up, ``steps`` holds that height's states, the span ``lo:hi`` of
    its entries in ``order`` and, relative to ``lo``, where each state's
    entries begin; every state above height 0 has some.
    """

    order: np.ndarray
    row: np.ndarray
    nxt: np.ndarray
    steps: list[tuple[np.ndarray, int, int, np.ndarray]]


def _ends(start: np.ndarray, to: np.ndarray, front: np.ndarray) -> np.ndarray:
    """``to[start[s]:start[s + 1]]`` of each state s in ``front``, joined."""
    cnt = start[front + 1] - start[front]
    return to[np.repeat(start[front] - np.cumsum(cnt) + cnt, cnt) + np.arange(cnt.sum())]


def _reachable(first: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Mask of the states a play can reach from the root, when state s's
    intruder actions are rows ``first[s]`` to ``first[s + 1] - 1`` and move
    to ``t`` or, where it is -1, restart: every outcome goes one of those
    ways.  The frontier spreads a level per round."""
    n = len(first) - 1
    live, front = np.arange(n) == ROOT, np.array([ROOT])
    while len(front):
        nb = _ends(first, t, front)
        nb = nb[nb > ROOT]
        front = np.flatnonzero(np.bincount(nb[~live[nb]], minlength=n))
        live[front] = True
    return live


def _heights(n: int, at: np.ndarray, nxt: np.ndarray) -> np.ndarray:
    """Height of each state in the restart DAG.

    The restart DAG is the game graph without its edges into the root; the entries
    ``at[k] -> nxt[k]``, sorted by ``at``, list the game graph's edges, repeats allowed.  A
    state whose every outcome restarts has height 0, any other one more than its highest
    next state.  Heights spread from the sinks, a level per round; a state on or above a
    cycle gets none, and ``UnichainViolationError`` is raised.
    """
    keep = np.flatnonzero(nxt != ROOT)
    keep = keep[np.diff(at[keep] * n + nxt[keep], prepend=-1) != 0]  # drop repeats in a row
    src, dst = at[keep], nxt[keep]
    by_dst = np.sort(dst * n + src)  # np.argsort would page in another sort kernel
    start, pred = np.searchsorted(by_dst // n, np.arange(n + 1)), by_dst % n
    left, h, k = np.bincount(src, minlength=n), np.full(n, -1), 0  # left: next states unplaced
    front = np.flatnonzero(left == 0)
    while len(front):
        h[front], done = k, np.bincount(_ends(start, pred, front), minlength=n)
        left, k = left - done, k + 1
        front = np.flatnonzero((done > 0) & (left == 0))
    if (h < 0).any():
        raise UnichainViolationError("the game graph less its edges into the root has a cycle, "
                                     f"reached from state {int(np.argmax(h < 0))}")
    return h


def _levels(m: Marginal, height: np.ndarray) -> Levels:
    """Group ``m``'s entries into non-root states by the height of the
    state they leave, then by that state."""
    n = len(height)
    keep = np.flatnonzero((height[m.at] > 0) & (m.nxt != ROOT))
    rank = np.empty(n, dtype=np.min_scalar_type(n))  # small keys sort by radix
    rank[np.argsort(height, kind="stable")] = np.arange(n)
    order = keep[np.argsort(rank[m.at[keep]], kind="stable")]
    at = m.at[order]
    h = height[at]
    new = np.flatnonzero(np.diff(at, prepend=-1))  # where each state's entries begin
    cut = np.searchsorted(h, np.arange(1, h[-1] + 2))  # the root's moves are entries
    steps = [(at[new[a:b]], lo, hi, new[a:b] - lo)
             for (lo, hi), (a, b) in zip(itertools.pairwise(cut.tolist()),
                                         itertools.pairwise(np.searchsorted(new, cut).tolist()))]
    return Levels(order, m.row[order], m.nxt[order], steps)


@dataclass
class Game:
    """Built game: state indexing, action sets, case table, restart-DAG
    heights, marginal frames, each player's rows grouped by action count,
    and on first use the case table as Python values for sampling
    (:attr:`case_outcomes`)."""

    ifg: Ifg
    params: RewardParams
    fn: np.ndarray  # false-negative rate per state index
    node_of: np.ndarray  # node id per state, -1 at root
    stage_of: np.ndarray  # stage per state, 1 at root by convention
    is_dest: np.ndarray  # state is a stage target at its own stage
    cost_d: np.ndarray  # inspection cost per state (0 where not chargeable)
    actions_d: list[tuple[DefAction, ...]]
    actions_a: list[tuple[AtkAction, ...]]
    reachable: np.ndarray  # all True: build_game keeps only the states a play can reach
    cases: Cases = field(repr=False)
    height: np.ndarray = field(repr=False)  # in the restart DAG
    frames: dict = field(repr=False)
    target_d: np.ndarray = field(repr=False)  # inspected state per defender row, -1 idle
    row_blocks: dict = field(repr=False)  # per player, as :func:`_row_blocks` gives them

    @property
    def n_states(self) -> int:
        return len(self.actions_d)

    @property
    def stages(self) -> int:
        return self.ifg.stages

    def state_index(self, node: int, stage: int) -> int:
        """The state of ``node`` at ``stage``; ``GameBuildError`` if the pair
        is outside the graph or no play reaches it, so the game dropped it."""
        if 0 <= node < self.ifg.n_nodes and 1 <= stage <= self.stages:
            at = np.flatnonzero((self.node_of == node) & (self.stage_of == stage))
            if len(at):
                return int(at[0])
        raise GameBuildError(f"no state for node {node}, stage {stage}")

    def state_label(self, s: int) -> str:
        if s == ROOT:
            return "s0"
        return f"n{self.node_of[s]}@{self.stage_of[s]}"

    def action_label(self, act: DefAction | AtkAction) -> str:
        if act.kind == "none":
            return "none"
        if act.kind == "quit":
            return "quit"
        return f"{act.kind}:{act.target}"

    # -- kernel and rewards -------------------------------------------------

    def _indices(self, s: int, d: DefAction, a: AtkAction) -> tuple[int, int]:
        """Indices of the actions ``d`` and ``a`` at state s."""
        acts = 0 <= s < self.n_states and (self.actions_d[s], self.actions_a[s])
        if not (acts and d in acts[0] and a in acts[1]):
            raise InvalidActionError(f"joint action ({d}, {a}) unavailable at state {s}")
        return acts[0].index(d), acts[1].index(a)

    def transition_dist(self, s: int, d: DefAction, a: AtkAction) -> list[tuple[int, float]]:
        """Support of the next-state distribution as (state, probability) pairs."""
        return [(s2, p) for s2, p, _, _ in self.outcomes(s, *self._indices(s, d, a))]

    def reward(self, s: int, d: DefAction, a: AtkAction, s_next: int) -> tuple[float, float]:
        """One-step payoffs (defender, intruder) for a realized transition."""
        for s2, _, r_d, r_a in self.outcomes(s, *self._indices(s, d, a)):
            if s2 == s_next:
                return r_d, r_a
        raise InvalidActionError(
            f"state {self.state_label(s_next)} not reachable from "
            f"{self.state_label(s)} under ({d}, {a})"
        )

    @functools.cached_property
    def case_outcomes(self) -> list[list[tuple]]:
        """The :class:`Cases` table as plain Python values (sampling loops need floats,
        not numpy scalars): one row per (state, intruder action), indexed [s][ai], holding
        a tuple of (s', p, r_d, r_a) outcomes per case in case order.  Built on first use;
        numpy groups equal tuples (most cases share their outcomes) into one tuple each,
        made from the first of them (-0.0 == 0.0)."""
        c = self.cases
        key, size = c.nxt, self.n_states
        for col in (c.p, *c.r):
            code, k = _rank(col)
            key, size = (key, size) if size * k < 2**63 else _rank(key)
            key, size = key * k + code, size * k
        grp, first = _groups(key, size)
        entries = list(zip(*(x[first].tolist() for x in (c.nxt, c.p, *c.r))))
        a, b = grp[c.out[:-1]], np.where(np.diff(c.out) > 1, grp[c.out[1:] - 1], -1)
        case, first = _groups(a * (len(entries) + 1) + b + 1, (len(entries) + 1) ** 2)
        outs = [(entries[x],) if y < 0 else (entries[x], entries[y])
                for x, y in zip(a[first].tolist(), b[first].tolist())]
        at = np.minimum(c.first[:-1, None] + np.arange(3), len(case) - 1)  # at most 3 cases
        by_action = list(zip(*np.fromiter(outs, object, len(outs))[case[at]].T.tolist()))
        for k in np.flatnonzero(np.diff(c.first) < 3).tolist():
            by_action[k] = by_action[k][: c.first[k + 1] - c.first[k]]
        return [by_action[i:j] for i, j in itertools.pairwise(self.frames["A"][0].first.tolist())]

    def outcomes(self, s: int, di: int, ai: int) -> tuple[tuple[int, float, float, float], ...]:
        """(s', p, r_d, r_a) of each outcome of the action indices (di, ai)
        at s: the case that :class:`Cases` assigns (di, ai), read from the
        row of ``ai``."""
        acts = 0 <= s < self.n_states and (self.actions_d[s], self.actions_a[s])
        if not (acts and 0 <= di < len(acts[0]) and 0 <= ai < len(acts[1])):
            raise InvalidActionError(f"no joint action ({di}, {ai}) at state {s}")
        return self.case_outcomes[s][ai][0 if di == 0 else 2 if di == ai + 1 else 1]

    def marginalize(self, opponent, actor: str) -> Marginal:
        """The game as seen by ``actor`` while ``opponent`` plays its mixture.
        ``frames[actor]`` holds the actor's outcomes, ``prob`` and ``r`` per
        outcome, weighted here by the opponent's slot ``u`` less slot ``v``;
        a row reads only the weights at its own state."""
        m, u, v = self.frames[actor]
        x = self.frames["A" if actor == "D" else "D"][0].slots(opponent.flat)
        prob = m.prob * (x[u] - x[v])
        return m._replace(r=np.array([m._sum(prob * pay) for pay in m.r]), prob=prob)

    def induced_chain(self, pi) -> np.ndarray:
        """Row-stochastic state transition matrix under a policy pair."""
        return self.marginalize(pi.a, "D").chain(pi.d.flat)

    def expected_rewards(self, pi) -> tuple[np.ndarray, np.ndarray]:
        """Per-state expected one-step payoffs under a policy pair."""
        m = self.marginalize(pi.a, "D")
        rd, ra = (np.bincount(m.state, pi.d.flat * r, minlength=self.n_states) for r in m.r)
        return rd, ra


def _row_blocks(first: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """One (states, positions) pair per action count k that occurs, when
    state s owns rows ``first[s]`` to ``first[s + 1] - 1``: the states with k
    actions, and the (states, k) block of their rows' positions.
    :meth:`Policy.validate` gathers a policy's rows by them."""
    sizes = np.diff(first)
    ks = np.flatnonzero(np.bincount(sizes))  # np.unique would import numpy.ma
    return [(rows := np.flatnonzero(sizes == k), first[rows, None] + np.arange(k)) for k in ks.tolist()]


def _rank(x: np.ndarray) -> tuple[np.ndarray, int]:
    """Ranks of ``x``'s values among the distinct ones (-0.0 == 0.0), and how many."""
    s = np.sort(x)
    d = s[np.concatenate(([True], s[1:] != s[:-1]))]
    return np.searchsorted(d, x), len(d)


def _groups(key: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The group of each int in ``key`` (all below ``size``) and each group's first
    position, from one sort with the positions packed in (np.unique imports numpy.ma)."""
    n = len(key)
    packed = np.sort((key if size * n < 2**63 else _rank(key)[0]) * n + np.arange(n))
    at, val = packed % n, packed // n
    head = np.concatenate(([True], val[1:] != val[:-1]))
    grp = np.empty(n, dtype=np.int64)
    grp[at] = np.cumsum(head) - 1
    return grp, at[head]


def build_game(ifg: Ifg, params: RewardParams, fn: FnRates | None = None) -> Game:
    """Assemble the stochastic game for a pruned acyclic attack graph."""
    ifg.validate()
    if params.stages != ifg.stages:
        raise GameBuildError(
            f"parameter tuples cover {params.stages} stages, graph has {ifg.stages}"
        )
    fn = fn or FnRates()
    n_nodes, M, n = ifg.n_nodes, ifg.stages, 1 + ifg.n_nodes * ifg.stages
    # before the unreachable states go, state 1 + (j - 1) * n_nodes + i is node i at stage j
    node_of = np.concatenate(([-1], np.tile(np.arange(n_nodes), M)))
    stage_of = np.concatenate(([1], np.repeat(np.arange(1, M + 1), n_nodes)))
    dest = np.zeros((M, n_nodes), dtype=bool)
    for j, d in enumerate(ifg.destinations):
        dest[j, list(d)] = True
    is_dest = np.concatenate(([False], dest.ravel()))
    free = dest.any(axis=0)
    free[list(ifg.entries)] = True

    def per_state(root, per_stage, overrides, what):
        x = np.concatenate(([root], np.repeat(np.asarray(per_stage, dtype=float), n_nodes)))
        for (i, j), v in overrides.items():
            if not (0 <= i < n_nodes and 1 <= j <= M):
                raise GameBuildError(f"{what} override ({i}, {j}) outside the graph")
            x[1 + (j - 1) * n_nodes + i] = v
        return x

    fn_arr = per_state(fn.default, [fn.default] * M, fn.overrides, "false-negative")
    cost_d = per_state(0.0, params.cost_d_per_stage, params.cost_overrides, "cost")
    if bad := [key for key in params.cost_overrides if free[key[0]]]:
        raise GameBuildError(f"cost override {bad[0]} targets a cost-free node")
    # -0.0 + 0.0 is 0.0, so a free inspection pays +0.0: case_outcomes keeps
    # one of each group of equal tuples, and -0.0 == 0.0
    cost_d = np.where(np.append(True, np.tile(free, M)), 0.0, cost_d) + 0.0

    # Actions by the state each names.  An ordinary state's intruder moves to each successor
    # at its stage, then quits (-1); its defender idles (-1), then inspects intruder action
    # q's target in row 1 + q.  A target state moves to its node at the next stage, after
    # the last to the root.
    edges = np.sort(np.fromiter((u * n_nodes + v for u, v in ifg.edges), int, len(ifg.edges)))
    edges = edges[np.diff(edges, prepend=-1) != 0]
    ptr = np.append(0, np.bincount(edges // n_nodes, minlength=n_nodes)).cumsum()
    ordinary = ~is_dest & (np.arange(n) != ROOT)
    n_d = np.where(ordinary, 1 + np.diff(ptr)[node_of], 1)
    n_a = np.where(np.arange(n) == ROOT, len(ifg.entries), n_d)
    first_a = np.append(0, n_a).cumsum()
    state_a = np.repeat(np.arange(n), n_a)
    pos, i = np.arange(first_a[-1]) - first_a[state_a], node_of[state_a]
    t = np.where(is_dest[state_a], np.where(state_a + n_nodes < n, state_a + n_nodes, ROOT), -1)
    mv = ordinary[state_a] & (pos < n_a[state_a] - 1)
    t[mv] = (edges % n_nodes)[ptr[i[mv]] + pos[mv]] + (state_a - i)[mv]
    t[: n_a[ROOT]] = 1 + np.array(sorted(ifg.entries))
    # The game keeps the states a play can reach, in order, so the root stays 0
    live = _reachable(first_a, t)
    t, new = t[live[state_a]], np.cumsum(live) - 1
    t = np.where(t < 0, -1, new[t])
    del pos, i, mv, ordinary
    node_of, stage_of, is_dest, fn_arr, cost_d, n_d, n_a = (
        x[live] for x in (node_of, stage_of, is_dest, fn_arr, cost_d, n_d, n_a))
    n = len(n_d)
    first_d, first_a = np.append(0, n_d).cumsum(), np.append(0, n_a).cumsum()
    nd, na = first_d[-1], first_a[-1]
    state_d, state_a = np.repeat(np.arange(n), n_d), np.repeat(np.arange(n), n_a)
    tgt_d = np.where((q := np.arange(nd) - first_d[state_d]) > 0, t[first_a[state_d] + q - 1], -1)
    acts = (np.fromiter(x, object, n + 1)[tgt].tolist() for x, tgt in (  # the last names -1
        ([*(DefAction("inspect", s) for s in range(n)), NO_INSPECT], tgt_d),
        ([*(AtkAction("move", s) for s in range(n)), QUIT], t)))
    actions_d, actions_a = ([tuple(x[i:j]) for i, j in itertools.pairwise(f.tolist())]
                            for x, f in zip(acts, (first_d, first_a)))

    # The rule: intruder action k at s with target t has up to four outcomes, in slots: case
    # 0, case 1, case 2's miss and its catch.  A quit restarts and pays sigma.  An uncaught
    # move to a target of s's stage pays beta unless a strict table excuses an inspecting
    # defender; inspecting costs cost_d[s]; a catch restarts and pays alpha.  Cases 1 and 2
    # need a defender who can inspect, case 2 a move, and its miss a nonzero rate.
    s, j = state_a, stage_of[state_a] - 1
    quit, cost, miss = t < 0, cost_d[s], fn_arr[t]
    hit = ~quit & is_dest[t] & (stage_of[t] == j + 1)
    beta = hit & (not params.strict_table)
    alp_d, bet_d, sig_d, alp_a, bet_a, sig_a = np.array(astuple(params)[:6], dtype=float)[:, j]
    stay, arrive_a = np.where(quit, ROOT, t), np.where(quit, sig_a, np.where(hit, bet_a, 0.0))
    slots = ((stay, 1.0, np.where(quit, sig_d, np.where(hit, bet_d, 0.0)), arrive_a),
             (stay, 1.0, np.where(quit, sig_d + cost, np.where(beta, bet_d, cost)), arrive_a),
             (t, miss, np.where(beta, bet_d, 0.0), arrive_a),
             (ROOT, 1.0 - miss, alp_d + cost, alp_a))
    can = n_d[s] > 1
    has = np.stack([np.ones_like(can), can, can & ~quit & (miss != 0.0), can & ~quit], axis=1)
    k, slot = np.nonzero(has)
    out = np.flatnonzero((slot != 3) | (np.roll(slot, 1) != 2))  # a catch after its miss
    nxt, p, *r = (np.stack(np.broadcast_arrays(*(x[f] for x in slots)), axis=1)[has]
                  for f in range(4))
    c = Cases(np.append(0, has[:, [0, 1, 3]].sum(axis=1)).cumsum(), np.append(out, len(k)),
              nxt, p, np.array(r))
    del s, j, quit, cost, miss, hit, beta, alp_d, bet_d, sig_d, alp_a, bet_a, sig_a, stay, slots
    del nxt, p, r, out

    # Marginal frames: an outcome of case c of intruder action k at state s weighs pi_A(k)
    # times the defender's mass on idling (c = 0), inspecting k's target (c = 2) or other
    # successors (c = 1): s's slot, which sums its inspections, less the target's row.  The
    # defender's frame puts c = 1 in s's slot and a copy weighing -pi_A(k) in the target's row.
    s = state_a[k]
    tgt = first_d[s] + 1 + k - first_a[s]
    row = np.select([slot == 0, slot >= 2], [first_d[s], tgt], nd + s)
    swap = (slot == 1) & has[k, 3]
    off, e = np.where(swap, tgt, nd + n), np.flatnonzero(swap)
    share_d = np.where(np.arange(nd) == first_d[state_d], nd + n, nd + state_d)
    f_d = Marginal(first_d, state_d, share_d, np.concatenate((c.r, c.r[:, e]), axis=1),
                   np.append(row, tgt[e]), np.append(s, s[e]), np.append(c.nxt, c.nxt[e]),
                   np.append(c.p, c.p[e]))
    f_a = Marginal(first_a, state_a, np.full(na, na + n), c.r, k, s, c.nxt, c.p)
    u_d, v_d = np.append(k, np.full(len(e), na + n)), np.append(np.full(len(k), na + n), k[e])
    del has, slot, tgt, swap
    height = _heights(n, s, c.nxt)
    f_d, f_a = (f._replace(levels=_levels(f, height)) for f in (f_d, f_a))
    return Game(ifg=ifg, params=params, fn=fn_arr, node_of=node_of, stage_of=stage_of,
                is_dest=is_dest, cost_d=cost_d, actions_d=actions_d, actions_a=actions_a,
                reachable=np.ones(n, dtype=bool), cases=c, height=height, target_d=tgt_d,
                frames={"D": (f_d, u_d, v_d), "A": (f_a, row, off)},
                row_blocks={"D": _row_blocks(first_d), "A": _row_blocks(first_a)})


def classify_chain(P: np.ndarray) -> tuple[list[set[int]], set[int]]:
    """Split a finite chain into recurrent classes and transient states.

    Recurrent classes are the closed communicating classes of the support
    digraph; everything else is transient.
    """
    n = P.shape[0]
    if P.shape != (n, n):
        raise ValueError("P must be square")
    # the test of np.allclose(row sums, 1.0, atol=1e-9), without its call overhead
    if not (np.abs(P.sum(axis=1) - 1.0) <= 1e-9 + 1e-5).all():
        raise ValueError("P rows must sum to one")
    adj: dict[int, list[int]] = {s: [] for s in range(n)}
    for s, s2 in zip(*(idx.tolist() for idx in np.nonzero(P > 0.0))):
        adj[s].append(s2)
    recurrent = []
    for comp in _sccs(adj):
        members = set(comp)
        if all(w in members for v in comp for w in adj[v]):
            recurrent.append(members)
    recurrent.sort(key=min)
    transient = set(range(n)).difference(*recurrent)
    return recurrent, transient
