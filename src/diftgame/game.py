"""Average-reward stochastic game between a taint-tracking defender and an
intruder moving through an information-flow graph.

States are a root state plus one state per (node, stage) pair.  At the root
the intruder picks an entry node.  At an ordinary state the intruder moves
the tainted flow along an out-edge or quits, while the defender either
inspects one out-neighbor or stays idle; inspecting the neighbor the flow
actually moves to catches it, up to a per-state false-negative rate.
Reaching a stage target advances the intrusion to the next stage; after the
final stage the episode restarts at the root, so every policy pair induces a
recurrent walk and long-run average rewards are well defined.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .ifg import Ifg, _reach_from, _sccs


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

    The defender cannot see where the flow moves, so an outcome depends on
    its action only through the case: idle (0), inspecting another
    successor (1) or inspecting the intruder's target (2).  States whose
    defender can only idle have case 0 alone, and a quit has no case 2.
    Defender action di = 1 + i inspects the target of intruder action i,
    so the joint action (di, ai) takes case
    ``0 if di == 0 else 2 if di == ai + 1 else 1`` (:meth:`Game.outcomes`).
    The cases of the k-th intruder action, counting through the states in
    order, are numbers ``first[k]`` to ``first[k + 1] - 1``; the outcomes
    of case c are entries ``out[c]`` to ``out[c + 1] - 1``.
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

    def restart_solve(
        self, w: np.ndarray, pay: np.ndarray, height: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """Gain and root-anchored bias when each row is played with weight
        ``w`` and pays ``pay``, by back-substitution on the restart DAG.

        With P' the chain less its root column, a = rbar + P'a is the payoff
        and b = 1 + P'b the time until the next visit to the root.  Both
        solve level by level, sinks first (``height``, see
        :func:`_heights`); then gain = a(root) / b(root) and v = a - gain b,
        so gain + v = rbar + P v with v(root) = 0.  Unreachable states get
        v = 0.
        """
        lv = self.levels
        # a and b ride as the real and imaginary parts of one vector, so a
        # level takes one gather and one sum; real weights keep them apart
        x = np.bincount(self.state, w * pay, minlength=len(height)) + 1j
        pe = self.prob[lv.order] * self.slots(w)[lv.row]
        for s, lo, hi, starts in lv.steps:
            x[s] += np.add.reduceat(pe[lo:hi] * x[lv.nxt[lo:hi]], starts)
        gain = float(x[ROOT].real / x[ROOT].imag)
        v = np.where(height >= 0, x.real - gain * x.imag, 0.0)
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


def _heights(n: int, at: np.ndarray, nxt: np.ndarray, reachable: np.ndarray) -> np.ndarray:
    """Height of each reachable state in the restart DAG, -1 elsewhere.

    The restart DAG is the game graph without its edges into the root; the
    entries ``at[k] -> nxt[k]``, sorted by ``at``, list the game graph's
    edges, repeats allowed.  A state whose every outcome restarts has
    height 0, any other one more than its highest next state.  All heights
    relax together from 0, so after round k each is min(height, k) and they
    have settled once none reaches k.  On a cycle some never settle, and
    ``UnichainViolationError`` is raised after as many rounds as there are
    states with next states.
    """
    keep = np.flatnonzero(reachable[at] & (nxt != ROOT))
    keep = keep[np.diff(at[keep] * n + nxt[keep], prepend=-1) != 0]  # drop repeats in a row
    src, dst = at[keep], nxt[keep]
    head = np.flatnonzero(np.diff(src, prepend=-1))
    src, h = src[head], np.zeros(n, dtype=int)
    for k in range(1, len(head) + 2):
        h[src] = np.maximum.reduceat(h[dst], head) + 1
        if h.max() < k:
            return np.where(reachable, h, -1)
    s = int(np.argmax(h))
    raise UnichainViolationError(
        f"the game graph less its edges into the root has a cycle, reached from state {s}"
    )


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
    heights, marginal frames, and on first use the case table as Python
    values for sampling (:attr:`case_outcomes`)."""

    ifg: Ifg
    params: RewardParams
    fn: np.ndarray  # false-negative rate per state index
    node_of: np.ndarray  # node id per state, -1 at root
    stage_of: np.ndarray  # stage per state, 1 at root by convention
    is_dest: np.ndarray  # state is a stage target at its own stage
    cost_d: np.ndarray  # inspection cost per state (0 where not chargeable)
    actions_d: list[tuple[DefAction, ...]]
    actions_a: list[tuple[AtkAction, ...]]
    reachable: np.ndarray  # reachable from the root in the game graph
    cases: Cases = field(repr=False, default=None)  # type: ignore[assignment]
    # height in the restart DAG per reachable state, -1 elsewhere
    height: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    frames: dict = field(repr=False, default=None)  # type: ignore[assignment]

    @property
    def n_states(self) -> int:
        return len(self.actions_d)

    @property
    def stages(self) -> int:
        return self.ifg.stages

    def state_index(self, node: int, stage: int) -> int:
        if not (0 <= node < self.ifg.n_nodes and 1 <= stage <= self.stages):
            raise GameBuildError(f"no state for node {node}, stage {stage}")
        return 1 + (stage - 1) * self.ifg.n_nodes + node

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

    def _rule(self, s: int, case: int, a: AtkAction) -> list[tuple[int, float, float, float]]:
        """(s', p, r_d, r_a) for each outcome of intruder action ``a`` at s
        under defender case ``case`` (see :class:`Cases`)."""
        j = int(self.stage_of[s]) - 1
        p = self.params
        cost = float(self.cost_d[s]) if case else 0.0
        if a.kind == "quit":
            return [(ROOT, 1.0, p.sigma_d[j] + cost, p.sigma_a[j])]
        t = a.target
        # payoffs when the flow arrives at t uncaught
        hit = bool(self.is_dest[t]) and int(self.stage_of[t]) == j + 1
        if hit and (not case or not p.strict_table):
            arrive = (p.beta_d[j], p.beta_a[j])
        else:
            arrive = (cost if case == 1 else 0.0, p.beta_a[j] if hit else 0.0)
        if case != 2:
            return [(t, 1.0, *arrive)]
        miss = float(self.fn[t])
        caught = (ROOT, 1.0 - miss, p.alpha_d[j] + cost, p.alpha_a[j])
        return [caught] if miss == 0.0 else [(t, miss, *arrive), caught]

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
        """The :class:`Cases` table as plain Python values (sampling loops
        need floats, not numpy scalars): one row per (state, intruder
        action), indexed [s][ai], holding a tuple of (s', p, r_d, r_a)
        outcomes per case in case order.  Built on first use; equal tuples
        are stored once, as most cases share their outcomes with others."""
        c = self.cases
        shared: dict = {}
        entries = zip(c.nxt.tolist(), c.p.tolist(), *c.r.tolist())
        entries = [shared.setdefault(e, e) for e in entries]
        outs = (tuple(entries[i:j]) for i, j in itertools.pairwise(c.out.tolist()))
        outs = [shared.setdefault(o, o) for o in outs]
        by_action = [tuple(outs[i:j]) for i, j in itertools.pairwise(c.first.tolist())]
        first = itertools.accumulate(map(len, self.actions_a), initial=0)
        return [by_action[i:j] for i, j in itertools.pairwise(first)]

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
        outcome, weighted here by the opponent's slot ``u`` less slot ``v``.
        A NaN or inf weight at an unreachable state counts as 0, so it
        cannot turn arithmetic invalid; every other weight is used as given,
        and rows at reachable states read only weights at their own state."""
        m, u, v = self.frames[actor]
        o = self.frames["A" if actor == "D" else "D"][0]
        w = opponent.flat
        x = o.slots(np.where(self.reachable[o.state] | np.isfinite(w), w, 0.0))
        prob = m.prob * (x[u] - x[v])
        return m._replace(r=np.array([m._sum(prob * pay) for pay in m.r]), prob=prob)

    def induced_chain(self, pi) -> np.ndarray:
        """Row-stochastic state transition matrix under a policy pair."""
        return self.marginalize(pi.a, "D").chain(pi.d.flat)

    def expected_rewards(self, pi) -> tuple[np.ndarray, np.ndarray]:
        """Per-state expected one-step payoffs under a policy pair."""
        m = self.marginalize(pi.a, "D")
        w = pi.d.flat
        rd, ra = (np.bincount(m.state, w * r, minlength=self.n_states) for r in m.r)
        return rd, ra


def build_game(ifg: Ifg, params: RewardParams, fn: FnRates | None = None) -> Game:
    """Assemble the stochastic game for a pruned acyclic attack graph."""
    ifg.validate()
    if params.stages != ifg.stages:
        raise GameBuildError(
            f"parameter tuples cover {params.stages} stages, graph has {ifg.stages}"
        )
    fn = fn or FnRates()
    n_nodes, M = ifg.n_nodes, ifg.stages
    n = 1 + n_nodes * M
    node_of = np.full(n, -1, dtype=int)
    stage_of = np.ones(n, dtype=int)
    for j in range(1, M + 1):
        for i in range(n_nodes):
            s = 1 + (j - 1) * n_nodes + i
            node_of[s] = i
            stage_of[s] = j

    fn_arr = np.full(n, fn.default)
    for (node, stage), rate in fn.overrides.items():
        if not (0 <= node < n_nodes and 1 <= stage <= M):
            raise GameBuildError(f"false-negative override ({node}, {stage}) outside the graph")
        fn_arr[1 + (stage - 1) * n_nodes + node] = rate

    dest_all = set().union(*ifg.destinations)
    is_dest = np.zeros(n, dtype=bool)
    cost_d = np.zeros(n)
    for s in range(1, n):
        i, j = int(node_of[s]), int(stage_of[s])
        is_dest[s] = i in ifg.destinations[j - 1]
        if i not in ifg.entries and i not in dest_all:
            cost_d[s] = params.cost_overrides.get((i, j), params.cost_d_per_stage[j - 1])
    # -0.0 + 0.0 is 0.0, so a free inspection pays +0.0: case_outcomes keeps
    # one of each group of equal tuples, and -0.0 == 0.0
    cost_d += 0.0
    for key in params.cost_overrides:
        i, j = key
        if not (0 <= i < n_nodes and 1 <= j <= M):
            raise GameBuildError(f"cost override {key} outside the graph")
        if i in ifg.entries or i in dest_all:
            raise GameBuildError(f"cost override {key} targets a cost-free node")

    adj = ifg.adjacency()
    actions_d: list[tuple[DefAction, ...]] = []
    actions_a: list[tuple[AtkAction, ...]] = []
    for s in range(n):
        if s == ROOT:
            moves = tuple(
                AtkAction("move", 1 + 0 * n_nodes + e) for e in sorted(ifg.entries)
            )
            actions_d.append((NO_INSPECT,))
            actions_a.append(moves)
            continue
        i, j = int(node_of[s]), int(stage_of[s])
        if is_dest[s]:
            nxt = ROOT if j == M else 1 + j * n_nodes + i
            actions_d.append((NO_INSPECT,))
            actions_a.append((AtkAction("move", nxt),))
            continue
        succ = [1 + (j - 1) * n_nodes + v for v in adj[i]]
        actions_d.append(
            (NO_INSPECT, *(DefAction("inspect", t) for t in succ))
        )
        actions_a.append((*(AtkAction("move", t) for t in succ), QUIT))

    game = Game(
        ifg=ifg,
        params=params,
        fn=fn_arr,
        node_of=node_of,
        stage_of=stage_of,
        is_dest=is_dest,
        cost_d=cost_d,
        actions_d=actions_d,
        actions_a=actions_a,
        reachable=np.zeros(n, dtype=bool),
    )

    # The rule runs once per (state, intruder action, defender case)
    rule = game._rule
    n_cases, n_outs, outs = [], [], []
    for s in range(n):
        multi = len(actions_d[s]) > 1
        for a in actions_a[s]:
            cases = (0, 1, 2) if multi and a.kind == "move" else (0, 1) if multi else (0,)
            n_cases.append(len(cases))
            for case in cases:
                o = rule(s, case, a)
                n_outs.append(len(o))
                outs += o
    cols = np.fromiter(itertools.chain.from_iterable(outs), float).reshape(-1, 4).T
    case_first, out_first = (np.cumsum([0, *x]) for x in (n_cases, n_outs))
    c = Cases(case_first, out_first, cols[0].astype(int), cols[1].copy(), cols[2:].copy())
    game.cases = c

    # Marginal frames: an outcome of case c of intruder action k at state s
    # weighs pi_A(k) times the defender's mass on idling (c = 0), inspecting
    # k's target (c = 2) or other successors (c = 1): s's slot, which sums
    # its inspections, less the target's row.  The defender's frame puts c = 1
    # in s's slot and a copy weighing -pi_A(k) in the target's row.
    first_d, first_a = (np.cumsum([0, *map(len, acts)]) for acts in (actions_d, actions_a))
    state_d, state_a = (np.repeat(np.arange(n), np.diff(f)) for f in (first_d, first_a))
    nd, na, case = first_d[-1], first_a[-1], np.repeat(np.arange(len(n_outs)), n_outs)
    k = np.repeat(np.arange(na), n_cases)[case]
    s, kind = state_a[k], case - case_first[k]
    tgt = first_d[s] + 1 + k - first_a[s]
    slot = np.select([kind == 0, kind == 2], [first_d[s], tgt], nd + s)
    swap = (kind == 1) & (np.diff(case_first)[k] == 3)
    e = np.append(np.arange(len(case)), np.flatnonzero(swap))  # defender entry -> case entry
    copy = np.arange(len(e)) >= len(case)
    share_d = np.where(np.arange(nd) == first_d[state_d], nd + n, nd + state_d)
    f_d = Marginal(first_d, state_d, share_d, c.r[:, e], np.append(slot, tgt[swap]), s[e],
                   c.nxt[e], c.p[e])
    f_a = Marginal(first_a, state_a, np.full(na, na + n), c.r, k, s, c.nxt, c.p)

    nxt = c.nxt.tolist()
    bounds = itertools.pairwise(out_first[case_first[first_a]].tolist())
    nexts = {s: nxt[i:j] for s, (i, j) in enumerate(bounds)}
    game.reachable[list(_reach_from(nexts, {ROOT}))] = True
    game.height = _heights(n, f_a.at, f_a.nxt, game.reachable)
    f_d, f_a = (f._replace(levels=_levels(f, game.height)) for f in (f_d, f_a))
    game.frames = {"D": (f_d, np.where(copy, na + n, k[e]), np.where(copy, k[e], na + n)),
                   "A": (f_a, slot, np.where(swap, tgt, nd + n))}
    return game


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
