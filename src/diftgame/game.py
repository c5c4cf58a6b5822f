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

from .ifg import Ifg


class GameBuildError(ValueError):
    """Inconsistent game inputs (graph, parameters, rates)."""


class InvalidActionError(ValueError):
    """Action not available at the given state."""


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


Outcome = tuple[tuple[int, float, float, float], ...]  # (s', p, r_d, r_a)


class Marginal(NamedTuple):
    """One player's view of the kernel with the opponent's mixture summed out.

    The actor's own actions at state s are rows ``first[s]`` to
    ``first[s + 1] - 1``.  ``r[0]`` and ``r[1]`` hold the expected one-step
    payoffs of D and A per row.  Next states are sparse: entry k moves
    row ``row[k]`` to state ``nxt[k]`` with probability ``prob[k]``, one
    entry per opponent action and outcome.
    """

    first: np.ndarray
    state: np.ndarray  # state of each row
    r: np.ndarray
    row: np.ndarray
    nxt: np.ndarray
    prob: np.ndarray

    def expect(self, v: np.ndarray) -> np.ndarray:
        """Expected value of ``v`` at the next state, per row."""
        return np.bincount(self.row, self.prob * v[self.nxt], minlength=len(self.state))


@dataclass
class Game:
    """Built game: dense state indexing, per-state action sets, kernel."""

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

    _outcomes: list[list[list[Outcome]]] = field(repr=False, default_factory=list)

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

    def action_from_label(self, player: str, text: str) -> DefAction | AtkAction:
        if player == "D":
            if text == "none":
                return NO_INSPECT
            kind, _, tgt = text.partition(":")
            if kind == "inspect" and tgt:
                return DefAction("inspect", int(tgt))
        else:
            if text == "quit":
                return QUIT
            kind, _, tgt = text.partition(":")
            if kind == "move" and tgt:
                return AtkAction("move", int(tgt))
        raise InvalidActionError(f"bad action label {text!r} for player {player}")

    # -- kernel and rewards -------------------------------------------------

    def _require(self, s: int, d: DefAction, a: AtkAction) -> None:
        if not 0 <= s < self.n_states:
            raise InvalidActionError(f"state {s} out of range")
        if d not in self.actions_d[s]:
            raise InvalidActionError(f"defender action {d} unavailable at {self.state_label(s)}")
        if a not in self.actions_a[s]:
            raise InvalidActionError(f"intruder action {a} unavailable at {self.state_label(s)}")

    def transition_dist(self, s: int, d: DefAction, a: AtkAction) -> list[tuple[int, float]]:
        """Support of the next-state distribution as (state, probability) pairs."""
        self._require(s, d, a)
        if a.kind == "quit":
            return [(ROOT, 1.0)]
        t = a.target
        if d.kind == "inspect" and d.target == t:
            miss = float(self.fn[t])
            if miss == 0.0:
                return [(ROOT, 1.0)]
            return [(t, miss), (ROOT, 1.0 - miss)]
        return [(t, 1.0)]

    def reward(self, s: int, d: DefAction, a: AtkAction, s_next: int) -> tuple[float, float]:
        """One-step payoffs (defender, intruder) for a realized transition."""
        self._require(s, d, a)
        if s_next not in {sp for sp, _ in self.transition_dist(s, d, a)}:
            raise InvalidActionError(
                f"state {self.state_label(s_next)} not reachable from "
                f"{self.state_label(s)} under ({d}, {a})"
            )
        j = int(self.stage_of[s]) - 1
        p = self.params
        caught = (
            d.kind == "inspect"
            and a.kind == "move"
            and d.target == a.target
            and s_next == ROOT
        )
        hit_target = bool(self.is_dest[s_next]) and int(self.stage_of[s_next]) == j + 1

        if caught:
            r_a = p.alpha_a[j]
        elif hit_target:
            r_a = p.beta_a[j]
        elif a.kind == "quit":
            r_a = p.sigma_a[j]
        else:
            r_a = 0.0

        cost = float(self.cost_d[s])
        if caught:
            r_d = p.alpha_d[j] + cost
        elif hit_target and (d.kind == "none" or not p.strict_table):
            r_d = p.beta_d[j]
        elif a.kind == "quit":
            r_d = p.sigma_d[j] + (cost if d.kind == "inspect" else 0.0)
        elif d.kind == "inspect" and d.target != a.target:
            r_d = cost
        else:
            r_d = 0.0
        return r_d, r_a

    def outcomes(self, s: int, di: int, ai: int) -> Outcome:
        """Cached (s', p, r_d, r_a) tuples for action indices at a state."""
        return self._outcomes[s][di][ai]

    @functools.cached_property
    def _flat(self) -> np.ndarray:
        """The kernel as rows (s, d, a, s', p, r_d, r_a), one column per
        outcome of each joint action; built on the first marginalization."""
        cols = itertools.chain.from_iterable(
            (s, di, ai, *o)
            for s, per_d in enumerate(self._outcomes)
            for di, per_a in enumerate(per_d)
            for ai, out in enumerate(per_a)
            for o in out
        )
        return np.fromiter(cols, float).reshape(-1, 7).T.copy()

    def marginalize(self, opponent, actor: str) -> Marginal:
        """The kernel as seen by ``actor`` while ``opponent`` plays its mixture."""
        s, di, ai, nxt = self._flat[:4].astype(int)
        first_d, first_a = (np.cumsum([0, *map(len, x)]) for x in (self.actions_d, self.actions_a))
        row_d, row_a = first_d[s] + di, first_a[s] + ai
        first, row, opp_row = (first_d, row_d, row_a) if actor == "D" else (first_a, row_a, row_d)
        prob = np.concatenate(opponent.table)[opp_row] * self._flat[4]
        r = np.array([np.bincount(row, prob * pay, minlength=first[-1]) for pay in self._flat[5:]])
        state = np.repeat(np.arange(self.n_states), np.diff(first))
        return Marginal(first, state, r, row, nxt, prob)

    def induced_chain(self, pi) -> np.ndarray:
        """Row-stochastic state transition matrix under a policy pair."""
        n = self.n_states
        m = self.marginalize(pi.a, "D")
        w = np.concatenate(pi.d.table)[m.row] * m.prob
        return np.bincount(m.state[m.row] * n + m.nxt, w, minlength=n * n).reshape(n, n)

    def expected_rewards(self, pi) -> tuple[np.ndarray, np.ndarray]:
        """Per-state expected one-step payoffs under a policy pair."""
        m = self.marginalize(pi.a, "D")
        w = np.concatenate(pi.d.table)
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

    outcomes: list[list[list[Outcome]]] = []
    for s in range(n):
        per_d: list[list[Outcome]] = []
        for d in game.actions_d[s]:
            per_a: list[Outcome] = []
            for a in game.actions_a[s]:
                dist = game.transition_dist(s, d, a)
                per_a.append(
                    tuple((s2, p, *game.reward(s, d, a, s2)) for s2, p in dist)
                )
            per_d.append(per_a)
        outcomes.append(per_d)
    game._outcomes = outcomes

    seen = {ROOT}
    stack = [ROOT]
    while stack:
        s = stack.pop()
        for per_a in outcomes[s]:
            for out in per_a:
                for s2, _, _, _ in out:
                    if s2 not in seen:
                        seen.add(s2)
                        stack.append(s2)
    game.reachable[sorted(seen)] = True
    return game


def classify_chain(P: np.ndarray) -> tuple[list[set[int]], set[int]]:
    """Split a finite chain into recurrent classes and transient states.

    Recurrent classes are the closed communicating classes of the support
    digraph; everything else is transient.
    """
    n = P.shape[0]
    if P.shape != (n, n):
        raise ValueError("P must be square")
    rows = P.sum(axis=1)
    if not np.allclose(rows, 1.0, atol=1e-9):
        raise ValueError("P rows must sum to one")
    adj = [np.flatnonzero(P[s] > 0.0).tolist() for s in range(n)]

    # Iterative Tarjan SCC.
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for k in range(pi, len(adj[v])):
                w = adj[v][k]
                if index[w] == -1:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])

    comp_of = {}
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    closed = [True] * len(comps)
    for v in range(n):
        for w in adj[v]:
            if comp_of[w] != comp_of[v]:
                closed[comp_of[v]] = False
    recurrent = [set(comp) for ci, comp in enumerate(comps) if closed[ci]]
    recurrent.sort(key=min)
    transient = set(range(n)) - set().union(*recurrent) if recurrent else set(range(n))
    return recurrent, transient
