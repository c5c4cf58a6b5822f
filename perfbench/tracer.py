"""In-memory tracing of calls into diftgame, installed from outside the package.

Nothing here edits ``src/``: :func:`install` rebinds the names through which
callers reach each public function (module globals such as ``cli.train`` or
``training.project_simplex``, and class attributes such as ``Env.step``) to
wrappers, and the returned ``undo`` puts the originals back.

Calls made once per learner step (``train_step``, ``Env.step``,
``project_simplex``) only add to a count and a summed time per name; every
other wrapped call also becomes a span with name, start, end and parent.
Times are CPU seconds of the calling thread, like the benchmark's own.
Each wrapped call's self time is its duration minus the time of the wrapped
calls it made, so a layer's self time is the sum over its names.

Counters are kept per *round* (one set-up repetition or one measured pass);
:meth:`Tracer.unit` combines them into "one set-up plus one pass", taking the
median over the rounds of each kind so the figures do not depend on how many
passes fitted into the run.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from types import SimpleNamespace

PER_STEP = ("training.train_step", "env.step", "policies.project_simplex")


class Round:
    def __init__(self, kind: str, index: int):
        self.kind = kind
        self.index = index
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.child_calls: dict[tuple[str, str], int] = defaultdict(int)
        self.extra: dict[str, float] = defaultdict(float)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None, int]] = []
        self.rounds: list[Round] = []
        self.cur: Round | None = None
        # open frames: [name, span id or None, child seconds]
        self._stack: list[list] = []
        self.trainer = None  # last TrainerState made by init_trainer

    def begin(self, kind: str) -> None:
        self.cur = Round(kind, len(self.rounds))
        self.rounds.append(self.cur)

    def end(self) -> None:
        self.cur = None

    def parent_name(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def add(self, key: str, value: float) -> None:
        if self.cur is not None:
            self.cur.extra[key] += value

    def call(self, name: str, fn, args, kwargs, after=None):
        rnd = self.cur
        if rnd is None:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else None
        span_id = None
        if name not in PER_STEP:
            span_id = len(self.spans)
            self.spans.append(None)  # reserve the id; filled on exit
        frame = [name, span_id, 0.0]
        self._stack.append(frame)
        t0 = time.thread_time()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.thread_time()
            self._stack.pop()
            dur = t1 - t0
            rnd.total[name] += dur
            rnd.self_time[name] += dur - frame[2]
            rnd.calls[name] += 1
            if parent is not None:
                parent[2] += dur
                rnd.child_calls[(parent[0], name)] += 1
            if span_id is not None:
                parent_span = next(
                    (f[1] for f in reversed(self._stack) if f[1] is not None), None
                )
                self.spans[span_id] = (span_id, name, t0, t1, parent_span, rnd.index)
        if after is not None:
            after(self, args, result)
        return result

    # -- aggregation -------------------------------------------------------

    def unit(self) -> dict[str, dict]:
        """Median set-up round plus median pass round, per raw quantity."""
        out: dict[str, dict] = {}
        for field in ("total", "self_time", "calls", "child_calls", "extra"):
            merged: dict = defaultdict(float)
            for kind in ("setup", "pass"):
                rounds = [r for r in self.rounds if r.kind == kind]
                if not rounds:
                    continue
                keys = set().union(*(getattr(r, field) for r in rounds))
                for key in keys:
                    merged[key] += statistics.median(
                        getattr(r, field).get(key, 0) for r in rounds
                    )
            out[field] = merged
        return out

    def dump(self, path: str, header: dict) -> None:
        doc = {
            **header,
            "rounds": [{"index": r.index, "kind": r.kind} for r in self.rounds],
            "span_fields": ["id", "name", "start", "end", "parent", "round"],
            "spans": [s for s in self.spans if s is not None],
            "per_round": [
                {
                    "index": r.index,
                    "kind": r.kind,
                    "calls": dict(r.calls),
                    "total_s": dict(r.total),
                    "self_s": dict(r.self_time),
                    "extra": dict(r.extra),
                }
                for r in self.rounds
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")


# -- installation ------------------------------------------------------------


def _wrap(tracer: Tracer, name: str, fn, after=None):
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, after)

    return wrapper


def _after_load(tr: Tracer, args, g) -> None:
    if tr.parent_name() == "cli.prune":
        tr.add("ifg.nodes_raw", len(g.nodes))


def _after_version(tr: Tracer, args, g) -> None:
    tr.add("ifg.version_in", len(args[0].nodes))
    tr.add("ifg.nodes_versioned", len(g.nodes))


def _after_to_ifg(tr: Tracer, args, ifg) -> None:
    if tr.parent_name() == "cli.prune":
        tr.add("ifg.nodes_out", ifg.n_nodes)


def _after_build(tr: Tracer, args, game) -> None:
    tr.add("game.states", game.n_states)
    tr.add("game.reachable_states", int(game.reachable.sum()))
    tr.add(
        "game.joint_actions",
        sum(len(d) * len(a) for d, a in zip(game.actions_d, game.actions_a)),
    )


def _after_init_trainer(tr: Tracer, args, st) -> None:
    tr.trainer = st


def _after_train(tr: Tracer, args, result) -> None:
    # train() takes a Game or an Env; an Env keeps its game private
    game, st = getattr(args[0], "_game", args[0]), tr.trainer
    if st is None:
        return
    # visits only count steps after warmup
    tr.add("training.unvisited_states", int(((st.visits == 0) & game.reachable).sum()))
    tr.trainer = None


def install(tracer: Tracer, mods: SimpleNamespace):
    """Wrap diftgame's public entry points; returns a function that undoes it."""
    cli, ifg, game, pol, env, training, eq = (
        mods.cli, mods.ifg, mods.game, mods.policies, mods.env, mods.training, mods.equilibrium
    )
    originals: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, name: str, after=None, fn=None) -> None:
        orig = getattr(owner, attr)
        originals.append((owner, attr, orig))
        setattr(owner, attr, fn or _wrap(tracer, name, orig, after))

    for owner in (cli, ifg):
        patch(owner, "load_graph", "ifg.load_graph", _after_load)
        patch(owner, "collapse_multi_edges", "ifg.collapse")
        patch(owner, "prune_attack_subgraph", "ifg.prune")
        patch(owner, "merge_directory_nodes", "ifg.merge")
        patch(owner, "remove_cycles_by_versioning", "ifg.version", _after_version)
        patch(owner, "to_ifg", "ifg.to_ifg", _after_to_ifg)
        patch(owner, "save_graph", "ifg.save_graph")
        patch(owner, "generate_synthetic", "ifg.generate_synthetic")
    for owner in (cli, game):
        patch(owner, "build_game", "game.build", _after_build)
    patch(game.Game, "induced_chain", "game.induced_chain")
    patch(game.Game, "expected_rewards", "game.expected_rewards")
    patch(eq, "classify_chain", "game.classify_chain")

    for owner in (cli, pol):
        patch(owner, "save_policy", "policies.save_load")
        patch(owner, "load_policy", "policies.save_load")
    patch(training, "project_simplex", "policies.project_simplex")

    patch(env.Env, "step", "env.step")
    patch(env, "rollout_average", "env.rollout")

    step = training.train_step

    def train_step(st, e, cfg):
        acts_d, acts_a = e.actions(st.current)
        tracer.add("training.actor_updates_tried", (len(acts_d) > 1) + (len(acts_a) > 1))
        return tracer.call("training.train_step", step, (st, e, cfg), {})

    patch(training, "train_step", "training.train_step", fn=train_step)
    patch(training, "init_trainer", "training.init_trainer", _after_init_trainer)
    for owner in (cli, training):
        patch(owner, "train", "training.train", _after_train)

    for attr, name in (
        ("evaluate_policy_pair", "equilibrium.evaluate"),
        ("residuals", "equilibrium.residuals"),
        ("best_response", "equilibrium.best_response"),
        ("exact_gradient", "equilibrium.exact_gradient"),
        ("certify_arne", "equilibrium.certify"),
        ("compare_defenses", "equilibrium.compare"),
    ):
        patch(eq, attr, name)
    for attr, name in (("certify_arne", "equilibrium.certify"), ("compare_defenses", "equilibrium.compare")):
        patch(cli, attr, name)

    td = eq.td_errors

    def td_errors(*args, **kwargs):
        # train() samples its learning curve through td_errors at each stride
        name = "training.history" if tracer.parent_name() == "training.train" else "equilibrium.td_errors"
        return tracer.call(name, td, args, kwargs)

    patch(eq, "td_errors", "equilibrium.td_errors", fn=td_errors)

    np = eq.np
    solve = np.linalg.solve

    def traced_solve(a, b):
        m = a.shape[0]
        tracer.add("equilibrium.solve_gflop_computed", (2.0 / 3.0) * m**3 / 1e9)
        return tracer.call("equilibrium.linear_solve", solve, (a, b), {})

    class _Numpy:
        """numpy as equilibrium sees it, with linalg.solve traced."""

        linalg = SimpleNamespace(solve=traced_solve, LinAlgError=np.linalg.LinAlgError)

        def __getattr__(self, attr):
            return getattr(np, attr)

    patch(eq, "np", "numpy", fn=_Numpy())

    def undo() -> None:
        for owner, attr, orig in reversed(originals):
            setattr(owner, attr, orig)

    return undo
