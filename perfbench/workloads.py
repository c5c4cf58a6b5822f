"""Seeded inputs, timed operations and output checks of the three workloads.

Every workload runs the same user pipeline so that every end-to-end metric
exists on every workload: ``diftgame prune`` on raw graphs, a training run,
``certify_arne``, ``compare_defenses`` and ``exact_gradient`` on a policy
pair, and a fixed-policy Monte Carlo ``rollout_average``.  What differs is
the input, chosen so one layer does most of the work:

* ``learn``: the ten-node criterion-5 fixture (31 states) and the README's
  training block through ``diftgame train``.  The learner loop dominates;
  pruning and the analytic oracles see a tiny graph.
* ``certify-large``: ``generate_synthetic(160, 3, 2, (1,1,1), 0.1, 1)``,
  481 states and about 5e4 joint actions, with an interior Dirichlet policy
  pair drawn from the seed.  The dense analytic oracles dominate; pruning sees an
  already-clean graph, and training is a short library run.
* ``prune-cyclic``: raw 22-26 node multigraphs with parallel edges,
  self-loops and cycles, half of them with a ``--merge`` group.  Cycle
  removal by versioning dominates; the games built from the outputs are
  small.

The program only ever sees the generated files (CLI) or objects (library).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import statistics
import time
import traceback
from collections import defaultdict

import numpy as np

# Sizes per profile.  "smoke" keeps learn's convergence run at full length
# because criterion 5 only holds after 2.5e5 steps.
SIZES = {
    "full": {
        "learn": {"iterations": 10_000, "converge": 250_000, "rollout": 200_000, "reps": 6},
        "certify-large": {"nodes": 160, "iterations": 2_500, "rollout": 50_000},
        "prune-cyclic": {"graphs": 60, "nodes": (22, 26), "downstream": 8,
                         "iterations": 500, "rollout": 20_000},
    },
    "smoke": {
        "learn": {"iterations": 2_000, "converge": 250_000, "rollout": 20_000, "reps": 2},
        "certify-large": {"nodes": 40, "iterations": 1_000, "rollout": 10_000},
        "prune-cyclic": {"graphs": 4, "nodes": (12, 16), "downstream": 2,
                         "iterations": 500, "rollout": 5_000},
    },
}

MC_TOL = 0.2  # |Monte Carlo - analytic gain| on learn; criterion 3 rescaled
GAP_TOL = 0.5  # criterion 5 equilibrium gaps on the fixture
DELTA_TOL = 1e-9  # aggregate residual at an exact evaluation
SETUP_REPS = 7


class Bench:
    """Timings, attempted operations and failed checks of one run."""

    def __init__(self, mods, tracer, workdir: str):
        self.m = mods
        self.tracer = tracer
        self.workdir = workdir
        self.samples: dict[str, list[float]] = defaultdict(list)
        # per-input samples of metrics summed over a workload's inputs
        self.items: dict[str, dict[int, list[float]]] = defaultdict(lambda: defaultdict(list))
        self.attempted = 0
        self.passes = 0
        self.failures: list[str] = []

    def path(self, *parts: str) -> str:
        return os.path.join(self.workdir, *parts)

    def timed(self, fn, *args, **kwargs):
        """Run one operation; returns (result, seconds of CPU time).

        CPU time of this thread, not wall time: on a shared virtual machine
        other guests take the vCPU away for bursts (steal time) that double
        the wall time of an operation, and that time is not the program's.
        """
        self.attempted += 1
        t0 = time.thread_time()
        result = fn(*args, **kwargs)
        return result, time.thread_time() - t0

    def cli(self, command: str, *argv: str) -> tuple[int, float]:
        """One ``diftgame`` command in-process, output discarded."""
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return self.timed(
                self.tracer.call, f"cli.{command}", self.m.cli.main, ([command, *argv],), {}
            )

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    @contextlib.contextmanager
    def untraced(self):
        """Checks run outside the traced rounds."""
        cur, self.tracer.cur = self.tracer.cur, None
        try:
            yield
        finally:
            self.tracer.cur = cur


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _sha(*paths: str) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _finite(x) -> bool:
    return bool(np.all(np.isfinite(np.asarray(x, dtype=float))))


# -- input generators --------------------------------------------------------


def fixture_graph() -> dict:
    """The criterion-5 fixture: two entries feeding twin corridors that merge
    at the stage-1 target, then single corridors through stages 2 and 3."""
    kinds = ["process", "file", "socket", "other"]
    return {
        "nodes": [{"id": i, "kind": kinds[i % 4], "label": f"n{i}"} for i in range(10)],
        "edges": [[0, 2], [1, 3], [2, 4], [3, 5], [4, 6], [5, 6], [6, 7], [7, 8], [8, 9]],
        "entries": [0, 1],
        "destinations": [[6], [8], [9]],
    }


MERGE_PREFIX = "/var/log/"
SHAPE_SEED = 8  # prune-cyclic's graph shapes; --seed renames their nodes
SYNTHETIC_SEED = 1  # certify-large's generate_synthetic seed


def cyclic_graph(rng: np.random.Generator, n: int) -> dict:
    """Raw multigraph built like criterion 8's: an entry-to-target spine plus
    n..3n uniformly random edges, so parallel edges, self-loops and cycles all
    occur.  Two stage targets sit on the spine; other file nodes live under
    MERGE_PREFIX so a ``--merge`` group can fold them into one node."""
    spine = [int(x) for x in rng.permutation(n)[: max(3, n // 2)]]
    entry, mid, last = spine[0], spine[len(spine) // 2], spine[-1]
    nodes = []
    for i in range(n):
        kind = ("process", "file", "socket")[i % 3]
        in_dir = kind == "file" and i not in (entry, mid, last)
        nodes.append({"id": i, "kind": kind,
                      "label": f"{MERGE_PREFIX}app/{i}.log" if in_dir else f"{kind}:{i}"})
    edges = [list(e) for e in zip(spine, spine[1:])]
    for _ in range(int(rng.integers(n, 3 * n))):
        edges.append([int(rng.integers(n)), int(rng.integers(n))])
    return {"nodes": nodes, "edges": edges, "entries": [entry], "destinations": [[mid], [last]]}


def rename(graph: dict, rng: np.random.Generator) -> dict:
    """The same graph with labels drawn from ``rng``.  Ids, kinds and the
    merge prefix stay, so the cleanup work does not change."""
    tokens = rng.choice(10**6, len(graph["nodes"]), replace=False)
    nodes = []
    for nd, t in zip(graph["nodes"], tokens):
        in_dir = nd["label"].startswith(MERGE_PREFIX)
        label = f"{MERGE_PREFIX}app/{t:06d}.log" if in_dir else f"{nd['kind']}:{t:06d}"
        nodes.append({**nd, "label": label})
    return {**graph, "nodes": nodes}


def dirichlet_pair(policies, game, rng: np.random.Generator):
    """Interior policy pair: a Dirichlet(1, ..., 1) row per state and player."""
    tables = [[rng.dirichlet(np.ones(len(a))) for a in sets]
              for sets in (game.actions_d, game.actions_a)]
    return policies.PolicyPair(policies.Policy("D", tables[0]), policies.Policy("A", tables[1]))


def train_config(graph_file: str, stages: int, iterations: int, warmup: int,
                 seed: int, stride: int) -> dict:
    return {
        "graph": {"file": graph_file},
        "params": {"defaults": stages},
        "fn": {"default": 0.2},
        "train": {"iterations": iterations, "warmup": warmup, "seed": seed, "stride": stride},
    }


# -- checks ------------------------------------------------------------------


def reachability_preserved(before, after) -> bool:
    """Criterion 8, exhaustively: u reaches v in the versioning input iff some
    version copy of u reaches some version copy of v in its output."""

    def reach(ids, edges):
        adj = {u: [] for u in ids}
        for a, b in edges:
            adj[a].append(b)
        out = {}
        for u in ids:
            seen = {u}
            stack = [u]
            while stack:
                for y in adj[stack.pop()]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            out[u] = seen
        return out

    orig = [nd.id for nd in before.nodes]
    ids = [nd.id for nd in after.nodes]
    r_before, r_after = reach(orig, before.edges), reach(ids, after.edges)
    versions = defaultdict(list)
    for nd in after.nodes:
        versions[nd.origin if nd.origin is not None else nd.id].append(nd.id)
    reach_after = {u: set().union(*(r_after[x] for x in versions[u])) for u in orig}
    for u in orig:
        for v in orig:
            if u != v and (v in r_before[u]) != any(x in reach_after[u] for x in versions[v]):
                return False
    return True


def check_pruned_game(b: Bench, out_file: str, stages: int):
    """The pruned output loads, converts to an Ifg (acyclic, validated) and
    builds a game; returns the game or None."""
    m = b.m
    try:
        ifg = m.ifg.to_ifg(m.ifg.load_graph(out_file))
        b.check(m.ifg.assert_acyclic(ifg), f"{out_file}: output has a cycle")
        return m.game.build_game(ifg, m.game.RewardParams.defaults(stages), m.game.FnRates(0.2))
    except (m.ifg.GraphLoadError, m.ifg.InfeasibleGraphError, m.game.GameBuildError) as exc:
        b.check(False, f"{out_file}: pruned output unusable: {exc}")
        return None


def check_oracles(b: Bench, results: dict) -> None:
    cert, rows, grads = results["certify_s"], results["compare_s"], results["gradient_s"]
    b.check(abs(cert.delta) <= DELTA_TOL, f"|delta| {abs(cert.delta):.3e} > {DELTA_TOL}")
    b.check(_finite(list(cert.gaps.values())), "certificate gaps not finite")
    b.check(all(_finite(r[1:]) for r in rows), "compare_defenses gains not finite")
    b.check(all(_finite(v) for p in ("D", "A") for v in grads[p]), "gradient not finite")


# -- the pipeline every workload runs ----------------------------------------


def prune(b: Bench, raw: str, out: str, *extra: str) -> float:
    """``diftgame prune`` on one raw graph; returns its CPU time."""
    code, dt = b.cli("prune", "--in", raw, "--out", out, *extra)
    b.check(code == 0, f"prune {raw} exited {code}")
    return dt


def oracle_calls(eq, game, pair) -> tuple:
    """(metric, function, arguments) of the three analytic oracles."""
    return (
        ("certify_s", eq.certify_arne, (game, pair, GAP_TOL)),
        ("compare_s", eq.compare_defenses, (game, pair)),
        ("gradient_s", eq.exact_gradient, (game, pair)),
    )


def oracles(b: Bench, game, pair, item: int | None = None) -> dict:
    """certify_arne, compare_defenses and exact_gradient, one timed sample
    each (per input ``item`` when given); returns their results by metric."""
    results = {}
    for metric, fn, args in oracle_calls(b.m.equilibrium, game, pair):
        results[metric], dt = b.timed(fn, *args)
        (b.samples[metric] if item is None else b.items[metric][item]).append(dt)
    return results


class Workload:
    name = ""

    def __init__(self, mods, seed: int, size: dict):
        self.m = mods
        self.seed = seed
        self.size = size
        self.policy_hash = None  # policy files of the first pass

    def setup(self, b: Bench) -> None:
        """Write the inputs and build what the passes use; runs again
        between passes, so it must give the same inputs every time."""
        raise NotImplementedError

    def run_pass(self, b: Bench) -> None:
        raise NotImplementedError

    def finish(self, b: Bench) -> None:
        """One-off checks after the measured passes."""


class Learn(Workload):
    name = "learn"

    def setup(self, b: Bench) -> None:
        m = self.m
        self.raw = b.path("fixture.json")
        self.pruned = b.path("fixture-pruned.json")
        self.cfg = b.path("train.json")
        _write_json(self.raw, fixture_graph())
        _write_json(self.cfg, train_config(self.pruned, 3, self.size["converge"], 7000, 17, 500))
        ifg = m.ifg.to_ifg(m.ifg.load_graph(self.raw))
        self.game = m.game.build_game(ifg, m.game.RewardParams.defaults(3), m.game.FnRates(0.2))

    def train(self, b: Bench, iterations: int):
        """``diftgame train --iters N`` on the README config; returns the
        learned pair, its policy files and the command's CPU time."""
        m, run = self.m, b.path("run")
        code, dt = b.cli("train", "--config", self.cfg, "--iters", str(iterations), "--out", run)
        b.check(code == 0, f"train exited {code}")
        files = [os.path.join(run, f"policy_{p}.json") for p in "da"]
        pair = m.policies.PolicyPair(*(m.policies.load_policy(self.game, f) for f in files))
        return pair, files, dt

    def small_ops(self, b: Bench, pair, reps: int) -> None:
        """The millisecond-scale operations, round-robin so their samples
        spread over the pass rather than bunching in one window."""
        for _ in range(reps):
            b.samples["prune_s"].append(prune(b, self.raw, self.pruned))
            self.last = oracles(b, self.game, pair)

    def run_pass(self, b: Bench) -> None:
        m, reps = self.m, self.size["reps"]
        b.samples["prune_s"].append(prune(b, self.raw, self.pruned))
        with b.untraced():
            game = check_pruned_game(b, self.pruned, 3)
            b.samples["game_states_out"].append(game.n_states if game else math.nan)

        # short runs of the README training command give many samples per
        # run; the full 2.5e5-step run is checked once, in finish()
        iters = self.size["iterations"]
        pair, files, dt = self.train(b, iters)
        b.samples["train_steps_per_s"].append(iters / dt)
        digest = _sha(*files)
        b.check(self.policy_hash in (None, digest), "policy files differ between passes")
        self.policy_hash = digest

        cert_file, csv_file = b.path("certificate.json"), b.path("comparison.csv")
        for f in (cert_file, csv_file):
            if os.path.exists(f):
                os.remove(f)
        common = ("--config", self.cfg, "--policy-d", files[0], "--policy-a", files[1])
        code, _ = b.cli("certify", *common, "--tol", str(GAP_TOL), "--out", cert_file)
        b.check(code in (0, 1) and os.path.exists(cert_file), f"certify exited {code}")
        code, _ = b.cli("compare", *common, "--out", csv_file)
        b.check(code == 0 and os.path.exists(csv_file), f"compare exited {code}")

        steps = self.size["rollout"]
        env = m.env.Env(self.game, seed=self.seed)
        for half in (reps // 2, reps - reps // 2):
            self.small_ops(b, pair, half)
            mc, dt = b.timed(m.env.rollout_average, env, pair, steps, self.seed)
            b.samples["rollout_steps_per_s"].append(steps / dt)
            with b.untraced():
                b.check(_finite(mc), "rollout average not finite")
        with b.untraced():
            check_oracles(b, self.last)

    def finish(self, b: Bench) -> None:
        """Criterion 5 on the full training run, and the Monte Carlo gain of
        its pair against the analytic one over 1e6 steps."""
        m = self.m
        pair, _, _ = self.train(b, self.size["converge"])
        gaps = m.equilibrium.certify_arne(self.game, pair, GAP_TOL).gaps
        b.check(gaps["D"] <= GAP_TOL and gaps["A"] <= GAP_TOL,
                f"criterion 5 gaps D={gaps['D']:.3f} A={gaps['A']:.3f} > {GAP_TOL}")
        ev = m.equilibrium.evaluate_policy_pair(self.game, pair)
        env = m.env.Env(self.game, seed=self.seed)
        mc_d, mc_a = m.env.rollout_average(env, pair, 1_000_000, self.seed)
        err = max(abs(mc_d - ev.rho_d), abs(mc_a - ev.rho_a))
        b.check(err <= MC_TOL, f"|MC - analytic gain| {err:.4f} > {MC_TOL}")


class CertifyLarge(Workload):
    name = "certify-large"

    def setup(self, b: Bench) -> None:
        # One game for every seed; --seed draws the policy pair and the
        # training and rollout streams.  Games from other generator seeds
        # differ by up to ~15% in joint actions and reachable states, and
        # their oracle times by about as much.
        m = self.m
        ifg = m.ifg.generate_synthetic(self.size["nodes"], 3, 2, (1, 1, 1), 0.1, SYNTHETIC_SEED)
        self.raw = b.path("synthetic.json")
        self.pruned = b.path("synthetic-pruned.json")
        m.ifg.save_graph(ifg, self.raw)
        self.game = m.game.build_game(ifg, m.game.RewardParams.defaults(3), m.game.FnRates(0.2))
        self.pair = dirichlet_pair(m.policies, self.game, np.random.default_rng([self.seed, 2]))

    def run_pass(self, b: Bench) -> None:
        m, game = self.m, self.game

        # the pair goes through policy files, as a CLI user's would
        files = (b.path("policy_d.json"), b.path("policy_a.json"))
        m.policies.save_policy(game, self.pair.d, files[0])
        m.policies.save_policy(game, self.pair.a, files[1])
        pair = m.policies.PolicyPair(*(m.policies.load_policy(game, f) for f in files))
        with b.untraced():
            same = all(np.array_equal(x, y) for p, q in ((pair.d, self.pair.d), (pair.a, self.pair.a))
                       for x, y in zip(p.table, q.table))
            b.check(same, "policy save/load round trip changed the pair")

        # Before each oracle: two prunes, a short training run and a
        # rollout, so that the shorter operations get several samples per
        # pass, spread over it (prune, the shortest and most scattered, six).
        # Training takes an Env, not the Game: the model-free path, which
        # skips the exact td_errors evaluations train() makes at each stride
        # on a Game.
        iters, steps = self.size["iterations"], self.size["rollout"]
        env = m.env.Env(game, seed=self.seed)
        results = {}
        for metric, fn, args in oracle_calls(m.equilibrium, game, pair):
            for _ in range(2):
                b.samples["prune_s"].append(prune(b, self.raw, self.pruned))
            cfg = m.training.TrainConfig(iterations=iters, warmup=iters // 4, seed=self.seed,
                                         stride=iters)
            (learned, _), dt = b.timed(m.training.train, m.env.Env(game, seed=self.seed), cfg)
            b.samples["train_steps_per_s"].append(iters / dt)
            results[metric], dt = b.timed(fn, *args)
            b.samples[metric].append(dt)
            mc, dt = b.timed(m.env.rollout_average, env, pair, steps, self.seed)
            b.samples["rollout_steps_per_s"].append(steps / dt)
            with b.untraced():
                b.check(_finite(mc), "rollout average not finite")

        with b.untraced():
            check_oracles(b, results)
            b.check(all(_finite(v) for v in learned.d.table + learned.a.table),
                    "trained policies not finite")

    def finish(self, b: Bench) -> None:
        # the pruned output is the same on every pass; building it takes a second
        out = check_pruned_game(b, self.pruned, 3)
        b.samples["game_states_out"].append(out.n_states if out else math.nan)


class PruneCyclic(Workload):
    name = "prune-cyclic"

    def __init__(self, *args):
        super().__init__(*args)
        self.versioned = self.outputs = None  # from the first pass

    def setup(self, b: Bench) -> None:
        # Shapes come from a fixed seed and --seed renames their nodes.
        # Fresh shapes per seed, or renumbering the nodes (which changes the
        # depth-first order versioning follows), move the summed cost by
        # ~10% between seeds.
        shapes = np.random.default_rng(SHAPE_SEED)
        lo, hi = self.size["nodes"]
        self.jobs = []
        for i in range(self.size["graphs"]):
            graph = cyclic_graph(shapes, int(shapes.integers(lo, hi + 1)))
            graph = rename(graph, np.random.default_rng([self.seed, i]))
            raw, out = b.path(f"raw{i:03d}.json"), b.path(f"pruned{i:03d}.json")
            _write_json(raw, graph)
            merge = ["--merge", f"{MERGE_PREFIX}={MERGE_PREFIX}*"] if i % 2 else []
            self.jobs.append((raw, out, merge))

    def run_pass(self, b: Bench) -> None:
        m = self.m
        capture: list = []
        version = m.cli.remove_cycles_by_versioning

        def versioning(g):
            out = version(g)
            capture.append((g, out))
            return out

        m.cli.remove_cycles_by_versioning = versioning
        try:
            for i, (raw, out, merge) in enumerate(self.jobs):
                b.items["prune_s"][i].append(prune(b, raw, out, *merge))
        finally:
            m.cli.remove_cycles_by_versioning = version

        with b.untraced():
            b.check(len(capture) == len(self.jobs), "versioning not called once per graph")
            outputs = [_sha(out) for _, out, _ in self.jobs]
            if self.outputs is None:  # later passes must write the same files
                self.outputs, self.versioned = outputs, capture
                self.games = [check_pruned_game(b, out, 2) for _, out, _ in self.jobs]
                b.samples["game_states_out"].append(
                    sum(g.n_states for g in self.games) if all(self.games) else math.nan
                )
            b.check(outputs == self.outputs, "pruned outputs differ between passes")
        games = self.games
        if not all(games):
            return

        # train, certify and roll out on the first few pruned games
        hashes = []
        iters = self.size["iterations"]
        for k in range(self.size["downstream"]):
            out, game = self.jobs[k][1], games[k]
            cfg, run = b.path(f"train{k:03d}.json"), b.path(f"run{k:03d}")
            _write_json(cfg, train_config(out, 2, iters, iters // 4, self.seed, iters))
            code, dt = b.cli("train", "--config", cfg, "--out", run)
            b.check(code == 0, f"train on {out} exited {code}")
            b.items["train_time"][k].append(dt)
            files = [os.path.join(run, f"policy_{p}.json") for p in "da"]
            hashes.append(_sha(*files))
            pair = m.policies.PolicyPair(*(m.policies.load_policy(game, f) for f in files))
            results = oracles(b, game, pair, k)
            env = m.env.Env(game, seed=self.seed)
            mc, dt = b.timed(m.env.rollout_average, env, pair, self.size["rollout"], self.seed)
            b.items["rollout_time"][k].append(dt)
            with b.untraced():
                check_oracles(b, results)
                b.check(_finite(mc), "rollout average not finite")
        digest = hashlib.sha256("".join(hashes).encode()).hexdigest()
        b.check(self.policy_hash in (None, digest), "policy files differ between passes")
        self.policy_hash = digest

    def finish(self, b: Bench) -> None:
        for (before, after), (_, out, _) in zip(self.versioned, self.jobs):
            b.check(reachability_preserved(before, after),
                    f"{out}: versioning lost or invented a reachable pair")
        # throughputs over the downstream games, from their summed times
        n = self.size["downstream"]
        for metric, key, work in (("train_steps_per_s", "train_time", self.size["iterations"]),
                                   ("rollout_steps_per_s", "rollout_time", self.size["rollout"])):
            b.samples[metric].append(n * work / summed(b.items[key]))


WORKLOADS = {w.name: w for w in (Learn, CertifyLarge, PruneCyclic)}


def run(mods, tracer, workload: str, seed: int, seconds: float, size: str,
        workdir: str, import_time) -> tuple[Bench, list[float]]:
    """Set up, then measure whole passes for ``seconds``, with the other
    SETUP_REPS - 1 set-ups spread evenly between the passes.

    Each set-up sample is one ``import_time()`` (a fresh interpreter's
    import of diftgame) plus one input generation and ``build_game``.  The
    host's speed changes over seconds, so samples taken in one burst would
    all see one speed.  Set-up time does not count against ``seconds``.
    A new pass starts only if the previous pass's duration still fits, so
    the passes take about ``seconds`` and there is never less than one.
    Returns the bench and the set-up CPU times.
    """
    b = Bench(mods, tracer, workdir)
    wl = WORKLOADS[workload](mods, seed, SIZES[size][workload])
    setup_times: list[float] = []

    def set_up() -> None:
        imported = import_time()
        tracer.begin("setup")
        t0 = time.thread_time()
        wl.setup(b)
        setup_times.append(imported + time.thread_time() - t0)
        tracer.end()

    set_up()
    measured = 0.0  # wall seconds of the passes so far
    try:
        while True:
            tracer.begin("pass")
            t0 = time.perf_counter()
            wl.run_pass(b)
            b.passes += 1
            last = time.perf_counter() - t0
            measured += last
            tracer.end()
            if b.failures or measured + last > seconds:
                break
            if measured >= len(setup_times) * seconds / SETUP_REPS:
                set_up()
        while len(setup_times) < SETUP_REPS:
            set_up()
        with b.untraced():
            wl.finish(b)
    except Exception:  # an operation that raises is a failed check, not a crash
        tracer.end()
        b.failures.append(traceback.format_exc(limit=-3))
    return b, setup_times


def slow_side(values: list[float], rate: bool) -> float:
    """90th percentile of times, 10th percentile of rates.

    The CPU speed of a shared host moves between levels up to ~2x apart, in
    proportions that change from run to run and over tens of minutes; a
    run's median or fastest sample lands on whichever level the run saw
    most, while the slow tail stays near the slower level, which nearly
    every run reaches.
    """
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    return cuts[0] if rate else cuts[-1]


def summed(per_item: dict[int, list[float]]) -> float:
    """Sum over inputs of each input's slow-side time."""
    return sum(slow_side(v, rate=False) for v in per_item.values())


def values(b: Bench) -> dict[str, float]:
    """One figure per metric: counts by median, times and rates by their
    slow side, metrics summed over inputs as the sum of per-input figures.
    Figures that are no metric of their own (per-game training and rollout
    times) come along; the caller picks the metrics."""
    out = {k: summed(v) for k, v in b.items.items()}
    for k, v in b.samples.items():
        out[k] = statistics.median(v) if k == "game_states_out" else slow_side(v, k.endswith("per_s"))
    return out
