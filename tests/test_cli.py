"""End-to-end command-line tests driving the real entry point."""

import csv
import hashlib
import json
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diftgame.cli import _game_from_config, main
from diftgame.game import FnRates, RewardParams, build_game
from diftgame.ifg import (
    Ifg,
    IfgNode,
    collapse_multi_edges,
    generate_synthetic,
    load_graph,
    merge_directory_nodes,
    prune_attack_subgraph,
    remove_cycles_by_versioning,
    save_graph,
    to_ifg,
)
from diftgame.policies import load_policy, policy_from_json, policy_to_json, save_policy, uniform_policy


@pytest.fixture
def config(tmp_path):
    cfg = {
        "graph": {
            "synthetic": {
                "n_nodes": 8,
                "stages": 2,
                "n_entries": 2,
                "dests_per_stage": [1, 1],
                "edge_density": 0.3,
                "seed": 4,
            }
        },
        "fn": {"default": 0.2},
        "train": {"iterations": 3000, "warmup": 500, "seed": 1, "stride": 500},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def config_game():
    from diftgame.ifg import generate_synthetic

    ifg = generate_synthetic(8, 2, 2, (1, 1), 0.3, seed=4)
    return build_game(ifg, RewardParams.defaults(2), FnRates(default=0.2))


def _criterion5_ifg() -> Ifg:
    """Two entries feeding twin corridors that merge; three stages."""
    kinds = ["process", "file", "socket", "other"]
    return Ifg(
        [IfgNode(i, kinds[i % 4], f"n{i}") for i in range(10)],
        {(0, 2), (1, 3), (2, 4), (3, 5), (4, 6), (5, 6), (6, 7), (7, 8), (8, 9)},
        {0, 1},
        [{6}, {8}, {9}],
    )


class TestGenGraph:
    def test_writes_loadable_graph(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        rc = main(
            [
                "gen-graph", "--out", str(out), "--nodes", "9", "--stages", "2",
                "--entries", "2", "--dests", "1,1", "--density", "0.3",
                "--seed", "7",
            ]
        )
        assert rc == 0
        g = load_graph(str(out))
        assert len(g.nodes) == 9
        assert len(g.entries) == 2
        assert "9 nodes" in capsys.readouterr().out

    def test_bad_parameters_exit_2(self, tmp_path, capsys):
        rc = main(
            ["gen-graph", "--out", str(tmp_path / "g.json"), "--dests", "1,1,1,1"]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gen-graph", "train", "certify", "compare"])
    def test_zero_stages_exit_2(self, tmp_path, capsys, command):
        cfg = {
            "graph": {"synthetic": {"n_nodes": 6, "stages": 0, "n_entries": 1,
                                    "dests_per_stage": [], "edge_density": 0.4, "seed": 0}},
            "train": {"iterations": 10},
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        argv = [command, "--config", str(path), "--out", str(tmp_path / "o")]
        if command in ("certify", "compare"):
            argv += ["--policy-d", str(tmp_path / "d.json"), "--policy-a", str(tmp_path / "a.json")]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2, err
        assert "stage" in err


class TestPrune:
    def test_cyclic_raw_graph_becomes_acyclic(self, tmp_path, capsys):
        from diftgame.ifg import RawLogGraph

        nodes = [IfgNode(i, "process", f"p{i}") for i in range(4)]
        nodes[2] = IfgNode(2, "file", "/tmp/a")
        raw = RawLogGraph(
            nodes,
            [(0, 1), (1, 2), (2, 1), (1, 3), (0, 3)],
            {0},
            [{3}],
        )
        src = tmp_path / "raw.json"
        save_graph(raw, str(src))
        out = tmp_path / "pruned.json"
        rc = main(["prune", "--in", str(src), "--out", str(out)])
        assert rc == 0
        g = load_graph(str(out))
        # acyclicity: versioned graphs admit a topological order
        order = {}
        pending = dict.fromkeys(range(len(g.nodes)), 0)
        for _, dst in g.edges:
            pending[dst] += 1
        queue = [n for n, c in pending.items() if c == 0]
        k = 0
        while queue:
            n = queue.pop()
            order[n] = k
            k += 1
            for a, b in g.edges:
                if a == n:
                    pending[b] -= 1
                    if pending[b] == 0:
                        queue.append(b)
        assert len(order) == len(g.nodes)
        assert "acyclic" in capsys.readouterr().out

    def test_side_cycle_off_the_critical_path(self, tmp_path):
        # the back edge 2 -> 1 closes a cycle the attack does not need;
        # its version copy is a dead end and must be pruned away rather
        # than failing validation
        from diftgame.ifg import RawLogGraph

        nodes = [IfgNode(i, "process", f"p{i}") for i in range(6)]
        raw = RawLogGraph(
            nodes,
            [(0, 1), (1, 2), (2, 1), (2, 3), (3, 4), (4, 5)],
            {0},
            [{5}],
        )
        src = tmp_path / "raw.json"
        save_graph(raw, str(src))
        out = tmp_path / "pruned.json"
        assert main(["prune", "--in", str(src), "--out", str(out)]) == 0
        g = load_graph(str(out))
        assert len(g.nodes) == 6
        assert all(u != v for u, v in g.edges)

    def test_merge_argument_validation(self, tmp_path, capsys):
        nodes = [IfgNode(0, "process", "a"), IfgNode(1, "file", "b")]
        raw = Ifg(nodes, {(0, 1)}, {0}, [{1}])
        src = tmp_path / "raw.json"
        save_graph(raw, str(src))
        rc = main(
            ["prune", "--in", str(src), "--out", str(tmp_path / "o.json"),
             "--merge", "nonsense"]
        )
        assert rc == 2

    def test_missing_file_exit_2(self, tmp_path):
        rc = main(
            ["prune", "--in", str(tmp_path / "nope.json"),
             "--out", str(tmp_path / "o.json")]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "field, value",
        [
            ("entries", 5),
            ("entries", [[0]]),
            ("entries", [0.0]),
            ("destinations", [2]),
            ("destinations", None),
            ("edges", [[0], 1]),
            ("edges", [0.0, 1]),
            ("edges", [False, True]),
        ],
    )
    def test_bad_node_id_exit_2(self, tmp_path, capsys, field, value):
        graph = {
            "nodes": [{"id": i, "kind": "process", "label": f"p{i}"} for i in range(4)],
            "edges": [[0, 1], [1, 2], [2, 3]],
            "entries": [0],
            "destinations": [[3]],
        }
        if field == "edges":
            graph["edges"].append(value)
        else:
            graph[field] = value
        src = tmp_path / "raw.json"
        src.write_text(json.dumps(graph))
        rc = main(["prune", "--in", str(src), "--out", str(tmp_path / "o.json")])
        assert rc == 2
        assert f"'{field}'" in capsys.readouterr().err


    @staticmethod
    def graph_file(tmp_path, edges):
        graph = {
            "nodes": [{"id": i, "kind": "process", "label": f"p{i}"} for i in range(4)],
            "edges": edges,
            "entries": [0],
            "destinations": [[3]],
        }
        src = tmp_path / "raw.json"
        src.write_text(json.dumps(graph))
        return src

    @pytest.mark.parametrize(
        "edge, message",
        [
            (5, "bad edge entry 5"),
            ({"a": 1}, "bad edge entry {'a': 1}"),
            ([0, 1, 2], "bad edge entry [0, 1, 2]"),
            ([0, True], "'edges': node id True is not an integer"),
            ([0, 1.0], "'edges': node id 1.0 is not an integer"),
            ([0, "1"], "'edges': node id '1' is not an integer"),
            ([-1, 1], "edge (-1,1) references unknown node"),
            ([0, 4], "edge (0,4) references unknown node"),
        ],
        ids=["int", "object", "length-3", "true", "float", "string", "negative", "node-count"],
    )
    @pytest.mark.parametrize("loop", [[], [[2, 2]]], ids=["", "after-loop"])
    def test_bad_edge_exit_2_with_its_message(self, tmp_path, capsys, edge, message, loop):
        # the first bad entry is named, past good edges and a self-loop
        src = self.graph_file(tmp_path, [*loop, [0, 1], edge, [1, 2], [2, 3]])
        rc = main(["prune", "--in", str(src), "--out", str(tmp_path / "o.json")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("loops", [[[1, 1]], [[0, 0], [3, 3], [0, 0]]], ids=["1", "3"])
    def test_self_loops_dropped_with_their_count(self, tmp_path, caplog, loops):
        clean = self.graph_file(tmp_path, [[0, 1], [1, 2], [2, 3]])
        save_graph(load_graph(str(clean)), str(tmp_path / "clean.json"))
        src = self.graph_file(tmp_path, [[0, 1], *loops, [1, 2], [2, 3]])
        out = tmp_path / "o.json"
        assert main(["prune", "--in", str(src), "--out", str(out)]) == 0
        assert caplog.messages == [f"dropped {len(loops)} self-loop(s) while loading {src}"]
        assert out.read_bytes() == (tmp_path / "clean.json").read_bytes()


def _composed_prune(path: str, merges: dict[str, str]) -> Ifg:
    """``diftgame prune`` as the composition of its stages, with the second
    prune always run: to_ifg(prune(version(merge(prune(collapse(load))))))."""
    g = collapse_multi_edges(load_graph(path))
    g = prune_attack_subgraph(g, g.entries, g.destinations)
    if merges:
        g = merge_directory_nodes(g, merges)
    g = remove_cycles_by_versioning(g)
    return to_ifg(prune_attack_subgraph(g, g.entries, g.destinations))


def _cyclic_graph(seed: int) -> dict:
    """A raw multigraph of 6-28 nodes: an entry-to-target spine plus n..3n
    random edges, so parallel edges, self-loops and cycles all occur.  Two
    stage targets sit on the spine; other file nodes live under /var/log/.
    Seed 0's pruned graph is acyclic, the others get version copies, and
    from seed 4 on a /var/log/ merge folds nodes together."""
    rng = np.random.default_rng(seed)
    n = 6 + 2 * seed
    spine = rng.permutation(n)[: max(3, n // 2)].tolist()
    entry, mid, last = spine[0], spine[len(spine) // 2], spine[-1]
    nodes = []
    for i in range(n):
        kind = ("process", "file", "socket")[i % 3]
        in_dir = kind == "file" and i not in (entry, mid, last)
        label = f"/var/log/app/{i}.log" if in_dir else f"{kind}:{i}"
        nodes.append({"id": i, "kind": kind, "label": label})
    extra = rng.integers(n, size=(rng.integers(n, 3 * n), 2))
    edges = [*map(list, zip(spine, spine[1:])), *extra.tolist()]
    return {"nodes": nodes, "edges": edges, "entries": [entry], "destinations": [[mid], [last]]}


class TestPruneMatchesComposition:
    """``diftgame prune`` skips the second prune when versioning made no
    copy; its file must still be the composition's, byte for byte."""

    def check(self, tmp_path, src, merges=None):
        out, ref = tmp_path / "out.json", tmp_path / "ref.json"
        argv = ["prune", "--in", str(src), "--out", str(out)]
        for prefix, label in (merges or {}).items():
            argv += ["--merge", f"{prefix}={label}"]
        assert main(argv) == 0
        save_graph(_composed_prune(str(src), merges), str(ref))
        assert out.read_bytes() == ref.read_bytes()

    def test_synthetic_160_nodes(self, tmp_path):
        src = tmp_path / "raw.json"
        save_graph(generate_synthetic(160, 3, 2, (1, 1, 1), 0.1, 1), str(src))
        self.check(tmp_path, src)

    def test_criterion5_fixture(self, tmp_path):
        src = tmp_path / "raw.json"
        save_graph(_criterion5_ifg(), str(src))
        self.check(tmp_path, src)

    @pytest.mark.parametrize("merge", [False, True], ids=["plain", "merge"])
    @pytest.mark.parametrize("seed", range(12))
    def test_cyclic_graphs(self, tmp_path, seed, merge):
        src = tmp_path / "raw.json"
        src.write_text(json.dumps(_cyclic_graph(seed)))
        self.check(tmp_path, src, {"/var/log/": "/var/log/*"} if merge else None)

    @pytest.mark.parametrize("seed", range(12))
    def test_merged_output_is_a_fixed_point_of_the_same_merge(self, tmp_path, seed):
        # the merged node and its version copies (/var/log/* and
        # /var/log/*#k) start with the prefix; merging them again would
        # fold the copies back into one node and could close cycles
        src, out, again = (tmp_path / f for f in ("raw.json", "out.json", "again.json"))
        src.write_text(json.dumps(_cyclic_graph(seed)))
        merge = ["--merge", "/var/log/=/var/log/*"]
        assert main(["prune", "--in", str(src), "--out", str(out), *merge]) == 0
        assert main(["prune", "--in", str(out), "--out", str(again), *merge]) == 0
        assert again.read_bytes() == out.read_bytes()


class TestTrain:
    def test_produces_outputs_and_manifest(self, tmp_path, config, capsys):
        outdir = tmp_path / "run"
        rc = main(["train", "--config", config, "--out", str(outdir)])
        assert rc == 0
        assert "trained 3000 iterations" in capsys.readouterr().out

        game = config_game()
        pol_d = load_policy(game, str(outdir / "policy_d.json"))
        pol_a = load_policy(game, str(outdir / "policy_a.json"))
        pol_d.validate(game)
        pol_a.validate(game)

        with open(outdir / "history.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "n"
        assert [int(r[0]) for r in rows[1:]] == [1, 500, 1000, 1500, 2000, 2500, 3000]

        with open(outdir / "manifest.json") as fh:
            man = json.load(fh)
        assert man["command"] == "train"
        assert man["config"]["train"]["iterations"] == 3000
        assert set(man["outputs"]) == {"history.csv", "policy_d.json", "policy_a.json"}

    def test_manifest_rerun_reproduces_outputs(self, tmp_path, config):
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        assert main(["train", "--config", config, "--out", str(out1)]) == 0
        # rerun strictly from the manifest's resolved config
        with open(out1 / "manifest.json") as fh:
            man = json.load(fh)
        cfg2 = tmp_path / "resolved.json"
        cfg2.write_text(json.dumps(man["config"]))
        assert main(["train", "--config", str(cfg2), "--out", str(out2)]) == 0
        for name in ["history.csv", "policy_d.json", "policy_a.json"]:
            assert (out1 / name).read_text() == (out2 / name).read_text()

    def test_seed_override_changes_run(self, tmp_path, config):
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        assert main(["train", "--config", config, "--out", str(out1)]) == 0
        assert main(
            ["train", "--config", config, "--out", str(out2), "--seed", "99"]
        ) == 0
        assert (out1 / "history.csv").read_text() != (out2 / "history.csv").read_text()

    def test_missing_iterations_exit_2(self, tmp_path, capsys):
        cfg = {"graph": {"synthetic": {"n_nodes": 6, "stages": 1, "n_entries": 1,
                                       "dests_per_stage": [1], "edge_density": 0.4,
                                       "seed": 0}}}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        rc = main(["train", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "iterations" in capsys.readouterr().err

    def test_unknown_train_option_exit_2(self, tmp_path, config):
        with open(config) as fh:
            cfg = json.load(fh)
        cfg["train"]["learning_rate"] = 0.1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        rc = main(["train", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_non_finite_params_exit_2(self, tmp_path, config, capsys):
        cfg = json.loads(open(config).read())
        cfg["params"] = {"defaults": 2, "scale": float("nan")}
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(cfg))
        rc = main(["train", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, value",
        [
            (("train", "iterations"), 20.0),
            (("train", "warmup"), "500"),
            (("train", "seed"), 1.5),
            (("train", "stride"), 2.5),
            (("train", "seed"), True),
            (("train", "step_pre"), "0.5"),
            (("train", "sgn_sharpness"), None),
            (("fn", "default"), None),
            (("fn", "default"), "0.3"),
            (("fn", "overrides"), {"3,1": "0.5"}),
            (("fn", "overrides"), [0.5]),
            (("params", "defaults"), 2.0),
            (("params", "scale"), "2"),
            (("params", "alpha_d"), ["40", 80.0]),
            (("params", "cost_d_per_stage"), -1.0),
            (("params", "strict_table"), "no"),
            (("params",), [2]),
            (("train",), [3000]),
            (("fn",), 0.2),
            (("graph", "synthetic", "n_nodes"), None),
            (("graph", "synthetic", "n_nodes"), 8.5),
            (("graph", "synthetic", "edge_density"), "0.3"),
            (("graph", "synthetic", "dests_per_stage"), [1.0, 1]),
            (("graph", "synthetic"), [8, 2]),
            (("graph", "file"), None),
            (("out",), 5),
            (("out",), None),
            (("out",), ["run"]),
            # an integer literal beyond float range (1 and 400 zeros)
            pytest.param(("train", "step_pre"), 10**400, id="step_pre-int-beyond-float"),
        ],
    )
    def test_wrong_typed_value_exit_2(self, tmp_path, config, capsys, path, value):
        cfg = json.loads(open(config).read())
        if path[0] == "params" and path[-1] not in ("params", "defaults", "scale"):
            p = RewardParams.defaults(2)
            cfg["params"] = {
                f: list(getattr(p, f))
                for f in ("alpha_d", "beta_d", "sigma_d", "alpha_a", "beta_a",
                          "sigma_a", "cost_d_per_stage")
            }
        elif path[0] == "params":
            cfg["params"] = {"defaults": 2}
        target = cfg
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        cfg_path = tmp_path / "typed.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert path[-1] in err

    @pytest.mark.parametrize("count", [3, 10**30], ids=["3", "1e30"])
    def test_defaults_for_other_stage_count_exit_2(
        self, tmp_path, config, capsys, monkeypatch, count
    ):
        # the config's graph has 2 stages; tables for any other count must
        # never be built (10**30 entries would never finish)
        real = RewardParams.defaults.__func__

        def guarded(cls, stages=3):
            assert stages == 2, f"reward tables built for {stages} stages"
            return real(cls, stages)

        monkeypatch.setattr(RewardParams, "defaults", classmethod(guarded))
        cfg = json.loads(open(config).read())
        cfg["params"] = {"defaults": count}
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        rc = main(["train", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert f"params.defaults is {count}, but the graph has 2 stages" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "section, keys",
        [("fn", ("2,1", " 2,1")), ("params", ("2,1", "02,1"))],
        ids=["fn.overrides", "params.cost_overrides"],
    )
    def test_duplicate_override_keys_exit_2(self, tmp_path, capsys, section, keys):
        # both keys parse to node 2, stage 1 (chargeable on this graph), so
        # without the check the last one would silently win
        save_graph(_criterion5_ifg(), str(tmp_path / "g.json"))
        p = RewardParams.defaults(3)
        fields = ("alpha_d", "beta_d", "sigma_d", "alpha_a", "beta_a", "sigma_a", "cost_d_per_stage")
        cfg = {
            "graph": {"file": str(tmp_path / "g.json")},
            "params": {f: list(getattr(p, f)) for f in fields},
            "fn": {"default": 0.2},
            "train": {"iterations": 100},
        }
        if section == "fn":
            cfg["fn"]["overrides"] = dict(zip(keys, (0.1, 0.3)))
        else:
            cfg["params"]["cost_overrides"] = dict(zip(keys, (-1.5, -2.0)))
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        rc = main(["train", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert all(repr(k) in err for k in keys), err

    @pytest.mark.parametrize("seed", [-1, 2**63, 2**64 + 5])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_out_of_range_seed_exit_2(self, tmp_path, config, capsys, seed, via):
        argv = ["train", "--config", config, "--out", str(tmp_path / "o"), "--iters", "10"]
        if via == "flag":
            argv += ["--seed", str(seed)]
        else:
            cfg = json.loads(open(config).read())
            cfg["train"]["seed"] = seed
            (tmp_path / "seed.json").write_text(json.dumps(cfg))
            argv[2] = str(tmp_path / "seed.json")
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2, err
        assert "seed" in err

    def test_malformed_config_exit_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        rc = main(["train", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize(
        "train, seed",
        [({}, ["--seed", "18446744073709551621"]), ({"exploration_floor": 0.5}, [])],
        ids=["seed", "exploration_floor"],
    )
    def test_rejected_run_leaves_no_outdir(self, tmp_path, capsys, train, seed):
        # A floor of 0.5 is in [0, 1) but too large for the fixture's two-action
        # states; only the game's action sets can tell.
        save_graph(_criterion5_ifg(), str(tmp_path / "g.json"))
        cfg = {
            "graph": {"file": str(tmp_path / "g.json")},
            "train": {"iterations": 100, **train},
        }
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        outdir = tmp_path / "outdir"
        rc = main(["train", "--config", str(tmp_path / "c.json"), "--out", str(outdir), *seed])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert not outdir.exists()


def _paths(node, prefix=()):
    """Every key path into a JSON value, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _small_config(table: bool) -> dict:
    """A config that trains in milliseconds, with the reward block either
    as defaults or as a full table."""
    p = RewardParams.defaults(2)
    fields = ("alpha_d", "beta_d", "sigma_d", "alpha_a", "beta_a", "sigma_a", "cost_d_per_stage")
    return {
        "graph": {
            "synthetic": {
                "n_nodes": 6, "stages": 2, "n_entries": 1, "dests_per_stage": [1, 1],
                "edge_density": 0.3, "seed": 4,
            }
        },
        "params": (
            {**{f: list(getattr(p, f)) for f in fields}, "cost_overrides": {"1,1": 2.0}}
            if table
            else {"defaults": 2, "scale": 1.0}
        ),
        "fn": {"default": 0.2, "overrides": {"1,1": 0.5}},
        "train": {"iterations": 30, "warmup": 10, "seed": 1, "stride": 10},
        "out": "run",
    }


JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.lists(st.integers(-1, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(0, 2), max_size=2),
)


@st.composite
def mutated(draw, doc):
    """A copy of the JSON value ``doc`` with one to three values replaced
    by arbitrary JSON or object keys deleted."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        *parent, key = draw(st.sampled_from(paths))
        target = doc
        for k in parent:
            target = target[k]
        if isinstance(target, dict) and draw(st.booleans()):
            del target[key]
        else:
            target[key] = draw(JSON_VALUES)
    return doc


@st.composite
def mutated_configs(draw):
    return draw(mutated(_small_config(draw(st.booleans()))))


@settings(max_examples=60, deadline=None)
@given(mutated_configs())
def test_mutated_config_never_exits_3(cfg):
    # wrong types, NaN or inf, missing keys and wrong containers are usage
    # errors (2) or valid runs (0), never runtime failures (3)
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/cfg.json"
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        assert main(["train", "--config", path, "--out", f"{tmp}/run"]) in (0, 1, 2)


@pytest.mark.parametrize("command", ["certify", "compare"])
@settings(max_examples=40, deadline=None)
@given(player=st.sampled_from("DA"), data=st.data())
def test_mutated_policy_file_never_exits_3(command, player, data):
    # a policy file that policy_from_json rejects (wrong types, NaN or inf,
    # a bad row at any state, missing keys) is a usage error (2); one it
    # accepts is checked or compared (0 or 1), or assigned to the wrong
    # player (2); never a runtime failure (3)
    cfg = _small_config(False)
    game = _game_from_config(cfg)
    docs = {p: policy_to_json(game, uniform_policy(game, p)) for p in "DA"}
    docs[player] = data.draw(mutated(docs[player]))
    try:
        policy_from_json(game, docs[player])
        malformed = False
    except Exception:
        malformed = True
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for p, doc in docs.items():
            paths[p] = f"{tmp}/{p}.json"
            with open(paths[p], "w") as fh:
                json.dump(doc, fh)
        with open(f"{tmp}/cfg.json", "w") as fh:
            json.dump(cfg, fh)
        rc = main([command, "--config", f"{tmp}/cfg.json", "--policy-d", paths["D"],
                   "--policy-a", paths["A"], "--out", f"{tmp}/out"])
    assert rc == 2 if malformed else rc in (0, 1, 2)


class TestCertifyCompare:
    @pytest.fixture
    def uniform_pair_files(self, tmp_path):
        game = config_game()
        d_path = tmp_path / "d.json"
        a_path = tmp_path / "a.json"
        save_policy(game, uniform_policy(game, "D"), str(d_path))
        save_policy(game, uniform_policy(game, "A"), str(a_path))
        return str(d_path), str(a_path)

    def test_uniform_pair_fails_certification(
        self, tmp_path, config, uniform_pair_files, capsys
    ):
        d_path, a_path = uniform_pair_files
        out = tmp_path / "cert.json"
        rc = main(
            ["certify", "--config", config, "--policy-d", d_path,
             "--policy-a", a_path, "--tol", "0.5", "--out", str(out)]
        )
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out
        with open(out) as fh:
            cert = json.load(fh)
        assert cert["verdict"] is False
        assert cert["tol"] == 0.5

    def test_wrong_typed_tol_exit_2(self, tmp_path, config, uniform_pair_files, capsys):
        cfg = json.loads(open(config).read())
        cfg["tol"] = None
        path = tmp_path / "tol.json"
        path.write_text(json.dumps(cfg))
        d_path, a_path = uniform_pair_files
        rc = main(
            ["certify", "--config", str(path), "--policy-d", d_path,
             "--policy-a", a_path, "--out", str(tmp_path / "cert.json")]
        )
        assert rc == 2
        assert "tol" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [("--tol", "nan"), ("--tol", "inf"), ("--tol", "-1"), (None, float("nan"))],
    )
    def test_bad_tol_exit_2(self, tmp_path, config, uniform_pair_files, capsys, flag, value):
        cfg = json.loads(open(config).read())
        extra = [flag, value] if flag else []
        if not flag:
            cfg["tol"] = value
        path = tmp_path / "tol.json"
        path.write_text(json.dumps(cfg))
        d_path, a_path = uniform_pair_files
        out = tmp_path / "cert.json"
        rc = main(
            ["certify", "--config", str(path), "--policy-d", d_path,
             "--policy-a", a_path, "--out", str(out), *extra]
        )
        assert rc == 2
        assert "tol" in capsys.readouterr().err
        assert not out.exists()

    def test_trained_pair_beats_uniform_gaps(self, tmp_path, config, capsys):
        # quick sanity loop: train, then certify the dumped pair at a loose
        # tolerance; exit code reflects the verdict either way
        outdir = tmp_path / "run"
        assert main(["train", "--config", config, "--out", str(outdir)]) == 0
        rc = main(
            ["certify", "--config", config,
             "--policy-d", str(outdir / "policy_d.json"),
             "--policy-a", str(outdir / "policy_a.json"),
             "--tol", "50", "--out", str(tmp_path / "cert.json")]
        )
        assert rc in (0, 1)
        assert "gaps" in capsys.readouterr().out

    def test_swapped_policies_exit_2(self, tmp_path, config, uniform_pair_files):
        d_path, a_path = uniform_pair_files
        rc = main(
            ["certify", "--config", config, "--policy-d", a_path,
             "--policy-a", d_path, "--out", str(tmp_path / "c.json")]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "state", [999, -1, "1", 1.0, True, None, "duplicate"]
    )
    def test_bad_state_index_exit_2(
        self, tmp_path, config, uniform_pair_files, state, capsys
    ):
        d_path, a_path = uniform_pair_files
        data = json.loads(open(d_path).read())
        if state == "duplicate":
            data["states"][1] = dict(data["states"][0])
        else:
            data["states"][1]["state"] = state
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        rc = main(
            ["certify", "--config", config, "--policy-d", str(bad),
             "--policy-a", a_path, "--out", str(tmp_path / "c.json")]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda data: [data],
            lambda data: data["states"][1].update(probs={"a": 1}) or data,
            lambda data: data["states"][1].update(probs=[{"a": 1}]) or data,
        ],
        ids=["top-level list", "probs object", "probs entry object"],
    )
    def test_malformed_policy_file_exit_2(
        self, tmp_path, config, uniform_pair_files, mutate, capsys
    ):
        d_path, a_path = uniform_pair_files
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(mutate(json.loads(open(d_path).read()))))
        rc = main(
            ["certify", "--config", config, "--policy-d", str(bad),
             "--policy-a", a_path, "--out", str(tmp_path / "c.json")]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_probs_beyond_float_exit_2(self, tmp_path, config, uniform_pair_files, capsys):
        # an integer literal beyond float range (1 and 400 zeros) in one entry
        d_path, a_path = uniform_pair_files
        data = json.loads(open(d_path).read())
        data["states"][1]["probs"][0] = 10**400
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        rc = main(
            ["certify", "--config", config, "--policy-d", str(bad),
             "--policy-a", a_path, "--out", str(tmp_path / "c.json")]
        )
        err = capsys.readouterr().err
        assert rc == 2, err
        assert f"state {data['states'][1]['state']}: probs hold an integer too large" in err

    def test_compare_writes_three_rows(
        self, tmp_path, config, uniform_pair_files, capsys
    ):
        d_path, a_path = uniform_pair_files
        out = tmp_path / "cmp.csv"
        rc = main(
            ["compare", "--config", config, "--policy-d", d_path,
             "--policy-a", a_path, "--out", str(out)]
        )
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["policy", "rho_D", "rho_A"]
        assert [r[0] for r in rows[1:]] == ["learned", "uniform", "cut"]
        # learned defender IS uniform here, so the first two rows agree
        assert float(rows[1][1]) == pytest.approx(float(rows[2][1]))
        text = capsys.readouterr().out
        assert "uniform" in text and "cut" in text

    def test_policy_for_wrong_game_exit_2(self, tmp_path, config):
        other = build_game(
            __import__("diftgame.ifg", fromlist=["generate_synthetic"])
            .generate_synthetic(12, 3, 2, (1, 1, 1), 0.25, seed=2),
            RewardParams.defaults(3),
        )
        d_path = tmp_path / "d.json"
        a_path = tmp_path / "a.json"
        save_policy(other, uniform_policy(other, "D"), str(d_path))
        save_policy(other, uniform_policy(other, "A"), str(a_path))
        rc = main(
            ["certify", "--config", config, "--policy-d", str(d_path),
             "--policy-a", str(a_path), "--out", str(tmp_path / "c.json")]
        )
        assert rc == 2


class TestParser:
    def test_no_command_exits_nonzero(self, capsys):
        rc = main([])
        assert rc == 2
        capsys.readouterr()

    def test_version_flag(self, capsys):
        rc = main(["--version"])
        assert rc == 0
        from diftgame import __version__

        assert __version__ in capsys.readouterr().out

    def test_parser_built_once_and_commands_looked_up_per_call(self, monkeypatch):
        from diftgame import cli

        assert cli._build_parser() is cli._build_parser()
        monkeypatch.setattr(cli, "cmd_prune", lambda args: 7)
        assert main(["prune", "--in", "raw.json", "--out", "pruned.json"]) == 7

    def test_graph_file_route(self, tmp_path, capsys):
        # config pointing at a graph file instead of a synthetic spec
        nodes = [IfgNode(0, "process", "a"), IfgNode(1, "file", "b"),
                 IfgNode(2, "socket", "c")]
        g = Ifg(nodes, {(0, 1), (1, 2)}, {0}, [{2}])
        gpath = tmp_path / "g.json"
        save_graph(g, str(gpath))
        cfg = {"graph": {"file": str(gpath)},
               "train": {"iterations": 200, "warmup": 50, "seed": 0, "stride": 100}}
        cpath = tmp_path / "c.json"
        cpath.write_text(json.dumps(cfg))
        rc = main(["train", "--config", str(cpath), "--out", str(tmp_path / "o")])
        assert rc == 0
        capsys.readouterr()


def test_numpy_not_leaked_into_csv(tmp_path, config):
    outdir = tmp_path / "run"
    assert main(["train", "--config", config, "--out", str(outdir)]) == 0
    text = (outdir / "history.csv").read_text()
    assert "np.float64" not in text


def test_train_outputs_golden(tmp_path):
    # Digests of `diftgame train` on the criterion-5 fixture at 2e4 steps.
    # The policies were recorded before the kernel was stored as flat arrays:
    # the rule, the outcome order and the random streams must not change the
    # trained bytes.  They were re-recorded when build_game dropped the states
    # no play reaches; matched by state label, every kept row is unchanged.
    # history.csv was re-recorded when marginalize moved to the case table,
    # and again when phi became one dot product per player over the
    # reachable rows.  Its phi columns are td_errors at the
    # learner's own rho and v, so their last digits depend on the marginal's
    # summation order and on that dot product (numpy 2.4, x86-64).
    kinds = ["process", "file", "socket", "other"]
    ifg = Ifg(
        [IfgNode(i, kinds[i % 4], f"n{i}") for i in range(10)],
        {(0, 2), (1, 3), (2, 4), (3, 5), (4, 6), (5, 6), (6, 7), (7, 8), (8, 9)},
        {0, 1},
        [{6}, {8}, {9}],
    )
    save_graph(ifg, str(tmp_path / "g.json"))
    cfg = {
        "graph": {"file": str(tmp_path / "g.json")},
        "params": {"defaults": 3},
        "fn": {"default": 0.2},
        "train": {"iterations": 20000, "warmup": 7000, "seed": 17, "stride": 500},
    }
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    run = tmp_path / "run"
    assert main(["train", "--config", str(tmp_path / "c.json"), "--out", str(run)]) == 0
    digests = {
        name: hashlib.sha256((run / name).read_bytes()).hexdigest()
        for name in ("policy_d.json", "policy_a.json", "history.csv")
    }
    assert digests == {
        "policy_d.json": "8709cbf4b00f2ea59119a6c79ca041795e0578cb53e46aba2e4fa8f07b859fb3",
        "policy_a.json": "d6018abe2471c48132b02c43fa62766bd428ed6653a4859f461e04376d703bb4",
        "history.csv": "55a72a3d16d7d8c72bb71fe87e017a42966031ad06610446891e67c0fc6b262a",
    }
