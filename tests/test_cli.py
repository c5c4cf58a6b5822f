"""End-to-end command-line tests driving the real entry point."""

import csv
import json

import numpy as np
import pytest

from diftgame.cli import main
from diftgame.game import FnRates, RewardParams, build_game
from diftgame.ifg import Ifg, IfgNode, load_graph, save_graph
from diftgame.policies import load_policy, save_policy, uniform_policy


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

    def test_malformed_config_exit_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        rc = main(["train", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2


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
