"""Re-measure the baseline figures quoted in ROADMAP.md item 1.

    python3 perfbench/roadmap_figures.py

Prints one line per figure with the ROADMAP's number next to the measured
ones (median, min and max over SEEDS): ``diftgame train`` steps/s on the
README config, ``build_game``/``certify_arne``/``exact_gradient`` at 160
synthetic nodes, and prune plus versioning of raw 40- and 80-node cyclic
multigraphs.  Single-shot timings; see README.md for recorded results.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from diftgame import cli, equilibrium, game, ifg, policies  # noqa: E402
from workloads import cyclic_graph, dirichlet_pair  # noqa: E402

SEEDS = (1, 2, 3)
README_CONFIG = {
    "graph": {"synthetic": {"n_nodes": 10, "stages": 3, "n_entries": 2,
                            "dests_per_stage": [1, 1, 1], "edge_density": 0.25, "seed": 3}},
    "params": {"defaults": 3},
    "fn": {"default": 0.2, "overrides": {"4,1": 0.5}},
    "train": {"iterations": 250000, "warmup": 7000, "seed": 17, "stride": 500},
}


def quiet_cli(*argv: str) -> float:
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"diftgame {argv[0]} exited {code}")
    return time.perf_counter() - t0


def timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def line(what: str, roadmap: str, values: list[float], unit: str) -> None:
    print(f"{what:44} ROADMAP {roadmap:>8}  measured median {statistics.median(values):9.4g} "
          f"(min {min(values):.4g}, max {max(values):.4g}, n={len(values)}) {unit}")


def main() -> None:
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        cfg = os.path.join(tmp, "readme.json")
        with open(cfg, "w") as fh:
            json.dump(README_CONFIG, fh)
        rates = [250000 / quiet_cli("train", "--config", cfg, "--out", os.path.join(tmp, "run"))
                 for _ in SEEDS]
        line("train, README config, 2.5e5 steps", "41k", rates, "steps/s")

        build, cert, grad = [], [], []
        for s in SEEDS:
            g = ifg.generate_synthetic(160, 3, 2, (1, 1, 1), 0.1, s)
            gm, dt = timed(game.build_game, g, game.RewardParams.defaults(3), game.FnRates(0.2))
            build.append(dt)
            pair = dirichlet_pair(policies, gm, np.random.default_rng([s, 2]))
            cert.append(timed(equilibrium.certify_arne, gm, pair, 0.5)[1])
            grad.append(timed(equilibrium.exact_gradient, gm, pair)[1])
        line("build_game, 160 nodes (481 states)", "0.56", build, "s")
        line("certify_arne, 160 nodes", "0.48", cert, "s")
        line("exact_gradient, 160 nodes", "0.24", grad, "s")

        for n, figure in ((40, "0.34"), (80, "14.3")):
            walls = []
            for s in SEEDS:
                raw, out = os.path.join(tmp, "raw.json"), os.path.join(tmp, "out.json")
                with open(raw, "w") as fh:
                    json.dump(cyclic_graph(np.random.default_rng([s, n]), n), fh)
                walls.append(quiet_cli("prune", "--in", raw, "--out", out))
            line(f"diftgame prune, {n} raw nodes", figure, walls, "s")


if __name__ == "__main__":
    main()
