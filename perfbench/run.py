"""Benchmark for diftgame: three seeded workloads, end-to-end and per-layer metrics.

One workload per process (so set-up time and peak memory are its own):

    python3 perfbench/run.py --workload learn --seed 1 --seconds 30 --trace 0

prints the end-to-end metrics of BENCHMARK.json; ``--trace 1`` instead
wraps diftgame's public functions from outside the package, prints the
per-layer metrics and writes every span to ``perfbench/out/``.  The last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it (``REPORT {...}``) carries everything else:
machine, both metric sets, workload-specific layer figures and failures.

    python3 perfbench/run.py --workload all --seed 1 --seconds 30

runs every workload untraced and traced, each in a fresh process, and prints
all metrics by name and unit plus the tracing overhead per end-to-end metric.
``--size smoke`` shrinks the inputs; with ``--workload all`` it is the
benchmark's self-test: it exits 1 unless every metric in BENCHMARK.json is
emitted with its unit and no check failed.

The program is imported from ``src/`` of the checkout this file sits in; the
run fails (exit 2) when that source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("learn", "certify-large", "prune-cyclic")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "prune_s": "s",
    "game_states_out": "count",
    "train_steps_per_s": "steps/s",
    "rollout_steps_per_s": "steps/s",
    "certify_s": "s",
    "compare_s": "s",
    "gradient_s": "s",
}

# Per-layer metrics every workload produces: (name, unit, how to read it
# from Tracer.unit()).  Figures only some workloads produce are in LOCAL.
PER_LAYER = {
    "ifg.load_graph_s": ("s", ("total", "ifg.load_graph")),
    "ifg.collapse_s": ("s", ("total", "ifg.collapse")),
    "ifg.prune_s": ("s", ("total", "ifg.prune")),
    "ifg.version_s": ("s", ("total", "ifg.version")),
    "ifg.to_ifg_s": ("s", ("total", "ifg.to_ifg")),
    "ifg.save_graph_s": ("s", ("total", "ifg.save_graph")),
    "ifg.nodes_raw": ("count", ("extra", "ifg.nodes_raw")),
    "ifg.nodes_versioned": ("count", ("extra", "ifg.nodes_versioned")),
    "ifg.version_blowup": ("ratio", ("ratio", "ifg.nodes_versioned", "ifg.version_in")),
    "ifg.nodes_out": ("count", ("extra", "ifg.nodes_out")),
    "ifg.self_s": ("s", ("self", "ifg")),
    "game.build_s": ("s", ("total", "game.build")),
    "game.states": ("count", ("extra", "game.states")),
    "game.reachable_states": ("count", ("extra", "game.reachable_states")),
    "game.joint_actions": ("count", ("extra", "game.joint_actions")),
    "game.induced_chain_s": ("s", ("total", "game.induced_chain")),
    "game.expected_rewards_s": ("s", ("total", "game.expected_rewards")),
    "game.classify_chain_s": ("s", ("total", "game.classify_chain")),
    "game.classify_chain_calls": ("count", ("calls", "game.classify_chain")),
    "game.self_s": ("s", ("self", "game")),
    "policies.project_simplex_calls": ("count", ("calls", "policies.project_simplex")),
    "policies.project_simplex_s": ("s", ("total", "policies.project_simplex")),
    "policies.save_load_s": ("s", ("total", "policies.save_load")),
    "policies.self_s": ("s", ("self", "policies")),
    "env.step_calls": ("count", ("calls", "env.step")),
    "env.step_s": ("s", ("total", "env.step")),
    "env.rollout_s": ("s", ("total", "env.rollout")),
    "env.self_s": ("s", ("self", "env")),
    "training.train_step_calls": ("count", ("calls", "training.train_step")),
    "training.train_step_self_s": ("s", ("self_of", "training.train_step")),
    "training.actor_update_ratio": (
        "ratio", ("child_ratio", "training.train_step", "policies.project_simplex",
                  "training.actor_updates_tried")),
    "training.unvisited_states": ("count", ("extra", "training.unvisited_states")),
    "training.self_s": ("s", ("self", "training")),
    "equilibrium.evaluate_s": ("s", ("total", "equilibrium.evaluate")),
    "equilibrium.evaluate_calls": ("count", ("calls", "equilibrium.evaluate")),
    "equilibrium.best_response_s": ("s", ("total", "equilibrium.best_response")),
    "equilibrium.residuals_s": ("s", ("total", "equilibrium.residuals")),
    "equilibrium.exact_gradient_s": ("s", ("total", "equilibrium.exact_gradient")),
    "equilibrium.linear_solves": ("count", ("calls", "equilibrium.linear_solve")),
    "equilibrium.solve_gflop_computed": ("GFLOP", ("extra", "equilibrium.solve_gflop_computed")),
    "equilibrium.linear_solve_s": ("s", ("total", "equilibrium.linear_solve")),
    "equilibrium.self_s": ("s", ("self", "equilibrium")),
    "cli.prune_s": ("s", ("total", "cli.prune")),
    "cli.io_s": ("s", ("self", "cli")),
}

# Layer figures that exist only where the workload makes the call: merge
# groups (prune-cyclic), synthetic generation (certify-large), the train,
# certify and compare commands (learn; prune-cyclic trains too) and the
# learning curve's td_errors (certify-large trains model-free, without one).
LOCAL = {
    "training.history_s": ("s", ("total", "training.history")),
    "ifg.merge_s": ("s", ("total", "ifg.merge")),
    "ifg.generate_synthetic_s": ("s", ("total", "ifg.generate_synthetic")),
    "cli.train_s": ("s", ("total", "cli.train")),
    "cli.certify_s": ("s", ("total", "cli.certify")),
    "cli.compare_s": ("s", ("total", "cli.compare")),
}


def layer_value(unit: dict, how: tuple):
    kind, *keys = how
    if kind in ("total", "extra", "calls"):
        return unit[kind].get(keys[0])
    if kind == "self_of":
        return unit["self_time"].get(keys[0])
    if kind == "self":
        prefix = keys[0] + "."
        names = [n for n in unit["self_time"] if n.startswith(prefix)]
        return sum(unit["self_time"][n] for n in names) if names else None
    if kind == "ratio":
        num, den = unit["extra"].get(keys[0]), unit["extra"].get(keys[1])
        return num / den if num is not None and den else None
    if kind == "child_ratio":
        num = unit["child_calls"].get((keys[0], keys[1]), 0)
        den = unit["extra"].get(keys[2])
        return num / den if den else None
    raise ValueError(kind)


def cap_blas_threads() -> int:
    """One BLAS thread, set before numpy loads; returns nproc.

    Every time is CPU time of the benchmark's thread, so work that BLAS hands
    to helper threads would go uncounted; with one thread it is all counted.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def machine(nproc: int) -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": " ".join(str(blas.get("openblas configuration", "")).split()),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


IMPORT = "from diftgame import cli, env, equilibrium, game, ifg, policies, training"


def import_program() -> SimpleNamespace:
    src = ROOT / "src"
    if not (src / "diftgame" / "__init__.py").is_file():
        print(f"error: no diftgame source tree at {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import diftgame
    from diftgame import cli, env, equilibrium, game, ifg, policies, training

    if Path(diftgame.__file__).resolve().parent != (src / "diftgame").resolve():
        print(f"error: imported diftgame from {diftgame.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    return SimpleNamespace(cli=cli, env=env, equilibrium=equilibrium, game=game, ifg=ifg,
                           policies=policies, training=training)


def import_time() -> float:
    """CPU time of importing diftgame in a fresh interpreter, as a user's
    first command pays it (numpy included)."""
    code = f"import time\nt0 = time.thread_time()\n{IMPORT}\nprint(time.thread_time() - t0)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    return float(out.stdout)


def run_one(args) -> int:
    nproc = cap_blas_threads()
    mods = import_program()
    import tracer as tracing
    import workloads

    tracer = tracing.Tracer()
    undo = tracing.install(tracer, mods) if args.trace else None
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        b, setup_times = workloads.run(mods, tracer, args.workload, args.seed, args.seconds,
                                       args.size, workdir, import_time)
    finally:
        if undo:
            undo()
        shutil.rmtree(workdir, ignore_errors=True)

    values = workloads.values(b)
    values["setup_s"] = workloads.slow_side(setup_times, rate=False)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    e2e = {k: {"value": values.get(k), "unit": u} for k, u in END_TO_END.items()}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "size": args.size, "trace": args.trace, "machine": machine(nproc),
        "passes": b.passes, "samples": dict(b.samples),
        "per_input_samples": {k: dict(v) for k, v in b.items.items()},
        "end_to_end": e2e, "fail_rate": len(b.failures) / max(b.attempted, 1),
        "failures": b.failures[:20],
    }
    metrics = e2e
    if args.trace:
        unit = tracer.unit()
        per_layer = {k: {"value": layer_value(unit, how), "unit": u}
                     for k, (u, how) in PER_LAYER.items()}
        local = {k: {"value": v, "unit": u} for k, (u, how) in LOCAL.items()
                 if (v := layer_value(unit, how)) is not None}
        report.update(per_layer=per_layer, local_layers=local)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(str(trace_file), {"report": report})
        report["trace_file"] = str(trace_file.relative_to(ROOT))
        metrics = per_layer
    missing = [k for k, v in metrics.items() if v["value"] is None]
    if missing:
        b.failures.append(f"metrics not measured: {missing}")
    print("REPORT " + json.dumps(report))
    print(json.dumps({
        "correct": not b.failures,
        "attempted": b.attempted,
        "failed": len(b.failures),
        "metrics": {k: v for k, v in metrics.items() if v["value"] is not None},
    }))
    return 0


def child(workload: str, args, trace: int) -> dict:
    cmd = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace), "--size", args.size]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("REPORT "):
        raise SystemExit(f"error: {' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return {"report": json.loads(lines[-2][len("REPORT "):]), "result": json.loads(lines[-1])}


def run_all(args) -> int:
    """Every workload untraced and traced, one fresh process each."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    summary = {}
    for w in WORKLOAD_NAMES:
        plain, traced = child(w, args, 0), child(w, args, 1)
        rp, rt = plain["report"], traced["report"]
        print(f"== {w} (seed {args.seed}, {rp['passes']} passes untraced, "
              f"{rt['passes']} traced; fail_rate {rp['fail_rate']:.3g} / {rt['fail_rate']:.3g})")
        print(f"   {'metric':34} {'untraced':>14} {'traced':>14} {'overhead':>9}  unit")
        for name, m in rp["end_to_end"].items():
            t = rt["end_to_end"][name]["value"]
            over = (t - m["value"]) / m["value"] if m["value"] else float("nan")
            print(f"   {name:34} {m['value']:14.6g} {t:14.6g} {over:+9.1%}  {m['unit']}")
        for name, m in {**rt["per_layer"], **rt["local_layers"]}.items():
            print(f"   {name:34} {'':14} {m['value']:14.6g} {'':9}  {m['unit']}")
        for kind, res, want in (("end-to-end", plain, want_e2e), ("per-layer", traced, want_layer)):
            got = {k: v["unit"] for k, v in res["result"]["metrics"].items()}
            if got != want:
                problems.append(f"{w} {kind}: emitted {got}, BENCHMARK.json wants {want}")
            if res["result"]["failed"] or not res["result"]["correct"]:
                problems.append(f"{w} {kind} run failed checks: {res['report']['failures']}")
        summary[w] = {"end_to_end": rp["end_to_end"], "fail_rate": rp["fail_rate"],
                      "overhead": {k: rt["end_to_end"][k]["value"] - v["value"]
                                   for k, v in rp["end_to_end"].items()}}
    for p in problems:
        print("PROBLEM " + p)
    print(json.dumps({"correct": not problems, "workloads": summary}))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
