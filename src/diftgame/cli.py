"""Command-line front end: graph generation, pruning, training, certification.

Subcommands:

* ``gen-graph``  sample a synthetic attack graph and write it as JSON
* ``prune``      reduce a raw log graph to the acyclic attack subgraph
* ``train``      learn an equilibrium policy pair and dump history/policies
* ``certify``    check a policy pair against the analytic equilibrium tests
* ``compare``    evaluate learned/uniform/cut defenders versus the learned
  intruder

Exit codes: 0 success (and certification pass), 1 certification failure,
2 usage or configuration error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys

from . import __version__
from .equilibrium import certify_arne, compare_defenses
from .game import FnRates, Game, GameBuildError, RewardParams, build_game
from .ifg import (
    GraphLoadError,
    Ifg,
    InfeasibleGraphError,
    collapse_multi_edges,
    generate_synthetic,
    load_graph,
    merge_directory_nodes,
    prune_attack_subgraph,
    remove_cycles_by_versioning,
    save_graph,
    to_ifg,
)
from .policies import PolicyPair, load_policy, save_policy
from .training import TrainConfig, train

CONFIG_ERRORS = (GraphLoadError, InfeasibleGraphError, GameBuildError, ValueError, KeyError, OSError)


class ConfigError(ValueError):
    pass


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _integer(value: object, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return value


def _number(value: object, what: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    return float(value)


def _object(value: object, what: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be an object, got {value!r}")
    return value


def _pair_keys(raw: object, what: str) -> dict[tuple[int, int], float]:
    """Parse {"node,stage": value} override maps."""
    out = {}
    for key, val in _object(raw, what).items():
        try:
            node, stage = (int(x) for x in key.split(","))
        except ValueError as exc:
            raise ConfigError(f"{what} key {key!r} is not 'node,stage'") from exc
        out[(node, stage)] = _number(val, f"{what}[{key!r}]")
    return out


def _items(value: object, what: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{what} must be a list, got {value!r}")
    return value


def _numbers(spec: dict, key: str) -> tuple[float, ...]:
    return tuple(_number(x, f"params.{key} entry") for x in _items(spec[key], f"params.{key}"))


def _params_from_config(cfg: dict, stages: int) -> RewardParams:
    spec = cfg.get("params")
    if spec is None:
        return RewardParams.defaults(stages)
    spec = _object(spec, "params")
    if "defaults" in spec:
        base = RewardParams.defaults(_integer(spec["defaults"], "params.defaults"))
        scale = _number(spec.get("scale", 1.0), "params.scale")
        return base.scaled(scale) if scale != 1.0 else base
    strict = spec.get("strict_table", True)
    if not isinstance(strict, bool):
        raise ConfigError(f"params.strict_table must be true or false, got {strict!r}")
    try:
        return RewardParams(
            alpha_d=_numbers(spec, "alpha_d"),
            beta_d=_numbers(spec, "beta_d"),
            sigma_d=_numbers(spec, "sigma_d"),
            alpha_a=_numbers(spec, "alpha_a"),
            beta_a=_numbers(spec, "beta_a"),
            sigma_a=_numbers(spec, "sigma_a"),
            cost_d_per_stage=_numbers(spec, "cost_d_per_stage"),
            cost_overrides=_pair_keys(spec.get("cost_overrides", {}), "params.cost_overrides"),
            strict_table=strict,
        )
    except KeyError as exc:
        raise ConfigError(f"params missing field {exc}") from exc


def _fn_from_config(cfg: dict) -> FnRates:
    spec = _object(cfg.get("fn", {}), "fn")
    return FnRates(
        default=_number(spec.get("default", 0.2), "fn.default"),
        overrides=_pair_keys(spec.get("overrides", {}), "fn.overrides"),
    )


def _ifg_from_config(cfg: dict) -> Ifg:
    spec = cfg.get("graph")
    if not isinstance(spec, dict):
        raise ConfigError("config needs a 'graph' object")
    if "file" in spec:
        path = spec["file"]
        if not isinstance(path, str):
            raise ConfigError(f"graph.file must be a path string, got {path!r}")
        return to_ifg(collapse_multi_edges(load_graph(path)))
    if "synthetic" in spec:
        syn = _object(spec["synthetic"], "graph.synthetic")

        def whole(key: str) -> int:
            return _integer(syn[key], f"graph.synthetic.{key}")

        try:
            dests = _items(syn["dests_per_stage"], "graph.synthetic.dests_per_stage")
            return generate_synthetic(
                n_nodes=whole("n_nodes"),
                stages=whole("stages"),
                n_entries=whole("n_entries"),
                dests_per_stage=tuple(
                    _integer(x, "graph.synthetic.dests_per_stage entry") for x in dests
                ),
                edge_density=_number(syn["edge_density"], "graph.synthetic.edge_density"),
                seed=whole("seed"),
            )
        except KeyError as exc:
            raise ConfigError(f"synthetic graph spec missing {exc}") from exc
    raise ConfigError("'graph' needs either 'file' or 'synthetic'")


def _game_from_config(cfg: dict) -> Game:
    ifg = _ifg_from_config(cfg)
    params = _params_from_config(cfg, ifg.stages)
    return build_game(ifg, params, _fn_from_config(cfg))


_TRAIN_INTEGERS = ("iterations", "warmup", "seed", "stride")
_TRAIN_NUMBERS = ("step_pre", "step_post", "sgn_sharpness", "exploration_floor")


def _train_config(cfg: dict, args: argparse.Namespace) -> TrainConfig:
    spec = dict(_object(cfg.get("train", {}), "train"))
    if getattr(args, "seed", None) is not None:
        spec["seed"] = args.seed
    if getattr(args, "iters", None) is not None:
        spec["iterations"] = args.iters
    if "iterations" not in spec:
        raise ConfigError("train.iterations is required (or pass --iters)")
    unknown = set(spec) - {*_TRAIN_INTEGERS, *_TRAIN_NUMBERS}
    if unknown:
        raise ConfigError(f"unknown train options: {sorted(unknown)}")
    for key, val in spec.items():
        check = _integer if key in _TRAIN_INTEGERS else _number
        check(val, f"train.{key}")
    return TrainConfig(**spec)


def cmd_gen_graph(args: argparse.Namespace) -> int:
    if args.config:
        cfg = _load_config(args.config)
        ifg = _ifg_from_config(cfg)
    else:
        dests = tuple(int(x) for x in args.dests.split(","))
        ifg = generate_synthetic(
            args.nodes, args.stages, args.entries, dests, args.density, args.seed
        )
    save_graph(ifg, args.out)
    print(
        f"wrote {args.out}: {ifg.n_nodes} nodes, {len(ifg.edges)} edges, "
        f"{ifg.stages} stages, {len(ifg.entries)} entries"
    )
    return 0


def cmd_prune(args: argparse.Namespace) -> int:
    raw = load_graph(args.infile)
    if not raw.entries or not raw.destinations:
        raise ConfigError("input graph must declare entries and destinations")
    n0, e0 = len(raw.nodes), len(raw.edges)
    g = collapse_multi_edges(raw)
    g = prune_attack_subgraph(g, g.entries, g.destinations)
    merges = {}
    for item in args.merge or []:
        prefix, _, label = item.partition("=")
        if not prefix or not label:
            raise ConfigError(f"--merge wants PREFIX=LABEL, got {item!r}")
        merges[prefix] = label
    if merges:
        g = merge_directory_nodes(g, merges)
    g = remove_cycles_by_versioning(g)
    # versioning can leave dead-end copies (a back edge whose target is
    # still reachable another way); those are not flow relevant, so prune
    # once more before validating
    g = prune_attack_subgraph(g, g.entries, g.destinations)
    ifg = to_ifg(g)
    save_graph(ifg, args.out)
    print(
        f"pruned {n0} nodes / {e0} edges down to "
        f"{ifg.n_nodes} nodes / {len(ifg.edges)} edges (acyclic)"
    )
    return 0


def _write_manifest(path: str, command: str, cfg: dict, extra: dict) -> None:
    doc = {
        "command": command,
        "package_version": __version__,
        "config": cfg,
        **extra,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    game = _game_from_config(cfg)
    tcfg = _train_config(cfg, args)
    outdir = cfg.get("out", "run")
    if not isinstance(outdir, str):
        raise ConfigError(f"out must be a path string, got {outdir!r}")
    outdir = args.out or outdir
    os.makedirs(outdir, exist_ok=True)

    pair, hist = train(game, tcfg)
    hist.to_csv(os.path.join(outdir, "history.csv"))
    save_policy(game, pair.d, os.path.join(outdir, "policy_d.json"))
    save_policy(game, pair.a, os.path.join(outdir, "policy_a.json"))
    _write_manifest(
        os.path.join(outdir, "manifest.json"),
        "train",
        {**cfg, "train": dataclasses.asdict(tcfg)},
        {"outputs": ["history.csv", "policy_d.json", "policy_a.json"]},
    )
    last = hist.rows[-1] if hist.rows else (0, 0.0, 0.0, None, None, None)
    print(
        f"trained {tcfg.iterations} iterations: rho_D={last[1]:.4f} "
        f"rho_A={last[2]:.4f}; outputs in {outdir}"
    )
    return 0


def _load_pair(game: Game, args: argparse.Namespace) -> PolicyPair:
    pol_d = load_policy(game, args.policy_d)
    pol_a = load_policy(game, args.policy_a)
    if pol_d.player != "D" or pol_a.player != "A":
        raise ConfigError("policy files assigned to the wrong players")
    return PolicyPair(pol_d, pol_a)


def cmd_certify(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    game = _game_from_config(cfg)
    pair = _load_pair(game, args)
    tol = args.tol if args.tol is not None else _number(cfg.get("tol", 0.5), "tol")
    if not (math.isfinite(tol) and tol >= 0):
        raise ConfigError(f"tol must be finite and >= 0, got {tol!r}")
    cert = certify_arne(game, pair, tol)
    out = args.out or "certificate.json"
    cert.save(out)
    print(
        f"gaps D={cert.gaps['D']:.6f} A={cert.gaps['A']:.6f} "
        f"delta={cert.delta:.3e} min_omega={cert.min_omega:.6f} "
        f"-> {'PASS' if cert.verdict else 'FAIL'} (tol {tol})"
    )
    return 0 if cert.verdict else 1


def cmd_compare(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    game = _game_from_config(cfg)
    pair = _load_pair(game, args)
    rows = compare_defenses(game, pair)
    out = args.out or "comparison.csv"
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["policy", "rho_D", "rho_A"])
        for name, rd, ra in rows:
            w.writerow([name, repr(rd), repr(ra)])
    for name, rd, ra in rows:
        print(f"{name:>8}: rho_D={rd: .4f} rho_A={ra: .4f}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="diftgame", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-graph", help="sample a synthetic attack graph")
    g.add_argument("--out", required=True)
    g.add_argument("--config")
    g.add_argument("--nodes", type=int, default=10)
    g.add_argument("--stages", type=int, default=3)
    g.add_argument("--entries", type=int, default=2)
    g.add_argument("--dests", default="1,1,1", help="targets per stage, comma separated")
    g.add_argument("--density", type=float, default=0.25)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=cmd_gen_graph)

    pr = sub.add_parser("prune", help="reduce a raw log graph to the attack subgraph")
    pr.add_argument("--in", dest="infile", required=True)
    pr.add_argument("--out", required=True)
    pr.add_argument("--merge", action="append", metavar="PREFIX=LABEL")
    pr.set_defaults(func=cmd_prune)

    tr = sub.add_parser("train", help="learn an equilibrium policy pair")
    tr.add_argument("--config", required=True)
    tr.add_argument("--seed", type=int)
    tr.add_argument("--iters", type=int)
    tr.add_argument("--out")
    tr.set_defaults(func=cmd_train)

    ce = sub.add_parser("certify", help="certify a policy pair")
    ce.add_argument("--config", required=True)
    ce.add_argument("--policy-d", required=True)
    ce.add_argument("--policy-a", required=True)
    ce.add_argument("--tol", type=float)
    ce.add_argument("--out")
    ce.set_defaults(func=cmd_certify)

    co = sub.add_parser("compare", help="compare defender baselines")
    co.add_argument("--config", required=True)
    co.add_argument("--policy-d", required=True)
    co.add_argument("--policy-a", required=True)
    co.add_argument("--out")
    co.set_defaults(func=cmd_compare)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, *CONFIG_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
