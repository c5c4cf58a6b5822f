"""Where the time of each timed operation goes, from a traced run's spans.

    python3 perfbench/run.py --workload prune-cyclic --seed 1 --seconds 30 --trace 1
    python3 perfbench/shares.py perfbench/out/trace-prune-cyclic-seed1.json

For every top-level operation of the measured passes (``cli.prune``,
``equilibrium.certify``, ``env.rollout``, ...) prints its summed time and
the share of it that each wrapped name spends in its own code (self time,
children excluded).  The shares of one operation add up to 1.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict

from tracer import PER_STEP


def shares(trace: dict) -> dict[str, tuple[float, dict[str, float]]]:
    """{operation: (summed seconds, {name: share of those seconds})}."""
    passes = {r["index"] for r in trace["rounds"] if r["kind"] == "pass"}
    spans = {s[0]: s for s in trace["spans"] if s[5] in passes}
    child_time: dict[int, float] = defaultdict(float)
    for _, _, t0, t1, parent, _ in spans.values():
        if parent is not None:
            child_time[parent] += t1 - t0

    def top(sid: int) -> str:
        while spans[sid][4] is not None:
            sid = spans[sid][4]
        return spans[sid][1]

    total: dict[str, float] = defaultdict(float)
    own: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for sid, name, t0, t1, parent, _ in spans.values():
        if parent is None:
            total[name] += t1 - t0
        own[top(sid)][name] += t1 - t0 - child_time[sid]

    # Per-step calls are counters, not spans, so their time sits in the self
    # time of the training.train span around them; move it out.
    trainers = [op for op, names in own.items() if "training.train" in names]
    if len(trainers) > 1:
        raise SystemExit(f"training runs under several operations: {trainers}")
    for op in trainers:
        for name in PER_STEP:
            t = sum(r["self_s"].get(name, 0.0) for r in trace["per_round"] if r["index"] in passes)
            own[op][name] += t
            own[op]["training.train"] -= t
    return {op: (total[op], {n: t / total[op] for n, t in own[op].items()}) for op in total}


def main(paths: list[str]) -> int:
    for path in paths:
        with open(path) as fh:
            trace = json.load(fh)
        n = sum(r["kind"] == "pass" for r in trace["rounds"])
        print(f"== {path} ({n} passes)")
        for op, (secs, by_name) in sorted(shares(trace).items(), key=lambda kv: -kv[1][0]):
            print(f"   {op:28} {secs / n:10.4f} s/pass")
            for name, share in sorted(by_name.items(), key=lambda kv: -kv[1]):
                if share >= 0.01:
                    print(f"      {name:32} {share:6.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
