"""Stationary stochastic policies over per-state action sets.

A policy stores one probability vector per game state, aligned with that
state's action tuple.  Projection onto the simplex (optionally with a
uniform exploration floor) is the sorting-based Euclidean projection.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .game import Game


@dataclass
class Policy:
    player: str  # "D" | "A"
    table: list[np.ndarray]

    def validate(self, game: Game, floor: float = 0.0, atol: float = 1e-9) -> None:
        """Raise ``ValueError`` unless every row is a finite probability
        vector over its state's actions, each entry at least ``floor``.

        Row shapes are checked state by state.  Sums and minima come from
        one ``(rows, k)`` block per row length k of the rows stacked in
        length order, so NaN or inf anywhere fails the comparisons and flags
        its state.  Summing along a block row adds in the same order as
        ``vec.sum()``, so a sum within rounding of ``atol`` gets the same
        verdict as a row-by-row check (``np.add.reduceat`` adds in another
        order and would not).
        """
        sets = game.actions_d if self.player == "D" else game.actions_a
        if len(self.table) != game.n_states:
            raise ValueError("policy table length != state count")
        sizes = [len(acts) for acts in sets]
        for s, vec in enumerate(self.table):
            if np.ndim(vec) != 1 or len(vec) != sizes[s]:
                raise ValueError(f"state {s}: probs of shape {np.shape(vec)} for {sizes[s]} actions")
        order = np.argsort(sizes, kind="stable")
        ks = np.asarray(sizes)[order]
        flat = np.concatenate([self.table[s] for s in order])
        sums = np.empty(len(ks))
        mins = np.empty(len(ks))
        cuts = [0, *(np.flatnonzero(np.diff(ks)) + 1).tolist(), len(ks)]
        pos = 0
        ok = np.empty(len(ks), dtype=bool)
        with np.errstate(invalid="ignore", over="ignore"):
            for a, b in zip(cuts, cuts[1:]):
                block = flat[pos : pos + (b - a) * ks[a]].reshape(b - a, ks[a])
                pos += block.size
                sums[a:b] = block.sum(axis=1)
                mins[a:b] = block.min(axis=1)
            ok[order] = (np.abs(sums - 1.0) <= atol) & (mins >= floor - atol)
        if not ok.all():
            s = int(np.argmin(ok))
            raise ValueError(f"state {s}: probabilities invalid: {self.table[s]}")

    def copy(self) -> Policy:
        return Policy(self.player, [v.copy() for v in self.table])


@dataclass
class PolicyPair:
    d: Policy
    a: Policy

    def copy(self) -> PolicyPair:
        return PolicyPair(self.d.copy(), self.a.copy())


def uniform_policy(game: Game, player: str) -> Policy:
    sets = game.actions_d if player == "D" else game.actions_a
    table = [np.full(len(acts), 1.0 / len(acts)) for acts in sets]
    return Policy(player, table)


def cut_policy(game: Game) -> Policy:
    """Static defender baseline: inspect edges that enter stage targets.

    Wherever the current state has an inspectable out-neighbor that is a
    target of the current stage, inspection probability one is split
    uniformly over those neighbors; everywhere else the defender idles.
    """
    table = []
    for s, acts in enumerate(game.actions_d):
        vec = np.zeros(len(acts))
        hits = [
            i
            for i, act in enumerate(acts)
            if act.kind == "inspect" and game.is_dest[act.target]
        ]
        if hits:
            vec[hits] = 1.0 / len(hits)
        else:
            vec[0] = 1.0  # index 0 is always the idle action
        table.append(vec)
    return Policy("D", table)


def project_simplex(v: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Euclidean projection onto {p : p >= floor, sum p = 1}.

    Requires floor * len(v) < 1 so the floored simplex is nonempty.  With
    the substitution p = floor + q this is projection onto a scaled simplex,
    solved by the usual sort-and-threshold rule.
    """
    v = np.asarray(v, dtype=float)
    n = v.size
    if floor < 0 or floor * n >= 1.0:
        raise ValueError(f"floor {floor} infeasible for {n} actions")
    mass = 1.0 - floor * n
    w = v - floor
    u = np.sort(w)[::-1]
    cssv = np.cumsum(u) - mass
    idx = np.arange(1, n + 1)
    cond = u - cssv / idx > 0
    rho = int(idx[cond][-1])
    theta = cssv[rho - 1] / rho
    return floor + np.maximum(w - theta, 0.0)


def pick(p: np.ndarray, u: float) -> int:
    """Inverse-CDF action index for the uniform ``u``; the last action absorbs rounding."""
    acc = 0.0
    last = len(p) - 1
    for i in range(last):
        acc += p[i]
        if u < acc:
            return i
    return last


def sample(policy: Policy, s: int, rng: np.random.Generator) -> int:
    """Draw an action index at state ``s`` by inverse CDF on one uniform."""
    return pick(policy.table[s], rng.random())


def policy_to_json(game: Game, policy: Policy) -> dict:
    sets = game.actions_d if policy.player == "D" else game.actions_a
    states = []
    for s, vec in enumerate(policy.table):
        states.append(
            {
                "state": s,
                "actions": [game.action_label(a) for a in sets[s]],
                "probs": [float(x) for x in vec],
            }
        )
    return {"player": policy.player, "states": states}


def policy_from_json(game: Game, data: dict) -> Policy:
    if not isinstance(data, dict):
        raise ValueError("policy file must contain a JSON object")
    player = data.get("player")
    if player not in ("D", "A"):
        raise ValueError(f"bad player {player!r}")
    sets = game.actions_d if player == "D" else game.actions_a
    entries = data.get("states")
    if not isinstance(entries, list) or len(entries) != game.n_states:
        raise ValueError("policy file does not match the game's state count")
    table: list[np.ndarray] = [None] * game.n_states  # type: ignore[list-item]
    for item in entries:
        if not isinstance(item, dict):
            raise ValueError("policy file entries must be objects")
        s = item["state"]
        if type(s) is not int or not 0 <= s < game.n_states:
            raise ValueError(f"bad state index {s!r}")
        if table[s] is not None:
            raise ValueError(f"state {s} listed twice")
        want = [game.action_label(a) for a in sets[s]]
        if item["actions"] != want:
            raise ValueError(f"state {s}: action labels do not match the game")
        probs = item["probs"]
        if not isinstance(probs, list) or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in probs
        ):
            raise ValueError(f"state {s}: probs must be a list of numbers, got {probs!r}")
        try:
            table[s] = np.asarray(probs, dtype=float)
        except OverflowError:
            raise ValueError(f"state {s}: probs hold an integer too large for a float") from None
    pol = Policy(player, table)
    pol.validate(game)
    return pol


def save_policy(game: Game, policy: Policy, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(policy_to_json(game, policy), fh, indent=1)
        fh.write("\n")


def load_policy(game: Game, path: str) -> Policy:
    with open(path) as fh:
        return policy_from_json(game, json.load(fh))
