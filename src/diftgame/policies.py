"""Stationary stochastic policies over per-state action sets, baselines,
the simplex projection and the policy file format.

A policy is one probability vector ``flat`` over its player's (state, own
action) rows, in the order of ``game.frames[player][0].first``: state s owns
``flat[first[s]:first[s + 1]]``, aligned with its action tuple.  Every
state of a built game is one a play can reach, so every row counts, and
:meth:`Policy.validate` checks every one."""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_str
from math import isfinite

import numpy as np

from .game import Game


@dataclass(frozen=True, eq=False)
class Policy:
    """``Policy(player, rows)`` stacks one 1-D row per state into ``flat``.
    The fields, ``table`` and its rows cannot be replaced, so they never fall
    out of step; a write into a row, ``pol.table[s][:] = x``, writes ``flat``."""

    player: str  # "D" | "A"
    first: np.ndarray
    flat: np.ndarray

    def __init__(self, player: str, rows) -> None:
        rows = [np.asarray(r, dtype=float) for r in rows]
        if bad := [s for s, r in enumerate(rows) if r.ndim != 1]:
            raise ValueError(f"state {bad[0]}: probs of shape {rows[bad[0]].shape}, not one row")
        flat = np.concatenate([np.empty(0), *rows])
        self.__dict__.update(player=player, first=np.cumsum([0, *map(len, rows)]), flat=flat)

    @classmethod
    def _from_flat(cls, player: str, first: np.ndarray, flat: np.ndarray) -> Policy:
        pol = cls.__new__(cls)  # shares first and flat
        pol.__dict__.update(player=player, first=first, flat=flat)
        return pol

    def __reduce__(self):  # copies and pickles rebuild table over the new flat
        return Policy._from_flat, (self.player, self.first, self.flat)

    @functools.cached_property
    def table(self) -> tuple[np.ndarray, ...]:  # per-state views of flat
        return tuple(self.flat[i:j] for i, j in itertools.pairwise(self.first.tolist()))

    def validate(self, game: Game, floor: float = 0.0, atol: float = 1e-9) -> None:
        """Raise ``ValueError`` unless every row is a finite probability
        vector over its state's actions, each entry at least ``floor``.

        Sums come from one ``(rows, k)`` block per row length k
        (:attr:`Game.row_blocks`), minima from one ``np.minimum.reduceat``,
        so NaN or inf fails the comparisons.  A block row sums in the order
        of ``vec.sum()``, so a sum within rounding of ``atol`` gets the
        verdict of a row-by-row check (``np.add.reduceat`` would not).
        A player other than ``"D"`` or ``"A"`` raises too.
        """
        if self.player not in ("D", "A"):
            raise ValueError(f"policy for no player: {self.player!r} is neither 'D' nor 'A'")
        first = game.frames[self.player][0].first  # equal offsets, equal row lengths
        if self.first is not first and not np.array_equal(self.first, first):
            if len(self.first) != len(first):
                raise ValueError("policy table length != state count")
            sizes = np.diff(first)
            s = int(np.argmax(np.diff(self.first) != sizes))
            raise ValueError(f"state {s}: {len(self.table[s])} probs for {sizes[s]} actions")
        sums = np.empty(len(first) - 1)
        with np.errstate(invalid="ignore", over="ignore"):
            for rows, at in game.row_blocks[self.player]:
                sums[rows] = self.flat[at].sum(axis=1)
            mins = np.minimum.reduceat(self.flat, self.first[:-1])  # exact in any order
            ok = (np.abs(sums - 1.0) <= atol) & (mins >= floor - atol)
        if not ok.all():
            s = int(np.argmin(ok))
            raise ValueError(f"state {s}: probabilities invalid: {self.table[s]}")

    def copy(self) -> Policy:
        return Policy._from_flat(self.player, self.first, self.flat.copy())


@dataclass
class PolicyPair:
    d: Policy
    a: Policy

    def copy(self) -> PolicyPair:
        return PolicyPair(self.d.copy(), self.a.copy())

    def validate(self, game: Game) -> None:
        """Raise ``ValueError`` unless the pair holds the defender's policy,
        then the intruder's, each with one finite probability vector per
        state over its actions (:meth:`Policy.validate`)."""
        if self.d.player != "D" or self.a.player != "A":
            raise ValueError("policy pair must hold the defender's then the intruder's policy")
        for pol in (self.d, self.a):
            pol.validate(game)


def uniform_policy(game: Game, player: str) -> Policy:
    m = game.frames[player][0]
    return Policy._from_flat(player, m.first, (1.0 / np.diff(m.first))[m.state])


def cut_policy(game: Game) -> Policy:
    """Static defender baseline: wherever the state has inspectable
    out-neighbors that are targets of its stage, inspect one of them
    uniformly at random; everywhere else idle."""
    m = game.frames["D"][0]
    hit = (game.target_d >= 0) & game.is_dest[game.target_d]  # idle rows hold target -1
    hits = np.bincount(m.state[hit], minlength=game.n_states)
    flat = np.where(hit, 1.0 / np.maximum(hits, 1)[m.state], 0.0)
    flat[m.first[:-1][hits == 0]] = 1.0  # index 0 is always the idle action
    return Policy._from_flat("D", m.first, flat)


def project_simplex(v: list[float], floor: float = 0.0) -> list[float]:
    """Euclidean projection onto {p : p >= floor, sum p = 1}, as a list;
    floor * len(v) < 1 keeps that set nonempty.  Sort and threshold on plain
    floats: on the learner's rows of 2-27 entries that is 3-7x faster than
    numpy's sort and cumsum.

    The reference is the forward loop over the entries less the floor,
    sorted descending as u_1 >= u_2 >= ...: it adds ``acc += u_i`` from
    ``acc = 0.0``, takes ``t = (acc - mass) / i`` and keeps as theta the
    t of the *last* i whose test ``u_i - t > 0`` holds.  Every output
    here has that loop's bits.

    A 2-entry row, the commonest in the learner, skips the sort and the
    loop: it makes their IEEE operations in their order.
    ``sorted(w, reverse=True)`` puts the second entry first only when the
    first is strictly less (a tie or a NaN keeps the order); the loop's
    ``0.0 + hi`` and ``/ 1`` are exact and dropped (a signed zero of
    ``0.0 + hi`` is lost in the ``- mass`` that follows, as mass > 0).

    A longer row searches from the top and stops at the *first* i whose
    test holds, which is the loop's last one.  ``itertools.accumulate``
    makes the loop's sums in its order; without the loop's ``0.0 +`` a
    zero sum may keep a negative sign, which ``- mass`` drops.  A run of
    entries exactly at the floor (``u_i == 0``, the learner's corner rows
    hold many) is passed in one jump: across it the sum S does not change,
    so ``t = (S - mass) / i`` has the sign of ``S - mass`` and the test
    ``0 - t > 0`` holds for the whole run or for none of it, and the run's
    top i, tested first, is its last passing index.  That sign survives
    the division, which never underflows to a signed zero: mass >= 2**-53
    (the least positive ``1.0 - x``), so a nonzero ``S - mass`` is at
    least 2**-106 in magnitude, far above the subnormals even over i.

    A row with no threshold, from magnitudes where ``hi - mass`` rounds to
    ``hi``, raises as the loop does.  So does every row holding NaN or
    inf, though a test can pass on one (the loop alone took ``[1.0, nan]``
    to ``[1.0, nan]``): on two entries a NaN ``lo - t`` gives it away, and
    on more a sum that is not finite sends the row through one
    ``isfinite`` pass, which only an overflowing finite row survives."""
    n = len(v)
    if floor < 0 or floor * n >= 1.0:
        raise ValueError(f"floor {floor} infeasible for {n} actions")
    mass = 1.0 - floor * n
    if n == 2:
        a = v[0] - floor
        b = v[1] - floor
        if a < b:
            hi, lo = b, a
        else:
            hi, lo = a, b
        t = hi - mass
        theta = t if hi - t > 0 else None
        t = (hi + lo - mass) / 2
        gap = lo - t
        if gap > 0:
            theta = t
        elif theta is None or gap != gap:  # NaN: lo is NaN or -inf
            raise ValueError(f"no simplex threshold for {v}")
        return [
            floor + (0.0 if (d := a - theta) <= 0.0 else d),
            floor + (0.0 if (d := b - theta) <= 0.0 else d),
        ]
    w = [x - floor for x in v]
    u = sorted(w, reverse=True)
    acc = list(itertools.accumulate(u))  # acc[k]: the loop's sum of u[:k + 1]
    i = n
    while i:
        k = i - 1
        t = (acc[k] - mass) / i
        if (x := u[k]) - t > 0:
            break
        i = u.index(0.0) if x == 0.0 else k  # below the run of entries at the floor
    # acc[-1] sums w: a NaN or inf entry leaves it NaN or inf; a finite one
    # can too, by overflow, so only then are the entries tested
    if not i or acc[-1] - acc[-1] != 0 and not all(map(isfinite, w)):
        raise ValueError(f"no simplex threshold for {v}")
    return [floor + (0.0 if (d := x - t) <= 0.0 else d) for x in w]


def pick(p: np.ndarray, u: float) -> int:
    """Inverse-CDF action index for the uniform ``u``; the last action absorbs rounding."""
    acc = 0.0
    last = len(p) - 1
    for i in range(last):
        acc += p[i]
        if u < acc:
            return i
    return last


def policy_to_json(game: Game, policy: Policy) -> dict:
    sets = game.actions_d if policy.player == "D" else game.actions_a
    states = [
        {"state": s, "actions": [game.action_label(a) for a in sets[s]], "probs": vec.tolist()}
        for s, vec in enumerate(policy.table)
    ]
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


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def save_policy(game: Game, policy: Policy, path: str) -> None:
    """Write ``policy_to_json(game, policy)`` to ``path``.

    The text is byte for byte what ``json.dump(doc, fh, indent=1)`` writes,
    plus a final newline.  ``json.dump`` with an indent always runs json's
    pure-Python encoder, so the text is built here, as ``ifg.save_graph``
    builds a graph file: one format string per state, labels through the
    ASCII escaper that encoder uses by default, and probabilities as
    ``float.__repr__`` (``NaN``, ``Infinity`` or ``-Infinity`` where the
    value is not finite, as json writes them).  The file is opened only
    once the whole text is built.
    """
    sets = game.actions_d if policy.player == "D" else game.actions_a
    label = game.action_label
    probs = list(map(float.__repr__, policy.flat.tolist()))
    if not np.isfinite(policy.flat).all():
        probs = [_JSON_NONFINITE.get(r, r) for r in probs]

    def block(items: list[str]) -> str:  # a list at depth 3, items at depth 4
        return "[\n    " + ",\n    ".join(items) + "\n   ]" if items else "[]"

    states = [
        '  {\n   "state": %d,\n   "actions": %s,\n   "probs": %s\n  }'
        % (s, block([_json_str(label(a)) for a in sets[s]]), block(probs[i:j]))
        for s, (i, j) in enumerate(itertools.pairwise(policy.first.tolist()))
    ]
    text = '{\n "player": %s,\n "states": %s\n}\n' % (
        _json_str(policy.player),
        "[\n" + ",\n".join(states) + "\n ]" if states else "[]",
    )
    with open(path, "w") as fh:
        fh.write(text)


def load_policy(game: Game, path: str) -> Policy:
    with open(path) as fh:
        return policy_from_json(game, json.load(fh))
