"""Model-free learner for average-reward equilibria of the inspection game.

Both players run tabular actor-critics on one shared trajectory.  Three
coupled updates move on separate timescales each step: a bias estimate per
state (fast), a running average-payoff estimate (slow), and, per visited
own action, a critic that tracks the sum of both players' temporal
differences.  The sign of that critic tells the actor whether the visited
action's probability should grow or shrink; updates are scaled by the
root of the current probability and projected back onto the simplex with a
small exploration floor so every action keeps being tried.

The learner sees only sampled transitions and realized payoffs through the
environment; it never reads transition probabilities or inspection
miss rates.
"""

from __future__ import annotations

import csv
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .env import Env, uniforms
from .game import Game
from .policies import Policy, PolicyPair, pick, project_simplex

_MIN_STEP = 1e-15  # policy moves below this are treated as no update


@dataclass
class TrainConfig:
    iterations: int
    warmup: int = 7000
    step_pre: float = 0.5
    step_post: float = 1.6
    sgn_sharpness: float = 10.0
    exploration_floor: float = 1e-3
    seed: int = 0
    stride: int = 500

    def validate(self, max_actions: int | None = None) -> None:
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.warmup < 0:
            raise ValueError("warmup must be >= 0")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if not all(math.isfinite(x) and x >= 0 for x in (self.step_pre, self.step_post)):
            raise ValueError("step_pre and step_post must be finite and >= 0")
        if not (math.isfinite(self.sgn_sharpness) and self.sgn_sharpness > 0):
            raise ValueError("sgn_sharpness must be finite and positive")
        if not 0 <= self.seed < 2**63:
            raise ValueError(f"seed must be in [0, 2**63), got {self.seed}")
        if not 0.0 <= self.exploration_floor < 1.0:
            raise ValueError("exploration_floor must be in [0, 1)")
        if max_actions is not None and self.exploration_floor * max_actions >= 1.0:
            raise ValueError("exploration_floor too large for the action sets")


@dataclass
class TrainerState:
    """The learner's iterates.  The per-state tables (biases, critics and
    the policy rows ``pi_d``, ``pi_a``) are plain float lists: each step
    reads and writes a handful of scalars, which numpy would box and unbox.
    :func:`train` turns the policy rows into a :class:`Policy` only where it
    hands them on."""

    n: int
    current: int
    v_d: list[float]
    v_a: list[float]
    rho_d: float
    rho_a: float
    eps_d: list[list[float]]
    eps_a: list[list[float]]
    pi_d: list[list[float]]
    pi_a: list[list[float]]
    visits: np.ndarray
    _uniforms: Iterator[float] = field(repr=False)  # the learner's action draws


@dataclass
class TrainHistory:
    """Sampled learning curve: iteration, payoff iterates, residual curve."""

    rows: list[tuple[int, float, float, float | None, float | None, float | None]] = field(
        default_factory=list
    )

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["n", "rho_D", "rho_A", "phi_D", "phi_A", "phi_T"])
            for n, rd, ra, pd, pa, pt in self.rows:
                w.writerow(
                    [
                        n,
                        repr(float(rd)),
                        repr(float(ra)),
                        "" if pd is None else repr(float(pd)),
                        "" if pa is None else repr(float(pa)),
                        "" if pt is None else repr(float(pt)),
                    ]
                )


def init_trainer(env: Env, cfg: TrainConfig) -> TrainerState:
    """Fresh trainer state: uniform policies, zero tables, root start.

    The uniform row of k actions is projected onto the floored simplex once
    per distinct k, and every state gets its own copy of it: no two states
    share a row object, so a write into one row changes no other."""
    n = env.n_states
    start: dict[int, list[float]] = {}  # action count -> projected uniform row
    table_d = []
    table_a = []
    eps_d = []
    eps_a = []
    for s in range(n):
        k_d, k_a = map(len, env.actions(s))
        for k in (k_d, k_a):
            if k not in start:
                start[k] = project_simplex([1.0 / k] * k, cfg.exploration_floor)
        table_d.append(list(start[k_d]))
        table_a.append(list(start[k_a]))
        eps_d.append([0.0] * k_d)
        eps_a.append([0.0] * k_a)
    return TrainerState(
        n=0,
        current=env.current,
        v_d=[0.0] * n,
        v_a=[0.0] * n,
        rho_d=0.0,
        rho_a=0.0,
        eps_d=eps_d,
        eps_a=eps_a,
        pi_d=table_d,
        pi_a=table_a,
        visits=np.zeros(n, dtype=np.int64),
        _uniforms=uniforms([cfg.seed, 1]),
    )


def train_step(st: TrainerState, env: Env, cfg: TrainConfig) -> TrainerState:
    """Advance the shared trajectory by one joint action and update tables.

    All right-hand sides use the pre-update iterates; commits happen at the
    end, so the three timescales read one consistent snapshot.  The step
    sizes at iteration n and state s are, for the bias, the critic and the
    actor: ``step_pre``, ``step_pre`` and 1 during warmup; afterwards
    ``step_post / visits[s]`` for both the bias and the critic, and
    ``1 / tau`` for the actor, where tau = n - warmup + 1 counts the
    post-warmup iterations.  ``visits[s]`` counts this visit before it is
    read, so it is at least 1.  The payoff averages are running means and
    take no step size.  The body is straight-line code over locals; each
    temporal difference is ``r - rho + v[s'] - v[s]`` in that operation
    order.  The environment is stepped through ``env.step`` and rows are
    projected through this module's ``project_simplex``.
    Actions are drawn as :func:`~diftgame.policies.pick` draws them, with
    its loop unrolled for short rows: a row of one action gives 0, and a row
    of two gives ``0 if u < row[0] else 1`` (``pick`` compares ``u`` with
    ``0.0 + row[0]``, which compares like ``row[0]``, a ``-0.0`` included).
    Every row still takes its uniform, a 1-action row too, so the draws stay
    aligned with the stream; longer rows go through ``pick``.
    An actor adds its move into the state's own row, which no other state
    shares, and then replaces the row by its projection; if the projection
    raises, the row keeps the move.
    """
    s = st.current
    n = st.n
    if n < cfg.warmup:
        d_v = d_eps = cfg.step_pre
        d_pi = 1.0
    else:
        visits = st.visits
        visits[s] += 1
        d_v = d_eps = cfg.step_post / int(visits[s])
        d_pi = 1.0 / (n - cfg.warmup + 1)

    row_d = st.pi_d[s]
    row_a = st.pi_a[s]
    k_d = len(row_d)
    k_a = len(row_a)
    draws = st._uniforms
    u_d = next(draws)
    u_a = next(draws)
    if k_d == 2:
        di = 0 if u_d < row_d[0] else 1
    elif k_d == 1:
        di = 0
    else:
        di = pick(row_d, u_d)
    if k_a == 2:
        ai = 0 if u_a < row_a[0] else 1
    elif k_a == 1:
        ai = 0
    else:
        ai = pick(row_a, u_a)
    s2, r_d, r_a = env.step(env._actions_d[s][di], env._actions_a[s][ai])

    v_d = st.v_d
    v_a = st.v_a
    rho_d = st.rho_d
    rho_a = st.rho_a
    vs_d = v_d[s]
    vs_a = v_a[s]
    td_d = r_d - rho_d + v_d[s2] - vs_d
    td_a = r_a - rho_a + v_a[s2] - vs_a
    td_sum = td_d + td_a
    eps_d = st.eps_d[s]
    eps_a = st.eps_a[s]
    eps_d_old = eps_d[di]
    eps_a_old = eps_a[ai]

    v_d[s] = vs_d + d_v * td_d
    v_a[s] = vs_a + d_v * td_a
    # Payoff averages advance as plain running means over the whole run.
    # Scaling the mean correction by a decaying payoff step on top of the
    # built-in 1/(n+1) would decay twice and freeze the iterate near its
    # warmup value, which breaks gain tracking once the policies move.
    st.rho_d = rho_d + ((n * rho_d + r_d) / (n + 1) - rho_d)
    st.rho_a = rho_a + ((n * rho_a + r_a) / (n + 1) - rho_a)
    eps_d[di] = eps_d_old + d_eps * (td_sum - eps_d_old)
    eps_a[ai] = eps_a_old + d_eps * (td_sum - eps_a_old)

    # The actor step is -step * sqrt(pi) * |td| * sgn(-eps); the smooth
    # sign makes that +step * sqrt(pi) * |td| * tanh(c * eps).  A move
    # below _MIN_STEP is no update (a NaN move is one, as it is not below).
    c = cfg.sgn_sharpness
    if k_d > 1:
        move = d_pi * math.sqrt(row_d[di]) * abs(td_d) * math.tanh(c * eps_d_old)
        if not abs(move) < _MIN_STEP:
            row_d[di] += move
            st.pi_d[s] = project_simplex(row_d, cfg.exploration_floor)
    if k_a > 1:
        move = d_pi * math.sqrt(row_a[ai]) * abs(td_a) * math.tanh(c * eps_a_old)
        if not abs(move) < _MIN_STEP:
            row_a[ai] += move
            st.pi_a[s] = project_simplex(row_a, cfg.exploration_floor)

    st.current = s2
    st.n = n + 1
    return st


def _policy(player: str, first: np.ndarray, rows: list[list[float]]) -> Policy:
    """The learner's list rows as one :class:`Policy` in the game's row order."""
    flat = np.fromiter(itertools.chain.from_iterable(rows), float, int(first[-1]))
    return Policy._from_flat(player, first, flat)


def check_config(game: Game, cfg: TrainConfig) -> None:
    """Validate ``cfg``, checking the exploration floor against ``game``'s largest action set."""
    cfg.validate(max(map(len, game.actions_d + game.actions_a)))


def train(
    target: Game | Env, cfg: TrainConfig
) -> tuple[PolicyPair, TrainHistory]:
    """Run the learner for ``cfg.iterations`` steps.

    Passing a :class:`Game` builds a seeded environment and additionally
    logs the exact residual curve (phi) at every sampled iteration, which
    needs the kernel; passing an :class:`Env` keeps the run strictly
    model-free and leaves those columns empty.  History rows are sampled at
    n = 1 and every ``cfg.stride`` iterations.  The returned policies are
    re-projected with a zero floor, each distinct final row once; they are
    fresh arrays and share no memory with the learner's rows.
    """
    from . import equilibrium  # local import: analytics are optional here

    if isinstance(target, Game):
        game: Game | None = target
        env = Env(target, seed=cfg.seed)
    else:
        game = None
        env = target
        env.reset()
    check_config(env._game, cfg)

    first_d, first_a = (env._game.frames[k][0].first for k in ("D", "A"))
    st = init_trainer(env, cfg)
    hist = TrainHistory()
    for _ in range(cfg.iterations):
        train_step(st, env, cfg)
        if st.n == 1 or st.n % cfg.stride == 0:
            if game is not None:
                pi = PolicyPair(_policy("D", first_d, st.pi_d), _policy("A", first_a, st.pi_a))
                v = (np.array(st.v_d), np.array(st.v_a))
                phi_d, phi_a, phi_t = equilibrium.td_errors(
                    game, pi, rho=(st.rho_d, st.rho_a), v=v
                )
                hist.rows.append((st.n, st.rho_d, st.rho_a, phi_d, phi_a, phi_t))
            else:
                hist.rows.append((st.n, st.rho_d, st.rho_a, None, None, None))

    # Equal rows project to equal bits: a learner row holds no NaN (the
    # projection raises on one), and with floor 0 the sign of a zero entry,
    # the one difference == hides, does not reach the output.
    done: dict[tuple[float, ...], list[float]] = {}
    for rows in (st.pi_d, st.pi_a):
        for v in rows:
            if (key := tuple(v)) not in done:
                done[key] = project_simplex(v, 0.0)
    final = PolicyPair(
        _policy("D", first_d, [done[tuple(v)] for v in st.pi_d]),
        _policy("A", first_a, [done[tuple(v)] for v in st.pi_a]),
    )
    return final, hist
