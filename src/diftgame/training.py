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
import math
from dataclasses import dataclass, field

import numpy as np

from .env import Env
from .game import Game
from .policies import Policy, PolicyPair, pick, project_simplex

_BLOCK = 4096
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
        if not 0.0 <= self.exploration_floor < 1.0:
            raise ValueError("exploration_floor must be in [0, 1)")
        if max_actions is not None and self.exploration_floor * max_actions >= 1.0:
            raise ValueError("exploration_floor too large for the action sets")


@dataclass
class TrainerState:
    n: int
    current: int
    v_d: np.ndarray
    v_a: np.ndarray
    rho_d: float
    rho_a: float
    eps_d: list[np.ndarray]
    eps_a: list[np.ndarray]
    pi: PolicyPair
    visits: np.ndarray
    _rng: np.random.Generator = field(repr=False, default=None)  # type: ignore[assignment]
    _buf: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    _pos: int = field(repr=False, default=0)


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


def schedules(
    n: int, s: int, cfg: TrainConfig, visits: np.ndarray
) -> tuple[float, float, float, float]:
    """Step sizes (bias, payoff, critic, actor) for iteration n at state s.

    During warmup the bias and critic move at a constant rate while the
    payoff and actor schedules sit at 1.  Afterwards the bias and critic
    decay with the visit count of the current state, the actor with the
    post-warmup iteration count tau, and the payoff slot follows
    1 / (1 + tau log tau).  The payoff slot is reported for completeness;
    train_step advances the payoff averages as running means, whose
    built-in 1/(n+1) correction already decays (see the comment there).
    """
    if n < cfg.warmup:
        return cfg.step_pre, 1.0, cfg.step_pre, 1.0
    tau = n - cfg.warmup + 1
    kappa = max(int(visits[s]), 1)
    d_fast = cfg.step_post / kappa
    return d_fast, 1.0 / (1.0 + tau * math.log(tau)), d_fast, 1.0 / tau


def td_residual(r: float, rho: float, v: np.ndarray, s: int, s_next: int) -> float:
    """One-step average-reward temporal difference for one player."""
    return r - rho + float(v[s_next]) - float(v[s])


def init_trainer(env: Env, cfg: TrainConfig) -> TrainerState:
    """Fresh trainer state: uniform policies, zero tables, root start."""
    n = env.n_states
    table_d = []
    table_a = []
    eps_d = []
    eps_a = []
    for s in range(n):
        acts_d, acts_a = env.actions(s)
        table_d.append(project_simplex(np.full(len(acts_d), 1.0 / len(acts_d)), cfg.exploration_floor))
        table_a.append(project_simplex(np.full(len(acts_a), 1.0 / len(acts_a)), cfg.exploration_floor))
        eps_d.append(np.zeros(len(acts_d)))
        eps_a.append(np.zeros(len(acts_a)))
    st = TrainerState(
        n=0,
        current=env.current,
        v_d=np.zeros(n),
        v_a=np.zeros(n),
        rho_d=0.0,
        rho_a=0.0,
        eps_d=eps_d,
        eps_a=eps_a,
        pi=PolicyPair(Policy("D", table_d), Policy("A", table_a)),
        visits=np.zeros(n, dtype=np.int64),
    )
    st._rng = np.random.Generator(np.random.Philox(key=[cfg.seed, 1]))
    st._buf = np.empty(0)
    st._pos = 0
    return st


def _uniform(st: TrainerState) -> float:
    if st._pos >= st._buf.size:
        st._buf = st._rng.random(_BLOCK)
        st._pos = 0
    u = st._buf[st._pos]
    st._pos += 1
    return float(u)


def train_step(st: TrainerState, env: Env, cfg: TrainConfig) -> TrainerState:
    """Advance the shared trajectory by one joint action and update tables.

    All right-hand sides use the pre-update iterates; commits happen at the
    end, so the three timescales read one consistent snapshot.
    """
    s = st.current
    n = st.n
    if n >= cfg.warmup:
        st.visits[s] += 1
    d_v, _, d_eps, d_pi = schedules(n, s, cfg, st.visits)

    pi_d = st.pi.d.table
    pi_a = st.pi.a.table
    di = pick(pi_d[s], _uniform(st))
    ai = pick(pi_a[s], _uniform(st))
    acts_d, acts_a = env.actions(s)
    s2, r_d, r_a = env.step(acts_d[di], acts_a[ai])

    td_d = td_residual(r_d, st.rho_d, st.v_d, s, s2)
    td_a = td_residual(r_a, st.rho_a, st.v_a, s, s2)
    td_sum = td_d + td_a
    eps_d_old = float(st.eps_d[s][di])
    eps_a_old = float(st.eps_a[s][ai])

    st.v_d[s] += d_v * td_d
    st.v_a[s] += d_v * td_a
    # Payoff averages advance as plain running means over the whole run.
    # Multiplying the mean correction by the payoff schedule on top of the
    # built-in 1/(n+1) would decay twice and freeze the iterate near its
    # warmup value, which breaks gain tracking once the policies move.
    st.rho_d += (n * st.rho_d + r_d) / (n + 1) - st.rho_d
    st.rho_a += (n * st.rho_a + r_a) / (n + 1) - st.rho_a
    st.eps_d[s][di] += d_eps * (td_sum - eps_d_old)
    st.eps_a[s][ai] += d_eps * (td_sum - eps_a_old)

    c = cfg.sgn_sharpness
    for tab, own, td, eps_old in (
        (pi_d, di, td_d, eps_d_old),
        (pi_a, ai, td_a, eps_a_old),
    ):
        vec = tab[s]
        if len(vec) == 1:
            continue
        # The actor step is -step * sqrt(pi) * |td| * sgn(-eps); the smooth
        # sign makes that +step * sqrt(pi) * |td| * tanh(c * eps).
        move = d_pi * math.sqrt(vec[own]) * abs(td) * math.tanh(c * eps_old)
        if abs(move) < _MIN_STEP:
            continue
        new = vec.copy()
        new[own] += move
        tab[s] = project_simplex(new, cfg.exploration_floor)

    st.current = s2
    st.n = n + 1
    return st


def train(
    target: Game | Env, cfg: TrainConfig
) -> tuple[PolicyPair, TrainHistory]:
    """Run the learner for ``cfg.iterations`` steps.

    Passing a :class:`Game` builds a seeded environment and additionally
    logs the exact residual curve (phi) at every sampled iteration, which
    needs the kernel; passing an :class:`Env` keeps the run strictly
    model-free and leaves those columns empty.  History rows are sampled at
    n = 1 and every ``cfg.stride`` iterations.  The returned policies are
    re-projected with a zero floor.
    """
    from . import equilibrium  # local import: analytics are optional here

    if isinstance(target, Game):
        game: Game | None = target
        env = Env(target, seed=cfg.seed)
    else:
        game = None
        env = target
        env.reset()
    max_actions = max(
        max(len(env.actions(s)[0]), len(env.actions(s)[1])) for s in range(env.n_states)
    )
    cfg.validate(max_actions)

    st = init_trainer(env, cfg)
    hist = TrainHistory()
    for _ in range(cfg.iterations):
        train_step(st, env, cfg)
        if st.n == 1 or st.n % cfg.stride == 0:
            if game is not None:
                phi_d, phi_a, phi_t = equilibrium.td_errors(
                    game, st.pi, rho=(st.rho_d, st.rho_a), v=(st.v_d, st.v_a)
                )
                hist.rows.append((st.n, st.rho_d, st.rho_a, phi_d, phi_a, phi_t))
            else:
                hist.rows.append((st.n, st.rho_d, st.rho_a, None, None, None))

    final = PolicyPair(
        Policy("D", [project_simplex(v, 0.0) for v in st.pi.d.table]),
        Policy("A", [project_simplex(v, 0.0) for v in st.pi.a.table]),
    )
    return final, hist
