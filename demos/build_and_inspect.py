"""
Anatomy of the detection game
=============================

Every run of the defense scenario is a walk through a finite state space:
the attacker advances a flow along graph edges stage by stage, while the
defender picks one node per step to inspect.  This script builds the game
for a small synthetic graph and pokes at its moving parts.
"""

import numpy as np

from diftgame.env import Env
from diftgame.game import FnRates, RewardParams, build_game, classify_chain
from diftgame.ifg import generate_synthetic
from diftgame.policies import PolicyPair, uniform_policy

ifg = generate_synthetic(
    n_nodes=8, stages=2, n_entries=2, dests_per_stage=(1, 1),
    edge_density=0.35, seed=11,
)
game = build_game(ifg, RewardParams.defaults(2), FnRates(default=0.2))

# One idle state plus the (node, stage) pairs a flow can reach.  The rest
# are never built: a flow in stage 2 can only sit at nodes the stage-1
# target can taint.
pairs = ifg.n_nodes * ifg.stages
print(f"{ifg.n_nodes} nodes, {ifg.stages} stages -> {game.n_states} states:")
print(f"  the root and {game.n_states - 1} of the {pairs} (node, stage) pairs")

# Action sets at a mid-attack state: the defender picks a state to
# inspect (or idles), the attacker picks an outgoing edge (or quits).
s = 1
print(f"\nat state {game.state_label(s)}:")
print("  defender:", [game.action_label(a) for a in game.actions_d[s]])
print("  attacker:", [game.action_label(a) for a in game.actions_a[s]])

# Outcomes are tiny distributions over (next state, rewards).  When the
# inspected state matches the attacker's move the false-negative rate
# splits the outcome: a miss lets the flow advance as if uninspected.
d_act = game.actions_d[s][-1]
a_act = game.actions_a[s][0]
print(f"\noutcomes for (D={game.action_label(d_act)}, "
      f"A={game.action_label(a_act)}) at {game.state_label(s)}:")
di = game.actions_d[s].index(d_act)
ai = game.actions_a[s].index(a_act)
for s2, p, r_d, r_a in game.outcomes(s, di, ai):
    print(f"  -> {game.state_label(s2):8s} p={p:.2f}  r_D={r_d:+.1f}  r_A={r_a:+.1f}")

# Under any fixed pair of policies the game is just a Markov chain.  The
# periodic restart through the root leaves a single recurrent class that
# contains the root: long-run averages do not depend on luck.
pair = PolicyPair(uniform_policy(game, "D"), uniform_policy(game, "A"))
rec, transient = classify_chain(game.induced_chain(pair))
print(f"\nuniform play: {len(rec)} recurrent class "
      f"({len(rec[0])} states), {len(transient)} transient")

# The simulator exposes the same kernel one sampled step at a time.
env = Env(game, seed=0)
env.reset()
rng = np.random.default_rng(1)
print("\nfirst six steps of a simulated episode (uniform random play):")
for t in range(6):
    acts_d, acts_a = env.actions(env.current)
    d = acts_d[rng.integers(len(acts_d))]
    a = acts_a[rng.integers(len(acts_a))]
    s2, r_d, r_a = env.step(d, a)
    print(f"  t={t}  D={game.action_label(d):10s} A={game.action_label(a):8s}"
          f" -> {game.state_label(s2):8s} r_D={r_d:+.1f} r_A={r_a:+.1f}")
