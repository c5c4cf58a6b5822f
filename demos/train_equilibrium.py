"""
Learning to defend: equilibrium by simulation alone
===================================================

Both players improve from sampled transitions only: no one hands them
the transition kernel.  Averages, biases, and policies move on separate
timescales, and a residual that is exactly zero at an equilibrium tells
us how far the pair still is.  This script trains on a ten-node graph
with two entry points and three attack stages, then shows the curve.
"""

import numpy as np

from diftgame.equilibrium import evaluate_policy_pair
from diftgame.game import FnRates, RewardParams, build_game
from diftgame.ifg import Ifg, IfgNode
from diftgame.training import TrainConfig, train

# Two infected workstations (0, 1) reach the staging server 6 through
# separate relay chains; from there a single corridor leads through the
# stage-2 target 8 to the exfiltration point 9.
kinds = ["process", "file", "socket", "other"]
nodes = [IfgNode(i, kinds[i % 4], f"n{i}") for i in range(10)]
ifg = Ifg(
    nodes,
    {(0, 2), (1, 3), (2, 4), (3, 5), (4, 6), (5, 6), (6, 7), (7, 8), (8, 9)},
    {0, 1},
    [{6}, {8}, {9}],
)
ifg.validate()
game = build_game(ifg, RewardParams.defaults(3), FnRates(default=0.2))
# only the (node, stage) pairs a flow can reach become states
pairs = ifg.n_nodes * ifg.stages
print(f"game: {game.n_states} states, the root and {game.n_states - 1} of {pairs} (node, stage) pairs")

cfg = TrainConfig(iterations=250000, warmup=7000, seed=17, stride=500)
pair, hist = train(game, cfg)

# The sampled history carries the running average rewards and, since the
# trainer had model access, the exact equilibrium residual of the current
# policies.  It climbs while the policies first move off uniform, then
# decays by an order of magnitude as the pair settles.
print("\n   step   avg r_D   avg r_A   |residual|")
for row in hist.rows[:: len(hist.rows) // 10]:
    n, rho_d, rho_a, _, _, phi_t = row
    print(f"{n:7d}  {rho_d:8.2f}  {rho_a:8.2f}  {abs(phi_t):11.2f}")

# Long-run value of the learned pair, computed analytically.
ev = evaluate_policy_pair(game, pair)
print(f"\nlearned pair: rho_D={ev.rho_d:.2f}, rho_A={ev.rho_a:.2f}")

# Where did the defender learn to concentrate inspections?  Show the
# states where inspecting got more than half the probability mass.
print("defender inspects with p > 0.5 at:")
for s in range(game.n_states):
    probs = pair.d.table[s]
    k = int(np.argmax(probs))
    act = game.actions_d[s][k]
    if act.kind == "inspect" and probs[k] > 0.5:
        print(f"  {game.state_label(s):8s} -> {game.action_label(act)}"
              f"  (p={probs[k]:.2f})")

hist.to_csv("training_history.csv")
print("wrote training_history.csv")
