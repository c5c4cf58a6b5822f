"""Average-reward stochastic game toolkit for taint-tracking defense.

Build the defender-vs-intruder game from an information-flow graph, learn
an equilibrium from sampled play, and certify candidate policy pairs with
exact linear-algebra oracles.
"""

from .ifg import (
    Ifg,
    IfgNode,
    RawLogGraph,
    GraphLoadError,
    InfeasibleGraphError,
    assert_acyclic,
    collapse_multi_edges,
    generate_synthetic,
    load_graph,
    merge_directory_nodes,
    prune_attack_subgraph,
    remove_cycles_by_versioning,
    save_graph,
    to_ifg,
)
from .game import (
    AtkAction,
    DefAction,
    FnRates,
    Game,
    GameBuildError,
    InvalidActionError,
    NO_INSPECT,
    QUIT,
    ROOT,
    RewardParams,
    build_game,
    classify_chain,
)
from .policies import (
    Policy,
    PolicyPair,
    cut_policy,
    load_policy,
    policy_from_json,
    policy_to_json,
    project_simplex,
    save_policy,
    uniform_policy,
)
from .env import Env, rollout_average
from .equilibrium import (
    Certificate,
    EvalResult,
    Residuals,
    UnichainViolationError,
    best_response,
    certify_arne,
    compare_defenses,
    delta,
    evaluate_policy_pair,
    exact_gradient,
    omega,
    residuals,
    td_errors,
)
from .training import (
    TrainConfig,
    TrainHistory,
    TrainerState,
    init_trainer,
    train,
    train_step,
)

__version__ = "0.1.0"

__all__ = [
    "Ifg", "IfgNode", "RawLogGraph", "GraphLoadError", "InfeasibleGraphError",
    "assert_acyclic", "collapse_multi_edges", "generate_synthetic", "load_graph",
    "merge_directory_nodes", "prune_attack_subgraph", "remove_cycles_by_versioning",
    "save_graph", "to_ifg",
    "AtkAction", "DefAction", "FnRates", "Game", "GameBuildError",
    "InvalidActionError", "NO_INSPECT", "QUIT", "ROOT", "RewardParams",
    "build_game", "classify_chain",
    "Policy", "PolicyPair", "cut_policy", "load_policy", "policy_from_json",
    "policy_to_json", "project_simplex", "save_policy", "uniform_policy",
    "Env", "rollout_average",
    "Certificate", "EvalResult", "Residuals", "UnichainViolationError",
    "best_response", "certify_arne", "compare_defenses", "delta",
    "evaluate_policy_pair", "exact_gradient", "omega", "residuals", "td_errors",
    "TrainConfig", "TrainHistory", "TrainerState", "init_trainer", "train",
    "train_step",
]
