"""The paper's core contribution: breadth-first maximum clique enumeration."""

from ..engine.driver import BFSOutcome
from ..engine.sweep import WindowedOutcome, auto_window_size, split_windows
from .checkpoint import SearchCheckpoint, load_checkpoint
from .clique_counts import clique_profile, count_k_cliques
from .clique_list import CliqueList, CliqueListNode
from .config import (
    FINGERPRINT_VERSION,
    Heuristic,
    PROBLEM_KINDS,
    RankKey,
    SolverConfig,
    SublistOrder,
    WindowOrder,
    config_fingerprint,
)
from .deadline import Deadline, as_deadline
from .heuristics import multi_run_greedy, run_heuristic, single_run_greedy
from .result import (
    HeuristicReport,
    KCliqueCountResult,
    LevelStats,
    MaximalEnumResult,
    MaxCliqueResult,
    SetupStats,
    SolveResult,
    WindowStats,
)
from .setup import build_two_clique_list, vertex_upper_bounds
from .solver import MaxCliqueSolver, find_maximum_cliques
from .verify import VerificationError, is_clique, is_maximal_clique, verify_result

__all__ = [
    "MaxCliqueSolver",
    "find_maximum_cliques",
    "SolverConfig",
    "Heuristic",
    "RankKey",
    "SublistOrder",
    "WindowOrder",
    "PROBLEM_KINDS",
    "FINGERPRINT_VERSION",
    "MaxCliqueResult",
    "KCliqueCountResult",
    "MaximalEnumResult",
    "SolveResult",
    "HeuristicReport",
    "SetupStats",
    "LevelStats",
    "WindowStats",
    "CliqueList",
    "CliqueListNode",
    "BFSOutcome",
    "WindowedOutcome",
    "split_windows",
    "auto_window_size",
    "SearchCheckpoint",
    "load_checkpoint",
    "Deadline",
    "as_deadline",
    "config_fingerprint",
    "run_heuristic",
    "single_run_greedy",
    "multi_run_greedy",
    "build_two_clique_list",
    "vertex_upper_bounds",
    "verify_result",
    "is_clique",
    "is_maximal_clique",
    "VerificationError",
    "clique_profile",
    "count_k_cliques",
]
