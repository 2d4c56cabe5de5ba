"""Optimal alphabetic binary and ternary trees.

Solvers (greedy combination engines), independent oracles (interval DP and
exhaustive enumeration), verification harness, and a CLI.
"""

from .binary import hu_tucker, phase1_combine_binary
from .core import (
    AlphaTree,
    CombinationStep,
    CombinationTrace,
    Infeasible,
    Participant,
    SolveReport,
    StructureError,
    TraceError,
    is_alphabetic,
    leaf_levels,
    tree_cost,
)
from .harness import (
    PAPER_FAMILY,
    bench_growth,
    check_report,
    fuzz_compare,
    random_instances,
)
from .levels import (
    InvalidLevelSequence,
    reconstruct_from_levels,
    report_from_trace,
    signed_levels,
)
from .oracle import RefusedSize, dp_optimal, exhaustive_optimal
from .ternary import (
    EngineState,
    Unit,
    available_negatives,
    detect_pcns,
    general_solve,
    is_interior_pair_pcn_free,
    solve_pure_ternary,
)

__version__ = "0.1.0"
