"""Games on finite graphs and trees: solvers, equilibria, verification."""

from .arena import (
    Arena,
    EnergySpec,
    Lasso,
    StrategyMachine,
    StrategyProfile,
    energy_product,
    feasible_inf_sets,
    induced_lasso,
    inf_set,
    make_arena,
    validate_arena,
)
from .orders import (
    PreferenceProfile,
    StrictWeakOrder,
    check_swo,
    forbidden_pattern,
    grid_discretize,
    linear_order,
    order_from_groups,
    pareto_front,
)
from .winlose import (
    MemorylessResult,
    Muller,
    Parity,
    Reachability,
    Safety,
    SolveResult,
    WinLoseGame,
    attractor,
    brute_force_solve,
    solve,
    solve_muller,
    solve_parity,
)
from .guarantees import (
    GraphGame,
    GuaranteeTable,
    best_guarantee,
    guarantee_table,
    optimal_strategy,
)
from .equilibria import (
    DeviationWitness,
    SynthesisReport,
    muller_pareto_ne,
    synthesize_antagonistic_spe,
    synthesize_ne,
    verify_ne,
    verify_spe,
)
from .extensive import (
    Decision,
    Leaf,
    TreeGame,
    backward_induction,
    build_escape_truncation,
    build_nonash_truncation,
    build_six_outcome_example,
    build_three_leaf_example,
    enumerate_ne_outcomes,
    epsilon_grid_game,
)

__all__ = [name for name in dir() if not name.startswith("_")]
