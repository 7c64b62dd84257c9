"""Water-filling power-allocation solvers, oracles, and scenario generation."""

from .errors import (
    BracketFailure, DomainError, InfeasibleBudget, InfeasibleTarget,
    InversionFailure, SchemaError, SizeLimit, WaterlineError)
from .objectives import (
    FAMILIES, AfRelay, ClusterLogCapacity, CustomObjective, InverseMse,
    LogCapacity, NegativeDemand, Objective, SumInverseMse, SumLog,
    objective_from_params)
from .problems import (
    BOX_STRATEGIES, FAIR_MODES, MODE_CLUSTER, MODE_CLUSTER_MAXMIN,
    MODE_MAXMIN, Allocation, AscendingProblem, BoxProblem, FairProblem,
    FairSolution, KktReport, SimplexProblem, SolverConfig)
from .core import solve_p1, solve_p1_lower, solve_water_level
from .box import kkt_residual_box, kkt_residual_p1, solve_box
from .nested import solve_ascending
from .fair import solve_cluster, solve_cluster_maxmin, solve_fair, solve_maxmin
from .oracle import (
    OracleResult, check_conditions, enumerate_box, enumerate_p1,
    grid_search, projected_gradient)
from .scenario import ScenarioSpec, build_instance, channel_gains, generate
from .io import (
    instance_from_dict, instance_to_dict, load_instance, load_result,
    problem_class, result_to_dict, save_instance, save_result)

__version__ = "0.1.0"
