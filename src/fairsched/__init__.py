"""Max-min fair rate allocation for multi-sensor remote state estimation.

The package splits into:

* :mod:`fairsched.allocation` - the general max-min fair solver (projected
  cost dynamics over a budget polytope) and equilibrium diagnostics.
* :mod:`fairsched.sensors` - per-sensor cost models: Kalman filter steady
  states, randomized threshold policies, piecewise-linear cost curves.
* :mod:`fairsched.simulate` - Monte Carlo oracle for the cost curves and
  end-to-end validation of computed allocations.
* :mod:`fairsched.distributed` - graph-based gradient-tracking variant of
  the solver.
* :mod:`fairsched.config` / :mod:`fairsched.cli` - JSON run configs and the
  ``fairsched`` command line tool.
"""

from .allocation import (
    CONVERGED,
    MAX_INNER_ITERS,
    AffineCostModel,
    CostDomainError,
    CostModel,
    EquilibriumReport,
    FeasibleRegion,
    InfeasibleRegionError,
    SolverConfig,
    SolverTrace,
    check_equilibrium,
    initial_allocation,
    project_feasible,
    recover_weights,
    solve_inner,
    solve_maxmin,
    step_map,
)
from .config import ConfigError, RunConfig, fixture_path, load_config
from .distributed import (
    CommGraph,
    ComparisonReport,
    DualState,
    GraphError,
    compare_with_centralized,
    metropolis_matrix,
    solve_distributed,
)
from .sensors import (
    CostCurve,
    CurveCostModel,
    NumericalError,
    ProcessModel,
    ThresholdPolicy,
    build_cost_curve,
    build_cost_curves,
    classify_stability,
    cost_eval,
    first_invalid,
    first_rank_failure,
    lipschitz_bounds,
    no_comm_limit,
    stable_mask,
    steady_state_filter_cov,
    threshold_from_rate,
)
from .simulate import SimResult, simulate_allocation, simulate_policy

__version__ = "0.1.0"
