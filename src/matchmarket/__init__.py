"""Fair vs. selfish centralized matching: solvers, bounds, and simulations."""

__version__ = "1.0.0"

from .market import (  # noqa: F401
    FractionalMatching,
    InstanceSampler,
    MarketError,
    MarketInstance,
    make_instance,
    read_instance,
    sample_instance,
    utilities,
    write_instance,
)
from .returns import (  # noqa: F401
    MONOPOLY,
    Evaluator,
    ReturnModel,
    ReturnModelError,
    Stationary,
    argmax_pi_competition,
    eval_q,
    eval_q_prime,
    grid,
    parametric,
    pi_competition,
    competition,
    pi_monopoly,
    strictly_concave,
)
from .fair import AssignmentResult, FairSolution, solve_fair  # noqa: F401
from .selfish import (  # noqa: F401
    KKTReport,
    SelfishSolution,
    kkt_residual,
    kkt_residual_of,
    solve_selfish,
)
from .poa import (  # noqa: F401
    EmpiricalPoAReport,
    PoABoundReport,
    competition_sweep,
    empirical_poa,
    theorem1_bound,
)
from .online import ArrivalSequence, greedy_online, online_poa_empirical  # noqa: F401
from .experiment import (  # noqa: F401
    BehaviorModel,
    StudyConfig,
    StudyResult,
    generate_market,
    q_update,
    realized_payoff_histogram,
    run_batch,
    run_study,
)
