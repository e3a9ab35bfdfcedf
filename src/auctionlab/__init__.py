"""Generalized VCG auctions with reserves under matroid feasibility, an exact
LP revenue oracle, and an experiment harness for approximation-ratio checks."""

__version__ = "0.1.0"

from .distributions import (  # noqa: F401
    ConditioningError,
    JointDistribution,
    ScalarDistribution,
    SignalGrid,
    monopoly_price,
    regularity_report,
    revenue_curve,
)
from .matroid import (  # noqa: F401
    Basis,
    FeasibilitySystem,
    coupled_exchange_walk,
    exchange_bijection,
    max_weight_basis,
    strong_basis_exchange,
)
from .mechanisms import (  # noqa: F401
    AuctionOutcome,
    Instance,
    MechanismSpec,
    conditional_monopoly_reserve,
    expected_revenue,
    gvcg,
    gvcg_lazy,
    ic_ir_audit,
    lookahead,
    opt_upper_bound,
    randomized_matroid,
    randomized_single_item,
    threshold_matching,
    vcg_eager,
)
from .oracle import build_revenue_lp, opt_revenue, solve_lp, verify_witness  # noqa: F401
from .valuations import ValuationProfile, value  # noqa: F401
