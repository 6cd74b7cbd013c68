"""Coalition-structured public-goods dynamics.

Numerical engine for a three-strategy population game (cooperators,
defectors, outsiders) in which coalition members convene working groups
that produce a partly excludable benefit.  The package provides the
stage-game payoffs, hypergeometric fitness averaging, informed-player
marginal-gain analysis, deterministic replicator fields with an exact
information-cost correction, and finite-population stochastic dynamics
(an imitation Markov chain plus an individual-based simulator).

BLAS runs one thread per process unless the environment says otherwise:
``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS``, ``MKL_NUM_THREADS`` and
``VECLIB_MAXIMUM_THREADS`` default to 1 before numpy is first imported, so
a run's bytes do not depend on how many CPUs it may use.  Set the library's
own variable for more threads.
"""

import os as _os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    _os.environ.setdefault(_var, "1")
del _os, _var

from .benefits import BenefitFunction
from .errors import (CapacityError, CoaldynError, ConfigError, NonConvergenceError, OutputError,
                     ReducibleChainError, WorkerError)
from .game import (
    EffectiveShares,
    GameParams,
    PopulationState,
    effective_shares,
    group_size,
)
from .informed import InformedFlow, MarginalGains, StateClass, classify_state, informed_field, marginal_gains
from .markov import (
    MarkovModel,
    MonteCarloResult,
    SelectionGradient,
    StateIndex,
    StationaryResult,
    StationarySummary,
    build_chain,
    imitation_probability,
    monte_carlo,
    selection_gradient,
    stationary,
)
from .replicator import (
    FixedPoint,
    FlowField,
    InformationCost,
    find_fixed_points,
    flow_field,
    information_cost,
    mean_return,
    replicator_field,
)
from .sampling import FitnessTriple, fitness_at

__version__ = "0.1.0"

__all__ = [
    "BenefitFunction",
    "CapacityError",
    "CoaldynError",
    "ConfigError",
    "EffectiveShares",
    "FitnessTriple",
    "FixedPoint",
    "FlowField",
    "GameParams",
    "InformationCost",
    "InformedFlow",
    "MarginalGains",
    "MarkovModel",
    "MonteCarloResult",
    "NonConvergenceError",
    "OutputError",
    "PopulationState",
    "ReducibleChainError",
    "SelectionGradient",
    "StateClass",
    "StateIndex",
    "StationaryResult",
    "StationarySummary",
    "WorkerError",
    "build_chain",
    "classify_state",
    "effective_shares",
    "find_fixed_points",
    "fitness_at",
    "flow_field",
    "group_size",
    "imitation_probability",
    "informed_field",
    "information_cost",
    "marginal_gains",
    "mean_return",
    "monte_carlo",
    "replicator_field",
    "selection_gradient",
    "stationary",
    "__version__",
]
