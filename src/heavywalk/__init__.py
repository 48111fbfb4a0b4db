"""Heavy-tailed Markov chains with asymptotically zero drift.

Classification of recurrence/transience phases, critical passage-time
moment exponents, Lyapunov drift verification from the laws' exact tails
(the Pareto terms and the light uniform's share in closed form), and
reproducible parallel Monte Carlo.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    ConvergenceError,
    DivergentError,
    DomainError,
    HeavywalkError,
    InfeasibleDrift,
    InfeasibleWeight,
    InsufficientDataError,
    NoRootError,
    PoleError,
)
from .increments import (
    ChainSpec,
    DriftParams,
    IncrementLaw,
    PlaneParams,
    TailParams,
    build_law,
    plane_radial_law,
    plane_transverse_law,
    sample,
    step,
)
from .specialfn import (
    closed_form_integrals,
    gamma_real,
    incomplete_beta_ext,
    integrate_adaptive,
    kappa0,
    kappa1,
    kappa2,
)
from .classify import Classification, NuStarResult, classify, nu_star
from .lyapunov import (
    DriftReport,
    drift_numeric,
    drift_predicted,
    lyapunov_f,
    verify_expansion,
)
from .montecarlo import (
    PhaseDiagnostic,
    SimConfig,
    SurvivalEstimate,
    estimate_passage_tail,
    phase_diagnostic,
    run_trajectories,
)
from .rng import CounterStream
