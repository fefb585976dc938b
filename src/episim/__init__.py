"""Agent-based epidemic simulator with single/pooled testing, isolation, and
vaccination interventions, plus a scenario-comparison CLI."""

from .calibration import (
    ReproductionSeries,
    effective_r_series,
    estimate_beta,
    expected_infectious_duration,
)
from .core import (
    Compartment,
    ConfigError,
    Constant,
    GammaShifted,
    NormalClipped,
    Population,
    ScenarioConfig,
    SimulationError,
    Uniform,
    config_from_dict,
    default_config,
    make_rng,
    validate_config,
)
from .engine import (
    RECORD_DTYPE,
    ReplicateResult,
    RunSummary,
    initialize,
    run,
    run_replicates,
    step,
)

__version__ = "0.1.0"

__all__ = [
    "Compartment",
    "ConfigError",
    "Constant",
    "GammaShifted",
    "NormalClipped",
    "Population",
    "RECORD_DTYPE",
    "ReplicateResult",
    "ReproductionSeries",
    "RunSummary",
    "ScenarioConfig",
    "SimulationError",
    "Uniform",
    "config_from_dict",
    "default_config",
    "effective_r_series",
    "estimate_beta",
    "expected_infectious_duration",
    "initialize",
    "make_rng",
    "run",
    "run_replicates",
    "step",
    "validate_config",
]
