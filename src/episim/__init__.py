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
from .viral_load import InfectionStage, ViralLoadProfile, load_at, sample_profile, status_at

__version__ = "0.1.0"

__all__ = [
    "Compartment",
    "ConfigError",
    "Constant",
    "GammaShifted",
    "InfectionStage",
    "NormalClipped",
    "Population",
    "RECORD_DTYPE",
    "ReplicateResult",
    "ReproductionSeries",
    "RunSummary",
    "ScenarioConfig",
    "SimulationError",
    "Uniform",
    "ViralLoadProfile",
    "config_from_dict",
    "default_config",
    "effective_r_series",
    "estimate_beta",
    "expected_infectious_duration",
    "initialize",
    "load_at",
    "make_rng",
    "run",
    "run_replicates",
    "sample_profile",
    "status_at",
    "step",
    "validate_config",
]
