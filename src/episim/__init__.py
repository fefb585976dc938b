"""Agent-based epidemic simulator with single/pooled testing, isolation, and
vaccination interventions, plus a scenario-comparison CLI."""

from .calibration import estimate_beta, final_size_r0, infectious_days
from .core import (
    Compartment,
    ConfigError,
    Constant,
    GammaShifted,
    NormalClipped,
    Population,
    ScenarioConfig,
    SimulationError,
    Streams,
    Uniform,
    config_from_dict,
    make_rng,
)
from .engine import (
    RECORD_DTYPE,
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
    "RunSummary",
    "ScenarioConfig",
    "SimulationError",
    "Streams",
    "Uniform",
    "config_from_dict",
    "estimate_beta",
    "final_size_r0",
    "infectious_days",
    "initialize",
    "make_rng",
    "run",
    "run_replicates",
    "step",
]
