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
    "ReproductionSeries",
    "RunSummary",
    "ScenarioConfig",
    "SimulationError",
    "Streams",
    "Uniform",
    "config_from_dict",
    "effective_r_series",
    "estimate_beta",
    "expected_infectious_duration",
    "initialize",
    "make_rng",
    "run",
    "run_replicates",
    "step",
]
