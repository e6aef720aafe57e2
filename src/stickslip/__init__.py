"""Stick/slip dry-friction oscillator toolkit.

Three mutually verifying solvers for the one-dimensional Coulomb-friction
oscillator (a discrete variational-inequality Euler stepper, an exact
event-driven engine, and a quasistatic approximation), plus Ornstein-
Uhlenbeck forcing noise and least-squares parameter calibration from
displacement/temperature records.
"""

from .model import (
    Drive,
    Event,
    EventKind,
    FrictionParams,
    HarmonicForcing,
    PhaseLabel,
    SolverCapError,
    TemperatureDomainError,
    TemperatureSpringForcing,
    Trajectory,
    eval_forcing,
    friction_force,
    horizon,
    natural_frequency,
)
from .euler import (
    EulerConfig,
    shrink,
    simulate_euler,
)
from .events import (
    SubphaseResult,
    dynamic_subphase,
    next_departure,
    simulate_events,
)
from .noise import (
    SeriesParseError,
    load_temperature_series,
    ou_path,
    perturbed_temperature,
)
from .quasistatic import (
    simulate_quasistatic,
    stick_levels_on_grid,
)
from .calibrate import (
    PARAM_NAMES,
    CalibrationProblem,
    CalibrationResult,
    FitParams,
    calibrate,
    corrected_displacement,
    model_displacement,
    objective,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
