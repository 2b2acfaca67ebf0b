"""Simulation and verification toolkit for skew-reflected CIR / squared
Bessel diffusions."""

__version__ = "0.1.0"

from . import errors  # noqa: F401
from .model import (  # noqa: F401
    Curve,
    ModelParams,
    builtin_curve,
    check_monotonicity,
    curve_from_csv,
    decompose_curve,
    reference_density,
    stationary_density_constant_barrier,
    validate_params,
)
from .paths import (  # noqa: F401
    Frame,
    GridSpec,
    Path,
    exact_besq_step,
    exact_cir_step,
    square_path,
)
