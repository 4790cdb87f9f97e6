"""Wang-equation solver in coordinate gauge with comparison estimates."""

from .grid import Grid2D, square_window
from .cubic import CubicDifferentialField
from .solver import (BlaschkeSolution, check_subsolution, solve_tzitzeica,
                     solve_wang)
from .estimates import (
    AreaBounds,
    area_and_bounds,
    gap_upper_bound,
    largest_root,
    log_density_curvature,
    minimal_surface_metric,
)
from .decay import DecayCertificate, decay_experiment

__all__ = [
    "Grid2D", "square_window",
    "CubicDifferentialField",
    "BlaschkeSolution", "check_subsolution", "solve_tzitzeica", "solve_wang",
    "AreaBounds", "area_and_bounds",
    "gap_upper_bound", "largest_root",
    "log_density_curvature", "minimal_surface_metric",
    "DecayCertificate", "decay_experiment",
]
