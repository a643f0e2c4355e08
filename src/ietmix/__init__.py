"""Cut-and-shuffle mixing of a one-dimensional lattice with diffusion.

Interval-exchange (cut-and-shuffle) dynamics on an exact integer
lattice, optional explicit diffusion, mixing diagnostics, stretched-
exponential decay fits, and Batchelor-scale stopping-time prediction
across Peclet numbers. Everything is deterministic: there is no random
number generator anywhere in the pipeline.
"""

from .diffusion import StabilityError, diffusion_step, match_iterations
from .fitting import fit_stretched_exponential, stretched_exponential
from .lattice import (
    CapacityError,
    Protocol,
    Ratio,
    cut_positions,
    initial_field,
    iterate,
    shuffle_step,
    total_length,
)
from .metrics import average_color, compute_series, mixing_norm
from .permutations import enumerate_allowed, violations
from .runner import collapse, run_ensemble, steepening_report, table_one
from .stopping import solve_stopping_time

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "Protocol",
    "Ratio",
    "StabilityError",
    "average_color",
    "collapse",
    "compute_series",
    "cut_positions",
    "diffusion_step",
    "enumerate_allowed",
    "fit_stretched_exponential",
    "initial_field",
    "iterate",
    "match_iterations",
    "mixing_norm",
    "run_ensemble",
    "shuffle_step",
    "solve_stopping_time",
    "steepening_report",
    "stretched_exponential",
    "table_one",
    "total_length",
    "violations",
]
