"""Batchelor-scale stopping-time prediction.

Diffusion levels color striations shorter than the diffusive scale
l*(t) = pi * sqrt(t / (2 Pe)), written on the unit-normalized segment
with t = T/T_max in [0, 1]. The stopping time of a protocol is the
first iteration at which the mean striation length of its
diffusion-free dynamics has dropped to l*: past it, diffusion takes
over and erases what cutting has fragmented.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import metrics
from .permutations import whole_number


def batchelor_length(t_hat: float | np.ndarray, pe: float) -> float | np.ndarray:
    """Diffusive washout scale pi * sqrt(t_hat / (2 pe)) on the unit segment.

    t_hat is one normalized time or an array of them.
    """
    if np.any(np.asarray(t_hat) < 0):
        raise ValueError("normalized time must be nonnegative")
    if not isinstance(pe, numbers.Real) or not 0.0 < pe < math.inf:
        raise ValueError(f"Peclet number pe must be finite and positive, got {pe!r}")
    return np.pi * np.sqrt(t_hat / (2.0 * pe))


@dataclass(frozen=True)
class StoppingTimeSolution:
    """First iteration where the diffusive scale overtakes the striations.

    iteration is the first whole T >= 1 satisfying the crossing;
    interpolated is the linear-interpolation crossing of the residual,
    useful against non-integer reporting conventions. found=False (all
    other fields None) is a legitimate outcome: protocols that plateau,
    or Peclet numbers too large for the budget, never cross.
    """

    found: bool
    iteration: int | None = None
    normalized_time: float | None = None
    interpolated: float | None = None


def solve_stopping_time(
    avg_cuts, pe: float, t_max: int, mean_lengths=None
) -> StoppingTimeSolution:
    """First iteration T with l*(T/t_max) >= mean striation length at T.

    avg_cuts is the permutation-averaged cut count curve of a
    diffusion-free ensemble, indexed T = 0..t_max. The striation length
    defaults to the reciprocal rule 1/(avg_cuts + 1); pass mean_lengths
    to use a directly averaged run-length curve instead (averaging the
    reciprocals is not the reciprocal of the average).

    The cut curve is a step function on whole iterations, so the primary
    answer is the first integer satisfying the inequality; the
    interpolated crossing is reported alongside.
    """
    steps = whole_number(t_max)
    if steps is None or steps < 1:
        raise ValueError(f"t_max must be an integer of at least 1, got {t_max!r}")
    t_max = steps
    cuts = np.asarray(avg_cuts, dtype=np.float64)
    if cuts.ndim != 1 or cuts.size != t_max + 1:
        raise ValueError(
            f"avg_cuts must cover T = 0..{t_max}, got {cuts.size} entries"
        )
    given = None if mean_lengths is None else np.asarray(mean_lengths, dtype=np.float64)
    if given is not None and given.shape != cuts.shape:
        raise ValueError("mean_lengths must match avg_cuts in shape")
    for name, values in (("avg_cuts", cuts), ("mean_lengths", given)):
        if values is not None and not (np.isfinite(values).all() and (values >= 0).all()):
            raise ValueError(f"{name} must be finite and nonnegative")
    lengths = metrics.mean_lengths(cuts) if given is None else given

    g = batchelor_length(np.arange(t_max + 1) / t_max, pe) - lengths
    hits = np.flatnonzero(g[1:] >= 0.0)
    if hits.size == 0:
        return StoppingTimeSolution(found=False)
    t_star = int(hits[0]) + 1
    # g is negative one step earlier (at T=0 it equals -1/(C(0)+1) < 0).
    g0, g1 = float(g[t_star - 1]), float(g[t_star])
    return StoppingTimeSolution(
        found=True,
        iteration=t_star,
        normalized_time=t_star / t_max,
        interpolated=(t_star - 1) - g0 / (g1 - g0),
    )
