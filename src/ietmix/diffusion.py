"""Discrete diffusion sweep and Peclet-number bookkeeping.

One sweep applies the explicit forward-time centered-space update
c_i <- c_i + D*(c_{i+1} - 2*c_i + c_{i-1}) on a periodic lattice with
unit grid spacing and unit time step; the scheme is stable for D <= 1/2.
"""

from __future__ import annotations

import math

import numpy as np

from .permutations import whole_number


class StabilityError(ValueError):
    """Diffusivity outside the explicit-scheme stability window [0, 1/2]."""


def diffusion_step(field, d: float) -> np.ndarray:
    """One simultaneous (Jacobi) diffusion sweep with periodic closure.

    The whole output is computed from the input field; updating in place
    would bias the stencil toward already-updated neighbors. D = 0 is a
    plain copy and D = 1/2 degenerates to averaging the two neighbors.
    """
    c = np.asarray(field, dtype=np.float64)
    if c.ndim != 1 or c.size < 3:
        raise ValueError("field must be one-dimensional with at least 3 sites")
    if not 0.0 <= d <= 0.5:
        raise StabilityError(f"diffusivity {d} outside the stable range [0, 1/2]")
    if d == 0.0:
        return c.copy()
    right = np.roll(c, -1)  # c_{i+1}, closing with c_{L+1} = c_1
    left = np.roll(c, 1)    # c_{i-1}, closing with c_0 = c_L
    if d == 0.5:
        return 0.5 * (right + left)
    # Increment form: uniform fields stay exactly fixed.
    return c + d * ((right - c) + (left - c))


def match_iterations(l_ref: int, t_max_ref: int, l_new: int) -> int:
    """Iteration budget on a length-l_new lattice matching a reference run.

    Equal total dimensionless diffusion D*T/L^2 across lattices requires
    T_new = (l_new/l_ref)^2 * t_max_ref; the result is rounded up to a
    whole iteration. Exact integer arithmetic throughout, so huge
    lattices cannot pick up floating-point drift; each argument must be a
    positive whole number (5.0 passes as 5).
    """
    given = {"l_ref": l_ref, "t_max_ref": t_max_ref, "l_new": l_new}
    for name, value in given.items():
        whole = whole_number(value)
        if whole is None or whole <= 0:
            raise ValueError(f"{name} must be a positive integer, got {value!r}")
        given[name] = whole
    l_ref, t_max_ref, l_new = given.values()
    num = l_new * l_new * t_max_ref
    den = l_ref * l_ref
    return -(-num // den)


def peclet_number(length: int, d: float, t_max: int) -> float:
    """Pe = L^2 / (D * T_max). D = 0 maps to infinity, not an error."""
    if length <= 0 or t_max <= 0:
        raise ValueError("length and t_max must be positive")
    if d < 0:
        raise ValueError("diffusivity must be nonnegative")
    if d == 0.0:
        return math.inf
    return length * length / (d * t_max)


def stable_budget(length: int, pe: float) -> int:
    """The least budget T at which Pe keeps D = L^2 / (Pe * T) within 1/2."""
    return math.ceil(2 * length * length / pe)


def diffusivity_from_peclet(length: int, pe: float, t_max: int) -> float:
    """Diffusivity D = L^2 / (Pe * T_max) realizing a target Peclet number."""
    if length <= 0 or t_max <= 0:
        raise ValueError("length and t_max must be positive")
    if not 0.0 < pe < math.inf:
        raise ValueError(f"Peclet number must be finite and positive, got {pe}")
    d = length * length / (pe * t_max)
    if d > 0.5:
        raise StabilityError(
            f"Pe={pe} on a length-{length} lattice needs D={d:.4g} > 1/2; "
            f"raise t_max to at least {stable_budget(length, pe)}"
        )
    return d
