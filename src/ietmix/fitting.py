"""Stretched-exponential relaxation fits.

The mixing norm of a diffusive run relaxes like M * exp(-(T/tau)^alpha):
tau sets the decay scale in iterations and alpha < 1 stretches the tail.
M is pinned to the measured initial norm, so only (tau, alpha) are free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Admissible stretching-exponent window (open below, closed above).
ALPHA_MIN = 0.1
ALPHA_MAX = 2.0

_TAU_FLOOR = 1e-8

#: Fewest samples a fit accepts.
MIN_FIT_SAMPLES = 5


def least_squares(*args, **kwargs):
    """scipy.optimize.least_squares, with SciPy imported on the first call.

    Importing SciPy takes most of the package's start-up time, so the
    verbs that never fit do not pay for it.
    """
    from scipy.optimize import least_squares as solve

    return solve(*args, **kwargs)


@dataclass(frozen=True)
class FitResult:
    """Best-fit stretched-exponential parameters for one decay curve."""

    m: float
    tau: float
    alpha: float
    sse: float
    converged: bool


def stretched_exponential(t, m: float, tau: float, alpha: float) -> np.ndarray:
    """Evaluate M * exp(-(t/tau)^alpha) elementwise."""
    t = np.asarray(t, dtype=np.float64)
    return m * np.exp(-((t / tau) ** alpha))


def efolding_time(fit: FitResult) -> float:
    """Characteristic decay scale of a fit: tau * Gamma(1 + 1/alpha).

    The area under the normalized fitted profile; reduces to tau itself
    for a plain exponential (alpha = 1).
    """
    if not fit.converged:
        raise ValueError("e-folding time needs a converged fit")
    return fit.tau * math.gamma(1.0 + 1.0 / fit.alpha)


def _efold_crossing(t, y, m: float) -> float:
    """First crossing of m/e, linearly interpolated; t[-1] if never reached."""
    target = m / math.e
    below = np.flatnonzero(y <= target)
    if below.size == 0:
        return float(t[-1])
    i = int(below[0])
    if i == 0:
        return max(float(t[0]), _TAU_FLOOR)
    t0, t1 = float(t[i - 1]), float(t[i])
    y0, y1 = float(y[i - 1]), float(y[i])
    return max(t0 + (y0 - target) * (t1 - t0) / (y0 - y1), _TAU_FLOOR)


def fit_stretched_exponential(t, values, m: float) -> FitResult:
    """Least-squares fit of values ~ m * exp(-(t/tau)^alpha) over (tau, alpha).

    m stays fixed at the measured initial value, and the fit runs in
    linear space so the near-zero tail cannot dominate through a log
    transform. Deterministic by construction: fixed initialization (tau
    from the curve's 1/e crossing, alpha = 1) and a bounded trust-region
    least-squares solve with an analytic Jacobian, capped at 500
    function evaluations. A fit that exhausts the cap is returned with
    converged=False rather than raised.

    Raises ValueError for fewer than 5 samples, an m or values that are
    negative or not finite, or a flat curve (no decay to fit).
    """
    t = np.asarray(t, dtype=np.float64)
    y = np.asarray(values, dtype=np.float64)
    if t.ndim != 1 or t.shape != y.shape:
        raise ValueError("t and values must be matching one-dimensional arrays")
    if t.size < MIN_FIT_SAMPLES:
        raise ValueError(f"need at least {MIN_FIT_SAMPLES} samples to fit, got {t.size}")
    if not 0.0 < m < math.inf:
        raise ValueError(f"initial norm m must be finite and positive, got {m}")
    if not np.all((y >= 0) & (y < np.inf)):
        raise ValueError("values must be finite and nonnegative")
    if float(y.max() - y.min()) == 0.0:
        raise ValueError("no decay to fit: series is constant")

    tau0 = _efold_crossing(t, y, m)

    def residual(params):
        tau, alpha = params
        return stretched_exponential(t, m, tau, alpha) - y

    def jacobian(params):
        tau, alpha = params
        u = (t / tau) ** alpha
        e = m * np.exp(-u)
        d_tau = e * (alpha / tau) * u
        with np.errstate(divide="ignore"):
            log_term = np.where(t > 0.0, np.log(np.where(t > 0.0, t, 1.0) / tau), 0.0)
        d_alpha = -e * u * log_term
        return np.column_stack([d_tau, d_alpha])

    res = least_squares(
        residual,
        x0=np.array([tau0, 1.0]),
        jac=jacobian,
        bounds=([_TAU_FLOOR, ALPHA_MIN + 1e-9], [np.inf, ALPHA_MAX]),
        method="trf",
        ftol=1e-12,
        xtol=1e-12,
        gtol=1e-12,
        max_nfev=500,
        x_scale=[max(tau0, 1.0), 1.0],
    )
    return FitResult(
        m=float(m),
        tau=float(res.x[0]),
        alpha=float(res.x[1]),
        sse=float(np.dot(res.fun, res.fun)),
        converged=bool(res.status > 0),
    )
