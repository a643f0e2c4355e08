"""Stretched-exponential relaxation fits.

The mixing norm of a diffusive run relaxes like M * exp(-(T/tau)^alpha):
tau sets the decay scale in iterations and alpha < 1 stretches the tail.
M is pinned to the measured initial norm, so only (tau, alpha) are free.
The bounded least-squares solve is least_squares below, a NumPy port of
the one SciPy path the fit uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.linalg import norm

#: Admissible stretching-exponent window (open below, closed above).
ALPHA_MIN = 0.1
ALPHA_MAX = 2.0

_TAU_FLOOR = 1e-8

#: Fewest samples a fit accepts.
MIN_FIT_SAMPLES = 5

# The solve's fixed settings, read by least_squares: the bounds on (tau,
# alpha), the one tolerance of its three stopping tests (ftol, xtol and
# gtol) and its cap on residual evaluations.
_LOWER = np.array([_TAU_FLOOR, ALPHA_MIN + 1e-9])
_UPPER = np.array([np.inf, ALPHA_MAX])
_TOL = 1e-12
_MAX_NFEV = 500


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
    """First crossing of m/e, linearly interpolated; t[-1] if never reached.

    A curve already at or below m/e at its first sample crosses between the
    pinned start (0, m) and its first sample at t > 0 at or below m/e; with
    no such sample there is no decay to fit, and ValueError is raised.
    """
    target = m / math.e
    below = np.flatnonzero(y <= target)
    if below.size == 0:
        return float(t[-1])
    i = int(below[0])
    if i > 0:
        t0, y0 = float(t[i - 1]), float(y[i - 1])
    else:
        later = below[t[below] > 0.0]
        if later.size == 0:
            raise ValueError(f"no decay to fit: no sample at t > 0 reaches m/e = {target:.6g}")
        i, t0, y0 = int(later[0]), 0.0, float(m)
    t1, y1 = float(t[i]), float(y[i])
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

    Raises ValueError for fewer than 5 samples, times that are not
    finite, an m or values that are negative or not finite, or no decay
    to fit: a flat curve, or one that reaches m/e only at t <= 0.
    """
    t = np.asarray(t, dtype=np.float64)
    y = np.asarray(values, dtype=np.float64)
    if t.ndim != 1 or t.shape != y.shape:
        raise ValueError("t and values must be matching one-dimensional arrays")
    if t.size < MIN_FIT_SAMPLES:
        raise ValueError(f"need at least {MIN_FIT_SAMPLES} samples to fit, got {t.size}")
    if not np.all(np.isfinite(t)):
        raise ValueError("times must be finite")
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
        log_term = np.where(t > 0.0, np.log(np.where(t > 0.0, t, 1.0) / tau), 0.0)
        d_alpha = -e * u * log_term
        return np.column_stack([d_tau, d_alpha])

    # Trial points may overflow: the solve handles that, or raises, silently.
    with np.errstate(all="ignore"):
        res = least_squares(residual, np.array([tau0, 1.0]), jacobian, [max(tau0, 1.0), 1.0])
    return FitResult(
        m=float(m),
        tau=float(res.x[0]),
        alpha=float(res.x[1]),
        sse=float(np.dot(res.fun, res.fun)),
        converged=bool(res.status > 0),
    )


_EPS = np.finfo(float).eps


def least_squares(fun, x0, jac, x_scale):
    """Bounded nonlinear least squares of the fit's (tau, alpha).

    The trust-region reflective method of Branch, Coleman and Li (SIAM J.
    Sci. Comput. 21, 1999), as ``scipy.optimize.least_squares`` runs it with
    ``bounds=(_LOWER, _UPPER)``, ``ftol = xtol = gtol = _TOL``, ``max_nfev =
    _MAX_NFEV``, the linear loss, ``tr_solver="exact"``, a dense Jacobian
    callable and an array ``x_scale``. That one path of SciPy 1.17 is ported
    operation for operation, less the branches that these settings and the
    fit's start cannot reach, so it returns SciPy's ``x``, ``fun``, ``nfev``
    and ``status`` bit for bit. Status 0 means the cap was spent; 1-4 mean
    gtol, ftol, xtol, or both ftol and xtol were met.

    Raises ValueError, with SciPy's text, for an x0 outside the bounds, an
    x_scale that is not finite and positive, residuals that are not finite
    at x0 or a Jacobian that is not finite where the residuals are.
    """
    x = np.atleast_1d(x0).astype(float)  # a copy: x0 is left as given
    if not _in_bounds(x):
        raise ValueError("Initial guess is outside of provided bounds")
    scale = np.asarray(x_scale, dtype=float)
    if not (np.all(np.isfinite(scale)) and np.all(scale > 0)):
        raise ValueError("`x_scale` must be 'jac' or array_like with positive numbers.")
    scale_inv = 1 / scale

    # SciPy moves x0 off each bound within 1e-10 (relative) of it. Of the fit's
    # start only tau can be: alpha = 1.0 lies far inside its bounds, and tau has
    # no upper bound and a lower one below 1, where 1e-10 relative is 1e-10.
    if x[0] - _LOWER[0] <= 1e-10:
        x[0] = _LOWER[0] + 1e-10
    f = fun(x)
    J = jac(x)
    if not np.all(np.isfinite(f)):
        raise ValueError("Residuals are not finite in the initial point.")
    nfev = 1
    m, n = J.shape
    cost = 0.5 * np.dot(f, f)
    g = J.T.dot(f)

    v, dv = _scaling_vector(x, g)
    v[dv != 0] *= scale_inv[dv != 0]
    # SciPy starts from 1 when this is 0. The fit's alpha starts at 1.0, strictly
    # inside its bounds, with scale 1, so its term alone is at least 1.
    delta = norm(x * scale_inv / v**0.5)
    f_augmented = np.zeros(m + n)
    J_augmented = np.empty((m + n, n))
    alpha = 0.0  # the Levenberg-Marquardt parameter
    status = None
    while True:
        v, dv = _scaling_vector(x, g)
        g_norm = norm(g * v, ord=np.inf)
        if g_norm < _TOL:
            status = 1
        if status is not None or nfev == _MAX_NFEV:
            break

        # Coleman-Li scaling, then x_scale: the trust region lives in "hat"
        # variables x_h = x / d.
        v[dv != 0] *= scale_inv[dv != 0]
        d = v**0.5 * scale
        diag_h = g * dv * scale
        g_h = d * g

        f_augmented[:m] = f
        J_augmented[:m] = J * d
        J_h = J_augmented[:m]
        J_augmented[m:] = np.diag(diag_h**0.5)
        if not np.all(np.isfinite(J_augmented)):
            raise ValueError("array must not contain infs or NaNs")
        U, s, Vt = np.linalg.svd(J_augmented, full_matrices=False)
        # SciPy's svd returns the same factors Fortran-ordered. On C-ordered
        # ones the two products below take another BLAS path and can differ
        # in the last bits.
        V = np.asfortranarray(Vt).T
        uf = np.asfortranarray(U).T.dot(f_augmented)

        theta = max(0.995, 1 - g_norm)  # how far a step stays off the bounds
        actual_reduction = -1
        while actual_reduction <= 0 and nfev < _MAX_NFEV:
            p_h, alpha = _trust_region_step(m, uf, s, V, delta, alpha)
            p = d * p_h
            step, step_h, predicted_reduction = _select_step(
                x, J_h, diag_h, g_h, p, p_h, d, delta, theta)

            x_new = _strictly_feasible(x + step)
            f_new = fun(x_new)
            nfev += 1
            step_h_norm = norm(step_h)
            if not np.all(np.isfinite(f_new)):
                delta = 0.25 * step_h_norm
                continue

            cost_new = 0.5 * np.dot(f_new, f_new)
            actual_reduction = cost - cost_new
            delta_new, ratio = _update_radius(
                delta, actual_reduction, predicted_reduction,
                step_h_norm, step_h_norm > 0.95 * delta)
            status = _termination(actual_reduction, cost, norm(step), norm(x), ratio)
            if status is not None:
                break
            alpha *= delta / delta_new
            delta = delta_new

        if actual_reduction > 0:
            x, f, cost = x_new, f_new, cost_new
            J = jac(x)
            g = J.T.dot(f)

    return _Solution(x=x, fun=f, nfev=nfev, status=0 if status is None else status)


class _Solution(NamedTuple):
    x: np.ndarray
    fun: np.ndarray
    nfev: int
    status: int


def _select_step(x, J_h, diag_h, g_h, p, p_h, d, delta, theta):
    """The best of the trust-region step, its reflection off the first bound
    it crosses and the scaled gradient step, each kept strictly feasible."""
    if _in_bounds(x + p):
        a, b = _quadratic_1d(J_h, g_h, p_h, diag_h)
        return p, p_h, -(a + b)

    p_stride, hits = _step_to_bound(x, p)

    r_h = np.copy(p_h)
    r_h[hits.astype(bool)] *= -1
    r = d * r_h

    p *= p_stride
    p_h *= p_stride
    x_on_bound = x + p

    # The reflected direction leaves the feasible box or the trust region
    # first; it stays (1 - theta) off a bound, as SciPy's trf does.
    _, to_tr = _intersect_trust_region(p_h, r_h, delta)
    to_bound, _ = _step_to_bound(x_on_bound, r)
    r_stride = min(to_bound, to_tr)
    if r_stride > 0:
        r_stride_l = (1 - theta) * p_stride / r_stride
        if r_stride == to_bound:
            r_stride_u = theta * to_bound
        else:
            r_stride_u = to_tr
    else:
        r_stride_l = 0
        r_stride_u = -1

    if r_stride_l <= r_stride_u:
        a, b, c = _quadratic_1d(J_h, g_h, r_h, diag_h, s0=p_h)
        r_stride, r_value = _minimize_quadratic_1d(a, b, r_stride_l, r_stride_u, c=c)
        r_h *= r_stride
        r_h += p_h
        r = r_h * d
    else:
        r_value = np.inf

    p *= theta
    p_h *= theta
    a, b = _quadratic_1d(J_h, g_h, p_h, diag_h)
    p_value = a + b  # the quadratic at t = 1

    ag_h = -g_h
    ag = d * ag_h
    to_tr = delta / norm(ag_h)
    to_bound, _ = _step_to_bound(x, ag)
    if to_bound < to_tr:
        ag_stride = theta * to_bound
    else:
        ag_stride = to_tr
    a, b = _quadratic_1d(J_h, g_h, ag_h, diag_h)
    ag_stride, ag_value = _minimize_quadratic_1d(a, b, 0, ag_stride)
    ag_h *= ag_stride
    ag *= ag_stride

    if p_value < r_value and p_value < ag_value:
        return p, p_h, -p_value
    elif r_value < p_value and r_value < ag_value:
        return r, r_h, -r_value
    else:
        return ag, ag_h, -ag_value


def _trust_region_step(m, uf, s, V, delta, alpha):
    """More's trust-region solve on the SVD J = U diag(s) V^T, uf = U^T f,
    for a J of m rows.

    Returns the step p, with (J^T J + alpha I) p = -J^T f and |p| <= delta,
    and alpha, which starts from the previous solve's value. At most 10
    root-finding steps bring |p| within 1% of delta.
    """
    def phi_and_derivative(alpha):
        denom = s**2 + alpha
        p_norm = norm(suf / denom)
        phi = p_norm - delta
        phi_prime = -np.sum(suf ** 2 / denom**3) / p_norm
        return phi, phi_prime

    suf = s * uf
    # SciPy also requires m >= n here; a fit has m >= 5 residuals and n = 2.
    full_rank = s[-1] > _EPS * m * s[0]
    if full_rank:
        p = -V.dot(uf / s)
        if norm(p) <= delta:
            return p, 0.0

    alpha_upper = norm(suf) / delta
    if full_rank:
        phi, phi_prime = phi_and_derivative(0.0)
        alpha_lower = -phi / phi_prime
    else:
        alpha_lower = 0.0
    if not full_rank and alpha == 0:
        alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)

    for _ in range(10):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
        phi, phi_prime = phi_and_derivative(alpha)
        if phi < 0:
            alpha_upper = alpha
        ratio = phi / phi_prime
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + delta) * ratio / delta
        if np.abs(phi) < 0.01 * delta:
            break

    p = -V.dot(suf / (s**2 + alpha))
    p *= delta / norm(p)  # onto the trust-region boundary exactly
    return p, alpha


def _update_radius(delta, actual_reduction, predicted_reduction, step_norm, bound_hit):
    """The next trust-region radius, and the actual/predicted reduction ratio."""
    if predicted_reduction > 0:
        ratio = actual_reduction / predicted_reduction
    elif predicted_reduction == actual_reduction == 0:
        ratio = 1
    else:
        ratio = 0
    if ratio < 0.25:
        delta = 0.25 * step_norm
    elif ratio > 0.75 and bound_hit:
        delta *= 2.0
    return delta, ratio


def _termination(dF, F, dx_norm, x_norm, ratio):
    """Status 2 (ftol), 3 (xtol) or 4 (both) once a step meets them, else None."""
    ftol_satisfied = dF < _TOL * F and ratio > 0.25
    xtol_satisfied = dx_norm < _TOL * (_TOL + x_norm)
    if ftol_satisfied and xtol_satisfied:
        return 4
    elif ftol_satisfied:
        return 2
    elif xtol_satisfied:
        return 3
    return None


def _quadratic_1d(J, g, s, diag, s0=None):
    """Coefficients of f(t) = 0.5 (s0 + t s)^T (J^T J + diag) (s0 + t s)
    + g^T (s0 + t s): (a, b) for t^2 and t, and the constant c with s0."""
    v = J.dot(s)
    a = np.dot(v, v)
    a += np.dot(s * diag, s)
    a *= 0.5
    b = np.dot(g, s)
    if s0 is None:
        return a, b
    u = J.dot(s0)
    b += np.dot(u, v)
    c = 0.5 * np.dot(u, u) + np.dot(g, s0)
    b += np.dot(s0 * diag, s)
    c += 0.5 * np.dot(s0 * diag, s0)
    return a, b, c


def _minimize_quadratic_1d(a, b, lb, ub, c=0):
    """Minimum point and value of a t^2 + b t + c on the finite [lb, ub]."""
    t = [lb, ub]
    if a != 0:
        extremum = -0.5 * b / a
        if lb < extremum < ub:
            t.append(extremum)
    t = np.asarray(t)
    y = t * (a * t + b) + c
    min_index = np.argmin(y)
    return t[min_index], y[min_index]


def _intersect_trust_region(x, s, delta):
    """Both roots t of |x + t s| = delta, smaller first."""
    a = np.dot(s, s)
    if a == 0:
        raise ValueError("`s` is zero.")
    b = np.dot(x, s)
    c = np.dot(x, x) - delta**2
    if c > 0:
        raise ValueError("`x` is not within the trust region.")
    d = np.sqrt(b*b - a*c)  # root of a quarter of the discriminant
    q = -(b + math.copysign(d, b))  # no cancellation (Numerical Recipes)
    t1 = q / a
    t2 = c / q
    return (t1, t2) if t1 < t2 else (t2, t1)


def _in_bounds(x):
    return np.all((x >= _LOWER) & (x <= _UPPER))


def _step_to_bound(x, s):
    """The least t >= 0 putting x + t s on a bound, and per coordinate -1, 1
    or 0 for the lower, the upper or no bound reached there."""
    non_zero = np.nonzero(s)
    s_non_zero = s[non_zero]
    steps = np.empty_like(x)
    steps.fill(np.inf)
    steps[non_zero] = np.maximum((_LOWER - x)[non_zero] / s_non_zero,
                                 (_UPPER - x)[non_zero] / s_non_zero)
    min_step = np.min(steps)
    return min_step, np.equal(steps, min_step) * np.sign(s).astype(int)


def _strictly_feasible(x):
    """x moved one ulp inside each bound it reached or crossed.

    The bounds are far wider than that move, so it lands strictly inside
    them: SciPy's midpoint clamp for bounds tighter than a move is left out.
    """
    x_new = x.copy()
    lower_mask = x <= _LOWER
    upper_mask = x >= _UPPER
    x_new[lower_mask] = np.nextafter(_LOWER[lower_mask], _UPPER[lower_mask])
    x_new[upper_mask] = np.nextafter(_UPPER[upper_mask], _LOWER[upper_mask])
    return x_new


def _scaling_vector(x, g):
    """Coleman-Li scaling v and its derivative dv: v is the distance to the
    bound the gradient points away from (1 if that bound is infinite; both
    lower bounds are finite)."""
    v = np.ones_like(x)
    dv = np.zeros_like(x)
    mask = (g < 0) & np.isfinite(_UPPER)
    v[mask] = _UPPER[mask] - x[mask]
    dv[mask] = -1
    mask = g > 0
    v[mask] = x[mask] - _LOWER[mask]
    dv[mask] = 1
    return v, dv
