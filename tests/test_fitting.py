"""Stretched-exponential fitting and the e-folding scale."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad

from ietmix import fitting
from ietmix.diffusion import match_iterations
from ietmix.fitting import (
    FitResult,
    efolding_time,
    fit_stretched_exponential,
    stretched_exponential,
)
from ietmix.lattice import Ratio, total_length
from ietmix.runner import collapse, run_ensemble


def gamma_by_quadrature(x: float) -> float:
    """Independent route: integrate t^(x-1) e^(-t) over the positive axis."""
    value, _ = quad(lambda t: t ** (x - 1.0) * math.exp(-t), 0.0, math.inf, limit=200)
    return value


def test_model_evaluation():
    assert stretched_exponential(0.0, 0.5, 10.0, 0.8) == 0.5
    assert stretched_exponential(10.0, 0.5, 10.0, 0.8) == pytest.approx(0.5 / math.e)
    y = stretched_exponential([0.0, 10.0, 40.0], 1.0, 10.0, 1.0)
    assert y == pytest.approx([1.0, math.exp(-1), math.exp(-4)])


def test_efolding_time_frozen():
    fit = FitResult(m=0.365, tau=68.17, alpha=0.7866, sse=0.0, converged=True)
    expected = 68.17 * gamma_by_quadrature(1.0 + 1.0 / 0.7866)
    assert efolding_time(fit) == pytest.approx(expected, rel=1e-8)
    assert efolding_time(fit) == pytest.approx(78.194090725, rel=1e-9)


def test_efolding_reduces_to_tau_for_plain_exponential():
    fit = FitResult(m=1.0, tau=42.0, alpha=1.0, sse=0.0, converged=True)
    assert efolding_time(fit) == pytest.approx(42.0, rel=1e-15)


def test_efolding_requires_convergence():
    fit = FitResult(m=1.0, tau=42.0, alpha=1.0, sse=0.0, converged=False)
    with pytest.raises(ValueError):
        efolding_time(fit)


@pytest.mark.parametrize("tau", [5.0, 40.0, 500.0])
@pytest.mark.parametrize("alpha", [0.4, 0.8, 1.2])
def test_fit_recovers_noiseless_curves(tau, alpha):
    t = np.arange(0, 2001, dtype=float)
    y = stretched_exponential(t, 0.365, tau, alpha)
    fit = fit_stretched_exponential(t, y, 0.365)
    assert fit.converged
    assert fit.tau == pytest.approx(tau, rel=1e-6)
    assert fit.alpha == pytest.approx(alpha, rel=1e-6)
    assert fit.sse < 1e-12


def test_fit_is_deterministic():
    t = np.arange(0, 301, dtype=float)
    y = stretched_exponential(t, 1.0, 30.0, 0.9) + 0.01 * np.cos(0.1 * t)
    a = fit_stretched_exponential(t, np.abs(y), 1.0)
    b = fit_stretched_exponential(t, np.abs(y), 1.0)
    assert (a.tau, a.alpha, a.sse) == (b.tau, b.alpha, b.sse)


def test_fit_respects_alpha_ceiling():
    t = np.arange(0, 201, dtype=float)
    y = np.exp(-((t / 50.0) ** 2.5))  # steeper than the admissible window
    fit = fit_stretched_exponential(t, y, 1.0)
    assert fit.alpha <= 2.0 + 1e-12


def test_fit_input_validation():
    t = np.arange(0, 10, dtype=float)
    y = stretched_exponential(t, 1.0, 3.0, 1.0)
    with pytest.raises(ValueError):
        fit_stretched_exponential(t[:4], y[:4], 1.0)
    for bad_m in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and positive"):
            fit_stretched_exponential(t, y, bad_m)
    for bad_value in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            fit_stretched_exponential(t, np.where(t == 5.0, bad_value, y), 1.0)
        with pytest.raises(ValueError, match="^times must be finite$"):
            fit_stretched_exponential(np.where(t == 5.0, bad_value, t), y, 1.0)
    with pytest.raises(ValueError):
        fit_stretched_exponential(t, -y, 1.0)
    with pytest.raises(ValueError):
        fit_stretched_exponential(t, np.full_like(t, 0.3), 1.0)
    with pytest.raises(ValueError):
        fit_stretched_exponential(t, y[:-1], 1.0)


@settings(deadline=None, max_examples=25)
@given(
    st.floats(min_value=5.0, max_value=200.0),
    st.floats(min_value=0.3, max_value=1.5),
)
def test_fit_self_consistency_property(tau, alpha):
    t = np.arange(0, 801, dtype=float)
    y = stretched_exponential(t, 1.0, tau, alpha)
    fit = fit_stretched_exponential(t, y, 1.0)
    assert fit.converged
    assert fit.tau == pytest.approx(tau, rel=1e-4)
    assert fit.alpha == pytest.approx(alpha, rel=1e-4)


# The solver is a NumPy port of SciPy's bounded trf path. conftest.py solves
# every fit of the session with both and requires the same bytes; the tests
# below add the fits that no other test makes.


@pytest.fixture(scope="module")
def benchmark_ensembles():
    """The five ensembles of the benchmark's collapse: n = 4, D = 1/2,
    budgets matched to 369,100."""
    ensembles = []
    for text in ("6/5", "5/4", "7/5", "8/5", "9/5"):
        ratio = Ratio.parse(text)
        t_max = match_iterations(369, 100, total_length(4, ratio))
        ensembles.append(run_ensemble(4, ratio, 0.5, t_max, runs=False))
    return ensembles


@pytest.mark.parametrize("grid_points", [200, 160, 240, 280])
def test_benchmark_collapse_fits_match_scipy(
        benchmark_ensembles, solves_checked_against_scipy, grid_points):
    before = len(solves_checked_against_scipy)
    # Copies, so each ensemble fits again instead of reading its cached fit.
    collapse([dataclasses.replace(ens) for ens in benchmark_ensembles],
             grid_points=grid_points)
    assert len(solves_checked_against_scipy) - before == 6  # 5 ensembles + universal


@settings(deadline=None, max_examples=60)
@given(
    samples=st.integers(min_value=5, max_value=400),
    spacing=st.sampled_from([0.5, 1.0, 3.0]),
    tau=st.floats(min_value=0.5, max_value=2000.0),
    alpha=st.floats(min_value=0.15, max_value=2.0),
    m=st.floats(min_value=0.05, max_value=2.0),
    noise=st.sampled_from([0.0, 1e-6, 1e-3, 1e-2, 0.1]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_noisy_fits_match_scipy(solves_checked_against_scipy, samples, spacing, tau,
                                alpha, m, noise, seed):
    t = np.arange(samples) * spacing
    y = stretched_exponential(t, m, tau, alpha)
    y = np.abs(y + np.random.default_rng(seed).normal(0.0, noise * m, samples))
    assume(y.max() > y.min())
    before = len(solves_checked_against_scipy)
    fit_stretched_exponential(t, y, m)
    assert len(solves_checked_against_scipy) == before + 1


# Refusals from inside the solver keep SciPy's text; conftest.py checks that
# SciPy refuses the same input with the same words. The fit refuses a time
# that is not finite itself, so the solver's checks of x0 and x_scale are
# posed to it directly.
def _solve(x0, x_scale):
    return lambda: fitting.least_squares(
        lambda x: np.zeros(5), np.array(x0), lambda x: np.zeros((5, 2)), x_scale)


def _fit(t, y):
    return lambda: fit_stretched_exponential(np.array(t, dtype=float), np.array(y), 1.0)


@pytest.mark.parametrize("solve, message", [
    (_solve([math.nan, 1.0], [1.0, 1.0]), "Initial guess is outside of provided bounds"),
    (_solve([2.0, 1.0], [math.inf, 1.0]),
     "`x_scale` must be 'jac' or array_like with positive numbers."),
    (_fit([-1e4, 1, 2, 3, 4], [1, 0.5, 0.3, 0.2, 0.1]),
     "Residuals are not finite in the initial point."),
    (_fit([0, 1, 2, 3, 1.7e308], [1, 0.2, 0.1, 0.05, 0.5]),
     "array must not contain infs or NaNs"),
], ids=["nan-time", "inf-time", "overflowing-residuals", "overflowing-jacobian"])
def test_solver_refusals_keep_scipy_text(solve, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        solve()
