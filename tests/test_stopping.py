"""Batchelor-scale stopping-time solver."""

import math

import numpy as np
import pytest

from ietmix.lattice import Ratio
from ietmix.runner import run_ensemble
from ietmix.stopping import batchelor_length, solve_stopping_time


def test_batchelor_length_values():
    assert batchelor_length(0.0, 2000.0) == 0.0
    assert batchelor_length(0.5, 2000.0) == pytest.approx(0.03512407365520363,
                                                          rel=1e-15)


def test_batchelor_quadrupling_pe_halves_the_scale():
    for t_hat in (0.1, 0.5, 1.0):
        assert batchelor_length(t_hat, 8000.0) == batchelor_length(t_hat, 2000.0) / 2


def test_batchelor_validation():
    with pytest.raises(ValueError):
        batchelor_length(-0.1, 100.0)
    with pytest.raises(ValueError):
        batchelor_length(0.1, 0.0)


@pytest.mark.parametrize("pe", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_peclet_is_refused(pe):
    with pytest.raises(ValueError, match="finite and positive"):
        batchelor_length(0.5, pe)
    with pytest.raises(ValueError, match="finite and positive"):
        solve_stopping_time(np.arange(11.0), pe, 10)


def test_constant_curve_has_closed_form_crossing():
    # With no cutting the striation length stays 1, so the crossing sits at
    # the first integer above 2*Pe*T_max/pi^2.
    t_max = 100
    cuts = np.zeros(t_max + 1)
    sol = solve_stopping_time(cuts, 3.0, t_max)
    assert sol.found
    assert sol.iteration == 61  # ceil(600 / pi^2)
    assert sol.normalized_time == pytest.approx(0.61)
    assert 60.0 < sol.interpolated < 61.0


def test_no_crossing_is_reported_not_raised():
    t_max = 100
    cuts = np.zeros(t_max + 1)
    sol = solve_stopping_time(cuts, 6.0, t_max)  # threshold 121.6 > budget
    assert sol == type(sol)(found=False)
    assert sol.iteration is None and sol.interpolated is None


def test_huge_peclet_never_crosses():
    base = run_ensemble(4, Ratio(3, 2), 0.0, 30)
    sol = solve_stopping_time(base.avg_cut, 1e9, 30)
    assert not sol.found


def test_first_crossing_consistency():
    base = run_ensemble(4, Ratio(3, 2), 0.0, 60)
    sol = solve_stopping_time(base.avg_cut, 50.0, 60)
    assert sol.found
    t = sol.iteration
    lm = 1.0 / (base.avg_cut + 1.0)
    assert batchelor_length(t / 60.0, 50.0) >= lm[t]
    assert batchelor_length((t - 1) / 60.0, 50.0) < lm[t - 1]
    assert t - 1 <= sol.interpolated <= t


def test_stopping_time_monotone_in_pe():
    base = run_ensemble(4, Ratio(6, 5), 0.0, 500)
    previous = 0
    for pe in (2000.0, 4000.0, 8000.0, 16000.0, 24000.0, 32000.0):
        sol = solve_stopping_time(base.avg_cut, pe, 500)
        assert sol.found
        assert sol.iteration >= previous
        previous = sol.iteration


def test_mean_lengths_route_differs_from_reciprocal_route():
    # Averaging reciprocals weighs poorly-cut orders more heavily, so the
    # striation curve sits above 1/(mean count + 1) and crossings land later.
    base = run_ensemble(4, Ratio(6, 5), 0.0, 500)
    by_count = solve_stopping_time(base.avg_cut, 8000.0, 500)
    by_length = solve_stopping_time(base.avg_cut, 8000.0, 500,
                                    mean_lengths=base.avg_subseg)
    assert by_count.found and by_length.found
    assert by_length.iteration > by_count.iteration


def test_input_validation():
    with pytest.raises(ValueError):
        solve_stopping_time(np.zeros(5), 10.0, 5)  # needs t_max + 1 samples
    with pytest.raises(ValueError):
        solve_stopping_time(np.zeros(6), 0.0, 5)
    with pytest.raises(ValueError):
        solve_stopping_time(np.zeros(6), 10.0, 5, mean_lengths=np.ones(4))
    # Inputs that would warn, divide by zero or report a false crossing.
    for t_max in (0, -1):
        with pytest.raises(ValueError, match="t_max"):
            solve_stopping_time(np.zeros(t_max + 1), 10.0, t_max)
    for t_max in (2.5, "10"):
        with pytest.raises(ValueError, match="t_max must be an integer of at least 1"):
            solve_stopping_time(np.zeros(11), 1e3, t_max)
    with pytest.raises(ValueError, match="Peclet number pe must be finite and positive"):
        solve_stopping_time(np.zeros(11), "1e3", 10)
    for bad in (-1.0, float("inf"), float("nan")):
        cuts = np.zeros(6)
        cuts[3] = bad
        with pytest.raises(ValueError, match="avg_cuts"):
            solve_stopping_time(cuts, 10.0, 5)
        with pytest.raises(ValueError, match="mean_lengths"):
            solve_stopping_time(np.zeros(6), 10.0, 5, mean_lengths=cuts)


def test_interpolated_crossing_brackets_the_residual_root():
    t_max = 50
    cuts = np.linspace(0.0, 40.0, t_max + 1)  # smoothly growing cut curve
    sol = solve_stopping_time(cuts, 30.0, t_max)
    assert sol.found
    # Residual changes sign across the interpolated point's bracket.
    def residual(t):
        lm = 1.0 / (np.interp(t, np.arange(t_max + 1), cuts) + 1.0)
        return math.pi * math.sqrt(t / t_max / 60.0) - lm
    assert residual(sol.iteration - 1) < 0 <= residual(sol.iteration)
