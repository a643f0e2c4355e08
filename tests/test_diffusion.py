"""Explicit diffusion sweep, stability window, and Peclet bookkeeping."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ietmix.diffusion import (
    StabilityError,
    diffusion_step,
    diffusivity_from_peclet,
    match_iterations,
    peclet_number,
)

fields = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=3,
    max_size=40,
)


def test_step_hand_stencil():
    out = diffusion_step([1.0, 0.0, 0.0, 0.0], 0.25)
    assert out.tolist() == [0.5, 0.25, 0.0, 0.25]


def test_zero_diffusivity_copies():
    c = np.array([0.2, 0.7, 0.1])
    out = diffusion_step(c, 0.0)
    assert np.array_equal(out, c)
    assert out is not c


def test_half_diffusivity_averages_neighbors():
    out = diffusion_step([1.0, 0.0, 0.0, 1.0], 0.5)
    assert out.tolist() == [0.5, 0.5, 0.5, 0.5]


def test_uniform_field_is_a_bitwise_fixed_point():
    c = np.full(7, 0.3)
    for d in (0.1, 0.37, 0.5):
        assert np.array_equal(diffusion_step(c, d), c)


def test_periodic_closure_wraps_both_ends():
    out = diffusion_step([1.0, 0.0, 0.0], 0.25)
    # Site 0 sees sites 1 and 2; sites 1 and 2 each see site 0 once.
    assert out.tolist() == [0.5, 0.25, 0.25]


def test_stability_window_enforced():
    with pytest.raises(StabilityError):
        diffusion_step([0.0, 1.0, 0.0], -0.01)
    with pytest.raises(StabilityError):
        diffusion_step([0.0, 1.0, 0.0], 0.51)
    with pytest.raises(ValueError):
        diffusion_step([0.0, 1.0], 0.25)
    with pytest.raises(ValueError, match="^diffusivity must be a real number, got '0.1'$"):
        diffusion_step([0.0, 1.0, 0.0], "0.1")


@given(fields, st.floats(min_value=0.0, max_value=0.5))
def test_mass_and_bounds_are_preserved(values, d):
    c = np.asarray(values)
    out = diffusion_step(c, d)
    scale = max(1.0, float(np.abs(c).sum()))
    assert abs(out.sum() - c.sum()) <= 1e-9 * scale
    # Convex-combination update: output range within input range.
    assert out.min() >= c.min() - 1e-12 * scale
    assert out.max() <= c.max() + 1e-12 * scale


@given(fields, st.floats(min_value=0.0, max_value=0.5))
def test_variance_never_increases(values, d):
    c = np.asarray(values)
    out = diffusion_step(c, d)
    scale = max(1.0, float(np.var(c)))
    assert np.var(out) <= np.var(c) + 1e-9 * scale


@given(fields, st.floats(min_value=0.0, max_value=0.5), st.integers(-5, 5))
def test_translation_equivariance(values, d, k):
    c = np.asarray(values)
    rolled = diffusion_step(np.roll(c, k), d)
    assert np.array_equal(rolled, np.roll(diffusion_step(c, d), k))


def test_match_iterations_reference_table():
    # Budgets that keep D*T/L^2 constant against the L=369, T=50 reference.
    expected = {369: 50, 671: 166, 888: 290, 1157: 492, 1484: 809,
                4641: 7910, 6187: 14057}
    for length, t_max in expected.items():
        assert match_iterations(369, 50, length) == t_max


def test_match_iterations_exact_for_huge_lattices():
    # 10^20-scale intermediates stay exact integers.
    assert match_iterations(10**9, 10**6, 10**10) == 10**8
    assert match_iterations(671, 500, 888) == 876


def test_match_iterations_rounds_up():
    assert match_iterations(2, 1, 3) == 3  # ceil(9/4)
    assert match_iterations(3, 4, 3) == 4
    budget = match_iterations(10.0, 5.0, 20.0)  # whole floats pass as ints
    assert budget == 20 and type(budget) is int
    with pytest.raises(ValueError):
        match_iterations(0, 1, 1)


@pytest.mark.parametrize("args, name", [
    ((10, 1.5, 20), "t_max_ref"), ((10, float("nan"), 20), "t_max_ref"),
    ((10, float("inf"), 20), "t_max_ref"), ((10, "5", 20), "t_max_ref"),
    ((10.5, 5, 20), "l_ref"), ((10, 5, -20), "l_new"), ((10, 0, 20), "t_max_ref"),
])
def test_match_iterations_refuses_budgets_that_are_not_positive_whole_numbers(args, name):
    with pytest.raises(ValueError, match=f"^{name} must be a positive integer, got "):
        match_iterations(*args)


def test_peclet_number_values():
    assert peclet_number(671, 0.451, 500) == pytest.approx(1996.6341463414635)
    assert peclet_number(671, 0.0, 500) == math.inf
    with pytest.raises(ValueError):
        peclet_number(0, 0.1, 10)
    with pytest.raises(ValueError):
        peclet_number(10, -0.1, 10)


def test_diffusivity_from_peclet_frozen():
    assert diffusivity_from_peclet(671, 2000, 500) == 0.450241
    assert diffusivity_from_peclet(671, 32000, 500) == 0.0281400625


def test_diffusivity_roundtrip():
    d = diffusivity_from_peclet(888, 8000, 876)
    assert peclet_number(888, d, 876) == pytest.approx(8000.0, rel=1e-12)


def test_diffusivity_stability_refusal():
    # Pe small enough to demand D > 1/2 must fail loudly.
    with pytest.raises(StabilityError):
        diffusivity_from_peclet(671, 100, 500)
    for bad in (-5, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            diffusivity_from_peclet(671, bad, 500)
    for length, t_max in ((0, 500), (671, 0)):
        with pytest.raises(ValueError, match="length and t_max must be positive"):
            diffusivity_from_peclet(length, 100, t_max)
