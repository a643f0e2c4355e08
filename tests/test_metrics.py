"""Mixing diagnostics: cut counts, unmixed runs, norms, series assembly."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ietmix.lattice import Protocol, Ratio, initial_field, iterate
from ietmix.metrics import (
    average_color,
    compute_series,
    cut_count,
    mixing_norm,
    percent_unmixed,
)


def test_cut_count_counts_interior_interfaces():
    assert cut_count([0.0, 0.0, 1.0, 1.0]) == 1
    assert cut_count([0.5, 0.5, 0.5]) == 0
    assert cut_count([7.0]) == 0
    # No wraparound: the ends differing adds nothing.
    assert cut_count([0.0, 1.0, 0.0, 1.0]) == 3


def test_cut_count_initial_fields():
    assert cut_count(initial_field(4, Ratio(3, 2))) == 3
    assert cut_count(initial_field(6, Ratio(7, 5))) == 5


def test_percent_unmixed_longest_run():
    assert percent_unmixed([0.0, 0.0, 1.0, 1.0]) == 50.0
    assert percent_unmixed([0.0, 1.0, 1.0, 1.0]) == 75.0
    assert percent_unmixed([0.3, 0.3]) == 100.0
    assert percent_unmixed(initial_field(4, Ratio(5, 4))) == pytest.approx(
        33.87533875338753
    )


def test_average_color_frozen():
    # 655/1107 for the four-piece r = 5/4 start state.
    assert average_color(initial_field(4, Ratio(5, 4))) == pytest.approx(
        0.5916892502258356, abs=1e-15
    )


def test_mixing_norm_hand_case():
    # sqrt(2/9) for a one-in-three outlier measured about its mean.
    assert mixing_norm([0.0, 0.0, 1.0]) == pytest.approx(0.4714045207910317)
    assert mixing_norm([0.0, 0.0, 1.0], cbar=0.0) == pytest.approx((1 / 3) ** 0.5)


def test_mixing_norm_orders():
    c = [0.0, 0.0, 1.0]
    assert mixing_norm(c, cbar=0.0, p=1.0) == pytest.approx(1 / 3)
    assert mixing_norm(c, cbar=0.0, p=4.0) == pytest.approx((1 / 3) ** 0.25)
    for bad in (0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            mixing_norm(c, p=bad)
    with pytest.raises(ValueError, match="norm order p must be a real number, got '2'"):
        mixing_norm(c, 0.5, p="2")
    for bad in (float("nan"), float("inf"), "0.5"):
        with pytest.raises(ValueError, match="cbar must be a finite real number"):
            mixing_norm(c, cbar=bad)


def test_initial_norm_frozen():
    assert mixing_norm(initial_field(4, Ratio(5, 4))) == pytest.approx(
        0.3649547881343441, abs=1e-14
    )


def test_mixing_norm_is_bitwise_permutation_invariant():
    c = initial_field(4, Ratio(5, 4))
    cbar = average_color(c)
    scrambled = np.concatenate([c[1::3], c[0::3], c[2::3]])
    assert mixing_norm(scrambled, cbar=cbar) == mixing_norm(c, cbar=cbar)


@given(
    st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1,
             max_size=30),
    st.data(),
)
def test_norm_invariance_property(values, data):
    order = data.draw(st.permutations(range(len(values))))
    c = np.asarray(values)
    shuffled = c[np.asarray(order, dtype=int)]
    assert mixing_norm(shuffled, cbar=0.0) == mixing_norm(c, cbar=0.0)


@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=2,
             max_size=30)
)
def test_diagnostic_ranges(values):
    c = np.asarray(values)
    assert 0 <= cut_count(c) <= c.size - 1
    assert 0.0 < percent_unmixed(c) <= 100.0
    assert mixing_norm(c) >= 0.0


def test_empty_and_multidim_fields_rejected():
    with pytest.raises(ValueError):
        cut_count([])
    with pytest.raises(ValueError):
        mixing_norm(np.zeros((2, 2)))


def test_compute_series_full_trace():
    proto = Protocol(n=4, ratio=Ratio(3, 2), permutation=(3, 1, 4, 2), d=0.0, t_max=2)
    series = compute_series(iterate(proto))
    assert series.t.tolist() == [0, 1, 2]
    assert series.cut_count.tolist() == [3, 3, 6]
    assert series.percent_unmixed[0] == pytest.approx(100.0 * 27 / 65)
    assert series.percent_unmixed[2] == pytest.approx(300.0 / 13)
    assert series.mean_subseg_len.tolist() == [0.25, 0.25, 1.0 / 7.0]
    assert len(series) == 3


def test_series_norm_reference_frozen_at_start():
    proto = Protocol(n=4, ratio=Ratio(3, 2), permutation=(3, 1, 4, 2), d=0.5, t_max=8)
    fields = iterate(proto)
    series = compute_series(fields)
    assert series.cbar == average_color(initial_field(4, Ratio(3, 2)))
    # The reference color never drifts even though the field diffuses.
    assert [average_color(f) for f in fields] == pytest.approx([series.cbar] * 9, abs=1e-12)
