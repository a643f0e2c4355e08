"""Exact lattice construction and the cut-and-shuffle dynamics."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ietmix.diffusion import StabilityError
from ietmix.lattice import (
    CapacityError,
    Protocol,
    Ratio,
    cut_counts,
    cut_positions,
    initial_field,
    iterate,
    shuffle_step,
    subsegment_lengths,
    total_length,
)
from ietmix.metrics import compute_series


def test_ratio_is_stored_reduced():
    r = Ratio(10, 8)
    assert (r.num, r.den) == (5, 4)
    assert float(r) == 1.25
    assert str(r) == "5/4"


def test_ratio_rejects_non_expanding_values():
    with pytest.raises(ValueError):
        Ratio(4, 4)
    with pytest.raises(ValueError):
        Ratio(3, 4)
    with pytest.raises(ValueError):
        Ratio(0, 1)
    with pytest.raises(ValueError):
        Ratio(5, -4)
    # A term that is not a whole number is refused, not truncated.
    for num, den in ((11.9, 10), (5, 4.5), (float("inf"), 4), (5, float("nan")), ("5", 4)):
        with pytest.raises(ValueError, match="ratio terms must be integers"):
            Ratio(num, den)
    assert Ratio(5.0, 4.0) == Ratio(5, 4)


def test_ratio_parse_fractions_only():
    assert Ratio.parse("13/10") == Ratio(13, 10)
    for bad in ("1.3", "13", "a/b", "5/0"):
        with pytest.raises(ValueError):
            Ratio.parse(bad)


def test_subsegment_lengths_frozen_cases():
    assert subsegment_lengths(4, Ratio(5, 4)).tolist() == [64, 80, 100, 125]
    assert subsegment_lengths(4, Ratio(3, 2)).tolist() == [8, 12, 18, 27]
    assert subsegment_lengths(4, Ratio(6, 5)).tolist() == [125, 150, 180, 216]
    assert subsegment_lengths(2, Ratio(7, 4)).tolist() == [4, 7]


def test_lengths_follow_the_ratio_exactly():
    lengths = subsegment_lengths(6, Ratio(9, 7))
    for a, b in zip(lengths, lengths[1:]):
        assert b * 7 == a * 9


def test_total_length_spot_checks():
    assert total_length(4, Ratio(3, 2)) == 65
    assert total_length(4, Ratio(5, 4)) == 369
    assert total_length(4, Ratio(13, 10)) == 6187


def test_capacity_guard_raises_before_wrapping():
    with pytest.raises(CapacityError):
        subsegment_lengths(9, Ratio(300, 1))
    assert issubclass(CapacityError, OverflowError)


def test_piece_count_bounds():
    for n in (1, 10, 3.5, "4", None, math.inf, math.nan, "x"):
        with pytest.raises(ValueError):
            subsegment_lengths(n, Ratio(3, 2))
    # A whole float counts as its integer, here, in a Protocol and in the kernels.
    assert subsegment_lengths(4.0, Ratio(3, 2)).tolist() == [8, 12, 18, 27]
    assert type(Protocol(n=4.0, ratio=Ratio(3, 2), permutation=(3, 1, 4, 2)).n) is int
    assert np.array_equal(cut_counts(4.0, Ratio(3, 2), 5, [(3, 1, 4, 2)]),
                          cut_counts(4, Ratio(3, 2), 5, [(3, 1, 4, 2)]))


def test_initial_field_layout():
    c = initial_field(4, Ratio(3, 2))
    assert c.size == 65
    assert np.all(c[:8] == 0.0)
    assert np.all(c[8:20] == 1.0 / 3.0)
    assert np.all(c[20:38] == 2.0 / 3.0)
    assert np.all(c[38:] == 1.0)
    assert cut_positions(4, Ratio(3, 2)).tolist() == [8, 20, 38]


def test_shuffle_step_hand_case():
    # Pieces [0], [1, 2], [3, 4]; order (3, 1, 2) emits piece 3 first.
    out = shuffle_step(np.array([0.0, 1.0, 2.0, 3.0, 4.0]), [1, 3], (3, 1, 2))
    assert out.tolist() == [3.0, 4.0, 0.0, 1.0, 2.0]


def test_shuffle_step_is_a_rearrangement():
    c = initial_field(4, Ratio(3, 2))
    out = shuffle_step(c, cut_positions(4, Ratio(3, 2)), (3, 1, 4, 2))
    assert sorted(out.tolist()) == sorted(c.tolist())
    assert not np.array_equal(out, c)


def test_shuffle_step_validations():
    c = np.arange(6.0)
    with pytest.raises(ValueError):
        shuffle_step(c, [4, 2], (2, 1, 3))  # cuts out of order
    with pytest.raises(ValueError):
        shuffle_step(c, [0, 3], (2, 1, 3))  # cut on the boundary
    with pytest.raises(ValueError):
        shuffle_step(c, [2, 4], (2, 1))  # wrong piece count
    with pytest.raises(ValueError):
        shuffle_step(c.reshape(2, 3), [1], (2, 1))
    with pytest.raises(ValueError, match="cuts must be a one-dimensional"):
        shuffle_step(c, [[2, 4]], (2, 1, 3))


@given(st.data())
def test_shuffle_preserves_the_multiset(data):
    n = data.draw(st.integers(min_value=2, max_value=5))
    lengths = data.draw(
        st.lists(st.integers(min_value=1, max_value=6), min_size=n, max_size=n)
    )
    perm = tuple(data.draw(st.permutations(range(1, n + 1))))
    values = data.draw(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=32),
            min_size=sum(lengths),
            max_size=sum(lengths),
        )
    )
    c = np.asarray(values, dtype=np.float64)
    cuts = np.cumsum(lengths)[:-1]
    out = shuffle_step(c, cuts, perm)
    assert out.shape == c.shape
    assert sorted(out.tolist()) == sorted(c.tolist())


def test_protocol_normalizes_and_validates():
    proto = Protocol(n=4, ratio=Ratio(3, 2), permutation=[3, 1, 4, 2], d=0.25, t_max=7)
    assert proto.permutation == (3, 1, 4, 2)
    assert isinstance(proto.t_max, int)
    with pytest.raises(StabilityError):
        Protocol(n=4, ratio=Ratio(3, 2), permutation=(3, 1, 4, 2), d=0.6)
    with pytest.raises(ValueError):
        Protocol(n=4, ratio=Ratio(3, 2), permutation=(2, 1, 3))
    for t_max in (-1, 2.5, float("inf"), float("nan"), "5"):
        with pytest.raises(ValueError, match="t_max must be a nonnegative integer"):
            Protocol(n=4, ratio=Ratio(3, 2), permutation=(3, 1, 4, 2), t_max=t_max)
    assert Protocol(n=4, ratio=Ratio(3, 2), permutation=(3, 1, 4, 2), t_max=5.0).t_max == 5
    for d in ("0.1", None):
        with pytest.raises(ValueError, match=r"diffusivity must be a real number, got"):
            Protocol(n=4, ratio=Ratio(3, 2), permutation=(3, 1, 4, 2), d=d)
    for d in (float("nan"), float("inf"), -0.1):
        with pytest.raises(StabilityError, match=r"diffusivity .* outside the stable range"):
            Protocol(n=4, ratio=Ratio(3, 2), permutation=(3, 1, 4, 2), d=d)


def test_iterate_records_every_step():
    proto = Protocol(n=4, ratio=Ratio(3, 2), permutation=(3, 1, 4, 2), d=0.0, t_max=5)
    rec = iterate(proto)
    assert len(rec) == 6
    assert np.array_equal(rec[0], initial_field(4, Ratio(3, 2)))
    # One manual step must agree with the recorded one.
    by_hand = shuffle_step(rec[0], cut_positions(4, Ratio(3, 2)), (3, 1, 4, 2))
    assert np.array_equal(rec[1], by_hand)


def test_iterate_is_deterministic():
    proto = Protocol(n=4, ratio=Ratio(5, 4), permutation=(2, 4, 1, 3), d=0.5, t_max=40)
    assert np.array_equal(iterate(proto), iterate(proto))


def test_diffusionless_run_permutes_sites_only():
    proto = Protocol(n=4, ratio=Ratio(3, 2), permutation=(4, 1, 3, 2), d=0.0, t_max=12)
    rec = iterate(proto)
    base = sorted(rec[0].tolist())
    for t in range(1, len(rec)):
        assert sorted(rec[t].tolist()) == base


def test_five_piece_diffusionless_run_conserves_the_norm():
    # Without diffusion the map only rearranges sites: the mixing norm is
    # frozen at its initial value while the cut count still evolves.
    proto = Protocol(n=5, ratio=Ratio(3, 2), permutation=(5, 2, 4, 1, 3), d=0.0, t_max=50)
    rec = iterate(proto)
    series = compute_series(rec)
    assert np.all(series.mixing_norm == series.mixing_norm[0])
    assert series.cut_count[0] == 4
    assert series.cut_count.max() > series.cut_count[1]
    palette = set(rec[0].tolist())
    assert len(palette) == 5
    for t in range(len(rec)):
        assert set(rec[t].tolist()) <= palette


def test_cuts_stay_at_fixed_positions():
    # After one shuffle the same absolute cut sites carve different content,
    # so two iterations differ from applying a single doubled permutation of
    # pieces; verify against an explicit two-step hand computation.
    ratio = Ratio(3, 2)
    cuts = cut_positions(4, ratio)
    c0 = initial_field(4, ratio)
    step1 = shuffle_step(c0, cuts, (3, 1, 4, 2))
    step2 = shuffle_step(step1, cuts, (3, 1, 4, 2))
    rec = iterate(Protocol(n=4, ratio=ratio, permutation=(3, 1, 4, 2), t_max=2))
    assert np.array_equal(rec[1], step1)
    assert np.array_equal(rec[2], step2)
