"""Shuffle-order design rules: screening, naming, enumeration."""

import hashlib
import itertools

import pytest
from hypothesis import given, strategies as st

from ietmix import (
    enumerate_allowed,
    has_fixed_consecutive_block,
    has_fixed_endpoint,
    is_allowed,
    is_irreducible,
    is_rotation,
    violations,
)
from ietmix.permutations import as_permutation

# The complete allowed set for four pieces, in lexicographic order.
NINE_ALLOWED = [
    (2, 4, 1, 3),
    (2, 4, 3, 1),
    (3, 1, 4, 2),
    (3, 2, 4, 1),
    (3, 4, 2, 1),
    (4, 1, 3, 2),
    (4, 2, 1, 3),
    (4, 3, 1, 2),
    (4, 3, 2, 1),
]


def test_as_permutation_coerces_and_validates():
    assert as_permutation([3, 1, 2]) == (3, 1, 2)
    assert as_permutation((1.0, 2.0)) == (1, 2)
    for bad in ([], [1, 1], [0, 1, 2], [2, 3], [1, 2, 4]):
        with pytest.raises(ValueError):
            as_permutation(bad)


def test_irreducible_prefix_rule():
    # (2, 1, 4, 3) splits after the second piece: {2, 1} maps onto itself.
    assert not is_irreducible((2, 1, 4, 3))
    assert not is_irreducible((1, 3, 2, 4))
    assert is_irreducible((3, 1, 4, 2))
    assert is_irreducible((2, 4, 1, 3))


def test_rotation_covers_identity_and_all_shifts():
    shifts = [(1, 2, 3, 4), (2, 3, 4, 1), (3, 4, 1, 2), (4, 1, 2, 3)]
    for p in shifts:
        assert is_rotation(p)
    assert not is_rotation((2, 4, 1, 3))
    # For two pieces the swap is the shift s=1, so nothing survives the rule.
    assert is_rotation((2, 1))


def test_fixed_endpoints():
    assert has_fixed_endpoint((1, 3, 4, 2))
    assert has_fixed_endpoint((2, 3, 1, 4))
    assert not has_fixed_endpoint((3, 2, 4, 1))


def test_fixed_consecutive_block():
    assert has_fixed_consecutive_block((4, 2, 3, 1))
    assert not has_fixed_consecutive_block((3, 2, 4, 1))  # lone fixed piece is fine
    # Below four pieces the 2..N-2 window is empty.
    assert not has_fixed_consecutive_block((1, 2, 3))
    assert not has_fixed_consecutive_block((2, 1))


def test_violations_name_the_rule():
    assert violations((2, 1, 4, 3)) == ("reducible",)
    assert violations((2, 3, 4, 1)) == ("rotation",)
    assert violations((4, 2, 3, 1)) == ("fixed-consecutive-block",)
    assert violations((1, 2, 3, 4)) == (
        "reducible", "rotation", "fixed-endpoint", "fixed-consecutive-block",
    )
    assert violations((3, 1, 4, 2)) == ()


def test_enumerate_allowed_four_pieces():
    assert enumerate_allowed(4) == NINE_ALLOWED
    assert all(is_allowed(p) for p in NINE_ALLOWED)


def test_enumerate_allowed_small_counts():
    assert enumerate_allowed(2) == []
    assert enumerate_allowed(3) == [(3, 2, 1)]


def test_enumerate_allowed_bounds():
    with pytest.raises(ValueError):
        enumerate_allowed(1)
    with pytest.raises(ValueError):
        enumerate_allowed(10)


@given(st.integers(min_value=2, max_value=7), st.data())
def test_allowed_iff_no_violation(n, data):
    perm = data.draw(st.permutations(range(1, n + 1)))
    perm = tuple(perm)
    broken = violations(perm)
    assert is_allowed(perm) == (not broken)
    if is_rotation(perm):
        assert "rotation" in broken
    if is_allowed(perm):
        assert perm[0] != 1 and perm[-1] != n


@given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=6))
def test_every_cyclic_shift_is_rejected(n, s):
    perm = tuple((k + s) % n + 1 for k in range(n))
    assert is_rotation(perm)
    assert not is_allowed(perm)


def test_allowed_sets_grow_with_piece_count():
    counts = [len(enumerate_allowed(n)) for n in range(2, 7)]
    assert counts == sorted(counts)
    # Every allowed order must be a genuine permutation of 1..n.
    for n in range(2, 7):
        for p in enumerate_allowed(n):
            assert sorted(p) == list(range(1, n + 1))


def test_enumeration_agrees_with_filter():
    # The pruned generator against the plain filter over all n! orders.
    for n in range(2, 9):
        brute = [p for p in itertools.permutations(range(1, n + 1)) if is_allowed(p)]
        assert enumerate_allowed(n) == brute


def test_enumerate_allowed_nine_pieces():
    allowed = enumerate_allowed(9)
    assert len(allowed) == 255_276
    assert allowed[0] == (2, 3, 4, 5, 6, 7, 9, 1, 8)
    assert allowed[-1] == (9, 8, 7, 6, 5, 4, 3, 2, 1)
    # Digest of the list the plain filter over all 9! orders returns (8 s).
    assert hashlib.sha256(repr(allowed).encode()).hexdigest() == (
        "d94e8f7b7e02dec12ef2b0cad4ecfcdac6f56ec76f5e248f19d612e79a6f456e"
    )


def test_violations_validates_its_input():
    with pytest.raises(ValueError):
        violations((1, 1, 2))
    with pytest.raises(ValueError):
        is_rotation((0, 1))
