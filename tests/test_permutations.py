"""Shuffle-order design rules: screening, naming, enumeration."""

import hashlib
import itertools

import pytest
from hypothesis import given, strategies as st

from ietmix.permutations import as_permutation, enumerate_allowed, violations

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
    for bad in ([], [1, 1], [0, 1, 2], [2, 3], [1, 2, 4], (2.5, 4, 1, 3.9)):
        with pytest.raises(ValueError):
            as_permutation(bad)


def breaks(rule, perm):
    return rule in violations(perm)


def test_irreducible_prefix_rule():
    # (2, 1, 4, 3) splits after the second piece: {2, 1} maps onto itself.
    assert breaks("reducible", (2, 1, 4, 3))
    assert breaks("reducible", (1, 3, 2, 4))
    assert not breaks("reducible", (3, 1, 4, 2))
    assert not breaks("reducible", (2, 4, 1, 3))


def test_rotation_covers_identity_and_all_shifts():
    shifts = [(1, 2, 3, 4), (2, 3, 4, 1), (3, 4, 1, 2), (4, 1, 2, 3)]
    for p in shifts:
        assert breaks("rotation", p)
    assert not breaks("rotation", (2, 4, 1, 3))
    # For two pieces the swap is the shift s=1, so nothing survives the rule.
    assert breaks("rotation", (2, 1))


def test_fixed_endpoints():
    assert breaks("fixed-endpoint", (1, 3, 4, 2))
    assert breaks("fixed-endpoint", (2, 3, 1, 4))
    assert not breaks("fixed-endpoint", (3, 2, 4, 1))


def test_fixed_consecutive_block():
    assert breaks("fixed-consecutive-block", (4, 2, 3, 1))
    assert not breaks("fixed-consecutive-block", (3, 2, 4, 1))  # lone fixed piece is fine
    # Below four pieces the 2..N-2 window is empty.
    assert not breaks("fixed-consecutive-block", (1, 2, 3))
    assert not breaks("fixed-consecutive-block", (2, 1))


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
    assert all(violations(p) == () for p in NINE_ALLOWED)


def test_enumerate_allowed_small_counts():
    assert enumerate_allowed(2) == []
    assert enumerate_allowed(3) == [(3, 2, 1)]


def test_enumerate_allowed_bounds():
    for n in (1, 10, 4.5, "4"):
        with pytest.raises(ValueError):
            enumerate_allowed(n)


@given(st.integers(min_value=2, max_value=7), st.data())
def test_allowed_iff_no_violation(n, data):
    perm = tuple(data.draw(st.permutations(range(1, n + 1))))
    broken = violations(perm)
    assert (perm in enumerate_allowed(n)) == (not broken)
    if not broken:
        assert perm[0] != 1 and perm[-1] != n


@given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=6))
def test_every_cyclic_shift_is_rejected(n, s):
    perm = tuple((k + s) % n + 1 for k in range(n))
    assert breaks("rotation", perm)


def test_allowed_sets_grow_with_piece_count():
    counts = [len(enumerate_allowed(n)) for n in range(2, 7)]
    assert counts == sorted(counts)
    # Every allowed order must be a genuine permutation of 1..n.
    for n in range(2, 7):
        for p in enumerate_allowed(n):
            assert sorted(p) == list(range(1, n + 1))


def plainly_allowed(p):
    """The four rules stated on their own, one order at a time (p[k - 1] = pi(k))."""
    n = len(p)
    fixed = [v == k for k, v in enumerate(p, 1)]
    return not (
        fixed[0] or fixed[-1]  # a fixed endpoint
        or p == tuple((k + p[0] - 1) % n + 1 for k in range(n))  # a cyclic shift
        or any(max(p[:k]) == k for k in range(1, n))  # the first k pieces are 1..k
        # a block of 2..n-2 consecutive interior pieces left in place
        or any(all(fixed[i:i + m]) for m in range(2, n - 1) for i in range(1, n - m))
    )


def test_enumeration_agrees_with_filter():
    # The renumbered n! orders, screened at once, against itertools' orders
    # filtered one by one by the rules written out above.
    for n in range(2, 9):
        brute = [p for p in itertools.permutations(range(1, n + 1)) if plainly_allowed(p)]
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
    for bad in ((1, 1, 2), (0, 1)):
        with pytest.raises(ValueError):
            violations(bad)
