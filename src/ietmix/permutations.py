"""Design rules for shuffling permutations.

A shuffle order on N pieces is a bijection of {1..N} written as the tuple
(pi(1), ..., pi(N)): after the segment is cut into pieces 1..N, output
slot k receives input piece pi(k).

Orders that provably rearrange poorly are screened out by four rules:
reducible orders (a prefix of pieces only shuffles within itself),
rotations (cyclic shifts, including the identity), orders that keep the
first or last piece in place, and orders that leave a block of 2..N-2
consecutive interior pieces untouched (meaningful for N > 3 only).
"""

from __future__ import annotations

import numpy as np

Perm = tuple[int, ...]

#: Rule names as reported by :func:`violations`, in the column order of :func:`screen`.
REDUCIBLE = "reducible"
ROTATION = "rotation"
FIXED_ENDPOINT = "fixed-endpoint"
FIXED_BLOCK = "fixed-consecutive-block"
RULES = (REDUCIBLE, ROTATION, FIXED_ENDPOINT, FIXED_BLOCK)


def whole_number(value) -> int | None:
    """value as an int if it is a whole number (5 or 5.0), else None (5.5, inf, nan, "5")."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return whole if whole == value else None


def as_piece_count(n) -> int:
    """The piece count n as an int, refused unless it is a whole number in 2..9."""
    count = whole_number(n)
    if count is None or not 2 <= count <= 9:
        raise ValueError(f"piece count must be an integer in 2..9, got {n!r}")
    return count


def as_orders(orders) -> np.ndarray:
    """Orders as one checked (P, N) int64 array, each row a bijection of {1..N}.

    Integral floats such as 2.0 pass; any other entry that is not an
    integer makes its row fail. A refusal quotes the first bad row as given.
    """
    try:
        given = np.asarray(orders)
    except ValueError:  # a ragged list
        given = np.empty(0)
    if given.ndim != 2 or not len(given):
        raise ValueError("ensemble needs a nonempty list of orders, all of one length")
    with np.errstate(invalid="ignore"):  # NaN and inf cast to junk, refused below
        rows = given.astype(np.int64)
    n = rows.shape[1]
    bad = np.any(np.sort(rows, axis=1) != np.arange(1, n + 1), axis=1) | (n == 0)
    if given.dtype.kind == "f":
        bad |= np.any(rows != given, axis=1)
    if bad.any():
        raise ValueError(f"not a permutation of 1..{n}: {orders[int(bad.argmax())]!r}")
    return rows


def as_permutation(perm) -> Perm:
    """Coerce to a tuple of ints and check it is a bijection of {1..N}."""
    return tuple(as_orders((perm,))[0].tolist())


def _broken(orders: np.ndarray) -> np.ndarray:
    """The (P, 4) mask of the rules each of the (P, N) valid orders breaks.

    Reducible: {pi(1..k)} = {1..k} for some k < N, so the order splits
    into sub-shuffles that never exchange material across the split.
    A rotation has pi(k) = (k + pi(1) - 2) mod N + 1 for every k.
    A fixed block of 2..N-2 pieces always holds an adjacent fixed pair,
    and for N > 3 a pair already fits that window.
    """
    n = orders.shape[1]
    k = np.arange(1, n + 1, dtype=np.int8)
    fixed = orders == k
    return np.column_stack((
        np.any(np.maximum.accumulate(orders[:, :-1], axis=1) == k[:-1], axis=1),
        np.all(orders == (k - 2 + orders[:, :1]) % n + 1, axis=1),
        fixed[:, 0] | fixed[:, -1],
        np.any(fixed[:, :-1] & fixed[:, 1:], axis=1) & (n > 3),
    ))


def screen(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All n! orders of {1..n}, split into the allowed and the rejected.

    Returns both as (P, n) int8 arrays in lexicographic order, then the
    (P, 4) mask of the rules each rejected order breaks, in RULES order.
    The orders starting with v are those of {1..n-1}, each piece from v on one up.
    """
    orders = np.ones((1, 1), dtype=np.int8)
    for m in range(2, as_piece_count(n) + 1):
        head = np.repeat(np.arange(1, m + 1, dtype=np.int8), len(orders))[:, None]
        tail = np.tile(orders, (m, 1))
        tail += tail >= head
        orders = np.hstack((head, tail))
    broken = _broken(orders)
    allowed = ~broken.any(axis=1)  # an order is allowed when it breaks no rule
    return orders[allowed], orders[~allowed], broken[~allowed]


def violations(perm) -> tuple[str, ...]:
    """Names of every rule the order breaks; empty tuple when allowed."""
    row = _broken(as_orders((perm,)))[0]
    return tuple(name for name, broken in zip(RULES, row) if broken)


def enumerate_allowed(n: int) -> list[Perm]:
    """All allowed orders of {1..n}, in lexicographic order.

    The fixed ordering keeps ensemble averages reproducible run to run.
    """
    allowed = screen(n)[0]  # one int8 field per piece lists each row as a tuple of ints
    return allowed.view([("", np.int8)] * allowed.shape[1]).ravel().tolist()
