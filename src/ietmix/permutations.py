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

Perm = tuple[int, ...]

#: Rule names as reported by :func:`violations`.
REDUCIBLE = "reducible"
ROTATION = "rotation"
FIXED_ENDPOINT = "fixed-endpoint"
FIXED_BLOCK = "fixed-consecutive-block"


def as_permutation(perm) -> Perm:
    """Coerce to a tuple of ints and check it is a bijection of {1..N}."""
    p = tuple(int(v) for v in perm)
    if not p or sorted(p) != list(range(1, len(p) + 1)):
        raise ValueError(f"not a permutation of 1..{len(p)}: {perm!r}")
    return p


def _reducible(p: Perm) -> bool:
    """True when {pi(1..k)} = {1..k} for some k < N: the order splits into
    sub-shuffles that never exchange material across the split."""
    top = 0
    for k, v in enumerate(p[:-1], start=1):
        top = max(top, v)
        if top == k:
            return True
    return False


def _rotation(p: Perm) -> bool:
    n = len(p)
    s = p[0] - 1
    return all(p[k] == (k + s) % n + 1 for k in range(n))


def _fixed_endpoint(p: Perm) -> bool:
    return p[0] == 1 or p[-1] == len(p)


def _fixed_block(p: Perm) -> bool:
    """A fixed block of 2..N-2 pieces always holds an adjacent fixed pair,
    and for N > 3 a pair already fits that window."""
    n = len(p)
    if n <= 3:
        return False
    return any(p[i] == i + 1 and p[i + 1] == i + 2 for i in range(n - 1))


#: Each rule's name and its check on an already validated order.
_RULES = (
    (REDUCIBLE, _reducible),
    (ROTATION, _rotation),
    (FIXED_ENDPOINT, _fixed_endpoint),
    (FIXED_BLOCK, _fixed_block),
)


def violations(perm) -> tuple[str, ...]:
    """Names of every rule the order breaks; empty tuple when allowed."""
    p = as_permutation(perm)
    return tuple(name for name, broken in _RULES if broken(p))


def enumerate_allowed(n: int) -> list[Perm]:
    """All allowed orders of {1..n}, in lexicographic order.

    The fixed ordering keeps ensemble averages reproducible run to run.
    Orders are built slot by slot, each slot taking the unused pieces in
    ascending order, and a prefix is abandoned as soon as it is
    reducible (its largest piece equals its length) or, for n > 3, ends
    in an adjacent fixed pair. A fixed first or last piece always makes
    a reducible prefix, so only rotations are left to reject among the
    complete orders. The result equals filtering all n! orders with
    violations, in the same order.
    """
    if not 2 <= n <= 9:
        raise ValueError(f"piece count must be in 2..9, got {n}")
    rotations = {tuple((k + s) % n + 1 for k in range(n)) for s in range(n)}
    check_pairs = n > 3
    prefix: list[int] = []
    unused = list(range(1, n + 1))
    allowed: list[Perm] = []

    def extend(k: int, top: int) -> None:
        # k slots are filled and their largest piece is top.
        if k == n - 1:
            p = (*prefix, unused[0])
            if p not in rotations:
                allowed.append(p)
            return
        pair_ends_here = check_pairs and k > 0 and prefix[-1] == k
        for i, v in enumerate(unused):
            new_top = max(top, v)
            if new_top == k + 1 or (pair_ends_here and v == k + 1):
                continue
            prefix.append(v)
            del unused[i]
            extend(k + 1, new_top)
            unused.insert(i, v)
            prefix.pop()

    extend(0, 0)
    return allowed
