"""Integer-lattice line segment and its cut-and-shuffle dynamics.

The segment is an array of L color values, one per lattice site. It is
cut at fixed positions into N pieces whose lengths grow by a constant
rational ratio r = r_n/r_d > 1 between neighbors. Scaling the first
piece to xi = r_d^(N-1) sites makes every piece length the exact integer
r_n^(j-1) * r_d^(N-j), so cuts always fall between sites and a shuffle
is an exact permutation of sites: no material is created or lost, ever.

One iteration of the dynamics is shuffle first, then one diffusion sweep
(skipped when D = 0); the state is recorded after the full iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diffusion import StabilityError
from .metrics import MetricSeries, mixing_norm
from .permutations import Perm, as_orders, as_permutation, as_piece_count

#: Piece lengths and the total length must stay indexable by 64-bit ints.
_MAX_LENGTH = 2**63 - 1


class CapacityError(OverflowError):
    """Lattice lengths exceeding the 64-bit budget (no silent wraparound)."""


@dataclass(frozen=True)
class Ratio:
    """Adjacent piece-length ratio r = num/den, stored reduced, with r > 1."""

    num: int
    den: int

    def __post_init__(self):
        num, den = int(self.num), int(self.den)
        if num <= 0 or den <= 0:
            raise ValueError(f"ratio terms must be positive, got {num}/{den}")
        g = math.gcd(num, den)
        object.__setattr__(self, "num", num // g)
        object.__setattr__(self, "den", den // g)
        if self.num <= self.den:
            raise ValueError(f"ratio must exceed 1, got {num}/{den}")

    @classmethod
    def parse(cls, text: str) -> "Ratio":
        """Parse 'a/b'. Fractions only: a float literal would smuggle in an
        implicit, surprising rational reconstruction."""
        try:
            num, den = (int(term) for term in text.split("/"))
        except ValueError:
            raise ValueError(f"ratio must be a fraction a/b, got {text!r}") from None
        return cls(num, den)

    def __float__(self) -> float:
        return self.num / self.den

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


def subsegment_lengths(n: int, ratio: Ratio) -> np.ndarray:
    """Integer piece lengths xi * r^(j-1) for j = 1..N, xi = r_d^(N-1).

    Evaluated exactly as r_n^(j-1) * r_d^(N-j) in arbitrary-precision
    integers; the shared scale makes every entry integral and the entries
    coprime as a set. Totals beyond the 64-bit budget raise CapacityError
    instead of degrading to floats.
    """
    n = as_piece_count(n)
    lengths = [ratio.num**j * ratio.den ** (n - 1 - j) for j in range(n)]
    if sum(lengths) > _MAX_LENGTH:
        raise CapacityError(
            f"total lattice length {sum(lengths)} exceeds 64-bit capacity "
            f"(n={n}, r={ratio})"
        )
    return np.array(lengths, dtype=np.int64)


def total_length(n: int, ratio: Ratio) -> int:
    """Total site count L, the sum of the N piece lengths."""
    return int(subsegment_lengths(n, ratio).sum())


def initial_field(n: int, ratio: Ratio) -> np.ndarray:
    """Piecewise-constant start state: piece j carries color (j-1)/(N-1)."""
    lengths = subsegment_lengths(n, ratio)
    colors = np.arange(n, dtype=np.float64) / (n - 1)
    return np.repeat(colors, lengths)


def cut_positions(n: int, ratio: Ratio) -> np.ndarray:
    """The N-1 interior cut sites: cumulative piece lengths short of L."""
    return np.cumsum(subsegment_lengths(n, ratio))[:-1]


def _piece_bounds(length: int, cuts) -> np.ndarray:
    cuts = np.asarray(cuts, dtype=np.int64)
    if cuts.ndim != 1:
        raise ValueError("cuts must be a one-dimensional integer array")
    if cuts.size and (
        cuts[0] <= 0 or cuts[-1] >= length or np.any(np.diff(cuts) <= 0)
    ):
        raise ValueError(
            f"cut positions must be strictly increasing inside (0, {length})"
        )
    return np.concatenate(([0], cuts, [length]))


def shuffle_step(field, cuts, permutation) -> np.ndarray:
    """Cut the field at the given positions and reassemble the pieces.

    Output slot k is filled by input piece permutation[k]: with pieces
    P_1..P_N delimited by the cuts, the result is the concatenation
    P_pi(1), P_pi(2), ..., P_pi(N). A pure rearrangement: the output
    holds the same multiset of values in a different order.
    """
    c = np.asarray(field)
    if c.ndim != 1:
        raise ValueError("field must be one-dimensional")
    bounds = _piece_bounds(c.size, cuts)
    perm = as_permutation(permutation)
    if len(perm) != bounds.size - 1:
        raise ValueError(
            f"permutation acts on {len(perm)} pieces but cuts define {bounds.size - 1}"
        )
    return np.concatenate([c[bounds[j - 1] : bounds[j]] for j in perm])


@dataclass(frozen=True)
class Protocol:
    """Complete recipe for one run: pieces, ratio, order, diffusivity, budget."""

    n: int
    ratio: Ratio
    permutation: Perm
    d: float = 0.0
    t_max: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n", as_piece_count(self.n))
        perm = as_permutation(self.permutation)
        if len(perm) != self.n:
            raise ValueError(f"permutation {perm} does not act on {self.n} pieces")
        object.__setattr__(self, "permutation", perm)
        if not 0.0 <= self.d <= 0.5:
            raise StabilityError(
                f"diffusivity {self.d} outside the stable range [0, 1/2]"
            )
        object.__setattr__(self, "d", float(self.d))
        if int(self.t_max) != self.t_max or self.t_max < 0:
            raise ValueError(f"t_max must be a nonnegative integer, got {self.t_max}")
        object.__setattr__(self, "t_max", int(self.t_max))


def _gather(flat: np.ndarray, index: np.ndarray, out: np.ndarray) -> None:
    """out[...] = flat[index] without allocating; index is always in range."""
    np.take(flat, index, out=out.reshape(-1), mode="clip")


def _runs(block: np.ndarray, starts_mask: np.ndarray, bounds: np.ndarray):
    """Cut count and longest run of equal values of every row of block.

    starts_mask is a flat boolean buffer of block.size + 1 entries whose
    every row start and last entry are set, so no run crosses a row
    boundary and the last run has an end; bounds are the flat row starts
    0, L, ..., P * L.
    """
    mask = starts_mask[:-1].reshape(block.shape)
    np.not_equal(block[:, 1:], block[:, :-1], out=mask[:, 1:])
    starts = np.flatnonzero(starts_mask)
    heads = np.searchsorted(starts, bounds)  # each row's first run, then the end
    longest = np.maximum.reduceat(starts[1:] - starts[:-1], heads[:-1])
    return heads[1:] - heads[:-1] - 1, longest


def _norms(block: np.ndarray, work: np.ndarray, cbar: float, p: float) -> list[float]:
    """metrics.mixing_norm of every row of block, bit for bit.

    Each row's sorted deviations are summed along the row; the final
    root is Python float pow, since np.power on arrays can differ from
    the scalar pow of the single-field metric by one ulp.
    """
    dev = np.subtract(block, cbar, out=work)
    # x * x equals |x| * |x| in IEEE arithmetic, so p = 2 skips the abs pass.
    powed = np.multiply(dev, dev, out=work) if p == 2 else np.abs(dev, out=work) ** p
    powed.sort(axis=1)
    return [s ** (1.0 / p) for s in (powed.sum(axis=1) / block.shape[1]).tolist()]


def _orders(n: int, ratio: Ratio, d: float, t_max: int, permutations):
    """N, D and T_max, checked by one Protocol, and the orders, checked at once, as (P, N) int64."""
    orders = as_orders(permutations)
    checked = Protocol(n=n, ratio=ratio, permutation=orders[0].tolist(), d=d, t_max=t_max)
    return checked.n, checked.d, checked.t_max, orders


def _slots(n: int, ratio: Ratio, orders: np.ndarray):
    """The shuffle of every order as N translated slots, three (P, N) arrays.

    Slot s of order k starts at site start[k, s] and holds piece piece[k, s] =
    orders[k, s] - 1: a site x there holds what sat at x + shift[k, s] before the
    shuffle. The P rows laid end to end must stay indexable by 64-bit ints.
    """
    lengths = subsegment_lengths(n, ratio)
    if len(orders) * int(lengths.sum()) > _MAX_LENGTH:
        raise CapacityError(f"{len(orders)} orders of length {int(lengths.sum())} "
                            f"exceed 64-bit capacity (n={n}, r={ratio})")
    piece = orders - 1
    start = np.cumsum(lengths[piece], axis=1) - lengths[piece]
    return piece, start, (np.cumsum(lengths) - lengths)[piece] - start


def evolve(
    n: int, ratio: Ratio, d: float, t_max: int, permutations, p: float = 2.0,
    observe=None, runs: bool = True,
) -> MetricSeries:
    """Run every shuffle order of one (N, r, D, T_max) family at once.

    The P orders evolve as one C-contiguous (P, L) block, row k holding
    the field of permutations[k]. T = 0 is the initial field; iteration
    T shuffles and then, when D > 0, applies one diffusion sweep. The
    shuffle gathers the block into own through sigma (from _slots); the stencil
    of diffusion_step writes from shifted slices of own back into the
    block (work is its scratch), so each row is bit-identical to
    composing shuffle_step and diffusion_step.
    The diagnostics of every iteration are evaluated along rows into
    (P, T_max+1) arrays, row k equal bit for bit to compute_series on
    the fields of permutations[k]. Without diffusion each state is a
    permutation of the initial field, and the norm sums sorted
    deviations, so the norm is evaluated once at T = 0. With runs=False
    the run scan is skipped and cut_count and percent_unmixed are None.

    observe, when given, is called with the (P, L) block after every
    iteration, T = 0 first, once all buffers are allocated. The block is
    a buffer the kernel reuses, so an observer copies whatever it keeps.
    Returns one MetricSeries at norm order p holding those arrays.
    """
    n, d, t_max, orders = _orders(n, ratio, d, t_max, permutations)
    if not 1.0 <= p < math.inf:
        raise ValueError(f"norm order must be a finite p >= 1, got {p}")
    field, p = initial_field(n, ratio), float(p)
    rows, length = len(orders), field.size

    _, start, shift = _slots(n, ratio, orders)
    sigma = np.arange(rows * length) + np.repeat(shift, np.diff(start, append=length).ravel())
    block = np.empty((rows, length))
    block[:] = field
    own, work = np.empty_like(block), np.empty_like(block)
    counts = longest = None
    if runs:
        bounds = np.arange(rows + 1, dtype=np.intp) * length
        starts_mask = np.empty(block.size + 1, dtype=bool)
        starts_mask[bounds] = True
        counts = np.empty((rows, t_max + 1), dtype=np.int64)
        longest = np.empty((rows, t_max + 1), dtype=np.int64)

    norms = np.empty((rows, t_max + 1))
    cbar = float(field.mean())
    if d == 0.0:
        norms[:] = mixing_norm(field, cbar, p)
    for t in range(t_max + 1):
        if t > 0:
            _gather(block.reshape(-1), sigma, own)
            # c_{i+1} and c_{i-1} are shifted slices of own, closed periodically.
            if d == 0.5:
                np.add(own[:, 2:], own[:, :-2], out=block[:, 1:-1])
                np.add(own[:, 1], own[:, -1], out=block[:, 0])
                np.add(own[:, 0], own[:, -2], out=block[:, -1])
                np.multiply(block, 0.5, out=block)
            elif d > 0.0:
                np.subtract(own[:, 1:], own[:, :-1], out=block[:, :-1])
                np.subtract(own[:, 0], own[:, -1], out=block[:, -1])
                np.subtract(own[:, :-1], own[:, 1:], out=work[:, 1:])
                np.subtract(own[:, -1], own[:, 0], out=work[:, 0])
                np.add(block, work, out=block)
                np.add(own, np.multiply(block, d, out=block), out=block)
            else:
                block, own = own, block
        if observe is not None:
            observe(block)
        if runs:
            counts[:, t], longest[:, t] = _runs(block, starts_mask, bounds)
        if d > 0.0:
            norms[:, t] = _norms(block, work, cbar, p)
    return MetricSeries(counts, None if longest is None else 100.0 * longest / length,
                        norms, p, cbar)


def cut_counts(n: int, ratio: Ratio, t_max: int, permutations) -> np.ndarray:
    """Diffusion-free cut count of every order, as a (P, t_max+1) int64 array.

    Equal to evolve(n, ratio, 0.0, t_max, permutations).cut_count, at a
    cost of O(N) per order and iteration instead of O(L). An interface
    inside a piece moves with that piece, so a shuffle destroys only the
    N-1 site pairs across the cuts, and makes one pair at each of the
    N-1 seams of the new order, where the end of piece q[k-1] meets the
    start of piece q[k]: C(T+1) = C(T) - lost(T) + made(T). Both terms
    read the colors at the 2N piece-end sites. Site x holds at T what
    sat at sigma^T(x) at T = 0, and pieces start with distinct colors, so
    each end's orbit is followed through the slots of _slots: the slot an
    end lies in names the piece it reaches, and its shift moves it there.
    """
    n, _, t_max, orders = _orders(n, ratio, 0.0, t_max, permutations)
    piece, start, shift = _slots(n, ratio, orders)
    bounds = np.concatenate(([0], np.cumsum(subsegment_lengths(n, ratio))))
    offsets = np.arange(len(piece))[:, None] * bounds[-1]  # the rows lie end to end
    # Ends 0..N-1 are the first sites of the pieces, N..2N-1 their last.
    pos = (np.concatenate((bounds[:-1], bounds[1:] - 1)) + offsets).ravel()
    labels = np.arange(pos.size) % n  # at T = 0 each end holds its own piece
    # A row of seams lists order k's pieces, then the identity's, as flat label indices;
    # each neighbor pair in it meets at a seam: ends[0] indexes the last end of the left
    # piece, ends[1] the first end of the right. The order's seams make a pair, the
    # identity's (the fixed cuts) lose one, and the pair across the two lists is none.
    seams = np.hstack((piece, piece * 0 + np.arange(n))) + np.arange(0, pos.size, 2 * n)[:, None]
    ends = np.stack((seams[:, :-1] + n, seams[:, 1:]))
    del seams  # the loop keeps only ends
    weight = np.repeat([1, 0, -1], [n - 1, 1, n - 1])
    # A right-sided search gives 1 + the slot, so piece and shift lead with a pad.
    starts, slot_shift = (start + offsets).ravel(), np.pad(shift.ravel(), (1, 0))
    slot_piece = np.pad(piece.ravel(), (1, 0))
    counts = np.full((len(piece), t_max + 1), n - 1, dtype=np.int64)  # C(0) = N - 1
    for t in range(1, t_max + 1):  # column t takes made - lost, C(t) - C(t - 1)
        np.matmul(np.not_equal(*labels.take(ends)), weight, out=counts[:, t])
        if t < t_max:
            slot = starts.searchsorted(pos, side="right")
            labels = slot_piece.take(slot)
            pos += slot_shift.take(slot)
    return np.cumsum(counts, axis=1, out=counts)


def iterate(protocol: Protocol) -> np.ndarray:
    """Every field of one run, T = 0..t_max, as a (t_max+1, L) array.

    The kernel runs with the single order and an observer collects each
    state; equal protocols give bit-identical fields.
    """
    fields = np.empty((protocol.t_max + 1, total_length(protocol.n, protocol.ratio)))
    rows = iter(fields)

    def observe(block):
        next(rows)[:] = block[0]

    evolve(protocol.n, protocol.ratio, protocol.d, protocol.t_max, [protocol.permutation],
           observe=observe)
    return fields
