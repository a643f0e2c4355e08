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
import numbers
from dataclasses import dataclass

import numpy as np

from .diffusion import StabilityError
from .metrics import MetricSeries, check_norm_order, mixing_norm
from .permutations import Perm, as_orders, as_permutation, as_piece_count, whole_number

#: Piece lengths and the total length must stay indexable by 64-bit ints.
_MAX_LENGTH = 2**63 - 1
#: Bytes of states that evolve scores, and hands its observer, per call.
_BLOCK_BYTES = 128 * 1024
#: Bytes per piece end that cut_counts' itinerary table may take, _BLOCK_BYTES at least.
_END_BYTES = 64


class CapacityError(OverflowError):
    """Lattice lengths exceeding the 64-bit budget (no silent wraparound)."""


@dataclass(frozen=True)
class Ratio:
    """Adjacent piece-length ratio r = num/den, stored reduced, with r > 1."""

    num: int
    den: int

    def __post_init__(self):
        num, den = whole_number(self.num), whole_number(self.den)
        if num is None or den is None:
            raise ValueError(f"ratio terms must be integers, got {self.num!r}/{self.den!r}")
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
    if not isinstance(ratio, Ratio):  # "5/4", (5, 4) and 1.25 have no terms to read
        raise ValueError(f"ratio must be a Ratio, got {ratio!r}")
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
        if not isinstance(self.d, numbers.Real):  # "0.1" would pass float()
            raise ValueError(f"diffusivity must be a real number, got {self.d!r}")
        if not 0.0 <= self.d <= 0.5:  # NaN and inf too
            raise StabilityError(
                f"diffusivity {self.d} outside the stable range [0, 1/2]"
            )
        object.__setattr__(self, "d", float(self.d))
        t_max = whole_number(self.t_max)
        if t_max is None or t_max < 0:
            raise ValueError(f"t_max must be a nonnegative integer, got {self.t_max!r}")
        object.__setattr__(self, "t_max", t_max)


def _runs(block: np.ndarray, starts_mask: np.ndarray, bounds: np.ndarray):
    """Cut count and longest run of equal values of every row of block.

    starts_mask is a flat boolean buffer of block.size + 1 entries whose
    every row start and last entry are set, so no run crosses a row
    boundary and the last run has an end; bounds are the flat row starts
    0, L, ..., block.size. When every pair of neighbors differs, as in
    most states of a diffusive run, every row has L - 1 cuts and runs of
    one site, and the two are returned as those integers.
    """
    mask = starts_mask[:-1].reshape(block.shape)
    np.not_equal(block[:, 1:], block[:, :-1], out=mask[:, 1:])
    if mask.all():
        return block.shape[1] - 1, 1
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
    observe=None, runs: bool = True, norms: int = 0,
) -> MetricSeries:
    """Run every shuffle order of one (N, r, D, T_max) family at once.

    The P orders evolve as one C-contiguous (P, L) block, row k holding
    the field of permutations[k]. T = 0 is the initial field; iteration
    T shuffles and then, when D > 0, applies one diffusion sweep. The
    shuffle gathers the block through sigma (from _slots) into padded, each
    row between copies of its last and first site; the stencil of
    diffusion_step writes from shifted slices of padded back into the
    block (work is its scratch), so each row is bit-identical to
    composing shuffle_step and diffusion_step. The views these calls
    touch are built once per ring slot before the loop, not sliced anew
    each iteration: the operands and their order are the same, so every
    bit is.
    Each iteration's block is the next slot of a ring of span slots,
    span·P·L floats within _BLOCK_BYTES (a single slot when one block
    alone exceeds it), and the diagnostics of every span iterations are
    evaluated at once, along the rows of their slots, into (P, T_max+1)
    arrays, row k equal bit for bit to compute_series on the fields of
    permutations[k]. Without diffusion each state is a permutation of
    the initial field, and the norm sums sorted deviations, so the norm
    is one read-only broadcast of its T = 0 value. With runs=False the
    run scan is skipped and cut_count and percent_unmixed are None.
    norms is the first iteration whose norm is scored: mixing_norm holds
    iterations norms..T_max only, as (P, T_max+1-norms), so 0 scores
    every state and T_max + 1 none.

    observe, when given, is called once all buffers are allocated, with
    the (k·P, L) array of the k states of each such block of
    iterations, iteration-major: row j·P + i holds order i at iteration
    t0 + j. The calls cover T = 0..T_max exactly once, in order. The
    array is a view of the ring, which the kernel reuses, so an
    observer copies whatever it keeps.
    Returns one MetricSeries at norm order p holding those arrays.
    """
    n, d, t_max, orders = _orders(n, ratio, d, t_max, permutations)
    check_norm_order(p)
    if (isinstance(norms, bool) or not isinstance(norms, numbers.Integral)
            or not 0 <= norms <= t_max + 1):
        raise ValueError(f"norms must be an iteration in 0..{t_max + 1}, got {norms!r}")
    field, p = initial_field(n, ratio), float(p)
    rows, length = len(orders), field.size

    _, start, shift = _slots(n, ratio, orders)
    sigma = np.arange(rows * length) + np.repeat(shift, np.diff(start, append=length).ravel())
    if d > 0.0:  # the gather fills each row between its periodic neighbors c_{L-1} and c_0
        sigma = np.pad(sigma.reshape(rows, length), ((0, 0), (1, 1)), mode="wrap").ravel()
    span = max(1, min(t_max + 1, _BLOCK_BYTES // (8 * rows * length)))
    # Without diffusion the gather writes the next slot itself, so that ring needs two.
    ring = np.empty((span if d > 0.0 else max(span, 2), rows, length))
    ring[0] = field
    sites, lines = ring.reshape(len(ring), -1), ring.reshape(-1, length)
    scratch = np.empty((span * rows, length))  # the norms' buffer; its first P rows are work
    padded, work = np.empty((rows, length + 2)), scratch[:rows]
    counts = longest = None
    if runs:
        bounds = np.arange(span * rows + 1, dtype=np.intp) * length
        starts_mask = np.empty(scratch.size + 1, dtype=bool)
        starts_mask[bounds] = True
        counts = np.empty((rows, t_max + 1), dtype=np.int64)
        longest = np.empty((rows, t_max + 1), dtype=np.int64)

    cbar, shape = float(field.mean()), (rows, t_max + 1 - norms)
    scores = (np.empty(shape) if d > 0.0  # without diffusion, one read-only value
              else np.broadcast_to(mixing_norm(field, cbar, p), shape))
    # Every view an iteration touches, built once per slot rather than sliced anew
    # each step: the previous slot's flat sites, the gather's target, and the block.
    views = [(sites[s - 1], padded.reshape(-1) if d > 0.0 else sites[s], ring[s])
             for s in range(len(ring))]
    # c_i, c_{i+1} and c_{i-1} are slices of padded, closed periodically by the gather.
    own, right, left = padded[:, 1:-1], padded[:, 2:], padded[:, :-2]
    for t in range(t_max + 1):
        slot = t % len(ring)
        if t > 0:
            prev, target, block = views[slot]
            prev.take(sigma, out=target, mode="clip")  # sigma is always in range
            if d == 0.5:
                np.add(right, left, out=block)
                np.multiply(block, 0.5, out=block)
            elif d > 0.0:
                np.subtract(right, own, out=block)
                np.subtract(left, own, out=work)
                np.add(block, work, out=block)
                np.add(own, np.multiply(block, d, out=block), out=block)
        k = t % span + 1  # states in this block so far, T = t included
        if k < span and t < t_max:
            continue
        # The k slots' rows, iteration-major, from iteration t0, and their columns of the series.
        t0 = t + 1 - k
        states, done = lines[(slot + 1 - k) * rows : (slot + 1) * rows], slice(t0, t + 1)
        if observe is not None:
            observe(states)
        if runs:
            counts.T[done].flat, longest.T[done].flat = _runs(
                states, starts_mask[: states.size + 1], bounds[: len(states) + 1])
        scored = max(t0, norms)  # the block's first iteration whose norm is scored
        if d > 0.0 and scored <= t:
            part = states[(scored - t0) * rows :]
            scores.T[scored - norms : t + 1 - norms].flat = _norms(part, scratch[: len(part)],
                                                                    cbar, p)
    return MetricSeries(counts, None if longest is None else 100.0 * longest / length,
                        scores, p, cbar)


def _itinerary(starts: np.ndarray, shift: np.ndarray, piece: np.ndarray, end: int, k: int):
    """The partition of the rows on which k successive shuffles act as one translation.

    starts, shift and piece are _slots' table laid end to end, the rows
    ending at site end: the one-step table. Each doubling cuts every
    interval's image, x + shift, at the table's own starts, so each piece
    of it runs through the same slots for twice the steps. Returns the
    interval starts, the shift of k steps, and each interval's itinerary,
    the piece met at steps 1..k, as one k-byte void per interval.
    """
    steps = piece.astype(np.int8).view("V1")
    while steps.itemsize < k:
        image = starts + shift
        first = starts.searchsorted(image, side="right") - 1
        spans = starts.searchsorted(np.append(starts[1:], end) + shift) - first
        # j is the interval of the table that each piece of an image lies in.
        j = np.arange(spans.sum()) - np.repeat(np.cumsum(spans) - spans - first, spans)
        pair = np.stack((np.repeat(steps, spans), steps.take(j)), axis=1)
        steps = pair.view(np.dtype((np.void, pair.itemsize * 2))).ravel()
        moved = np.repeat(shift, spans)
        starts = np.maximum(np.repeat(image, spans), starts.take(j)) - moved
        shift = moved + shift.take(j)
    return starts, shift, steps


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
    The ends move k iterations a pass, through _itinerary's table: every
    site of one of its intervals meets the same pieces for k steps, so the
    interval an end lies in gives its next k colors at once. k is the
    largest power of two below t_max whose table, about P (k (N-1) + 1)
    intervals of k + 16 bytes, fits in _END_BYTES per end or _BLOCK_BYTES,
    whichever is more.
    """
    n, _, t_max, orders = _orders(n, ratio, 0.0, t_max, permutations)
    piece, start, shift = _slots(n, ratio, orders)
    bounds = np.concatenate(([0], np.cumsum(subsegment_lengths(n, ratio))))
    offsets = np.arange(len(piece))[:, None] * bounds[-1]  # the rows lie end to end
    # Ends 0..N-1 are the first sites of the pieces, N..2N-1 their last.
    pos = (np.concatenate((bounds[:-1], bounds[1:] - 1)) + offsets).ravel()
    # At T = 0 each end holds its own piece: one column of labels, as 1-byte voids.
    labels = (np.arange(pos.size) % n).astype(np.int8).view("V1")
    # A row of seams lists order k's pieces, then the identity's, as flat label indices;
    # each neighbor pair in it meets at a seam: ends[0] indexes the last end of the left
    # piece, ends[1] the first end of the right. The order's seams make a pair, the
    # identity's (the fixed cuts) lose one, and the pair across the two lists is none.
    seams = np.hstack((piece, piece * 0 + np.arange(n))) + np.arange(0, pos.size, 2 * n)[:, None]
    ends = np.stack((seams[:, :-1] + n, seams[:, 1:]))
    weight = np.repeat(np.int8([1, 0, -1]), [n - 1, 1, n - 1])  # |made - lost| < N
    budget, k = max(_BLOCK_BYTES, _END_BYTES * pos.size), 1
    while 2 * k < t_max and len(piece) * (2 * k * (n - 1) + 1) * (2 * k + 16) <= budget:
        k *= 2
    starts, shift, steps = _itinerary((start + offsets).ravel(), shift.ravel(), piece.ravel(),
                                      len(piece) * bounds[-1], k)
    inner = starts[1:]  # a right-sided search of them gives the interval itself
    counts = np.full((len(piece), t_max + 1), n - 1, dtype=np.int64)  # C(0) = N - 1
    t = 1
    while t <= t_max:  # columns t.. take made - lost, C(t) - C(t - 1), one per label
        pairs = labels.take(ends).view(np.int8).reshape(ends.shape + (-1,))
        differ = np.not_equal(*pairs)[..., : t_max + 1 - t].view(np.int8)
        np.matmul(weight, differ, out=counts[:, t : t + differ.shape[-1]])
        t += differ.shape[-1]
        if t <= t_max:
            slot = inner.searchsorted(pos, side="right")
            labels = steps.take(slot)
            pos += shift.take(slot)
    return np.cumsum(counts, axis=1, out=counts)


def iterate(protocol: Protocol) -> np.ndarray:
    """Every field of one run, T = 0..t_max, as a (t_max+1, L) array.

    The kernel runs with the single order and an observer collects each
    state; equal protocols give bit-identical fields.
    """
    fields = np.empty((protocol.t_max + 1, total_length(protocol.n, protocol.ratio)))
    filled = 0

    def observe(block):  # one order: a row per iteration
        nonlocal filled
        fields[filled : filled + len(block)] = block
        filled += len(block)

    evolve(protocol.n, protocol.ratio, protocol.d, protocol.t_max, [protocol.permutation],
           observe=observe)
    return fields
