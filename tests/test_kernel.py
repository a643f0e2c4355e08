"""The batched ensemble kernel against the one-field reference path.

lattice.evolve runs every shuffle order of an ensemble as one block.
Here each order is re-run on its own by composing shuffle_step and
diffusion_step, scored field by field with compute_series, and the two
must agree bit for bit, averages included. lattice.cut_counts, the
diffusion-free cut counts that follow only the piece ends, must agree
bit for bit with the kernel's.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ietmix import lattice
from ietmix.diffusion import diffusion_step
from ietmix.lattice import (
    CapacityError,
    Protocol,
    Ratio,
    cut_counts,
    cut_positions,
    evolve,
    initial_field,
    iterate,
    shuffle_step,
)
from ietmix.metrics import compute_series
from ietmix.permutations import enumerate_allowed
from ietmix.runner import run_ensemble

METRICS = ("cut_count", "percent_unmixed", "mixing_norm", "mean_subseg_len")


def reference_fields(protocol):
    cuts = cut_positions(protocol.n, protocol.ratio)
    field = initial_field(protocol.n, protocol.ratio)
    fields = [field]
    for _ in range(protocol.t_max):
        field = shuffle_step(field, cuts, protocol.permutation)
        if protocol.d > 0.0:
            field = diffusion_step(field, protocol.d)
        fields.append(field)
    return np.array(fields)


def assert_same_series(got, want):
    for name in ("t",) + METRICS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert (got.p, got.cbar) == (want.p, want.cbar)


# n = 3, 4, 5 have 1, 9 and 62 allowed orders; L = 151, 1484, 13981 at
# r = 9/5 and 399, 6187 at r = 13/10. Runs are short so the per-order
# reference stays cheap; n = 5 covers rows longer than NumPy's
# 8192-element reduction blocks.
@pytest.mark.parametrize("d", [0.0, 0.1, 0.5])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("n, ratio, t_max", [
    (3, Ratio(9, 5), 60),
    (4, Ratio(9, 5), 60),
    (5, Ratio(9, 5), 12),
    (3, Ratio(13, 10), 60),
    (4, Ratio(13, 10), 40),
])
def test_ensemble_matches_the_reference_path(n, ratio, t_max, d, p):
    orders = enumerate_allowed(n)
    want = [
        compute_series(reference_fields(
            Protocol(n=n, ratio=ratio, permutation=q, d=d, t_max=t_max)), p)
        for q in orders
    ]
    got = evolve(n, ratio, d, t_max, orders, p=p)
    assert np.array_equal(got.t, want[0].t)
    assert (got.p, got.cbar) == (want[0].p, want[0].cbar)
    for name in METRICS:
        assert getattr(got, name).shape == (len(want), t_max + 1), name
        for k, ref in enumerate(want):
            assert np.array_equal(getattr(got, name)[k], getattr(ref, name)), (name, k)

    # Without diffusion the ensemble takes its cut counts from cut_counts
    # and carries no percent unmixed.
    ens = run_ensemble(n, ratio, d, t_max, p=p)
    assert np.array_equal(ens.permutations, orders)
    assert (ens.series.p, ens.series.cbar) == (got.p, got.cbar)
    carried = METRICS if d > 0.0 else tuple(m for m in METRICS if m != "percent_unmixed")
    for name in carried:
        assert np.array_equal(getattr(ens.series, name), getattr(got, name)), name
    if d == 0.0:
        assert ens.series.percent_unmixed is None
    assert np.array_equal(ens.avg_norm, np.mean([s.mixing_norm for s in want], axis=0))
    assert np.array_equal(ens.avg_cut, np.mean([s.cut_count for s in want], axis=0))
    assert np.array_equal(ens.avg_subseg,
                          np.mean([s.mean_subseg_len for s in want], axis=0))


@pytest.mark.parametrize("d", [0.0, 0.1, 0.5])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_skipping_the_run_scan_keeps_the_norms(d, p):
    orders = enumerate_allowed(4)
    full = evolve(4, Ratio(9, 5), d, 60, orders, p=p)
    bare = evolve(4, Ratio(9, 5), d, 60, orders, p=p, runs=False)
    assert bare.cut_count is None and bare.percent_unmixed is None
    assert bare.mean_subseg_len is None
    assert np.array_equal(bare.mixing_norm, full.mixing_norm)
    assert (bare.p, bare.cbar) == (full.p, full.cbar)
    ens = run_ensemble(4, Ratio(9, 5), d, 60, p=p, runs=False)
    assert ens.avg_cut is None and ens.avg_subseg is None
    assert np.array_equal(ens.series.mixing_norm, full.mixing_norm)


# Every order of n = 2..5, reducible ones and the identity included, at
# T = 0, 1, 7 and 200, checked against the prefixes of one dense run.
# At n = 5 and r = 13/10 (120 orders, L = 90,431) one dense float array
# of all orders takes 87 MB, and 200 dense iterations of them about 5 s,
# so the dense run there goes to T = 7 in blocks of 30 orders, and to
# T = 200 for every tenth order.
@pytest.mark.parametrize("ratio", [Ratio(2, 1), Ratio(3, 2), Ratio(9, 5), Ratio(13, 10)],
                         ids=str)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cut_counts_match_the_dense_kernel(n, ratio):
    orders = list(itertools.permutations(range(1, n + 1)))
    if (n, ratio) == (5, Ratio(13, 10)):
        blocks = [(orders[k:k + 30], 7) for k in range(0, len(orders), 30)]
        blocks.append((orders[::10], 200))
    else:
        blocks = [(orders, 200)]
    for block, top in blocks:
        dense = evolve(n, ratio, 0.0, top, block).cut_count
        for t_max in (0, 1, 7, 200):
            if t_max <= top:
                got = cut_counts(n, ratio, t_max, block)
                assert got.dtype == np.int64 and got.shape == (len(block), t_max + 1)
                assert np.array_equal(got, dense[:, :t_max + 1]), t_max


@st.composite
def _families(draw):
    n = draw(st.integers(2, 5))
    den = draw(st.integers(1, 4))
    num = draw(st.integers(den + 1, 2 * den + 1))
    orders = draw(st.lists(st.permutations(range(1, n + 1)), min_size=1, max_size=4))
    return n, Ratio(num, den), orders, draw(st.integers(0, 60))


@settings(max_examples=60, deadline=None)
@given(_families())
def test_cut_counts_match_the_dense_kernel_on_random_families(family):
    n, ratio, orders, t_max = family
    assert np.array_equal(cut_counts(n, ratio, t_max, orders),
                          evolve(n, ratio, 0.0, t_max, orders).cut_count)


def steps_taken(monkeypatch):
    """The k of each itinerary table that cut_counts builds, in call order."""
    ks, build = [], lattice._itinerary
    monkeypatch.setattr(lattice, "_itinerary", lambda *args: ks.append(args[-1]) or build(*args))
    return ks


def budget_for(monkeypatch, n, rows, k):
    """A table budget that holds the table of k steps and not of 2k; None holds any."""
    monkeypatch.setattr(lattice, "_END_BYTES", 0)
    monkeypatch.setattr(lattice, "_BLOCK_BYTES",
                        2**62 if k is None else rows * (k * (n - 1) + 1) * (k + 16))


def steps_for(k, t_max):
    """The k that cut_counts takes under budget_for(k): at most T_max - 1 steps a pass."""
    below = 1 << (max(t_max - 1, 1).bit_length() - 1)  # the largest power of two below T_max
    return below if k is None else min(k, below)


# The ends move k iterations a pass, with k = 1, 2, 4 and 64 under a budget made
# for each, and the largest power of two below T_max under any budget. T_max - 1
# = 2, 6 and 199 are not multiples of every k. Every order of n = 2..5,
# reducible ones and the identity included, against one dense run each.
@pytest.mark.parametrize("ratio", [Ratio(2, 1), Ratio(9, 5)], ids=str)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cut_counts_of_k_steps_a_pass_match_the_dense_kernel(monkeypatch, n, ratio):
    orders = list(itertools.permutations(range(1, n + 1)))
    dense = evolve(n, ratio, 0.0, 200, orders).cut_count
    ks = steps_taken(monkeypatch)
    for k in (1, 2, 4, 64, None):
        budget_for(monkeypatch, n, len(orders), k)
        for t_max in (0, 1, 2, 3, 7, 200):
            got = cut_counts(n, ratio, t_max, orders)
            assert np.array_equal(got, dense[:, :t_max + 1]), (k, t_max)
            assert ks.pop() == steps_for(k, t_max)


@settings(max_examples=60, deadline=None)
@given(_families(), st.sampled_from([1, 2, 4, 64, None]))
def test_cut_counts_of_k_steps_a_pass_match_the_dense_kernel_on_random_families(family, k):
    n, ratio, orders, t_max = family
    with pytest.MonkeyPatch.context() as patch:
        ks = steps_taken(patch)
        budget_for(patch, n, len(orders), k)
        got = cut_counts(n, ratio, t_max, orders)
    assert ks == [steps_for(k, t_max)]
    assert np.array_equal(got, evolve(n, ratio, 0.0, t_max, orders).cut_count)


# The benchmark's stopping-time command (n = 4, r = 13/10, --tmax-from 369,15,
# so T_max = 4,217) moves its ends more than one iteration a pass.
def test_the_benchmark_size_moves_its_ends_many_iterations_a_pass(monkeypatch):
    ks = steps_taken(monkeypatch)
    cut_counts(4, Ratio(13, 10), 4217, enumerate_allowed(4))
    assert ks[0] > 1


# A short, a repeated or an out-of-range piece, a ragged list of orders, and
# pieces that are not integers.
MALFORMED_ORDERS = ([(2, 1, 3)], [(3, 1, 1, 2)], [(5, 1, 4, 2)], [(3, 1, 4, 2), (2, 1)],
                    [(2.5, 4, 1, 3.9)])


def test_cut_counts_validate_their_inputs():
    with pytest.raises(ValueError):
        cut_counts(4, Ratio(3, 2), 5, [])
    for orders in MALFORMED_ORDERS:
        with pytest.raises(ValueError):
            cut_counts(4, Ratio(3, 2), 5, orders)
    with pytest.raises(ValueError):
        cut_counts(4, Ratio(3, 2), -1, [(3, 1, 4, 2)])


# n = 9, r = 101/100 gives L = 93,685,272,684,360,901: no per-site array of
# it fits in memory, but the piece ends need only a few kilobytes. After one
# shuffle each piece still holds one color, so C(1) = N - 1 for any order.
def test_cut_counts_reach_lattices_beyond_memory():
    orders = enumerate_allowed(9)[:4]
    tracemalloc.start()
    try:
        counts = cut_counts(9, Ratio(101, 100), 3, orders)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.dtype == np.int64 and counts.shape == (4, 4)
    assert np.all(counts[:, :2] == 8)
    assert peak < 2**20


# The counts are the answer; beside them cut_counts keeps only the piece
# ends' O(P N) state, and no record of every iteration's labels.
def test_cut_counts_hold_little_beyond_their_answer():
    orders = enumerate_allowed(6)
    tracemalloc.start()
    try:
        counts = cut_counts(6, Ratio(5, 4), 1000, orders)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.shape == (len(orders), 1001)
    assert peak < 2 * counts.nbytes


# The striation lengths are divided in place: one buffer beside the cut counts.
def test_mean_subseg_len_holds_one_buffer():
    series = run_ensemble(6, Ratio(5, 4), 0.0, 200).series
    tracemalloc.start()
    try:
        lengths = series.mean_subseg_len
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lengths.shape == series.cut_count.shape
    assert peak < 1.5 * lengths.nbytes


# Without diffusion the norm never changes, so it is held once: a
# read-only broadcast of one value, not a (P, T+1) array of copies.
def test_diffusion_free_norm_is_one_read_only_value():
    orders = enumerate_allowed(4)
    for norm in (evolve(4, Ratio(9, 5), 0.0, 60, orders).mixing_norm,
                 run_ensemble(4, Ratio(9, 5), 0.0, 60).series.mixing_norm):
        assert norm.shape == (len(orders), 61)
        assert norm.strides == (0, 0)
        assert not norm.flags.writeable


def test_cut_counts_refuse_rows_beyond_64_bits():
    # Two rows of L = 2**62 + 1 sites lie end to end past 2**63 - 1.
    with pytest.raises(CapacityError):
        cut_counts(2, Ratio(2**62, 1), 1, [(2, 1), (2, 1)])


@pytest.mark.parametrize("d", [0.0, 0.3, 0.5])
def test_iterate_fields_and_series_match_the_reference_path(d):
    proto = Protocol(n=4, ratio=Ratio(5, 4), permutation=(2, 4, 1, 3), d=d, t_max=80)
    fields = iterate(proto)
    assert np.array_equal(fields, reference_fields(proto))
    series = evolve(proto.n, proto.ratio, d, proto.t_max, [proto.permutation])
    assert_same_series(series.row(0), compute_series(fields))


def test_evolve_validates_its_inputs():
    with pytest.raises(ValueError):
        evolve(4, Ratio(3, 2), 0.0, 5, [])
    for bad_p in (0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            evolve(4, Ratio(3, 2), 0.0, 5, [(3, 1, 4, 2)], p=bad_p)
    for orders in MALFORMED_ORDERS:
        with pytest.raises(ValueError):
            evolve(4, Ratio(3, 2), 0.0, 5, orders)
    for first in (-1, 7, 2.0, "3", True, False):  # a bool is no iteration
        with pytest.raises(ValueError, match="norms"):
            evolve(4, Ratio(3, 2), 0.5, 5, [(3, 1, 4, 2)], norms=first)


# L = 3 and 19 at n = 2, r = 2/1 and n = 3, r = 3/2: the stencil's two
# wrap-around columns are most of the lattice. The observer's blocks laid
# end to end hold every state once, iteration-major.
@pytest.mark.parametrize("d", [0.0, 0.3, 0.5])
@pytest.mark.parametrize("n, ratio, orders", [
    (4, Ratio(5, 4), [(2, 4, 1, 3)]),
    (4, Ratio(5, 4), [(2, 4, 1, 3), (3, 1, 4, 2), (4, 3, 2, 1)]),
    (2, Ratio(2, 1), [(2, 1)]),
    (3, Ratio(3, 2), [(3, 2, 1)]),
], ids=["orders0", "orders1", "L3", "L19"])
def test_observer_sees_every_state_once_in_order(n, ratio, orders, d):
    t_max = 40
    seen = []
    evolve(n, ratio, d, t_max, orders, observe=lambda block: seen.append(block.copy()))
    states = np.concatenate(seen)
    assert len(states) == (t_max + 1) * len(orders)
    states = states.reshape(t_max + 1, len(orders), -1)
    for k, q in enumerate(orders):
        want = reference_fields(Protocol(n=n, ratio=ratio, permutation=q, d=d, t_max=t_max))
        assert np.array_equal(states[:, k], want)


# The byte budget forces 1, 3 and 7 iterations per block; 41 states leave
# the last block of 3 and of 7 partial. Each order's series and observed
# fields must match the one-field reference path at every block edge.
@pytest.mark.parametrize("runs", [True, False])
@pytest.mark.parametrize("d", [0.0, 0.3, 0.5])
@pytest.mark.parametrize("orders", [
    [(2, 4, 1, 3)],
    [(2, 4, 1, 3), (3, 1, 4, 2), (4, 3, 2, 1)],
], ids=["P1", "P3"])
@pytest.mark.parametrize("span", [1, 3, 7])
def test_blocks_of_any_span_match_the_reference_path(monkeypatch, span, orders, d, runs):
    n, ratio, t_max, length = 4, Ratio(5, 4), 40, 369
    monkeypatch.setattr(lattice, "_BLOCK_BYTES", 8 * span * len(orders) * length)
    seen = []
    got = evolve(n, ratio, d, t_max, orders, runs=runs,
                 observe=lambda block: seen.append(block.copy()))
    cap = max(len(orders), lattice._BLOCK_BYTES // (8 * length))
    assert all(len(block) <= cap for block in seen)
    full, rest = divmod(t_max + 1, span)
    assert [len(block) for block in seen] == [span * len(orders)] * full + (
        [rest * len(orders)] if rest else [])
    states = np.concatenate(seen).reshape(t_max + 1, len(orders), length)
    for k, q in enumerate(orders):
        fields = reference_fields(Protocol(n=n, ratio=ratio, permutation=q, d=d, t_max=t_max))
        assert np.array_equal(states[:, k], fields)
        want = compute_series(fields)
        names = METRICS if runs else ("mixing_norm",)
        for name in names:
            assert np.array_equal(getattr(got, name)[k], getattr(want, name)), (name, k)
    if not runs:
        assert got.cut_count is None and got.percent_unmixed is None


# The run scan returns L - 1 cuts and runs of one site at once for a block
# whose every row is all cut. Each lattice below holds blocks of one kind of
# row and blocks of several: at L = 3 (n = 2, r = 2/1, with the identity beside
# the one allowed order) the states become uniform, with no cut at all; at
# L = 369 they become all cut. 80 states leave the last block of 3 and of 7
# part-full.
RUN_KINDS = {"L3": (2, Ratio(2, 1), [(2, 1), (1, 2)], {"no cut", "mixed"}),
             "L369": (4, Ratio(5, 4), [(2, 4, 1, 3), (3, 1, 4, 2), (4, 3, 2, 1)],
                      {"all cut", "mixed"})}


@pytest.mark.parametrize("d", [0.3, 0.5])
@pytest.mark.parametrize("lattice_id", RUN_KINDS)
@pytest.mark.parametrize("span", [1, 3, 7])
def test_run_scan_of_cut_uncut_and_mixed_blocks_matches_the_reference_path(
        monkeypatch, span, lattice_id, d):
    n, ratio, orders, kinds = RUN_KINDS[lattice_id]
    t_max, length = 79, lattice.total_length(n, ratio)
    monkeypatch.setattr(lattice, "_BLOCK_BYTES", 8 * span * len(orders) * length)
    got = evolve(n, ratio, d, t_max, orders)
    for k, q in enumerate(orders):
        want = compute_series(reference_fields(
            Protocol(n=n, ratio=ratio, permutation=q, d=d, t_max=t_max)))
        for name in METRICS:
            assert np.array_equal(getattr(got, name)[k], getattr(want, name)), (name, k)
    blocks = [got.cut_count[:, t:t + span] for t in range(0, t_max + 1, span)]
    seen = {"all cut" if (b == length - 1).all() else "no cut" if (b == 0).all() else "mixed"
            for b in blocks}
    assert kinds <= seen


# norms is the first iteration whose norm is scored. The spans put it at the
# start of a block, inside one and past the last.
@pytest.mark.parametrize("d", [0.0, 0.5])
@pytest.mark.parametrize("span", [1, 3, 7])
def test_norms_from_any_iteration_are_the_full_runs_columns(monkeypatch, span, d):
    orders, t_max = [(2, 4, 1, 3), (3, 1, 4, 2)], 40
    monkeypatch.setattr(lattice, "_BLOCK_BYTES", 8 * span * len(orders) * 369)
    full = evolve(4, Ratio(5, 4), d, t_max, orders).mixing_norm
    for first in (0, 1, 5, 6, 7, 35, 40, 41):
        tail = evolve(4, Ratio(5, 4), d, t_max, orders, runs=False, norms=first).mixing_norm
        assert tail.shape == (len(orders), t_max + 1 - first)
        assert np.array_equal(tail, full[:, first:]), first
