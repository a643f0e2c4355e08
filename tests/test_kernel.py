"""The batched ensemble kernel against the one-field reference path.

lattice.evolve runs every shuffle order of an ensemble as one block.
Here each order is re-run on its own by composing shuffle_step and
diffusion_step, scored field by field with compute_series, and the two
must agree bit for bit, averages included.
"""

import numpy as np
import pytest

from ietmix.diffusion import diffusion_step
from ietmix.lattice import (
    Protocol,
    Ratio,
    cut_positions,
    evolve,
    initial_field,
    iterate,
    shuffle_step,
)
from ietmix.metrics import compute_series
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
    ens = run_ensemble(n, ratio, d, t_max, p=p)
    want = [
        compute_series(reference_fields(
            Protocol(n=n, ratio=ratio, permutation=q, d=d, t_max=t_max)), p)
        for q in ens.permutations
    ]
    got = ens.series
    assert np.array_equal(got.t, want[0].t)
    assert (got.p, got.cbar) == (want[0].p, want[0].cbar)
    for name in METRICS:
        assert getattr(got, name).shape == (len(want), t_max + 1), name
        for k, ref in enumerate(want):
            assert np.array_equal(getattr(got, name)[k], getattr(ref, name)), (name, k)
    assert np.array_equal(ens.avg_norm, np.mean([s.mixing_norm for s in want], axis=0))
    assert np.array_equal(ens.avg_cut, np.mean([s.cut_count for s in want], axis=0))
    assert np.array_equal(ens.avg_subseg,
                          np.mean([s.mean_subseg_len for s in want], axis=0))


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
    with pytest.raises(ValueError):
        evolve(4, Ratio(3, 2), 0.0, 5, [(2, 1, 3)])


@pytest.mark.parametrize("d", [0.0, 0.3, 0.5])
@pytest.mark.parametrize("orders", [
    [(2, 4, 1, 3)],
    [(2, 4, 1, 3), (3, 1, 4, 2), (4, 3, 2, 1)],
])
def test_observer_sees_every_state_once_in_order(orders, d):
    t_max = 40
    seen = []
    evolve(4, Ratio(5, 4), d, t_max, orders, observe=lambda block: seen.append(block.copy()))
    assert len(seen) == t_max + 1
    for k, q in enumerate(orders):
        want = reference_fields(Protocol(n=4, ratio=Ratio(5, 4), permutation=q, d=d,
                                         t_max=t_max))
        assert np.array_equal(np.array([block[k] for block in seen]), want)
