"""Scalar mixing diagnostics for one-dimensional color fields.

All functions are pure and operate on plain numpy arrays. Interface
detection uses exact inequality of neighboring values with no threshold:
any nonzero difference counts. That is the honest convention once
diffusion perturbs every site, and for diffusion-free runs it coincides
with counting true piece boundaries.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np


def _as_field(field) -> np.ndarray:
    c = np.asarray(field, dtype=np.float64)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("field must be a nonempty one-dimensional array")
    return c


def cut_count(field) -> int:
    """Number of interfaces: adjacent site pairs with unequal values.

    The pair across the periodic seam (last site, first site) is not
    counted; interfaces live strictly inside the segment, so the count
    ranges from 0 (uniform) to L-1.
    """
    c = _as_field(field)
    return int(np.count_nonzero(c[1:] != c[:-1]))


def percent_unmixed(field) -> float:
    """Longest run of one repeated value, as a percentage of the length."""
    c = _as_field(field)
    breaks = np.flatnonzero(c[1:] != c[:-1])
    edges = np.concatenate(([0], breaks + 1, [c.size]))
    return 100.0 * float(np.diff(edges).max()) / c.size


def average_color(field) -> float:
    """Mean color, conserved by shuffling and by periodic diffusion."""
    return float(_as_field(field).mean())


def check_norm_order(p) -> None:
    """Refuse a norm order that is not a finite real p >= 1."""
    if not isinstance(p, numbers.Real):
        raise ValueError(f"norm order p must be a real number, got {p!r}")
    if not 1.0 <= p < math.inf:
        raise ValueError(f"norm order must be a finite p >= 1, got {p}")


def mixing_norm(field, cbar: float | None = None, p: float = 2.0) -> float:
    """Length-weighted p-norm distance from the reference color cbar.

    Evaluates (sum_i |c_i - cbar|^p / L)^(1/p). For a time series pass
    the mean of the initial field and keep it frozen across iterations;
    when cbar is omitted the field's own mean is used, and a given cbar
    must be a finite real number. The deviations are summed in sorted
    order, which makes the result bitwise invariant under any permutation
    of the field.
    """
    c = _as_field(field)
    check_norm_order(p)
    if cbar is None:
        cbar = average_color(c)
    elif not isinstance(cbar, numbers.Real) or not math.isfinite(cbar):
        raise ValueError(f"reference color cbar must be a finite real number, got {cbar!r}")
    dev = np.abs(c - cbar)
    powed = dev * dev if p == 2 else dev**p
    powed.sort()
    return float((powed.sum() / c.size) ** (1.0 / p))


def mean_lengths(cut_count) -> np.ndarray:
    """Mean striation length as a fraction of L, 1/(C+1), of each cut count C."""
    lengths = np.asarray(cut_count) + 1.0
    return np.divide(1.0, lengths, out=lengths)  # in place: one buffer, the same bits


@dataclass(frozen=True)
class MetricSeries:
    """Per-iteration mixing diagnostics of one run, or of an ensemble.

    The metric arrays have shape (T+1,) for one run and (P, T+1) for an
    ensemble of P shuffle orders, row k holding order k; a D = 0 ensemble's
    norm is one read-only broadcast of its T = 0 value. t is the (T+1,)
    iteration axis. percent_unmixed and mean_subseg_len rely on
    exact-equality runs of values, so they are faithful striation diagnostics
    only for diffusion-free (D = 0) dynamics. A run metric that was not
    computed is None, and so is mean_subseg_len without cut_count. The
    norm is never None, and len and t follow it: lattice.evolve with
    norms > 0 holds only the norms of iterations norms..T, a part that the
    caller joins to the rest. cbar is the reference color frozen from
    T = 0 and reused at every iteration.
    """

    cut_count: np.ndarray | None
    percent_unmixed: np.ndarray | None
    mixing_norm: np.ndarray
    p: float
    cbar: float

    @property
    def t(self) -> np.ndarray:
        return np.arange(len(self), dtype=np.int64)

    @property
    def mean_subseg_len(self) -> np.ndarray | None:
        return None if self.cut_count is None else mean_lengths(self.cut_count)

    def __len__(self) -> int:
        return self.mixing_norm.shape[-1]

    def row(self, k: int) -> "MetricSeries":
        """The one-run series of order k of an ensemble; a metric not computed stays None."""
        runs = [None if a is None else a[k] for a in (self.cut_count, self.percent_unmixed)]
        return MetricSeries(*runs, self.mixing_norm[k], self.p, self.cbar)


def compute_series(fields, p: float = 2.0) -> MetricSeries:
    """Evaluate every diagnostic at every iteration of a (T+1, L) history.

    The norm reference is frozen from the T = 0 field. Fields are scored
    one at a time by the single-field metrics above; this is the
    reference the batched kernel (lattice.evolve) is checked against.
    """
    cbar = average_color(fields[0])
    return MetricSeries(
        np.array([cut_count(f) for f in fields], dtype=np.int64),
        np.array([percent_unmixed(f) for f in fields]),
        np.array([mixing_norm(f, cbar, p) for f in fields]),
        float(p),
        cbar,
    )
