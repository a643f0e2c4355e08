"""Ensemble orchestration and parameter sweeps.

An ensemble runs one (N, r, D, T_max) protocol family over a set of
shuffle orders (all allowed ones by default, in lexicographic order so
averages are reproducible); its averaged curves, the fit of its averaged
norm decay and the e-folding scale all derive from its metric series.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .diffusion import diffusivity_from_peclet, match_iterations
from .fitting import FitResult, efolding_time, fit_stretched_exponential
from .lattice import Ratio, cut_counts, evolve, initial_field, total_length
from .metrics import MetricSeries, mixing_norm
from .permutations import as_orders, as_piece_count, screen
from .stopping import StoppingTimeSolution, solve_stopping_time


@dataclass(frozen=True)
class EnsembleResult:
    """Mixing behavior of one protocol family across shuffle orders.

    permutations is the checked (P, N) int64 array of the orders and
    series holds the (P, T+1) metric arrays, row k for permutations[k],
    and the rest is derived from it on read. Averages are means over the
    orders in the listed order, so they are bit-reproducible. A diffusive
    ensemble fits its averaged norm on the first read of fit, and t_pe is
    the e-folding scale of a converged fit; without diffusion the norm
    cannot decay, so both are None. avg_cut and avg_subseg are None when
    the run metrics were skipped.
    """

    n: int
    ratio: Ratio
    d: float
    t_max: int
    p: float
    permutations: np.ndarray
    series: MetricSeries

    @property
    def avg_norm(self) -> np.ndarray:
        return self.series.mixing_norm.mean(axis=0)

    @property
    def avg_cut(self) -> np.ndarray | None:
        cuts = self.series.cut_count
        return None if cuts is None else cuts.mean(axis=0)

    @property
    def avg_subseg(self) -> np.ndarray | None:
        lengths = self.series.mean_subseg_len
        return None if lengths is None else lengths.mean(axis=0)

    @property
    def m(self) -> float:
        return float(self.avg_norm[0])

    @cached_property
    def fit(self) -> FitResult | None:
        if self.d > 0.0:
            try:
                return fit_stretched_exponential(np.arange(self.t_max + 1), self.avg_norm, self.m)
            except ValueError as exc:
                raise ValueError(f"r={self.ratio}, D={self.d}: {exc}") from None
        return None

    @property
    def t_pe(self) -> float | None:
        return efolding_time(self.fit) if self.fit is not None and self.fit.converged else None


def run_ensemble(
    n: int, ratio: Ratio, d: float, t_max: int, permutations=None, p: float = 2.0,
    runs: bool = True,
) -> EnsembleResult:
    """Simulate every shuffle order of one protocol family.

    Diffusive orders evolve together as one batched block
    (lattice.evolve). Without diffusion every state is a permutation of
    the initial field, so every norm keeps its T = 0 value, and the cut
    counts come from lattice.cut_counts, which follows only the piece
    ends. runs=False leaves the cut counts and runs out of the series,
    and evolve skips its run scan.
    """
    n = as_piece_count(n)
    orders = as_orders(screen(n)[0] if permutations is None else permutations)
    if d == 0.0:
        counts = cut_counts(n, ratio, t_max, orders)  # also checks n and t_max
        field = initial_field(n, ratio)
        cbar = float(field.mean())
        norms = np.full(counts.shape, mixing_norm(field, cbar, p))
        series = MetricSeries(counts if runs else None, None, norms, float(p), cbar)
    else:
        series = evolve(n, ratio, d, t_max, orders, p=p, runs=runs)
    return EnsembleResult(n, ratio, float(d), int(t_max), float(p), orders, series)


@dataclass(frozen=True)
class CollapseResult:
    """Ensemble decay curves brought onto shared (T/T_Pe, norm/M) axes."""

    grid: np.ndarray
    curves: np.ndarray
    mean_curve: np.ndarray
    std_curve: np.ndarray
    fit: FitResult


def collapse(
    ensembles, grid_points: int = 200, grid_max: float = 5.0
) -> CollapseResult:
    """Rescale averaged decay curves onto common axes and fit their mean.

    Each averaged curve maps to (T/T_Pe, norm/M) and is resampled onto a
    uniform grid by linear interpolation; the mean of the resampled
    curves is then fitted with the initial value pinned at 1. Ensembles
    without a converged fit are dropped with a warning. The per-point
    standard deviation is taken across every individual shuffle-order
    curve, rescaled the same way; it describes the spread and plays no
    role in the fit.
    """
    usable = []
    for ens in ensembles:
        if ens.t_pe is None:
            warnings.warn(
                f"collapse: skipping ensemble r={ens.ratio}, D={ens.d}: no converged fit"
            )
            continue
        usable.append(ens)
    if not usable:
        raise ValueError("no ensemble with a converged fit to collapse")
    grid = np.linspace(0.0, grid_max, grid_points)
    curves = []
    members = []
    for ens in usable:
        x = np.arange(ens.t_max + 1, dtype=np.float64) / ens.t_pe
        curves.append(np.interp(grid, x, ens.avg_norm / ens.m))
        members.extend(np.interp(grid, x, norm / ens.m) for norm in ens.series.mixing_norm)
    curves = np.vstack(curves)
    mean_curve = curves.mean(axis=0)
    return CollapseResult(
        grid=grid,
        curves=curves,
        mean_curve=mean_curve,
        std_curve=np.vstack(members).std(axis=0),
        fit=fit_stretched_exponential(grid, mean_curve, m=1.0),
    )


@dataclass(frozen=True)
class SteepeningRow:
    """One Peclet point of the cut-off sharpening sweep."""

    pe: float
    d: float
    solution: StoppingTimeSolution
    max_slope: float | None


def steepening_report(
    n: int, ratio: Ratio, t_max: int, pe_list, p: float = 2.0,
    use_mean_lengths: bool = False, max_slopes: bool = True,
) -> list[SteepeningRow]:
    """Stopping times, and the cut-off sharpening, across an ascending Peclet sweep.

    The diffusion-free ensemble runs once; its cut curve predicts the
    stopping time of every Pe. Each Pe's diffusivity is derived, and its
    stability checked, by diffusivity_from_peclet. With max_slopes the
    diffusive ensemble of each Pe whose crossing happens is run too, and
    the steepest descent of norm/M against T / stopping time reported
    (only their averaged norm is read, so none is fitted); otherwise
    max_slope stays None. A Pe whose crossing never happens
    yields a flagged row rather than failing the sweep.
    """
    pe_seq = [float(pe) for pe in pe_list]
    if not pe_seq or pe_seq[0] <= 0:
        raise ValueError("pe_list must be nonempty and positive")
    if any(b <= a for a, b in zip(pe_seq, pe_seq[1:])):
        raise ValueError("pe_list must be strictly ascending")
    length = total_length(n, ratio)
    diffusivities = [diffusivity_from_peclet(length, pe, t_max) for pe in pe_seq]
    base = run_ensemble(n, ratio, 0.0, t_max, p=p)
    lengths_curve = base.avg_subseg if use_mean_lengths else None
    rows = []
    for pe, d in zip(pe_seq, diffusivities):
        sol = solve_stopping_time(base.avg_cut, pe, t_max, mean_lengths=lengths_curve)
        max_slope = None
        if max_slopes and sol.found:
            ens = run_ensemble(n, ratio, d, t_max, base.permutations, p=p, runs=False)
            drop = np.abs(np.diff(ens.avg_norm / ens.m))
            max_slope = float(drop.max()) * sol.interpolated
        rows.append(SteepeningRow(pe=pe, d=d, solution=sol, max_slope=max_slope))
    return rows


@dataclass(frozen=True)
class TableRow:
    """Lattice geometry and matched iteration budget for one ratio."""

    ratio: Ratio
    r_n: int
    xi: int
    length: int
    t_max: int


def table_one(ratios, n: int = 4, reference: tuple[Ratio, int] = (Ratio(5, 4), 50)):
    """Lattice length and equal-diffusion iteration budget per ratio.

    The budget scales from the reference (ratio, t_max) pair by the
    squared length ratio, rounded up to a whole iteration.
    """
    ref_ratio, ref_t_max = reference
    l_ref = total_length(n, ref_ratio)
    rows = []
    for ratio in ratios:
        length = total_length(n, ratio)
        rows.append(
            TableRow(
                ratio=ratio,
                r_n=ratio.num,
                xi=ratio.den ** (n - 1),
                length=length,
                t_max=match_iterations(l_ref, ref_t_max, length),
            )
        )
    return rows
