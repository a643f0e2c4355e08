"""Ensemble orchestration and parameter sweeps.

An ensemble runs one (N, r, D, T_max) protocol family over a set of
shuffle orders (all allowed ones by default, in lexicographic order so
averages are reproducible), averages the metric curves across orders,
fits the averaged norm decay, and derives the e-folding scale used for
rescaled-curve comparisons.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .diffusion import diffusivity_from_peclet, match_iterations
from .fitting import FitResult, efolding_time, fit_stretched_exponential
from .lattice import Ratio, cut_counts, evolve, initial_field, total_length
from .metrics import MetricSeries, mixing_norm
from .permutations import Perm, enumerate_allowed
from .stopping import StoppingTimeSolution, solve_stopping_time


@dataclass(frozen=True)
class EnsembleResult:
    """Averaged mixing behavior of one protocol family across shuffle orders.

    series holds the (P, T+1) metric arrays, row k for permutations[k].
    An ensemble run without its run metrics has avg_cut and avg_subseg
    None, and a diffusion-free one carries no percent_unmixed.
    """

    n: int
    ratio: Ratio
    d: float
    t_max: int
    p: float
    permutations: tuple[Perm, ...]
    series: MetricSeries
    avg_norm: np.ndarray
    avg_cut: np.ndarray | None
    avg_subseg: np.ndarray | None
    m: float
    fit: FitResult | None
    t_pe: float | None


def run_ensemble(
    n: int, ratio: Ratio, d: float, t_max: int, permutations=None, p: float = 2.0,
    runs: bool = True,
) -> EnsembleResult:
    """Simulate every shuffle order and average the metric curves.

    Diffusive orders evolve together as one batched block
    (lattice.evolve). Without diffusion every state is a permutation of
    the initial field, so every norm keeps its T = 0 value, and the cut
    counts come from lattice.cut_counts, which follows only the piece
    ends. runs=False leaves the cut counts and runs out of the series,
    and evolve skips its run scan.
    Averages are arithmetic means at each iteration, accumulated in the
    listed order, so results are bit-reproducible. For diffusive runs
    the averaged norm is fitted and the e-folding scale attached;
    diffusion-free ensembles keep fit=None since their norm cannot
    decay.
    """
    if permutations is None:
        permutations = enumerate_allowed(n)
    perms = tuple(tuple(int(v) for v in q) for q in permutations)
    if d == 0.0:
        counts = cut_counts(n, ratio, t_max, perms)  # also checks the orders
        field = initial_field(n, ratio)
        cbar = float(field.mean())
        norms = np.full(counts.shape, mixing_norm(field, cbar, p))
        series = MetricSeries(counts if runs else None, None, norms, float(p), cbar)
    else:
        series = evolve(n, ratio, d, t_max, perms, p=p, runs=runs)
    avg_norm = series.mixing_norm.mean(axis=0)
    m = float(avg_norm[0])
    fit = None
    t_pe = None
    if d > 0.0:
        fit = fit_stretched_exponential(np.arange(t_max + 1), avg_norm, m)
        if fit.converged:
            t_pe = efolding_time(fit)
    return EnsembleResult(
        n=n,
        ratio=ratio,
        d=float(d),
        t_max=int(t_max),
        p=float(p),
        permutations=perms,
        series=series,
        avg_norm=avg_norm,
        avg_cut=None if series.cut_count is None else series.cut_count.mean(axis=0),
        avg_subseg=None if series.cut_count is None else series.mean_subseg_len.mean(axis=0),
        m=m,
        fit=fit,
        t_pe=t_pe,
    )


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
        if ens.fit is None or not ens.fit.converged or not ens.t_pe:
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
    return CollapseResult(
        grid=grid,
        curves=curves,
        mean_curve=curves.mean(axis=0),
        std_curve=np.vstack(members).std(axis=0),
        fit=fit_stretched_exponential(grid, curves.mean(axis=0), m=1.0),
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
    (only their averaged norm is needed, so they are not fitted);
    otherwise max_slope stays None. A Pe whose crossing never happens
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
            series = evolve(n, ratio, d, t_max, base.permutations, p=p, runs=False)
            avg_norm = series.mixing_norm.mean(axis=0)
            drop = np.abs(np.diff(avg_norm / float(avg_norm[0])))
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
