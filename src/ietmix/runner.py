"""Ensemble orchestration and parameter sweeps.

An ensemble runs one (N, r, D, T_max) protocol family over a set of
shuffle orders (all allowed ones by default, in lexicographic order so
averages are reproducible); its averaged curves, the fit of its averaged
norm decay and the e-folding scale all derive from its metric series.
"""

from __future__ import annotations

import math
import numbers
import os
import pickle
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .diffusion import diffusivity_from_peclet, match_iterations
from .fitting import FitResult, efolding_time, fit_stretched_exponential
from .lattice import Ratio, cut_counts, evolve, initial_field, total_length
from .metrics import MetricSeries, check_norm_order, mean_lengths, mixing_norm
from .permutations import as_orders, as_piece_count, screen, whole_number
from .stopping import StoppingTimeSolution, solve_stopping_time

#: The most orders one lattice.cut_counts call takes: diffusion-free runs go in such blocks.
_ORDERS_PER_CALL = 1024


@dataclass(frozen=True)
class EnsembleResult:
    """Mixing behavior of one protocol family across shuffle orders.

    permutations is the checked (P, N) int64 array of the orders and
    series holds the (P, T+1) metric arrays, row k for permutations[k],
    and the rest is derived from it. Each average is a mean over the
    orders in the listed order, so it is bit-reproducible, taken on its
    first read and kept. A diffusive ensemble fits its averaged norm on
    the first read of fit, and t_pe is the e-folding scale of a converged
    fit; without diffusion the norm cannot decay, so both are None.
    avg_cut and avg_subseg are None when the run metrics were skipped.
    """

    n: int
    ratio: Ratio
    d: float
    t_max: int
    p: float
    permutations: np.ndarray
    series: MetricSeries

    @cached_property
    def avg_norm(self) -> np.ndarray:
        return self.series.mixing_norm.mean(axis=0)

    @cached_property
    def avg_cut(self) -> np.ndarray | None:
        cuts = self.series.cut_count
        return None if cuts is None else cuts.mean(axis=0)

    @cached_property
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
    the initial field, so the norm is its T = 0 value, held once as a
    read-only broadcast; the cut counts come from lattice.cut_counts, a
    block of orders a call, which follows only the piece ends. runs=False
    leaves the cut counts and runs out of the series, and evolve skips its run scan.
    """
    n = as_piece_count(n)
    orders = as_orders(screen(n)[0] if permutations is None else permutations)
    if d == 0.0:  # the first call also checks n and t_max
        blocks = np.split(orders, range(_ORDERS_PER_CALL, len(orders), _ORDERS_PER_CALL))
        counts = np.concatenate([cut_counts(n, ratio, t_max, block) for block in blocks])
        field = initial_field(n, ratio)
        cbar = float(field.mean())
        norms = np.broadcast_to(mixing_norm(field, cbar, p), counts.shape)
        series = MetricSeries(counts if runs else None, None, norms, float(p), cbar)
    else:
        series = evolve(n, ratio, d, t_max, orders, p=p, runs=runs)
    return EnsembleResult(n, ratio, float(d), int(t_max), float(p), orders, series)


def _run_group(jobs: list[dict], indices) -> dict:
    """{k: (True, run_ensemble(**jobs[k])) or (False, exception)} for the jobs
    listed, run in job order up to and including the first that fails."""
    outcomes = {}
    for k in sorted(indices):
        try:
            outcomes[k] = True, run_ensemble(**jobs[k])
        except Exception as exc:  # carried to run_ensembles, which raises it in job order
            outcomes[k] = False, exc
            break
    return outcomes


def _split(jobs: list[dict]) -> tuple[list[int], list[int]]:
    """Job indices in two groups of about equal cost, L·(T_max+1) per job.

    collapse's jobs share n and their orders, so the row count P is left
    out of the cost. Jobs go largest first, ties in job order, each
    to the group with the smaller cost so far (the first group on a tie).
    """
    costs = [total_length(job["n"], job["ratio"]) * (job["t_max"] + 1) for job in jobs]
    groups, loads = ([], []), [0, 0]
    for k in sorted(range(len(jobs)), key=lambda k: -costs[k]):
        side = int(loads[1] < loads[0])
        groups[side].append(k)
        loads[side] += costs[k]
    return groups


def in_two_processes(here, there) -> tuple | None:
    """(here(), there()) with there() run in one forked child; or None, with
    neither called, when this process may not use two CPUs: no os.fork, one
    CPU in os.sched_getaffinity(0) (or no such call), or a fork that fails.

    The child must run no fit (no BLAS call in a fork of a process with BLAS
    threads). It pickles there()'s result, or the exception it raised, down a
    pipe and leaves with os._exit, so it flushes no inherited buffer and runs
    no exit handler; once here() has returned, that exception is raised here
    with its type and text. The child is always reaped, and killed first when
    here() fails; a child that ends without its reply, killed by the OOM
    killer for instance, raises ChildProcessError.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) > 1):
        return None
    read_fd, write_fd = os.pipe()
    with open(read_fd, "rb") as reader, open(write_fd, "wb") as writer:
        try:
            pid = os.fork()
        except OSError:  # no process to spare
            return None
        if pid == 0:
            code = 1
            try:
                reader.close()
                try:
                    outcome = True, there()
                except Exception as exc:  # raised in the parent, which reads it
                    outcome = False, exc
                writer.write(pickle.dumps(outcome))
                writer.close()
                code = 0
            finally:
                os._exit(code)
        writer.close()
        reply = None
        try:
            mine = here()
            reply = reader.read()
        finally:
            if reply is None:
                import signal  # not loaded by importing ietmix, so imported only here

                os.kill(pid, signal.SIGKILL)
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status != 0:
        ending = f"killed by signal {-status}" if status < 0 else f"exit status {status}"
        raise ChildProcessError(f"the forked child ended without its results ({ending})")
    ok, theirs = pickle.loads(reply)
    if not ok:
        raise theirs
    return mine, theirs


def run_ensembles(jobs) -> list[EnsembleResult]:
    """[run_ensemble(**job) for job in jobs], bit for bit and in job order, on two cores.

    Ensembles share nothing, so _split deals more than one job into two
    groups of about equal cost, and in_two_processes runs the second in a
    forked child while this process runs the first; without a child every
    job runs here. Each group runs in job order and stops at its first
    failure, so the loop below meets a failure before any job left unrun,
    and raises the serial loop's failure: the first in job order, its type
    and text. Each job is run as run_ensemble would run it alone, so each
    result has the same bytes.
    """
    jobs = list(jobs)
    mine, theirs = _split(jobs)
    pair = len(jobs) > 1 and in_two_processes(lambda: _run_group(jobs, mine),
                                              lambda: _run_group(jobs, theirs))
    outcomes = {**pair[0], **pair[1]} if pair else _run_group(jobs, range(len(jobs)))
    results = []
    for k in range(len(jobs)):
        ok, value = outcomes[k]
        if not ok:
            raise value
        results.append(value)
    return results


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
    role in the fit. grid_max must be finite and positive.
    """
    if not isinstance(grid_max, numbers.Real) or not 0.0 < grid_max < math.inf:
        raise ValueError(f"grid_max must be finite and positive, got {grid_max!r}")
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

    The diffusion-free cut counts of every allowed order are followed
    once, by lattice.cut_counts, which needs no field, and reduced a block
    of orders at a time; their average predicts the stopping time of every
    Pe, and diffusivity_from_peclet derives each Pe's stable D. With max_slopes the
    diffusive ensemble of each Pe whose crossing happens is run too, and
    the steepest descent of norm/M against T / stopping time reported
    (only their averaged norm is read, so none is fitted); otherwise
    max_slope stays None. A Pe whose crossing never happens
    yields a flagged row rather than failing the sweep.
    """
    listed = np.iterable(pe_list) and not isinstance(pe_list, (str, bytes))  # "123" is no list
    pe_seq = list(pe_list) if listed else [pe_list]
    if not listed or not all(isinstance(pe, numbers.Real) for pe in pe_seq):
        raise ValueError(f"pe_list must be a sequence of real numbers, got {pe_list!r}")
    pe_seq = [float(pe) for pe in pe_seq]
    if not pe_seq or pe_seq[0] <= 0:
        raise ValueError("pe_list must be nonempty and positive")
    if any(b <= a for a, b in zip(pe_seq, pe_seq[1:])):
        raise ValueError("pe_list must be strictly ascending")
    t_max, given = whole_number(t_max), t_max
    if t_max is None:
        raise ValueError(f"t_max must be an integer, got {given!r}")
    check_norm_order(p)  # refused even when no norm is taken
    length = total_length(n, ratio)
    diffusivities = [diffusivity_from_peclet(length, pe, t_max) for pe in pe_seq]
    orders = as_orders(screen(n)[0])
    # Reduced to the bits of .mean(axis=0): exact int64 sums; a row sum carried as a mean adds.
    cuts, lengths = 0, np.zeros(t_max + 1)
    for block in np.split(orders, range(_ORDERS_PER_CALL, len(orders), _ORDERS_PER_CALL)):
        counts = cut_counts(n, ratio, t_max, block)  # no field: only the cut counts are read
        cuts += counts.sum(axis=0)
        if use_mean_lengths:
            lengths = np.concatenate((lengths[None], mean_lengths(counts))).sum(axis=0)
    avg_cut = cuts / len(orders)
    lengths_curve = lengths / len(orders) if use_mean_lengths else None
    rows = []
    for pe, d in zip(pe_seq, diffusivities):
        sol = solve_stopping_time(avg_cut, pe, t_max, mean_lengths=lengths_curve)
        max_slope = None
        if max_slopes and sol.found:
            ens = run_ensemble(n, ratio, d, t_max, orders, p=p, runs=False)
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
