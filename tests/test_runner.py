"""Ensemble averaging, rescaled collapse, steepening sweep, size table."""

import dataclasses
import json
import os
import pickle
import signal
import time

import numpy as np
import pytest

from ietmix import runner
from ietmix.cli import main
from ietmix.diffusion import diffusivity_from_peclet, match_iterations
from ietmix.fitting import efolding_time
from ietmix.io import export_ensemble
from ietmix.lattice import Ratio, cut_counts, total_length
from ietmix.metrics import mean_lengths
from ietmix.permutations import enumerate_allowed, screen
from ietmix.runner import (
    EnsembleResult,
    collapse,
    run_ensemble,
    steepening_report,
    table_one,
)


def small_ensemble(d=0.5, t_max=200, ratio=Ratio(3, 2)):
    return run_ensemble(4, ratio, d, t_max)


def test_run_ensemble_defaults_to_all_allowed_orders():
    ens = run_ensemble(4, Ratio(3, 2), 0.0, 10)
    assert ens.permutations.dtype == np.int64
    assert np.array_equal(ens.permutations, enumerate_allowed(4))
    assert ens.series.mixing_norm.shape == (9, 11)
    assert ens.avg_norm.shape == (11,)
    assert ens.fit is None and ens.t_pe is None


def test_run_ensemble_average_is_the_arithmetic_mean():
    ens = run_ensemble(4, Ratio(3, 2), 0.0, 10)
    rows = list(ens.series.mixing_norm)
    assert np.array_equal(ens.avg_norm, np.mean(rows, axis=0))
    assert ens.m == ens.avg_norm[0]
    # Every order starts from the same uncut state.
    assert ens.avg_cut[0] == 3.0


def test_run_ensemble_explicit_orders():
    ens = run_ensemble(4, Ratio(3, 2), 0.0, 5, permutations=[(3, 1, 4, 2)])
    assert np.array_equal(ens.permutations, [(3, 1, 4, 2)])
    assert ens.series.cut_count[0].tolist()[:3] == [3, 3, 6]
    with pytest.raises(ValueError):
        run_ensemble(4, Ratio(3, 2), 0.0, 5, permutations=[])


def test_diffusive_ensemble_catches_a_fit():
    ens = small_ensemble()
    assert ens.fit is not None and ens.fit.converged
    assert ens.t_pe == pytest.approx(efolding_time(ens.fit))
    assert 0 < ens.fit.tau < ens.t_max
    # The averaged norm must actually have decayed substantially.
    assert ens.avg_norm[-1] < 0.05 * ens.m


def test_collapse_normalizes_to_unit_start():
    ens_a = small_ensemble()
    ens_b = small_ensemble(ratio=Ratio(5, 4), t_max=500)
    result = collapse([ens_a, ens_b], grid_points=120, grid_max=4.0)
    assert result.grid.shape == (120,)
    assert result.curves.shape == (2, 120)
    assert result.mean_curve[0] == pytest.approx(1.0, abs=1e-12)
    assert result.fit.converged
    assert 0.5 < result.fit.tau < 1.5  # e-fold rescaling centers the decay near 1
    assert result.std_curve.shape == (120,)
    assert np.all(result.std_curve >= 0.0)


def test_collapse_skips_ensembles_without_fits():
    good = small_ensemble()
    bare = run_ensemble(4, Ratio(3, 2), 0.0, 50)  # no fit for D = 0
    with pytest.warns(UserWarning):
        result = collapse([good, bare])
    assert result.curves.shape[0] == 1
    with pytest.raises(ValueError):
        with pytest.warns(UserWarning):
            collapse([bare])
    for grid_max in (-1, 0.0, float("nan"), float("inf"), "5"):
        with pytest.raises(ValueError, match="grid_max must be finite and positive"):
            collapse([good], grid_max=grid_max)


def test_steepening_report_rows():
    rows = steepening_report(4, Ratio(3, 2), 120, [80.0, 160.0])
    assert [row.pe for row in rows] == [80.0, 160.0]
    for row in rows:
        assert row.d == pytest.approx(65.0 * 65.0 / (row.pe * 120.0))
        assert row.solution.found
        assert row.max_slope is not None and row.max_slope > 0.0
    assert rows[0].solution.iteration <= rows[1].solution.iteration


def test_stopping_rows_without_slopes_skip_the_diffusive_ensembles():
    full = steepening_report(4, Ratio(3, 2), 120, [80.0, 160.0])
    bare = steepening_report(4, Ratio(3, 2), 120, [80.0, 160.0], max_slopes=False)
    assert [row.solution for row in bare] == [row.solution for row in full]
    assert [row.d for row in bare] == [row.d for row in full]
    assert all(row.max_slope is None for row in bare)


def test_steepening_flags_unreachable_crossings():
    rows = steepening_report(4, Ratio(3, 2), 120, [80.0, 1e8])
    assert rows[1].solution.found is False
    assert rows[1].max_slope is None


def test_steepening_validates_the_sweep():
    with pytest.raises(ValueError):
        steepening_report(4, Ratio(3, 2), 120, [])
    with pytest.raises(ValueError):
        steepening_report(4, Ratio(3, 2), 120, [40.0, 20.0])
    with pytest.raises(ValueError):
        steepening_report(4, Ratio(3, 2), 120, [-1.0, 20.0])
    with pytest.raises(ValueError, match="norm order must be a finite p >= 1, got 0.5"):
        steepening_report(4, Ratio(3, 2), 120, [40.0], p=0.5, max_slopes=False)


# --lm-mode length averages 1/(C+1) over the orders a block of rows at a time,
# carrying the running sum as each block's first row. That equals one mean over
# all rows only while NumPy adds the rows of an axis-0 reduction in order; this
# pins it, so a NumPy that changes the order fails here.
@pytest.mark.parametrize("rows", [1, 7, 1024, 3000])
def test_a_mean_over_rows_is_their_sum_in_order(rows):
    q = 1.0 / (np.random.default_rng(7).integers(0, 10**6, (3000, 201)) + 1.0)
    assert not np.array_equal(q.sum(axis=0), q[::-1].sum(axis=0))  # the order shows
    total = np.zeros(201)
    for k in range(0, len(q), rows):
        total = np.concatenate((total[None], q[k : k + rows])).sum(axis=0)
    assert np.array_equal(total / len(q), q.mean(axis=0))


# n = 7 has 3,198 orders: four blocks of rows, the last one short.
def test_length_mode_averages_the_striation_lengths_of_every_order(monkeypatch):
    seen = []
    solve = runner.solve_stopping_time
    monkeypatch.setattr(runner, "solve_stopping_time",
                        lambda *args, **kw: seen.append(kw["mean_lengths"]) or solve(*args, **kw))
    steepening_report(7, Ratio(5, 4), 200, [1e9], use_mean_lengths=True, max_slopes=False)
    counts = cut_counts(7, Ratio(5, 4), 200, screen(7)[0])
    assert np.array_equal(seen[0], mean_lengths(counts).mean(axis=0))


def test_table_one_reference_row():
    rows = table_one([Ratio(5, 4), Ratio(3, 2)])
    assert rows[0].length == 369 and rows[0].t_max == 50
    assert rows[1].length == 65
    assert rows[1].xi == 8
    # Matching scales with the squared length ratio, rounded up.
    assert rows[1].t_max == -(-(65 * 65 * 50) // (369 * 369))


def test_table_one_custom_reference():
    rows = table_one([Ratio(7, 5)], reference=(Ratio(6, 5), 500))
    assert rows[0].length == 888
    assert rows[0].t_max == 876


def test_ensemble_result_is_frozen():
    ens = run_ensemble(4, Ratio(3, 2), 0.0, 5)
    assert isinstance(ens, EnsembleResult)
    with pytest.raises(AttributeError):
        ens.m = 0.0


def test_ensemble_result_stores_its_inputs_and_series_only():
    names = [field.name for field in dataclasses.fields(EnsembleResult)]
    assert names == ["n", "ratio", "d", "t_max", "p", "permutations", "series"]


def test_run_ensemble_stores_the_checked_piece_count(tmp_path):
    ens = run_ensemble(4.0, Ratio(3, 2), 0.0, 3)
    assert type(ens.n) is int and ens.n == 4
    export_ensemble(ens, tmp_path)
    assert type(json.loads((tmp_path / "ensemble.json").read_text())["n"]) is int


@pytest.mark.parametrize("d, runs", [(0.0, True), (0.5, False)], ids=["d0", "no-runs"])
def test_series_row_passes_missing_metrics_through(d, runs):
    series = run_ensemble(4, Ratio(3, 2), d, 10, runs=runs).series
    row = series.row(2)
    assert np.array_equal(row.mixing_norm, series.mixing_norm[2])
    assert row.percent_unmixed is None
    if runs:
        assert np.array_equal(row.cut_count, series.cut_count[2])
    else:
        assert row.cut_count is None and row.mean_subseg_len is None
    assert (row.p, row.cbar) == (series.p, series.cbar)


@pytest.fixture
def fit_calls(monkeypatch):
    """The arguments of every fit the runner makes; each fit still runs."""
    calls = []
    fit = runner.fit_stretched_exponential

    def counted(*args, **kwargs):
        calls.append(args)
        return fit(*args, **kwargs)

    monkeypatch.setattr(runner, "fit_stretched_exponential", counted)
    return calls


def test_ensemble_fits_on_the_first_read_only(fit_calls):
    ens = run_ensemble(4, Ratio(3, 2), 0.5, 60)
    assert fit_calls == []
    assert ens.fit is ens.fit
    assert ens.t_pe == efolding_time(ens.fit)
    assert len(fit_calls) == 1


@pytest.mark.parametrize("d", [0.0, 0.5])
def test_each_average_is_taken_once(d):
    ens = run_ensemble(4, Ratio(3, 2), d, 60)
    for name in ("avg_norm", "avg_cut", "avg_subseg"):
        assert getattr(ens, name) is getattr(ens, name), name


def test_diffusion_free_ensemble_fits_nothing(fit_calls):
    ens = run_ensemble(4, Ratio(3, 2), 0.0, 50)
    assert ens.fit is None and ens.t_pe is None
    assert fit_calls == []


def test_steepening_slopes_fit_nothing(fit_calls):
    rows = steepening_report(4, Ratio(3, 2), 120, [80.0, 160.0], max_slopes=True)
    assert all(row.max_slope is not None for row in rows)
    assert fit_calls == []


def test_sweep_fits_each_ensemble_once(fit_calls, tmp_path, capsys):
    code = main(["sweep", "--n", "4", "--ratio", "3/2", "--ratio", "5/4", "--d", "0.5",
                 "--tmax", "40", "--out", str(tmp_path / "out")])
    assert code == 0
    assert len(fit_calls) == 2
    assert capsys.readouterr().out.count("tau=") == 2


def test_too_short_diffusive_ensemble_refuses_when_its_fit_is_read():
    ens = run_ensemble(4, Ratio(3, 2), 0.5, 2)
    assert ens.avg_norm.shape == (3,)
    with pytest.raises(ValueError, match="samples"):
        ens.fit


# The benchmark's five collapse ensembles (budgets from L = 369, T = 100),
# and the diffusive ensembles of acceptance criterion 9's steepening sweep.
COLLAPSE_RATIOS = [Ratio(6, 5), Ratio(5, 4), Ratio(7, 5), Ratio(8, 5), Ratio(9, 5)]
COLLAPSE_JOBS = [dict(n=4, ratio=r, d=0.5, t_max=match_iterations(369, 100, total_length(4, r)),
                      p=2.0, runs=False) for r in COLLAPSE_RATIOS]
STEEPENING_JOBS = [
    dict(n=4, ratio=Ratio(6, 5), d=diffusivity_from_peclet(671, pe, 500), t_max=500,
         permutations=screen(4)[0], p=2.0, runs=False)
    for pe in (2000.0, 4000.0, 8000.0, 16000.0, 24000.0, 32000.0)
]
# Small jobs that _split deals as (2,) to this process and (1, 0) to the child.
SMALL_JOBS = [dict(n=4, ratio=Ratio(3, 2), d=0.5, t_max=20),
              dict(n=4, ratio=Ratio(5, 4), d=0.5, t_max=20),
              dict(n=4, ratio=Ratio(7, 5), d=0.5, t_max=300)]
CPUS = pytest.mark.parametrize("cpus", [{0, 1}, {0}], ids=["fork", "one-cpu"])


def test_split_deals_the_largest_jobs_first_to_the_lighter_group():
    assert runner._split(COLLAPSE_JOBS) == ([4], [3, 2, 0, 1])
    assert runner._split(STEEPENING_JOBS) == ([0, 2, 4], [1, 3, 5])  # equal costs
    assert runner._split(SMALL_JOBS) == ([2], [1, 0])


@CPUS
@pytest.mark.parametrize("jobs", [COLLAPSE_JOBS, STEEPENING_JOBS], ids=["collapse", "steepening"])
def test_run_ensembles_gives_the_serial_loops_bytes(monkeypatch, reaped, forks, cpus, jobs):
    serial = [run_ensemble(**job) for job in jobs]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    results = runner.run_ensembles(jobs)
    assert len(forks) == (len(cpus) > 1)
    assert [pickle.dumps(ens) for ens in results] == [pickle.dumps(ens) for ens in serial]


def test_run_ensembles_runs_one_job_or_none_in_process(reaped, forks):
    [ens] = runner.run_ensembles(SMALL_JOBS[:1])
    assert pickle.dumps(ens) == pickle.dumps(run_ensemble(**SMALL_JOBS[0]))
    assert runner.run_ensembles([]) == []
    assert forks == []


def test_run_ensembles_without_fork_runs_in_process(monkeypatch, reaped):
    monkeypatch.delattr(os, "fork")
    results = runner.run_ensembles(SMALL_JOBS)
    assert [pickle.dumps(ens) for ens in results] == [
        pickle.dumps(run_ensemble(**job)) for job in SMALL_JOBS]


# A fork that fails does so as under a pids limit, or with no memory to copy the process.
FORK_ERRORS = {"eagain": BlockingIOError(11, "Resource temporarily unavailable"),
               "enomem": OSError(12, "Cannot allocate memory")}


@pytest.mark.parametrize("error", FORK_ERRORS)
def test_a_fork_that_fails_runs_every_job_in_process(monkeypatch, reaped, error):
    def failing_fork():
        raise FORK_ERRORS[error]

    monkeypatch.setattr(os, "fork", failing_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    results = runner.run_ensembles(SMALL_JOBS)
    assert [pickle.dumps(ens) for ens in results] == [
        pickle.dumps(run_ensemble(**job)) for job in SMALL_JOBS]


def _never_called():
    raise AssertionError("called, although there is no child")


@pytest.mark.parametrize("how", ["one-cpu", "no-fork", *FORK_ERRORS])
def test_in_two_processes_without_a_child_calls_neither(monkeypatch, reaped, how):
    attempts = []

    def fork():
        attempts.append(how)
        raise FORK_ERRORS.get(how, AssertionError("forked on one CPU"))

    if how == "no-fork":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0} if how == "one-cpu" else {0, 1})
    assert runner.in_two_processes(_never_called, _never_called) is None
    assert attempts == ([how] if how in FORK_ERRORS else [])


def test_in_two_processes_runs_there_in_a_child_and_raises_its_failure(monkeypatch, reaped,
                                                                      forks):
    def failing():
        raise MemoryError("no room for r=9/5")

    parent = os.getpid()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    here, there = runner.in_two_processes(os.getpid, os.getpid)
    assert here == parent and there not in (parent, None)
    with pytest.raises(MemoryError) as raised:
        runner.in_two_processes(lambda: None, failing)
    assert type(raised.value) is MemoryError and str(raised.value) == "no room for r=9/5"
    assert forks == [parent, parent]


@CPUS
@pytest.mark.parametrize("failing", [{0}, {2}, {0, 1}, {1, 2}, {0, 2}, {0, 1, 2}],
                         ids=lambda jobs: "fail-" + "".join(map(str, sorted(jobs))))
def test_run_ensembles_raises_the_first_failure_in_job_order(monkeypatch, reaped, cpus, failing):
    evolve = runner.evolve
    bad = {SMALL_JOBS[k]["ratio"] for k in failing}

    def failing_evolve(n, ratio, *args, **kwargs):  # the forked child inherits it
        if ratio in bad:
            raise MemoryError(f"no room for r={ratio}")
        return evolve(n, ratio, *args, **kwargs)

    monkeypatch.setattr(runner, "evolve", failing_evolve)
    with pytest.raises(MemoryError) as serial:
        [run_ensemble(**job) for job in SMALL_JOBS]
    assert str(serial.value) == f"no room for r={SMALL_JOBS[min(failing)]['ratio']}"
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    with pytest.raises(MemoryError) as raised:
        runner.run_ensembles(SMALL_JOBS)
    assert type(raised.value) is type(serial.value)
    assert str(raised.value) == str(serial.value)


def _dying_child(monkeypatch):
    """Make every run_ensemble call outside this process kill its own process."""
    parent, run = os.getpid(), runner.run_ensemble

    def dying(**job):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return run(**job)

    monkeypatch.setattr(runner, "run_ensemble", dying)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def test_a_killed_child_raises_child_process_error(monkeypatch, reaped):
    _dying_child(monkeypatch)
    with pytest.raises(ChildProcessError, match=r"without its results \(killed by signal 9\)"):
        runner.run_ensembles(SMALL_JOBS)


def test_a_killed_child_ends_collapse_with_one_error_line(monkeypatch, reaped, tmp_path, capsys):
    _dying_child(monkeypatch)
    out = tmp_path / "out"
    code = main(["collapse", "--n", "4", "--ratio", "3/2", "--ratio", "5/4", "--d", "0.5",
                 "--tmax", "60", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == ("error: the forked child ended without its results "
                            "(killed by signal 9)\n")
    assert not out.exists()


def test_a_failing_parent_kills_and_reaps_its_child(monkeypatch, reaped):
    parent, run = os.getpid(), runner.run_ensemble

    def interrupted(**job):  # the child would sleep far longer than the test waits
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)
        return run(**job)

    monkeypatch.setattr(runner, "run_ensemble", interrupted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        runner.run_ensembles(SMALL_JOBS)
    assert time.monotonic() - start < 30
