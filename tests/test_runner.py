"""Ensemble averaging, rescaled collapse, steepening sweep, size table."""

import dataclasses

import numpy as np
import pytest

from ietmix import runner
from ietmix.cli import main
from ietmix.fitting import efolding_time
from ietmix.lattice import Ratio
from ietmix.permutations import enumerate_allowed
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
    assert ens.permutations == tuple(enumerate_allowed(4))
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
    assert ens.permutations == ((3, 1, 4, 2),)
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
