"""Export formats: series CSV, space-time rasters, metadata, bundles."""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ietmix
from ietmix.cli import main
from ietmix.io import (
    _CHUNK,
    SERIES_HEADER,
    SpaceTimeWriter,
    export_collapse,
    export_ensemble,
    export_fit_scatter,
    export_series,
    export_steepening,
    export_table_one,
    output_dir,
    write_json,
)
from ietmix.lattice import Protocol, Ratio, iterate
from ietmix.metrics import MetricSeries, compute_series
from ietmix.runner import collapse, run_ensemble, steepening_report, table_one


@pytest.fixture()
def short_fields():
    proto = Protocol(n=4, ratio=Ratio(3, 2), permutation=(3, 1, 4, 2), d=0.0, t_max=2)
    return iterate(proto)


def write_raster(fields, path, format="pgm"):
    with SpaceTimeWriter(path, fields.shape, format) as write:
        write(fields)
    return path


def test_series_csv_roundtrip(tmp_path, short_fields):
    series = compute_series(short_fields)
    path = export_series(series, tmp_path / "series.csv")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == SERIES_HEADER
    assert len(rows) == 4
    assert [int(r[0]) for r in rows[1:]] == [0, 1, 2]
    assert [int(r[1]) for r in rows[1:]] == [3, 3, 6]
    assert float(rows[3][2]) == pytest.approx(300.0 / 13)


def test_series_csv_leaves_a_metric_not_computed_blank(tmp_path):
    # A D = 0 ensemble row carries cut counts but no percent_unmixed.
    series = run_ensemble(4, Ratio(3, 2), 0.0, 20).series.row(0)
    assert series.percent_unmixed is None
    with open(export_series(series, tmp_path / "series.csv"), newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 21
    assert [r[1] for r in rows] == [str(c) for c in series.cut_count.tolist()]
    assert {r[2] for r in rows} == {""}
    assert [float(r[3]) for r in rows] == series.mixing_norm.tolist()


def test_series_csv_refuses_columns_of_unequal_length(tmp_path):
    # One norm more than the runs, as a join of two norm ranges could leave.
    series = compute_series(iterate(Protocol(n=4, ratio=Ratio(3, 2), permutation=(3, 1, 4, 2),
                                             d=0.5, t_max=6)))
    longer = MetricSeries(series.cut_count, series.percent_unmixed,
                          np.append(series.mixing_norm, 0.0), series.p, series.cbar)
    with pytest.raises(ValueError, match="columns of unequal length"):
        export_series(longer, tmp_path / "series.csv")
    assert not (tmp_path / "series.csv").exists()


def csv_writer_series(series, path):
    """series.csv as one csv.writer writes it, the reference of export_series."""
    columns = (series.cut_count, series.percent_unmixed, series.mixing_norm,
               series.mean_subseg_len)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(SERIES_HEADER)
        w.writerows(zip(series.t.tolist(), *([""] * len(series) if v is None else v.tolist()
                                             for v in columns)))
    return path


# Floats whose text a shortcut could get wrong: both zeros, both infinities, NaNs
# with other signs and payloads, subnormals, and neighbours one ulp apart.
SPECIAL_FLOATS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072009e-308,
    *np.array([0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001],
              dtype=np.uint64).view(np.float64).tolist(),
    0.1, float(np.nextafter(0.1, 1.0)), 1e16, 1e-5, 100.0 / 3,
]


@settings(deadline=None, max_examples=40)
@given(
    length=st.one_of(st.sampled_from([1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1]),
                     st.integers(1, 3 * _CHUNK)),
    floats=st.lists(st.floats(), max_size=12),
    counts=st.lists(st.integers(0, 2**63 - 2), min_size=1, max_size=12),
    runs=st.booleans(),
    unmixed=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_series_csv_is_csv_writers_bytes(tmp_path_factory, length, floats, counts, runs,
                                         unmixed, seed):
    # Each column draws from a small pool of values, so chunks repeat values as
    # real series do; a run metric that was not computed is a blank column.
    rng = np.random.default_rng(seed)
    pick = lambda pool, dtype: np.array(pool, dtype=dtype)[rng.integers(len(pool), size=length)]
    floats = SPECIAL_FLOATS + floats
    series = MetricSeries(pick(counts, np.int64) if runs else None,
                          pick(floats, np.float64) if runs and unmixed else None,
                          pick(floats, np.float64), 2.0, 0.5)
    out = tmp_path_factory.mktemp("series")
    assert (export_series(series, out / "a.csv").read_bytes()
            == csv_writer_series(series, out / "b.csv").read_bytes())


def test_spacetime_pgm_layout(tmp_path, short_fields):
    path = write_raster(short_fields, tmp_path / "grid.pgm")
    blob = path.read_bytes()
    header = b"P5\n65 3\n255\n"
    assert blob.startswith(header)
    assert len(blob) == len(header) + 65 * 3
    body = np.frombuffer(blob[len(header):], dtype=np.uint8).reshape(3, 65)
    # First row is the initial condition: piece colors 0, 1/3, 2/3, 1.
    assert body[0, 0] == 0 and body[0, -1] == 255
    assert body[0, 10] == 85  # round(255/3)


def test_spacetime_csv_matrix(tmp_path, short_fields):
    path = write_raster(short_fields, tmp_path / "grid.csv", format="csv")
    grid = np.loadtxt(path, delimiter=",")
    assert grid.shape == (3, 65)
    assert np.array_equal(grid[0], short_fields[0])


def test_spacetime_writer_rejects_a_bad_format(tmp_path, short_fields):
    with pytest.raises(ValueError, match="unknown space-time format"):
        write_raster(short_fields, tmp_path / "x.bmp", format="bmp")
    assert not (tmp_path / "x.bmp").exists()


@pytest.mark.parametrize("rows", [2, 4])
def test_spacetime_writer_refuses_a_wrong_row_count(tmp_path, rows):
    block = np.zeros((rows, 5))
    with pytest.raises(ValueError, match="declared 3 rows"):
        with SpaceTimeWriter(tmp_path / "x.pgm", (3, 5)) as write:
            write(block)


def test_pgm_writer_of_any_width_constructs(tmp_path):
    # Only a csv writer builds a row template; one 10**17 cells wide would not fit.
    writer = SpaceTimeWriter(tmp_path / "x.pgm", (2, 10**17))
    assert (writer.rows, writer.width) == (2, 10**17)


@pytest.mark.parametrize("format", ["pgm", "csv"])
def test_spacetime_writer_keeps_the_rows_in_order(tmp_path, format):
    # Rows written one call at a time land in the file as one matrix,
    # the bytes the whole matrix gets in a single call.
    fields = np.linspace(0.0, 1.0, 3 * 2_000).reshape(3, 2_000)
    path = tmp_path / f"x.{format}"
    with SpaceTimeWriter(path, fields.shape, format) as write:
        for row in fields:
            write(row[None])
    assert path.read_bytes() == write_raster(fields, tmp_path / f"all.{format}",
                                             format).read_bytes()
    if format == "csv":
        assert np.array_equal(np.loadtxt(path, delimiter=","), fields)
    else:
        body = np.frombuffer(path.read_bytes()[-fields.size:], dtype=np.uint8)
        assert np.array_equal(body.reshape(fields.shape), np.rint(fields * 255))


def test_ensemble_bundle(tmp_path):
    ens = run_ensemble(4, Ratio(3, 2), 0.5, 60)
    out = export_ensemble(ens, tmp_path / "bundle")
    names = {p.name for p in out.iterdir()}
    assert names == {"average_curves.csv", "permutation_norms.csv", "ensemble.json"}
    payload = json.loads((out / "ensemble.json").read_text())
    assert payload["permutations"][0] == "2413"
    assert payload["fit"]["converged"] is True
    with open(out / "permutation_norms.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert header == ["T"] + [
        "".join(map(str, p)) for p in ens.permutations
    ]


def test_ensemble_bundle_without_runs_leaves_their_averages_blank(tmp_path):
    ens = run_ensemble(4, Ratio(3, 2), 0.5, 30, runs=False)
    out = export_ensemble(ens, tmp_path / "bundle")
    with open(out / "average_curves.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [float(r[1]) for r in rows] == ens.avg_norm.tolist()
    assert {(r[2], r[3]) for r in rows} == {("", "")}
    assert json.loads((out / "ensemble.json").read_text())["permutations"][0] == "2413"


def test_collapse_csv_band_floor(tmp_path):
    ens = run_ensemble(4, Ratio(3, 2), 0.5, 120)
    cr = collapse([ens], grid_points=50)
    path = export_collapse(cr, tmp_path / "collapse.csv")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:5] == ["t_over_tpe", "mean_norm", "std", "band_lo", "band_hi"]
    assert rows[0][5:] == ["curve_0"]
    lows = np.array([float(r[3]) for r in rows[1:]])
    assert np.all(lows >= 0.0)
    assert len(rows) == 51


def test_steepening_csv(tmp_path):
    rows = steepening_report(4, Ratio(3, 2), 120, [80.0, 1e8])
    path = export_steepening(rows, tmp_path / "sweep.csv")
    with open(path, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == ["pe", "d", "found", "t_stop", "t_stop_interp",
                         "t_stop_normalized", "max_slope"]
    assert parsed[1][2] == "True" and parsed[2][2] == "False"
    assert parsed[2][3] == ""  # unreachable crossing leaves blanks, not zeros


def test_table_csv(tmp_path):
    rows = table_one([Ratio(5, 4), Ratio(6, 5)])
    path = export_table_one(rows, tmp_path / "table.csv")
    with open(path, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert parsed[1] == ["5/4", "5", "64", "369", "50"]
    assert parsed[2] == ["6/5", "6", "125", "671", "166"]


def test_fit_scatter_csv(tmp_path):
    ens = run_ensemble(4, Ratio(3, 2), 0.5, 60)
    path = export_fit_scatter([(ens.ratio, ens.d, ens.fit)], tmp_path / "fits.csv")
    with open(path, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == ["r", "D", "tau", "alpha"]
    assert parsed[1][0] == "3/2"
    assert float(parsed[1][2]) == pytest.approx(ens.fit.tau)


def digests(root):
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


# Files written by the command line before every output went through
# io.write_csv and io.write_json; they must stay byte for byte the same.
def test_sweep_bundle_bytes_unchanged(tmp_path):
    assert main(["sweep", "--n", "4", "--ratio", "5/4", "--ratio", "6/5", "--d", "0.5",
                 "--tmax-from", "369,50", "--out", str(tmp_path)]) == 0
    assert digests(tmp_path) == {
        "config.json": "dca5f49bb7357e19afaf434c5a2ece9627e2da763c861c68938d600f23684d17",
        "fits.csv": "df019485d54b32fd76ede768ce9d5bf15301e9a2689f7013f924e039d9acf5e9",
        "r5_4/average_curves.csv":
            "1b9f2828a0664dd3e55b14e92a1b1fb6b63eb9310d79a89a5e45a36b25646b25",
        "r5_4/ensemble.json": "08febca1e28a0dbcdcab907a453b0817cc0487dfd38b99782a16f963e0058780",
        "r5_4/permutation_norms.csv":
            "45b086ecc4320b442dc9c8f85e0972658a5bf72277075f5624eddd9f9f665e35",
        "r6_5/average_curves.csv":
            "d5ccfb1e4052df887391acd4da94ef509ce99d469057ea6e7c5f97fbe5fcae37",
        "r6_5/ensemble.json": "003e2357304bf2fc3f541d3632cb88233b5c58e7e1bc186945251c5c32d4c33c",
        "r6_5/permutation_norms.csv":
            "1de2e457cedf8fb3a85daf5a826330232f88ca62afe52b07dc243d26ab40c825",
    }


def test_fit_json_bytes_unchanged(tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["simulate", "--n", "4", "--ratio", "5/4", "--perm", "3,1,4,2", "--d", "0.5",
                 "--tmax", "50", "--out", str(run)]) == 0
    capsys.readouterr()
    assert main(["fit", "--series", str(run / "series.csv"), "--out", str(tmp_path / "fit")]) == 0
    blob = (tmp_path / "fit" / "fit.json").read_bytes()
    assert hashlib.sha256(blob).hexdigest() == (
        "95f1d20d06058fe5623c55a140eff17bce0c617a7938615141b619f5428a8744"
    )
    assert capsys.readouterr().out.encode() == blob


def test_table1_csv_bytes_unchanged(tmp_path):
    assert main(["table1", "--out", str(tmp_path)]) == 0
    assert digests(tmp_path) == {
        "table1.csv": "19a8811f86810a29e69524a0373fef1ed6ff0055ec5c3f0b15a68bf80c78fa1b",
    }


# Frozen while collapse.csv and stopping_times.csv were still written by
# csv.writer; they must stay byte for byte the same.
COLLAPSE = ["collapse", "--n", "4", "--ratio", "5/4", "--ratio", "6/5", "--d", "0.5",
            "--tmax-from", "369,50", "--grid-points", "50"]
# At Pe = 1e8 the crossing is never reached: blank cells and False.
STOPPING = ["stopping-time", "--n", "4", "--ratio", "3/2", "--tmax", "120", "--pe", "80",
            "--pe", "1e8", "--steepening"]


def test_collapse_bundle_bytes_unchanged(tmp_path):
    assert main([*COLLAPSE, "--out", str(tmp_path)]) == 0
    assert digests(tmp_path) == {
        "collapse.csv": "c22a1ae46872caccf4672fc7593c4965c5f140c66e70ec555808a93c67fa736a",
        "config.json": "40aa11936bb770f51f36482b4b044e670b70b4a480f40d8647d553c3867d8a6c",
        "universal_fit.json": "c9a52e601443f2b2eb979e25743767eff99abff7f5c7247ba42fd38c5784e674",
    }


def test_stopping_time_bundle_bytes_unchanged(tmp_path):
    assert main([*STOPPING, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "stopping_times.csv").read_text().splitlines()[2] == (
        "100000000.0,3.5208333333333333e-07,False,,,,")
    assert digests(tmp_path) == {
        "config.json": "a372257e85bce29caa3c11b39918d58195021a7181708f7183ec29cd30a111ca",
        "stopping_times.csv": "4c200fd8390aa5a21a0d6788ea4f9a32083f5ed1ccc27a30f69f05b80784b4cf",
    }


def test_every_table_is_csv_writers_bytes(tmp_path):
    # Read back and rewritten by csv.writer, each table keeps its bytes only
    # if none of its cells needs quoting; a comma in a cell would split it,
    # so every row must also be as wide as the header.
    for k, args in enumerate([
        ["simulate", "--n", "4", "--ratio", "5/4", "--perm", "3,1,4,2", "--d", "0.5",
         "--tmax", "50", "--format", "none"],
        ["sweep", "--n", "4", "--ratio", "5/4", "--ratio", "6/5", "--d", "0.5",
         "--tmax-from", "369,50"],
        COLLAPSE, STOPPING, ["table1"],
    ]):
        assert main([*args, "--out", str(tmp_path / "out" / str(k))]) == 0
    tables = sorted((tmp_path / "out").rglob("*.csv"))
    assert {path.name for path in tables} == {
        "series.csv", "average_curves.csv", "permutation_norms.csv", "fits.csv",
        "collapse.csv", "stopping_times.csv", "table1.csv"}
    for path in tables:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert {len(row) for row in rows} == {len(rows[0])}, path
        with open(tmp_path / "copy.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert (tmp_path / "copy.csv").read_bytes() == path.read_bytes(), path


# A diffusive raster of 121 rows of L = 1484 sites, streamed row by row
# to the file. Hashes taken from the command line when it still held the
# whole history in memory.
RASTER = ["simulate", "--n", "4", "--ratio", "9/5", "--perm", "3,1,4,2", "--d", "0.3",
          "--tmax", "120"]
RASTER_SIDECARS = {
    "metadata.json": "5e82b03cb7a7d7a3184ec9513963fb16fc9c993e8eb2e24fe2fecb3ba09813cb",
    "series.csv": "bb9efc3d4d348a99c043a3e3ba6376552c998d5b621d9456e5c29b4b7dc3e27c",
}


def test_simulate_pgm_bytes_unchanged(tmp_path):
    assert main([*RASTER, "--out", str(tmp_path)]) == 0
    assert digests(tmp_path) == {
        **RASTER_SIDECARS,
        "spacetime.pgm": "dd0db65f1c0a20d409d856aaac1c50be6e66cc24695d203353e7dc970223f913",
    }


def test_simulate_csv_bytes_unchanged(tmp_path):
    assert main([*RASTER, "--format", "csv", "--out", str(tmp_path)]) == 0
    assert digests(tmp_path) == {
        **RASTER_SIDECARS,
        "spacetime.csv": "755f3c50d5c7fe7801f7fd6d919ff5ecae16d21f23e123ea5487a9e7cb05b3ca",
    }


# The probe's own peak resident set (VmHWM, in kB). ru_maxrss is no use
# here: Linux carries the parent's high-water mark across execve, so a
# child of a big pytest process would report the parent's peak.
_PEAK_RSS_PROBE = """
import sys
from ietmix.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    peak_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(code, peak_kb)
"""


def test_simulate_raster_memory_does_not_grow_with_the_run(tmp_path):
    # 13,001 rows of L = 1484 sites: a float64 history would take 154 MB.
    rows, length = 13_001, 1484
    history_kb = rows * length * 8 // 1024
    src = Path(ietmix.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_PROBE, "simulate", "--n", "4", "--ratio", "9/5",
         "--perm", "3,1,4,2", "--d", "0.5", "--tmax", str(rows - 1), "--out", str(tmp_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    code, peak_kb = map(int, proc.stdout.split()[-2:])
    assert code == 0
    assert (tmp_path / "spacetime.pgm").stat().st_size > rows * length
    assert peak_kb < history_kb

# The package surface: the names the acceptance checks import plus the
# two errors the README documents. Everything else lives in submodules.
PUBLIC_NAMES = [
    "CapacityError", "Protocol", "Ratio", "StabilityError", "average_color", "collapse",
    "compute_series", "cut_positions", "diffusion_step", "enumerate_allowed",
    "fit_stretched_exponential", "initial_field", "iterate", "match_iterations",
    "mixing_norm", "run_ensemble", "shuffle_step", "solve_stopping_time",
    "steepening_report", "stretched_exponential", "table_one", "total_length", "violations",
]


def test_package_surface_is_the_documented_list():
    assert ietmix.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(ietmix, name) is not None


@pytest.mark.parametrize("exc", [ValueError, KeyboardInterrupt])
def test_output_dir_removes_its_stage_on_any_exception(tmp_path, exc):
    with pytest.raises(exc):
        with output_dir(tmp_path / "a" / "b") as stage:
            assert stage.parent == tmp_path and stage.name.startswith(".ietmix-")
            (stage / "nested").mkdir()
            write_json(stage / "nested" / "x.json", {})
            raise exc
    assert os.listdir(tmp_path) == []


def test_output_dir_moves_nested_files_into_an_existing_directory(tmp_path):
    (tmp_path / "old.txt").write_text("old\n")
    with output_dir(tmp_path) as stage:
        assert stage.parent == tmp_path
        (stage / "nested").mkdir()
        write_json(stage / "nested" / "x.json", {"a": 1})
        write_json(stage / "top.json", [])
    assert sorted(os.listdir(tmp_path)) == ["nested", "old.txt", "top.json"]
    assert json.loads((tmp_path / "nested" / "x.json").read_text()) == {"a": 1}
