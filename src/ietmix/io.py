"""File export: every output file is written here, and only here.

CSV tables go through write_csv's one row template, numeric columns that
repeat their values by way of _write_columns; JSON documents go through
write_json; space-time fields are P5 graymaps or raw float matrices.
Rows are built from Python scalars (tolist, int, float), never NumPy
scalars, whose text differs. A verb writes its files inside output_dir,
which keeps them out of the output directory unless it succeeds.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

from .fitting import FitResult
from .metrics import MetricSeries
from .runner import CollapseResult, EnsembleResult

SERIES_HEADER = ["T", "cut_count", "percent_unmixed", "mixing_norm", "mean_subseg_len"]
#: Rows of a numeric table formatted per write: few calls, and a chunk's text stays small.
_CHUNK = 4096


def write_csv(path, header, chunks) -> Path:
    """A CSV table: the header row, then each chunk of rows (tuples) in one write.

    One "%s,...\r\n" template writes each row: csv.writer's text, since no
    cell the program writes needs quoting (numbers, True/False, blanks, a/b
    ratios, digit labels, fixed header names).
    """
    template = ",".join(["%s"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(template % tuple(header))
        for rows in chunks:
            fh.write("".join(map(template.__mod__, rows)))
            del rows  # free this chunk's cells before the next chunk is made
    return Path(path)


def json_text(payload) -> str:
    """The JSON layout of every document, on disk and on stdout."""
    return json.dumps(payload, indent=2)


def write_json(path, payload) -> Path:
    path = Path(path)
    path.write_text(json_text(payload) + "\n")
    return path


def write_record(path, record: dict) -> Path:
    """The record of what a verb ran, as JSON with seed_of_truth last."""
    return write_json(path, {**record, "seed_of_truth": "deterministic"})


@contextlib.contextmanager
def output_dir(out=None):
    """Yield a staging directory whose files move into out (default ".") on success.

    The stage is a hidden .ietmix-* directory in out or its nearest existing
    ancestor, so each move is a same-filesystem os.replace. On success out is
    created if needed and every file, nested ones too, is moved in one by one
    (out may be "."); on any exception, even KeyboardInterrupt, the stage is removed.
    """
    out = Path(out or ".")
    parent = next(p for p in (out, *out.parents) if p.exists())
    try:
        stage = Path(tempfile.mkdtemp(prefix=".ietmix-", dir=parent))
    except OSError as exc:  # name the directory asked for, not the stage
        raise OSError(f"cannot write to output directory {str(out)!r}: "
                      f"{exc.strerror or exc}") from None
    try:
        yield stage
        for root, _, files in os.walk(stage):
            target = out / Path(root).relative_to(stage)
            target.mkdir(parents=True, exist_ok=True)
            for name in files:
                os.replace(os.path.join(root, name), target / name)
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def order_labels(orders) -> list[str]:
    """Each row of a (P, N) array of orders as its digits: (2, 4, 1, 3) -> "2413"."""
    digits = np.asarray(orders).astype(np.uint8) + ord("0")  # pieces are 1..9
    return digits.view(f"S{digits.shape[1]}").ravel().astype(str).tolist()


def fit_payload(fit: FitResult) -> dict:
    return {"m": fit.m, "tau": fit.tau, "alpha": fit.alpha,
            "sse": fit.sse, "converged": fit.converged}


def _cells(values, rows: slice) -> list[str]:
    """The CSV text of values[rows], each distinct value formatted once.

    Values are told apart by their bit pattern, so -0.0 and 0.0 keep their
    own text; the text is repr's, as csv.writer writes a float or an int.
    """
    chunk = values[rows]
    _, first, inverse = np.unique(chunk.view(f"u{chunk.itemsize}"),
                                  return_index=True, return_inverse=True)
    return np.array([repr(v) for v in chunk[first].tolist()], dtype=object)[inverse].tolist()


def _write_columns(path, header, columns) -> Path:
    """A table of equal-length numeric columns, the first never None; None is a blank column.

    Formatting each float is most of a table's cost and a series repeats
    most of its values, so the rows reach write_csv _CHUNK at a time, each
    distinct value of a chunk formatted once.
    """
    if len({len(v) for v in columns if v is not None}) > 1:
        raise ValueError(f"{Path(path).name}: columns of unequal length")
    return write_csv(path, header, (
        zip(*(itertools.repeat("") if v is None else _cells(v, slice(start, start + _CHUNK))
              for v in columns)) for start in range(0, len(columns[0]), _CHUNK)))


def export_series(series: MetricSeries, path) -> Path:
    """Metric series as CSV with the documented column contract."""
    return _write_columns(path, SERIES_HEADER, (
        series.t, series.cut_count, series.percent_unmixed, series.mixing_norm,
        series.mean_subseg_len))


class SpaceTimeWriter:
    """A space-time raster streamed to disk, its rows in the order they arrive.

    Called with a 2-D block of rows, as lattice.evolve calls its
    observer, it writes them straight to the open file, so memory stays
    O(rows per call · L) however long the run. With the one order of a
    simulate run, evolve's blocks hold consecutive iterations, so the
    raster has one row per iteration, T = 0 first. pgm is binary P5 with
    colors mapped [0, 1] -> 0..255, its header written from the declared
    (rows, width) shape; csv is the raw float matrix, the text
    np.savetxt writes with fmt="%.17g". Use as a context manager:
    entering opens the file, and leaving the block without an error
    checks that exactly the declared rows arrived.
    """

    def __init__(self, path, shape: tuple[int, int], format: str = "pgm"):
        if format not in ("pgm", "csv"):
            raise ValueError(f"unknown space-time format {format!r}; use pgm or csv")
        self.path, self.format = Path(path), format
        self.rows, self.width = shape
        if format == "csv":  # a pgm row needs no template, and may be far too wide for one
            self._csv_row = ",".join(["%.17g"] * self.width) + "\n"
        self._written = 0

    def __call__(self, block) -> None:
        block = np.asarray(block)
        self._written += block.shape[0]
        if self._written > self.rows:
            raise ValueError(f"space-time raster declared {self.rows} rows, got more")
        if self.format == "pgm":
            self._fh.write(np.rint(block * 255.0).clip(0, 255).astype(np.uint8).tobytes())
        else:
            self._fh.write("".join(self._csv_row % tuple(row) for row in block.tolist())
                           .encode("ascii"))

    def __enter__(self) -> "SpaceTimeWriter":
        self._fh = open(self.path, "wb")
        if self.format == "pgm":
            self._fh.write(f"P5\n{self.width} {self.rows}\n255\n".encode("ascii"))
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None and self._written != self.rows:
                raise ValueError(f"space-time raster declared {self.rows} rows, "
                                 f"got {self._written}")
        finally:
            self._fh.close()


def export_ensemble(ens: EnsembleResult, out_dir) -> Path:
    """Averaged curves, per-order norm curves, and the fit, as a directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    labels = order_labels(ens.permutations)
    _write_columns(out / "average_curves.csv",
                   ["T", "avg_mixing_norm", "avg_cut_count", "avg_mean_subseg_len"],
                   (np.arange(ens.t_max + 1), ens.avg_norm, ens.avg_cut, ens.avg_subseg))
    write_csv(out / "permutation_norms.csv", ["T"] + labels,  # a row per write: a cell per order
              ([(i, *row.tolist())] for i, row in enumerate(ens.series.mixing_norm.T)))
    write_record(out / "ensemble.json", {
        "n": ens.n, "ratio": {"num": ens.ratio.num, "den": ens.ratio.den}, "d": ens.d,
        "tmax": ens.t_max, "p": ens.p, "m": ens.m, "permutations": labels,
        "fit": None if ens.fit is None else fit_payload(ens.fit), "t_pe": ens.t_pe})
    return out


def export_collapse(cr: CollapseResult, path) -> Path:
    """Rescaled-collapse table: grid, mean, spread band, then each curve.

    Its values are mostly distinct, so its rows go to write_csv as one chunk.
    """
    lo = np.maximum(cr.mean_curve - cr.std_curve, 0.0)
    hi = cr.mean_curve + cr.std_curve
    columns = (cr.grid, cr.mean_curve, cr.std_curve, lo, hi, *cr.curves)
    return write_csv(path, ["t_over_tpe", "mean_norm", "std", "band_lo", "band_hi"]
                     + [f"curve_{k}" for k in range(len(cr.curves))],
                     [zip(*(column.tolist() for column in columns))])


def export_steepening(rows, path) -> Path:
    """Stopping-time / steepening sweep as CSV, one row per Peclet value.

    Values that do not exist, such as the time of a crossing never
    reached, are left blank.
    """
    return write_csv(
        path, ["pe", "d", "found", "t_stop", "t_stop_interp", "t_stop_normalized", "max_slope"],
        [((row.pe, row.d, row.solution.found,
           *("" if v is None else v for v in (row.solution.iteration, row.solution.interpolated,
                                              row.solution.normalized_time, row.max_slope)))
          for row in rows)])


def export_table_one(rows, path) -> Path:
    """Lattice-size table as CSV."""
    return write_csv(path, ["r", "r_n", "xi", "L", "t_max"],
                     [((str(row.ratio), row.r_n, row.xi, row.length, row.t_max)
                       for row in rows)])


def export_fit_scatter(entries, path) -> Path:
    """Fit-parameter scatter, one (ratio, d, fit) row per ensemble."""
    return write_csv(path, ["r", "D", "tau", "alpha"],
                     [((str(ratio), d, fit.tau, fit.alpha) for ratio, d, fit in entries)])
