"""File export: every output file is written here, and only here.

CSV tables go through write_csv and JSON documents through write_json;
space-time fields are P5 graymaps or raw float matrices. Rows are built
from Python scalars (tolist, int, float), never NumPy scalars, whose
repr would leak into the text. A verb writes its files inside
output_dir, which keeps them out of the output directory unless it succeeds.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

from .diffusion import peclet_number
from .fitting import FitResult
from .lattice import Protocol, total_length
from .metrics import MetricSeries
from .runner import CollapseResult, EnsembleResult

SERIES_HEADER = ["T", "cut_count", "percent_unmixed", "mixing_norm", "mean_subseg_len"]


def write_csv(path, header, rows) -> Path:
    """A CSV table: the header row, then every row."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return path


def json_text(payload) -> str:
    """The JSON layout of every document, on disk and on stdout."""
    return json.dumps(payload, indent=2)


def write_json(path, payload) -> Path:
    path = Path(path)
    path.write_text(json_text(payload) + "\n")
    return path


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


def order_label(perm) -> str:
    """A shuffle order as its digits: (2, 4, 1, 3) -> "2413"."""
    return "".join(map(str, perm))


def fit_payload(fit: FitResult) -> dict:
    return {"m": fit.m, "tau": fit.tau, "alpha": fit.alpha,
            "sse": fit.sse, "converged": fit.converged}


def export_series(series: MetricSeries, path) -> Path:
    """Metric series as CSV with the documented column contract."""
    return write_csv(path, SERIES_HEADER, zip(
        series.t.tolist(), series.cut_count.tolist(), series.percent_unmixed.tolist(),
        series.mixing_norm.tolist(), series.mean_subseg_len.tolist(),
    ))


#: Rows of a space-time raster are written in chunks of about this size.
_CHUNK_BYTES = 1 << 20


class SpaceTimeWriter:
    """A space-time raster streamed to disk, one row per iteration, T = 0 first.

    Called with a 2-D block of rows, as lattice.evolve calls its
    observer, it copies them into a buffer of about 1 MB and writes each
    full buffer as one chunk, so memory stays O(L) however long the run.
    pgm is binary P5 with colors mapped [0, 1] -> 0..255, its header
    written from the declared (rows, width) shape; csv is the raw float
    matrix. Use as a context manager: entering opens the file, and
    leaving the block without an error writes the last rows and checks
    that exactly the declared rows arrived.
    """

    def __init__(self, path, shape: tuple[int, int], format: str = "pgm"):
        if format not in ("pgm", "csv"):
            raise ValueError(f"unknown space-time format {format!r}; use pgm or csv")
        self.path, self.format = Path(path), format
        self.rows, width = shape
        self._chunk = np.empty((max(1, _CHUNK_BYTES // (8 * width)), width))
        self._filled = self._written = 0

    def __call__(self, block) -> None:
        block = np.asarray(block)
        while block.shape[0]:
            k = min(block.shape[0], self._chunk.shape[0] - self._filled)
            self._chunk[self._filled:self._filled + k] = block[:k]
            self._filled += k
            block = block[k:]
            if self._filled == self._chunk.shape[0]:
                self._flush()

    def _flush(self) -> None:
        chunk = self._chunk[:self._filled]
        self._written += self._filled
        self._filled = 0
        if self._written > self.rows:
            raise ValueError(f"space-time raster declared {self.rows} rows, got more")
        if self.format == "pgm":
            self._fh.write(np.clip(np.rint(chunk * 255.0), 0, 255).astype(np.uint8).tobytes())
        else:
            np.savetxt(self._fh, chunk, delimiter=",", fmt="%.17g")

    def __enter__(self) -> "SpaceTimeWriter":
        self._fh = open(self.path, "wb")
        if self.format == "pgm":
            self._fh.write(f"P5\n{self._chunk.shape[1]} {self.rows}\n255\n".encode("ascii"))
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None:
                self._flush()
                if self._written != self.rows:
                    raise ValueError(
                        f"space-time raster declared {self.rows} rows, got {self._written}"
                    )
        finally:
            self._fh.close()


def protocol_metadata(protocol: Protocol, p: float = 2.0) -> dict:
    """Resolved-run description embedded beside every output."""
    pe = None
    if protocol.d > 0 and protocol.t_max > 0:
        pe = peclet_number(total_length(protocol.n, protocol.ratio), protocol.d, protocol.t_max)
    return {
        "n": protocol.n,
        "ratio": {"num": protocol.ratio.num, "den": protocol.ratio.den},
        "permutation": list(protocol.permutation),
        "d": protocol.d,
        "pe": pe,
        "tmax": protocol.t_max,
        "p": p,
        "seed_of_truth": "deterministic",
    }


def export_ensemble(ens: EnsembleResult, out_dir) -> Path:
    """Averaged curves, per-order norm curves, and the fit, as a directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    labels = [order_label(q) for q in ens.permutations]
    write_csv(out / "average_curves.csv",
              ["T", "avg_mixing_norm", "avg_cut_count", "avg_mean_subseg_len"],
              zip(range(ens.t_max + 1), ens.avg_norm.tolist(), ens.avg_cut.tolist(),
                  ens.avg_subseg.tolist()))
    write_csv(out / "permutation_norms.csv", ["T"] + labels,
              ([i] + row.tolist() for i, row in enumerate(ens.series.mixing_norm.T)))
    write_json(out / "ensemble.json", {
        "n": ens.n,
        "ratio": {"num": ens.ratio.num, "den": ens.ratio.den},
        "d": ens.d,
        "tmax": ens.t_max,
        "p": ens.p,
        "m": ens.m,
        "permutations": labels,
        "fit": None if ens.fit is None else fit_payload(ens.fit),
        "t_pe": ens.t_pe,
        "seed_of_truth": "deterministic",
    })
    return out


def export_collapse(cr: CollapseResult, path) -> Path:
    """Rescaled-collapse table: grid, mean, spread band, then each curve."""
    lo = np.maximum(cr.mean_curve - cr.std_curve, 0.0)
    hi = cr.mean_curve + cr.std_curve
    columns = np.vstack([cr.grid, cr.mean_curve, cr.std_curve, lo, hi, cr.curves])
    return write_csv(
        path,
        ["t_over_tpe", "mean_norm", "std", "band_lo", "band_hi"]
        + [f"curve_{k}" for k in range(cr.curves.shape[0])],
        (row.tolist() for row in columns.T),
    )


def export_steepening(rows, path) -> Path:
    """Stopping-time / steepening sweep as CSV, one row per Peclet value.

    Values that do not exist, such as the time of a crossing never
    reached, are left blank.
    """
    return write_csv(
        path,
        ["pe", "d", "found", "t_stop", "t_stop_interp", "t_stop_normalized", "max_slope"],
        ([row.pe, row.d, row.solution.found]
         + ["" if v is None else v for v in (row.solution.iteration, row.solution.interpolated,
                                             row.solution.normalized_time, row.max_slope)]
         for row in rows),
    )


def export_table_one(rows, path) -> Path:
    """Lattice-size table as CSV."""
    return write_csv(path, ["r", "r_n", "xi", "L", "t_max"],
                     ([str(row.ratio), row.r_n, row.xi, row.length, row.t_max]
                      for row in rows))


def export_fit_scatter(entries, path) -> Path:
    """Fit-parameter scatter, one (ratio, d, fit) row per ensemble."""
    return write_csv(path, ["r", "D", "tau", "alpha"],
                     ([str(ratio), d, fit.tau, fit.alpha] for ratio, d, fit in entries))
