"""Command-line interface: verbs, flag resolution, config files, outputs."""

import argparse
import csv
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import ietmix
from ietmix import cli, permutations
from ietmix.cli import build_parser, main
from ietmix.diffusion import diffusion_step
from ietmix.io import SpaceTimeWriter, export_series
from ietmix.lattice import Ratio, cut_positions, initial_field, shuffle_step
from ietmix.metrics import compute_series


def run_cli(*argv):
    return main(list(argv))


def test_table1_prints_reference_row(capsys):
    assert run_cli("table1") == 0
    out = capsys.readouterr().out
    assert "369" in out and "14057" in out
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 8  # header + seven default ratios


def test_table1_writes_csv(tmp_path):
    assert run_cli("table1", "--ratio", "5/4", "--out", str(tmp_path)) == 0
    with open(tmp_path / "table1.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1] == ["5/4", "5", "64", "369", "50"]


def test_list_permutations(capsys):
    assert run_cli("list-permutations", "--n", "4") == 0
    lines = capsys.readouterr().out.split()
    assert len(lines) == 9
    assert lines[0] == "2413"


def test_list_permutations_rejected(capsys):
    assert run_cli("list-permutations", "--n", "4", "--rejected") == 0
    out = capsys.readouterr().out
    assert "2143 rejected: reducible" in out
    assert "2341 rejected: rotation" in out
    assert "4231 rejected: fixed-consecutive-block" in out


# The output's sha256, taken when each line went through its own f-string.
# n = 2 has no allowed order, so it prints nothing, and with --rejected the
# list of rejected orders starts with a blank line.
LISTED_DIGESTS = {
    ("2",): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("2", "--rejected"): "a94756975acb16bfd17886d05dfe2f848c4f54c0a668f8c0685f718c8e9ca217",
    ("3",): "ff6f81930943c96a37d7741cd547ad90295a9bd63b6194b2a834a1d32bc8f85d",
    ("3", "--rejected"): "16397653902e3233dcb950734992573ded688f26a73493e2b30f0b5fd0285cb8",
    ("5",): "6b3a783c7eb49a64e54f6fef97288ffe589f5e5adc55e4398d85f6b3ec9d80c4",
    ("6", "--rejected"): "e6798769dbce8c37aeaa238b24025f5710e5b5715a4ca1ce8515d1aa1ee9d2df",
}


@pytest.mark.parametrize("argv", LISTED_DIGESTS, ids=" ".join)
def test_list_permutations_keeps_its_bytes(capsys, argv):
    assert run_cli("list-permutations", "--n", *argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == LISTED_DIGESTS[argv]
    if argv == ("2", "--rejected"):
        assert out == "\n12 rejected: reducible, rotation, fixed-endpoint\n21 rejected: rotation\n"


def test_simulate_writes_series_raster_metadata(tmp_path, capsys, reaped):
    code = run_cli(
        "simulate", "--n", "4", "--ratio", "3/2", "--perm", "3,1,4,2",
        "--tmax", "2", "--out", str(tmp_path),
    )
    assert code == 0
    assert (tmp_path / "series.csv").exists()
    assert (tmp_path / "spacetime.pgm").exists()
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["tmax"] == 2 and meta["d"] == 0.0
    assert meta["pe"] is None  # no diffusion, no Peclet number
    with open(tmp_path / "series.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[3][1] == "6"  # cut count after two shuffles
    assert float(rows[3][2]) == pytest.approx(300.0 / 13)


def test_simulate_format_none_skips_raster(tmp_path):
    code = run_cli(
        "simulate", "--n", "4", "--ratio", "3/2", "--perm", "3,1,4,2",
        "--tmax", "3", "--format", "none", "--out", str(tmp_path),
    )
    assert code == 0
    assert sorted(os.listdir(tmp_path)) == ["metadata.json", "series.csv"]


# With diffusion, simulate forks one child, which scans the runs, writes the
# raster and scores the last norms while this process scores the others, when
# it may use two CPUs. Every way of running it writes the bytes of the
# single-process run, the one-CPU run, which evolves once with both scans; a
# fork that fails also gives that run, so this process evolves once.
SIMULATE = ["simulate", "--n", "4", "--ratio", "9/5", "--perm", "3,1,4,2", "--d", "0.3",
            "--tmax", "120"]


@pytest.mark.parametrize("cpus", [{0, 1}, {0}], ids=["two-cpus", "one-cpu"])
def test_simulate_forks_once_on_two_cpus_and_never_on_one(monkeypatch, reaped, forks,
                                                           tmp_path, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    assert run_cli(*SIMULATE, "--out", str(tmp_path)) == 0
    assert len(forks) == (len(cpus) > 1)


_FORK_ERRORS = {"eagain": BlockingIOError(11, "Resource temporarily unavailable"),
                "enomem": OSError(12, "Cannot allocate memory")}


def _simulate_run(argv, cwd: Path, monkeypatch, capsys):
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    code = run_cli(*argv, "--out", "out")
    return code, capsys.readouterr(), {f.name: f.read_bytes() for f in (cwd / "out").iterdir()}


@pytest.mark.parametrize("fmt", ["pgm", "csv"])
@pytest.mark.parametrize("how", ["two-cpus", "one-cpu", "no-fork", "eagain", "enomem"])
def test_simulate_writes_the_single_process_bytes(monkeypatch, reaped, tmp_path, capsys,
                                                  how, fmt):
    argv = [*SIMULATE, "--format", fmt]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    serial = _simulate_run(argv, tmp_path / "serial", monkeypatch, capsys)
    attempts, fork, evolves, evolve = [], os.fork, [], cli.evolve

    def counted_evolve(*args, **kwargs):  # a forked child counts in its own copy
        evolves.append(args)
        return evolve(*args, **kwargs)

    def counted():  # a fork that fails does so as under a pids limit, or without memory
        attempts.append(how)
        if how in _FORK_ERRORS:
            raise _FORK_ERRORS[how]
        return fork()

    if how == "no-fork":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0} if how == "one-cpu" else {0, 1})
    monkeypatch.setattr(cli, "evolve", counted_evolve)
    assert _simulate_run(argv, tmp_path / how, monkeypatch, capsys) == serial
    assert serial[0] == 0 and sorted(serial[2]) == ["metadata.json", "series.csv",
                                                    f"spacetime.{fmt}"]
    assert len(attempts) == (how in ("two-cpus", *_FORK_ERRORS))
    assert len(evolves) == 1


def _reference_files(t_max: int, d: float, fmt: str, out: Path) -> dict:
    """simulate's data files for SIMULATE's protocol, from each field composed of
    shuffle_step and diffusion_step, scored by compute_series."""
    ratio, perm = Ratio(9, 5), (3, 1, 4, 2)
    fields = [initial_field(4, ratio)]
    for _ in range(t_max):
        field = shuffle_step(fields[-1], cut_positions(4, ratio), perm)
        fields.append(diffusion_step(field, d) if d > 0.0 else field)
    fields = np.array(fields)
    out.mkdir()
    export_series(compute_series(fields), out / "series.csv")
    if fmt != "none":
        with SpaceTimeWriter(out / f"spacetime.{fmt}", fields.shape, fmt) as raster:
            raster(fields)
    return {f.name: f.read_bytes() for f in out.iterdir()}


# On two CPUs and with diffusion the child scores the norms of the last
# (T+1)//8 iterations and this process those before: none in the child below
# T = 7, one at T = 9, two at T = 17 and five at T = 40, where both processes'
# last blocks of eleven states are part-full. At D = 0 no fork is tried. Every
# way of running must write the files of the reference path, and the one-CPU
# run's bytes, stdout included.
@pytest.mark.parametrize("fmt", ["pgm", "csv", "none"])
@pytest.mark.parametrize("d", [0.0, 0.3, 0.5])
@pytest.mark.parametrize("t_max", [0, 1, 4, 5, 9, 17, 40])
def test_simulate_joins_the_norms_of_both_processes(monkeypatch, reaped, tmp_path, capsys,
                                                    t_max, d, fmt):
    argv = [*SIMULATE[:-4], "--d", str(d), "--tmax", str(t_max), "--format", fmt]
    want = _reference_files(t_max, d, fmt, tmp_path / "want")
    attempts, fork = [], os.fork

    def counted():
        attempts.append(len(runs))
        if len(runs) == 2:  # the third run's fork fails as under a pids limit
            raise _FORK_ERRORS["eagain"]
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    runs = []
    for how, cpus in (("one-cpu", {0}), ("two-cpus", {0, 1}), ("eagain", {0, 1})):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        runs.append(_simulate_run(argv, tmp_path / how, monkeypatch, capsys))
    assert attempts == ([1, 2] if d > 0.0 else [])
    serial = runs[0]
    assert serial[0] == 0 and serial[1].err == ""
    assert {name: serial[2][name] for name in want} == want
    assert sorted(serial[2]) == sorted([*want, "metadata.json"])
    assert runs[1] == serial and runs[2] == serial


def _evolve_by_process(monkeypatch, here, child):
    """Two CPUs, and cli.evolve's arguments going to here(evolve, ...) in this
    process and to child(evolve, ...) in a forked child."""
    parent, evolve = os.getpid(), cli.evolve

    def patched(*args, **kwargs):
        return (here if os.getpid() == parent else child)(evolve, *args, **kwargs)

    monkeypatch.setattr(cli, "evolve", patched)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return parent


def _run(evolve, *args, **kwargs):
    return evolve(*args, **kwargs)


def _die(evolve, *args, **kwargs):
    os.kill(os.getpid(), signal.SIGKILL)


def _interrupt(evolve, *args, **kwargs):
    raise KeyboardInterrupt


def _sleep(evolve, *args, **kwargs):
    time.sleep(60)  # far longer than the test waits


def test_a_killed_raster_child_ends_simulate_with_one_error_line(monkeypatch, reaped,
                                                                 tmp_path, capsys):
    _evolve_by_process(monkeypatch, _run, _die)
    assert run_cli(*SIMULATE, "--out", str(tmp_path / "out")) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the forked child ended without its results "
                            "(killed by signal 9)\n")
    assert os.listdir(tmp_path) == []  # neither --out nor the stage


def test_a_failing_simulate_kills_and_reaps_its_raster_child(monkeypatch, reaped, forks,
                                                              tmp_path):
    parent = _evolve_by_process(monkeypatch, _interrupt, _sleep)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_cli(*SIMULATE, "--out", str(tmp_path / "out"))
    assert time.monotonic() - start < 30
    assert forks == [parent]
    assert os.listdir(tmp_path) == []


def test_simulate_resolves_peclet_to_diffusivity(tmp_path):
    run_cli(
        "simulate", "--n", "4", "--ratio", "6/5", "--perm", "2,4,1,3",
        "--tmax", "500", "--pe", "2000", "--format", "none", "--out", str(tmp_path),
    )
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["ratio"] == {"num": 6, "den": 5}
    assert meta["permutation"] == [2, 4, 1, 3]
    assert meta["d"] == pytest.approx(0.450241)
    assert meta["pe"] == pytest.approx(2000.0)
    assert meta["seed_of_truth"] == "deterministic"


def test_simulate_tmax_from_reference(tmp_path):
    run_cli(
        "simulate", "--n", "4", "--ratio", "6/5", "--perm", "2,4,1,3",
        "--tmax-from", "369,50", "--format", "none", "--out", str(tmp_path),
    )
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["tmax"] == 166


def test_conflicting_flags_exit_nonzero(tmp_path, capsys):
    code = run_cli(
        "simulate", "--n", "4", "--ratio", "3/2", "--perm", "3,1,4,2",
        "--tmax", "5", "--d", "0.3", "--pe", "100", "--out", str(tmp_path),
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_missing_tmax_exits_nonzero(capsys):
    code = run_cli("simulate", "--n", "4", "--ratio", "3/2", "--perm", "3,1,4,2")
    assert code == 1
    assert "tmax" in capsys.readouterr().err


def test_fit_verb_on_simulated_series(tmp_path, capsys):
    run_cli(
        "simulate", "--n", "4", "--ratio", "3/2", "--perm", "3,1,4,2",
        "--tmax", "150", "--d", "0.5", "--format", "none", "--out", str(tmp_path),
    )
    capsys.readouterr()
    code = run_cli("fit", "--series", str(tmp_path / "series.csv"),
                   "--out", str(tmp_path))
    assert code == 0
    payload = json.loads((tmp_path / "fit.json").read_text())
    assert payload["converged"] is True
    assert 0.1 <= payload["alpha"] <= 2.0


def test_fit_rejects_header_only_series(tmp_path, capsys):
    path = tmp_path / "series.csv"
    path.write_text("T,cut_count,percent_unmixed,mixing_norm,mean_subseg_len\n")
    assert run_cli("fit", "--series", str(path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "series.csv" in err and "no data rows" in err


def test_fit_rejects_missing_column(tmp_path, capsys):
    path = tmp_path / "series.csv"
    path.write_text("T,cut_count\n0,3\n1,3\n")
    assert run_cli("fit", "--series", str(path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'mixing_norm'" in err


def test_fit_names_a_series_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes("T,mixing_norm\n0,1\n1,0.5é\n".encode("latin-1"))
    assert run_cli("fit", "--series", str(path)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --series {path}: not UTF-8 text: 'utf-8' codec ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--series", "--config"])
def test_a_directory_given_as_a_file_names_its_flag(tmp_path, capsys, flag):
    argv = {"--series": ["fit"], "--config": ["fit", "--series", "unread.csv"]}[flag]
    assert run_cli(*argv, flag, str(tmp_path)) == 1
    assert capsys.readouterr().err == f"error: {flag} {tmp_path}: is a directory, not a file\n"


@pytest.mark.parametrize("flag", ["--series", "--config"])
def test_a_missing_file_names_its_flag(tmp_path, capsys, flag):
    missing = tmp_path / "missing"
    argv = {"--series": ["fit"], "--config": ["sweep", "--n", "4"]}[flag]
    assert run_cli(*argv, flag, str(missing)) == 1
    assert capsys.readouterr().err == f"error: {flag} {missing}: No such file or directory\n"


@pytest.mark.parametrize("m", ["nan", "inf", "0"])
def test_fit_rejects_bad_initial_value_naming_the_flag(tmp_path, capsys, m):
    run_cli("simulate", "--n", "4", "--ratio", "3/2", "--perm", "3,1,4,2",
            "--tmax", "20", "--d", "0.5", "--format", "none", "--out", str(tmp_path))
    capsys.readouterr()
    out = tmp_path / "fit"
    assert run_cli("fit", "--series", str(tmp_path / "series.csv"), "--m", m,
                   "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith("error: --m must be finite and positive")
    assert not out.exists()


COLLAPSE_RUN = ["collapse", "--n", "4", "--ratio", "3/2", "--d", "0.5", "--tmax", "60"]


@pytest.mark.parametrize("grid_max", ["nan", "inf", "0", "-1"])
def test_collapse_rejects_bad_grid_max_naming_the_flag(tmp_path, capsys, grid_max):
    out = tmp_path / "out"
    assert run_cli(*COLLAPSE_RUN, "--grid-max", grid_max, "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith("error: --grid-max must be finite and positive")
    assert not out.exists()


@pytest.mark.parametrize("grid_points", ["4", "0", "-3"])
def test_collapse_rejects_too_few_grid_points_naming_the_flag(tmp_path, capsys, grid_points):
    out = tmp_path / "out"
    assert run_cli(*COLLAPSE_RUN, "--grid-points", grid_points, "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith("error: --grid-points must be at least 5")
    assert not out.exists()


def test_collapse_accepts_the_fewest_grid_points(tmp_path, capsys):
    assert run_cli(*COLLAPSE_RUN, "--grid-points", "5", "--out", str(tmp_path)) == 0


def _run_output(argv, out: Path, capsys):
    """Exit code, stdout and every file a verb writes into out."""
    code = run_cli(*argv, "--out", str(out))
    return code, capsys.readouterr().out, {f.name: f.read_bytes() for f in out.iterdir()}


def test_collapse_grid_defaults_to_200_points_up_to_5(tmp_path, capsys):
    default = _run_output(COLLAPSE_RUN, tmp_path / "default", capsys)
    explicit = _run_output([*COLLAPSE_RUN, "--grid-points", "200", "--grid-max", "5"],
                           tmp_path / "explicit", capsys)
    assert default[0] == 0
    assert default == explicit


def test_oversized_lattice_reports_memory_error(tmp_path, capsys):
    # L is about 9.4e16 sites: inside the 64-bit capacity, far beyond memory.
    # The kernel's first per-site array fails, and NumPy says what it asked for.
    code = run_cli("simulate", "--n", "9", "--ratio", "101/100",
                   "--perm", "9,8,7,6,5,4,3,2,1", "--tmax", "1", "--out", str(tmp_path))
    assert code == 1
    head, _, detail = capsys.readouterr().err.partition("error: out of memory: ")
    assert head == "" and detail.strip()


def test_memory_error_without_text_prints_no_dangling_colon(capsys, monkeypatch):
    def exhausted(n):
        raise MemoryError

    monkeypatch.setattr("ietmix.cli.screen", exhausted)
    assert run_cli("list-permutations", "--n", "4") == 1
    assert capsys.readouterr().err == "error: out of memory\n"


def test_every_flag_of_every_verb_has_help():
    parser = build_parser()
    verbs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    silent = [(verb, action.option_strings) for verb, sub in verbs.choices.items()
              for action in sub._actions if action.dest != "help" and not action.help]
    assert silent == []
    for sub in [parser, *verbs.choices.values()]:
        sub.format_help()  # a stray % in a help string fails here, not at --help


def test_sweep_exports_bundles_and_scatter(tmp_path, capsys):
    code = run_cli(
        "sweep", "--n", "4", "--ratio", "3/2", "--ratio", "5/4",
        "--tmax-from", "65,100", "--d", "0.5", "--out", str(tmp_path),
    )
    assert code == 0
    assert (tmp_path / "r3_2" / "ensemble.json").exists()
    assert (tmp_path / "r5_4" / "average_curves.csv").exists()
    assert (tmp_path / "fits.csv").exists()
    assert (tmp_path / "config.json").exists()


def test_stopping_time_verb(tmp_path, capsys):
    # tmax = 200 keeps D = L^2 / (Pe tmax) at 0.42 and 0.21, inside the
    # stable window.
    code = run_cli(
        "stopping-time", "--n", "4", "--ratio", "3/2", "--tmax", "200",
        "--pe", "50", "--pe", "100", "--out", str(tmp_path),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("T_stop=") == 2
    with open(tmp_path / "stopping_times.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3
    cfg = json.loads((tmp_path / "config.json").read_text())
    assert cfg["lm_mode"] == "count"


def test_stopping_time_rejects_unstable_peclet(tmp_path, capsys):
    # Pe = 10 with tmax = 5 on L = 369 needs D = 2723 > 1/2.
    code = run_cli("stopping-time", "--n", "4", "--ratio", "5/4", "--tmax", "5",
                   "--pe", "10", "--out", str(tmp_path))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --pe 10 with --tmax 5 ")
    assert "raise --tmax to at least 27233" in err
    assert not (tmp_path / "stopping_times.csv").exists()


def test_stopping_time_length_mode_differs(tmp_path, capsys):
    run_cli("stopping-time", "--n", "4", "--ratio", "6/5", "--tmax", "500",
            "--pe", "8000", "--out", str(tmp_path))
    count_rows = list(csv.reader((tmp_path / "stopping_times.csv").read_text().splitlines()))
    run_cli("stopping-time", "--n", "4", "--ratio", "6/5", "--tmax", "500",
            "--pe", "8000", "--lm-mode", "length", "--out", str(tmp_path))
    length_rows = list(csv.reader((tmp_path / "stopping_times.csv").read_text().splitlines()))
    assert int(length_rows[1][3]) > int(count_rows[1][3])


_UNDER_2_GB = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from ietmix.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_stopping_time_reads_no_field(tmp_path):
    # L = 4.0e12 sites, a field of 29.1 TiB; the cut counts follow the piece ends.
    proc = _probe(_UNDER_2_GB, ["stopping-time", "--n", "4", "--ratio", "10001/10000",
                                "--tmax", "3", "--pe", "1e30", "--out", "out"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "pe=1e+30: no crossing within tmax=3\n"
    with open(tmp_path / "out" / "stopping_times.csv", newline="") as fh:
        [_, row] = list(csv.reader(fh))
    assert row[2:4] == ["False", ""]


# cut_counts takes the orders 1,024 at a time, so only 1,024 rows lie end to end:
# n = 9 at r = 51/50 (L = 3.8e14) fits 64 bits, which all 255,276 orders did not.
def test_stopping_time_reaches_every_order_beyond_the_whole_run_capacity(tmp_path):
    proc = _probe(_UNDER_2_GB, ["stopping-time", "--n", "9", "--ratio", "51/50",
                                "--tmax", "3", "--pe", "1e30", "--out", "out"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "pe=1e+30: no crossing within tmax=3\n"


def test_stopping_time_refuses_a_block_beyond_64_bits(tmp_path, capsys):
    code = run_cli("stopping-time", "--n", "9", "--ratio", "101/100", "--tmax", "3",
                   "--pe", "1e34", "--out", str(tmp_path / "out"))
    assert code == 1
    assert capsys.readouterr().err == ("error: 1024 orders of length 93685272684360901 "
                                       "exceed 64-bit capacity (n=9, r=101/100)\n")
    assert not (tmp_path / "out").exists()


# n = 7 has 3,198 orders, four blocks of cut_counts, and these Pe cross: the
# averages read across blocks, in both modes (digests taken when cut_counts took
# every order at once).
@pytest.mark.parametrize("mode, digest", [
    ("count", "d16d20e522d8177f27493cfa8386a732392e6e9b950043bb8cd879328a9b3f30"),
    ("length", "ab305676c2b4cb77aa9d74a2376ee5cb9d04c6127c3921acd8b781ddc498d37a"),
])
def test_stopping_time_averages_across_blocks_keep_their_bytes(tmp_path, capsys, mode, digest):
    assert run_cli("stopping-time", "--n", "7", "--ratio", "5/4", "--tmax", "1500",
                   "--pe", "5.1e6", "--pe", "5.1e7", "--pe", "5.1e8", "--lm-mode", mode,
                   "--out", str(tmp_path)) == 0
    blob = (tmp_path / "stopping_times.csv").read_bytes()
    assert hashlib.sha256(blob).hexdigest() == digest


def test_config_file_supplies_defaults(tmp_path):
    cfg = {"n": 4, "ratio": "3/2", "perm": "3,1,4,2", "tmax": 2,
           "format": None}
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps(cfg))
    code = run_cli("simulate", "--config", str(cfg_path), "--format", "none",
                   "--out", str(tmp_path))
    assert code == 0
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["n"] == 4 and meta["tmax"] == 2


def test_explicit_flag_beats_config(tmp_path):
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps({"tmax": 9}))
    run_cli("simulate", "--config", str(cfg_path), "--n", "4", "--ratio", "3/2",
            "--perm", "3,1,4,2", "--tmax", "4", "--format", "none",
            "--out", str(tmp_path))
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["tmax"] == 4


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ietmix", "list-permutations", "--n", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "321"


def test_config_values_are_converted_like_flag_text(tmp_path):
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps({"n": "4", "ratio": "3/2", "perm": "3,1,4,2",
                                    "tmax": "2", "d": 0, "format": "none"}))
    code = run_cli("simulate", "--config", str(cfg_path), "--out", str(tmp_path))
    assert code == 0
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["n"] == 4 and meta["tmax"] == 2 and meta["d"] == 0.0
    assert not (tmp_path / "spacetime.pgm").exists()


@pytest.mark.parametrize("value, code", [(True, 0), (False, 0), ("yes", 1)])
def test_config_switch_takes_true_or_false(tmp_path, capsys, value, code):
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps({"n": 4, "ratio": "3/2", "tmax": 200, "pe": [50],
                                    "steepening": value}))
    out = tmp_path / "out"
    assert run_cli("stopping-time", "--config", str(cfg_path), "--out", str(out)) == code
    captured = capsys.readouterr()
    if code == 0:
        assert json.loads((out / "config.json").read_text())["steepening"] is value
        assert ("max_slope=" in captured.out) is value
    else:
        assert captured.err.startswith(
            "error: config key 'steepening': expected true or false")
        assert not out.exists()


def test_config_value_of_wrong_type_is_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps({"n": 4.5, "ratio": "3/2", "perm": "3,1,4,2",
                                    "tmax": 2}))
    code = run_cli("simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out"))
    assert code == 1
    assert capsys.readouterr().err.startswith("error: config key 'n'")
    assert not (tmp_path / "out").exists()


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps({"n": 4, "ratio": "3/2", "perm": "3,1,4,2",
                                    "tmax": 2, "bogus": 1}))
    code = run_cli("simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "unknown config key 'bogus'" in err
    assert not (tmp_path / "out").exists()


def test_oversized_lattice_leaves_no_output_directory(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli("simulate", "--n", "9", "--ratio", "101/100",
                   "--perm", "9,8,7,6,5,4,3,2,1", "--tmax", "1", "--out", str(out))
    assert code == 1
    assert capsys.readouterr().err.startswith("error: out of memory")
    assert not out.exists()


def test_unstable_peclet_leaves_no_output_directory(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli("stopping-time", "--n", "4", "--ratio", "5/4", "--tmax", "5",
                   "--pe", "10", "--steepening", "--out", str(out))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --pe 10 with --tmax 5 ")
    assert "raise --tmax to at least 27233" in err
    assert not out.exists()


@pytest.mark.parametrize("p", ["nan", "inf"])
def test_simulate_rejects_non_finite_norm_order(tmp_path, capsys, p):
    out = tmp_path / "out"
    code = run_cli("simulate", "--n", "4", "--ratio", "5/4", "--perm", "3,1,4,2",
                   "--d", "0.5", "--tmax", "5", "--p", p, "--out", str(out))
    assert code == 1
    assert capsys.readouterr().err == f"error: --p must be a finite number >= 1, got {p}\n"
    assert not out.exists()


def test_stopping_time_rejects_non_finite_peclet(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli("stopping-time", "--n", "4", "--ratio", "6/5", "--tmax", "50",
                   "--pe", "nan", "--out", str(out))
    assert code == 1
    assert capsys.readouterr().err == "error: --pe must be finite and positive, got nan\n"
    assert not out.exists()


def test_malformed_tmax_from_names_the_flag(capsys):
    code = run_cli("simulate", "--n", "4", "--ratio", "5/4", "--perm", "3,1,4,2",
                   "--tmax-from", "369")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --tmax-from") and "L_ref,T_ref" in err


@pytest.mark.parametrize("tmax_from", ["65,-5", "0,5", "65,0"])
def test_non_positive_tmax_from_names_the_flag(tmp_path, capsys, tmax_from):
    out = tmp_path / "out"
    code = run_cli("simulate", "--n", "4", "--ratio", "5/4", "--perm", "3,1,4,2",
                   "--tmax-from", tmax_from, "--out", str(out))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --tmax-from") and "positive" in err and tmax_from in err
    assert not out.exists()


@pytest.mark.parametrize("ref_tmax", ["-5", "0"])
def test_non_positive_ref_tmax_names_the_flag(tmp_path, capsys, ref_tmax):
    out = tmp_path / "out"
    assert run_cli("table1", "--ref-tmax", ref_tmax, "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --ref-tmax") and ref_tmax in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_unwritable_out_is_reported_by_its_own_path(tmp_path, capsys):
    (tmp_path / "plain").write_text("a regular file\n")
    out = tmp_path / "plain" / "sub"
    code = run_cli("simulate", "--n", "4", "--ratio", "3/2", "--perm", "3,1,4,2",
                   "--tmax", "3", "--out", str(out))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(out) in err and ".ietmix-" not in err
    assert os.listdir(tmp_path) == ["plain"]
    assert (tmp_path / "plain").read_text() == "a regular file\n"


def test_format_json_is_refused(tmp_path, capsys):
    argv = ["simulate", "--n", "4", "--ratio", "3/2", "--perm", "3,1,4,2", "--tmax", "3"]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--format", "json", "--out", str(out))
    assert exc.value.code == 2 and "invalid choice: 'json'" in capsys.readouterr().err
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps({"format": "json"}))
    assert run_cli(*argv, "--config", str(cfg_path), "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith("error: config key 'format'")
    assert not out.exists()


def test_metrics_only_is_refused(tmp_path, capsys):
    argv = ["simulate", "--n", "4", "--ratio", "3/2", "--perm", "3,1,4,2", "--tmax", "3"]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--metrics-only", "--out", str(out))
    assert exc.value.code == 2
    assert "unrecognized arguments: --metrics-only" in capsys.readouterr().err
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps({"metrics_only": True}))
    assert run_cli(*argv, "--config", str(cfg_path), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "unknown config key 'metrics_only'" in err
    assert not out.exists()


def test_malformed_ratio_names_the_flag(capsys):
    code = run_cli("simulate", "--n", "4", "--ratio", "5/4/3", "--perm", "3,1,4,2",
                   "--tmax", "5")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --ratio") and "fraction a/b" in err and "'5/4/3'" in err


@pytest.mark.parametrize("perm, detail", [
    ("3,1,x,2", "'3,1,x,2'"),
    ("3,1,2", "(3, 1, 2) does not act on 4 pieces"),
    ("3,1,1,2", "not a permutation of 1..4: (3, 1, 1, 2)"),
], ids=["not-a-number", "too-short", "repeated"])
def test_malformed_perm_names_the_flag(tmp_path, capsys, perm, detail):
    out = tmp_path / "out"
    code = run_cli("simulate", "--n", "4", "--ratio", "5/4", "--perm", perm,
                   "--tmax", "5", "--out", str(out))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --perm") and detail in err
    assert not out.exists()


def test_fit_names_the_file_row_and_column_of_a_bad_cell(tmp_path, capsys):
    path = tmp_path / "series.csv"
    path.write_text("T,mixing_norm\n0,0.5\n1,abc\n2,0.1\n")
    assert run_cli("fit", "--series", str(path)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: data row 2, column 'mixing_norm'")
    assert "'abc'" in err


@pytest.mark.parametrize("rows, detail", [
    ("0,0.5\n1,nan\n", "data row 2, column 'mixing_norm': not a finite number: 'nan'"),
    ("0,0.5\n1,-0.01\n", "data row 2, column 'mixing_norm': negative: '-0.01'"),
    ("0,0.5\ninf,0.2\n", "data row 2, column 'T': not a finite number: 'inf'"),
], ids=["nan-value", "negative-value", "inf-time"])
def test_fit_names_a_non_finite_or_negative_cell(tmp_path, capsys, rows, detail):
    path = tmp_path / "series.csv"
    path.write_text("T,mixing_norm\n" + rows + "".join(f"{t},0.1\n" for t in range(2, 8)))
    assert run_cli("fit", "--series", str(path)) == 1
    assert capsys.readouterr().err == f"error: {path}: {detail}\n"


@pytest.mark.filterwarnings("error")
def test_fit_names_its_file_when_the_solve_fails(tmp_path, capsys):
    # A time of 1.7e308 is finite, so every cell passes; the solve overflows.
    path = tmp_path / "series.csv"
    path.write_text("T,mixing_norm\n0,1\n1,0.2\n2,0.1\n3,0.05\n1.7e308,0.5\n")
    assert run_cli("fit", "--series", str(path)) == 1
    assert capsys.readouterr().err == f"error: {path}: array must not contain infs or NaNs\n"


@pytest.mark.parametrize("verb, ratios", [("sweep", ["5/4"]), ("collapse", ["5/4", "3/2"])])
def test_ensemble_that_cannot_be_fitted_names_its_ratio(tmp_path, capsys, verb, ratios):
    # At D = 1e-320 every diffusion step rounds back to the same field.
    out = tmp_path / "out"
    flags = [arg for ratio in ratios for arg in ("--ratio", ratio)]
    assert run_cli(verb, "--n", "3", *flags, "--tmax", "5", "--d", "1e-320",
                   "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err == "error: r=5/4, D=1e-320: no decay to fit: series is constant\n"
    assert not out.exists()


@pytest.mark.parametrize("verb", ["sweep", "collapse"])
def test_budget_too_short_to_fit_is_refused_before_any_run(tmp_path, capsys, verb):
    # 9/5 gets 21 samples; 5/4 (L = 369) gets tmax = 2, three samples.
    out = tmp_path / "out"
    code = run_cli(verb, "--n", "4", "--ratio", "9/5", "--ratio", "5/4",
                   "--tmax-from", "1484,20", "--d", "0.5", "--out", str(out))
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: r=5/4") and "samples" in captured.err
    assert captured.out == ""  # no ensemble ran
    assert not out.exists()


# Digests of the full listings as printed by the all-orders filter that
# preceded the pruned generator (n = 5) and by the pruned generator (n = 9):
# the allowed orders, a blank line, then the rejected ones.
@pytest.mark.parametrize("n, allowed, total, first, digest", [
    (5, 62, 121, "23514", "1d55d97826d037db7dd9b089bf349780aead21dae3242265b19bab7657642d97"),
    (9, 255_276, 362_881, "234567918",
     "c1114698f26fc8e0fb41c7cb2d9167cf3d248bd982133dec64d38fdba06fa4c2"),
], ids=["n5", "n9"])
def test_list_permutations_rejected_output_unchanged(capsys, n, allowed, total, first, digest):
    assert run_cli("list-permutations", "--n", str(n), "--rejected") == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert len(lines) == total and lines[allowed] == "" and lines[0] == first
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_list_permutations_screens_once(capsys, monkeypatch):
    broken, calls = permutations._broken, []

    def counted(orders):
        calls.append(len(orders))
        return broken(orders)

    monkeypatch.setattr(permutations, "_broken", counted)
    assert run_cli("list-permutations", "--n", "5", "--rejected") == 0
    assert calls == [120]
    assert len(capsys.readouterr().out.splitlines()) == 121


# n = 2 has no allowed order, so an ensemble verb refuses it before any run.
@pytest.mark.parametrize("verb, flags", [
    ("sweep", ["--ratio", "3/2", "--tmax", "5"]),
    ("collapse", ["--ratio", "3/2", "--tmax", "20", "--d", "0.5"]),
    ("stopping-time", ["--ratio", "3/2", "--tmax", "20", "--pe", "10"]),
], ids=["sweep", "collapse", "stopping-time"])
def test_ensemble_verbs_refuse_two_pieces_by_flag(tmp_path, capsys, verb, flags):
    out = tmp_path / "out"
    assert run_cli(verb, "--n", "2", *flags, "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --n 2") and captured.out == ""
    assert not out.exists()


_SCIPY_PROBE = """
import sys
from ietmix.cli import main
on_import = "scipy" in sys.modules
pools = ["multiprocessing" in sys.modules, "concurrent.futures" in sys.modules]
code = main(sys.argv[1:])
print(on_import, "scipy" in sys.modules, code, *pools)
"""
_NO_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy now fails
from ietmix.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _probe(script, argv, cwd: Path):
    src = Path(ietmix.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-c", script, *argv], cwd=cwd,
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )


def _write_decay_series(path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["T", "mixing_norm"])
        for t in range(60):
            writer.writerow([t, 0.5 * 2.0 ** (-t / 7.0) + 0.001 * (t % 3)])


# The fits run on NumPy alone, so no verb loads SciPy, the fitting ones
# included. collapse forks its child with os.fork alone, so importing the
# CLI loads no process-pool module either.
@pytest.mark.parametrize("argv", [
    ["list-permutations", "--n", "4"],
    ["simulate", "--n", "4", "--ratio", "3/2", "--perm", "3,1,4,2", "--tmax", "2",
     "--d", "0.3"],
    ["stopping-time", "--n", "4", "--ratio", "3/2", "--tmax", "200",
     "--pe", "50", "--pe", "100"],
    ["stopping-time", "--n", "4", "--ratio", "3/2", "--tmax", "200",
     "--pe", "50", "--pe", "100", "--steepening"],
    ["collapse", "--n", "4", "--ratio", "3/2", "--ratio", "5/4",
     "--tmax-from", "65,100", "--d", "0.5"],
    ["fit", "--series", "decay.csv"],
    ["sweep", "--n", "4", "--ratio", "3/2", "--tmax", "40", "--d", "0.5"],
    ["table1"],
], ids=["list-permutations", "simulate", "stopping-time", "stopping-time-steepening",
        "collapse", "fit", "sweep-d", "table1"])
def test_scipy_is_loaded_only_by_verbs_that_fit(tmp_path, argv):
    # Outputs go to the working directory, tmp_path.
    _write_decay_series(tmp_path / "decay.csv")
    proc = _probe(_SCIPY_PROBE, argv, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False False 0 False False"


@pytest.mark.parametrize("argv", [
    [*COLLAPSE_RUN, "--ratio", "5/4"],
    ["fit", "--series", "decay.csv"],
], ids=["collapse", "fit"])
def test_fitting_verbs_run_with_scipy_unimportable(tmp_path, capsys, monkeypatch, argv):
    _write_decay_series(tmp_path / "decay.csv")
    monkeypatch.chdir(tmp_path)
    expected = _run_output(argv, tmp_path / "with", capsys)
    proc = _probe(_NO_SCIPY, [*argv, "--out", "without"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    without = tmp_path / "without"
    assert expected == (0, proc.stdout, {f.name: f.read_bytes() for f in without.iterdir()})


# Every verb that takes --config: the flags it is run with, and a config that
# sets its defaulted flags away from their defaults and its repeatable flags.
_CONFIG_RUNS = {
    "simulate": (["simulate", "--n", "4", "--tmax", "20"],
                 {"ratio": "3/2", "perm": "3,1,4,2", "d": 0.5, "p": 3, "format": "csv"}),
    "sweep": (["sweep", "--n", "4", "--tmax", "20"],
              {"ratio": ["3/2", "5/4"], "d": 0.5, "p": 3}),
    "fit": (["fit", "--series", "{series}"], {"column": "other", "m": 2}),
    "collapse": (["collapse", "--n", "4", "--tmax-from", "65,100"],
                 {"ratio": ["3/2", "5/4"], "d": 0.5, "p": 3, "grid_points": 50,
                  "grid_max": 3}),
    "stopping-time": (["stopping-time", "--n", "4", "--ratio", "6/5", "--tmax", "500"],
                      {"lm_mode": "length", "pe": [8000, 4000]}),
    "table1": (["table1"], {"n": 5, "ratio": ["6/5", "9/5"], "ref_ratio": "6/5",
                            "ref_tmax": 100}),
}


@pytest.mark.parametrize("verb", sorted(_CONFIG_RUNS))
def test_config_sets_defaulted_and_repeatable_flags(tmp_path, capsys, verb):
    series = tmp_path / "series.csv"
    series.write_text("T,mixing_norm,other\n" + "".join(
        f"{t},1,{2 * 0.8 ** t:.6f}\n" for t in range(30)))
    base, cfg = _CONFIG_RUNS[verb]
    base = [arg.format(series=series) for arg in base]
    flags = [text for key, value in cfg.items()
             for item in (value if isinstance(value, list) else [value])
             for text in (f"--{key.replace('_', '-')}", str(item))]
    assert run_cli(*base, *flags, "--out", str(tmp_path / "flag")) == 0
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli(*base, "--config", str(cfg_path), "--out", str(tmp_path / "cfg")) == 0

    def files(out):
        return {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}

    assert files(tmp_path / "cfg") == files(tmp_path / "flag") != {}


def test_empty_list_from_a_config_is_a_missing_flag(tmp_path, capsys):
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps({"pe": []}))
    out = tmp_path / "out"
    code = run_cli("stopping-time", "--n", "4", "--ratio", "3/2", "--tmax", "200",
                   "--config", str(cfg_path), "--out", str(out))
    assert code == 1
    assert capsys.readouterr().err == "error: need --pe (flag or config)\n"
    assert not out.exists()


@pytest.mark.parametrize("verb", ["sweep", "collapse"])
@pytest.mark.parametrize("config", [None, {"ratio": []}], ids=["no-flag", "empty-config"])
def test_ensemble_verbs_need_a_ratio(tmp_path, capsys, verb, config):
    argv = [verb, "--n", "4", "--d", "0.5", "--tmax", "20"]
    if config is not None:
        cfg_path = tmp_path / "job.json"
        cfg_path.write_text(json.dumps(config))
        argv += ["--config", str(cfg_path)]
    out = tmp_path / "out"
    assert run_cli(*argv, "--out", str(out)) == 1
    assert capsys.readouterr().err == "error: need --ratio (flag or config)\n"
    assert not out.exists()


def test_collapse_refuses_diffusion_free_ensembles_before_any_run(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli("collapse", "--n", "4", "--ratio", "9/5", "--ratio", "6/5",
                   "--tmax-from", "369,1000", "--out", str(out))
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: collapse") and "--d" in captured.err
    assert "--pe" in captured.err
    assert "r=" not in captured.out  # no ensemble ran
    assert not out.exists()


_RANGE_RUNS = {
    "simulate": ["simulate", "--n", "4", "--ratio", "3/2", "--perm", "3,1,4,2"],
    "sweep": ["sweep", "--n", "4", "--ratio", "3/2", "--ratio", "5/4"],
    "collapse": ["collapse", "--n", "4", "--ratio", "3/2", "--ratio", "5/4"],
}


@pytest.mark.parametrize("verb", sorted(_RANGE_RUNS))
@pytest.mark.parametrize("flags, named", [
    (["--tmax", "20", "--d", "0.7"], "--d"),
    (["--tmax", "20", "--d", "-0.1"], "--d"),
    (["--tmax", "20", "--d", "nan"], "--d"),
    (["--tmax", "-1", "--d", "0.5"], "--tmax"),
])
def test_out_of_range_value_names_its_flag(tmp_path, capsys, verb, flags, named):
    out = tmp_path / "out"
    assert run_cli(*_RANGE_RUNS[verb], *flags, "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {named} must be")
    assert captured.out == ""  # refused before any run
    assert not out.exists()


# The second ratio's lattice (L = 4e18) fails at allocation, after the
# first ratio's bundle is complete.
_SWEEP_FAILING_LATE = ["sweep", "--n", "4", "--ratio", "3/2", "--ratio", "1000001/1000000",
                       "--tmax", "2"]


def test_sweep_failing_at_a_later_ratio_leaves_no_output_directory(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(*_SWEEP_FAILING_LATE, "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("r=3/2:") and captured.err.startswith("error:")
    assert not out.exists()
    assert os.listdir(tmp_path) == []  # and no staging directory


def test_failed_run_leaves_the_default_output_directory_empty(tmp_path):
    src = Path(ietmix.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "ietmix", *_SWEEP_FAILING_LATE], cwd=tmp_path,
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 1 and proc.stderr.startswith("error:")
    assert os.listdir(tmp_path) == []


def test_sweep_into_an_existing_bundle_replaces_its_files(tmp_path, capsys):
    args = ["sweep", "--n", "4", "--ratio", "3/2", "--d", "0.5", "--tmax", "30"]
    assert run_cli(*args, "--out", str(tmp_path / "fresh")) == 0
    out = tmp_path / "out"
    (out / "r3_2").mkdir(parents=True)
    for name in ("average_curves.csv", "ensemble.json"):
        (out / "r3_2" / name).write_text("stale\n")
    (out / "r3_2" / "notes.txt").write_text("kept\n")
    assert run_cli(*args, "--out", str(out)) == 0
    fresh = sorted(p.relative_to(tmp_path / "fresh") for p in (tmp_path / "fresh").rglob("*"))
    assert sorted(p.relative_to(out) for p in out.rglob("*")) == sorted(
        fresh + [Path("r3_2/notes.txt")])
    for rel in fresh:
        if (out / rel).is_file():
            assert (out / rel).read_bytes() == (tmp_path / "fresh" / rel).read_bytes()
    assert (out / "r3_2" / "notes.txt").read_text() == "kept\n"


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "4", "--ratio", "3/2", "--perm", "3,1,4,2"],
    ["sweep", "--n", "4", "--ratio", "3/2"],
    ["collapse", "--n", "4", "--ratio", "3/2"],
    ["stopping-time", "--n", "4", "--ratio", "3/2"],
], ids=lambda argv: argv[0])
def test_peclet_with_a_zero_budget_names_the_flags(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert run_cli(*argv, "--tmax", "0", "--pe", "100", "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --pe needs a positive budget")
    assert "--tmax or --tmax-from" in captured.err
    assert captured.out == ""  # refused before any run
    assert not out.exists()


def test_repeated_peclet_is_refused_before_any_run(tmp_path, capsys):
    out = tmp_path / "out"
    # With several repeats, the smallest repeated value is named.
    for pes in (["100", "1e2"], ["200", "100", "200", "100"]):
        code = run_cli("stopping-time", "--n", "4", "--ratio", "6/5", "--tmax", "50",
                       *(arg for pe in pes for arg in ("--pe", pe)), "--steepening",
                       "--out", str(out))
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --pe 100 is given more than once\n"
        assert captured.out == ""
        assert not out.exists()


_PECLET_RUNS = {
    "simulate": ["simulate", "--n", "4", "--ratio", "3/2", "--perm", "3,1,4,2"],
    "sweep": ["sweep", "--n", "4", "--ratio", "3/2", "--ratio", "5/4"],
    "collapse": ["collapse", "--n", "4", "--ratio", "3/2", "--ratio", "5/4"],
    "stopping-time": ["stopping-time", "--n", "4", "--ratio", "3/2", "--steepening"],
}


@pytest.mark.parametrize("verb", sorted(_PECLET_RUNS))
@pytest.mark.parametrize("pe, shown", [("-1", "-1"), ("0", "0"), ("inf", "inf")])
def test_non_positive_peclet_names_the_flag(tmp_path, capsys, verb, pe, shown):
    out = tmp_path / "out"
    assert run_cli(*_PECLET_RUNS[verb], "--tmax", "200", "--pe", pe, "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: --pe must be finite and positive, got {shown}\n"
    assert captured.out == ""  # refused before any run
    assert not out.exists()


# Pe = 10 on L = 369 (r = 5/4) needs a budget of 27233 for D <= 1/2; 5
# iterations, given directly or matched from the reference 369,5, are far short.
_UNSTABLE_RUNS = {
    "simulate": ["simulate", "--n", "4", "--ratio", "5/4", "--perm", "3,1,4,2"],
    "sweep": ["sweep", "--n", "4", "--ratio", "5/4"],
    "collapse": ["collapse", "--n", "4", "--ratio", "5/4"],
    "stopping-time": ["stopping-time", "--n", "4", "--ratio", "5/4"],
}


@pytest.mark.parametrize("verb", sorted(_UNSTABLE_RUNS))
@pytest.mark.parametrize("budget, given, fix", [
    (["--tmax", "5"], "--tmax 5", "raise --tmax to at least 27233"),
    (["--tmax-from", "369,5"], "--tmax-from 369,5 (tmax 5)",
     "raise --tmax-from until tmax is at least 27233"),
], ids=["tmax", "tmax-from"])
def test_unstable_peclet_names_its_flags(tmp_path, capsys, verb, budget, given, fix):
    out = tmp_path / "out"
    assert run_cli(*_UNSTABLE_RUNS[verb], *budget, "--pe", "10", "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: --pe 10 with {given} on a length-369 lattice "
                            f"needs D > 1/2; {fix}\n")
    assert captured.out == ""  # refused before any run
    assert not out.exists()


@pytest.mark.parametrize("verb", sorted(_PECLET_RUNS))
def test_non_numeric_peclet_names_the_flag(tmp_path, capsys, verb):
    # One converter on every verb, so no verb answers with argparse's usage and exit 2.
    out = tmp_path / "out"
    assert run_cli(*_PECLET_RUNS[verb], "--tmax", "200", "--pe", "abc", "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --pe must be a number, got 'abc'\n"
    assert captured.out == ""
    assert not out.exists()


_ENSEMBLE_FLAGS = ["--n", "4", "--d", "0.5", "--tmax", "20"]


@pytest.mark.parametrize("verb, flags", [
    ("sweep", _ENSEMBLE_FLAGS), ("collapse", _ENSEMBLE_FLAGS), ("table1", []),
], ids=["sweep", "collapse", "table1"])
@pytest.mark.parametrize("second", ["3/2", "6/4"])
def test_repeated_ratio_is_refused_before_any_run(tmp_path, capsys, verb, flags, second):
    out = tmp_path / "out"
    code = run_cli(verb, "--ratio", "3/2", "--ratio", "5/4", "--ratio", second, *flags,
                   "--out", str(out))
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --ratio 3/2 is given more than once\n"
    assert captured.out == ""
    assert not out.exists()


_PIECE_RUNS = {
    "simulate": ["simulate", "--ratio", "3/2", "--perm", "3,1,4,2", "--tmax", "20"],
    "list-permutations": ["list-permutations"],
    "sweep": ["sweep", "--ratio", "3/2", "--tmax", "20"],
    "collapse": ["collapse", "--ratio", "3/2", "--ratio", "5/4", "--d", "0.5", "--tmax", "20"],
    "stopping-time": ["stopping-time", "--ratio", "3/2", "--tmax", "200", "--pe", "50"],
    "table1": ["table1"],
}


@pytest.mark.parametrize("verb", sorted(_PIECE_RUNS))
@pytest.mark.parametrize("n", ["1", "10"])
def test_bad_piece_count_names_the_flag(tmp_path, capsys, verb, n):
    out = tmp_path / "out"
    outs = [] if verb == "list-permutations" else ["--out", str(out)]
    assert run_cli(*_PIECE_RUNS[verb], "--n", n, *outs) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: --n must be an integer in 2..9, got {n}\n"
    assert captured.out == ""  # refused before any run
    assert not out.exists()


_NORM_ORDER_RUNS = {verb: argv + ["--n", "4"] for verb, argv in _PIECE_RUNS.items()
                    if verb in ("simulate", "sweep", "collapse", "stopping-time")}


@pytest.mark.parametrize("verb", sorted(_NORM_ORDER_RUNS))
@pytest.mark.parametrize("p", ["0.5", "0", "inf", "nan"])
def test_bad_norm_order_names_the_flag(tmp_path, capsys, verb, p):
    out = tmp_path / "out"
    assert run_cli(*_NORM_ORDER_RUNS[verb], "--p", p, "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: --p must be a finite number >= 1, got {p}\n"
    assert captured.out == ""  # refused before any run
    assert not out.exists()


def test_bad_value_from_a_config_names_the_flag(tmp_path, capsys):
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps({"n": 4, "p": 0.5}))
    code = run_cli("sweep", "--ratio", "3/2", "--tmax", "20", "--config", str(cfg_path),
                   "--out", str(tmp_path / "out"))
    assert code == 1
    assert capsys.readouterr().err == "error: --p must be a finite number >= 1, got 0.5\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("content", [b'{"n": 4,\n', b"\xff\xfe"], ids=["truncated", "binary"])
def test_config_that_is_not_json_names_the_file(tmp_path, capsys, content):
    cfg_path = tmp_path / "job.json"
    cfg_path.write_bytes(content)
    code = run_cli("simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out"))
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {cfg_path}: not valid JSON: ")
    assert not (tmp_path / "out").exists()
