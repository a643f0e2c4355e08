"""ietmix benchmark: two sessions of CLI commands, timed end to end or traced per layer.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout; the ietmix package is taken from src/. A
workload is a session of two ietmix commands run one after the other, as
a user's script would; every command is a fresh child process
(perfbench/child.py running the ietmix CLI), one at a time, because what
a user waits for is CLI verbs from spawn to exit. The seed picks one of
each command's input variants, all of equal cost, so the same seed gives
the same inputs. Sessions repeat until the next one would end after S
seconds; each run reports medians over its sessions.

Every child first times a fixed reference computation that does not use
ietmix (child.reference); that time is taken out of the child's wall
and set-up times, and it measures how fast the shared host runs during
that very process.

--trace 0 reports the end-to-end metrics:
  wall_norm_s  the session's commands' wall times, each spawn to exit,
               each rescaled to the host's nominal speed by its own
               reference time (wall x REFERENCE_NOMINAL_S / reference),
               summed
  setup_s      spawn to the end of ``import ietmix.cli`` (interpreter,
               NumPy and SciPy imports), rescaled the same way, one sample
               per command, topped up by import-only children to at least
               five
  peak_rss_mb  the largest ru_maxrss of the session's children, each read
               with os.wait4
The raw wall and set-up times are printed beside them. --trace 1 alternates untraced
and traced sessions and reports the per-layer metrics of tracer.py plus
trace.overhead_s, the traced minus the untraced normalized session wall.

Every command's data outputs are compared byte for byte with the sha256
digests in digests.json, frozen at commit ae1ce7b. A non-zero exit or a
mismatch counts as a failed command; the last line of stdout is the JSON
result with ``correct``, ``attempted`` and ``failed`` (counted in
commands) and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
from child import REFERENCE_NOMINAL_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIGESTS = BENCH / "digests.json"

#: A run must exit within 180 s; commands still running at this point are killed.
HARD_LIMIT_S = 170.0
MIN_SETUP_SAMPLES = 5


@dataclass(frozen=True)
class Command:
    """One CLI command; the seed appends one of `variants` to `args`."""

    name: str  # key of its frozen digests
    args: tuple[str, ...]
    variants: tuple[tuple[str, ...], ...]
    outputs: tuple[str, ...]  # data files checked against digests; "stdout" is stdout

    def variant(self, seed: int) -> tuple[str, ...]:
        return self.variants[seed % len(self.variants)]


def variant_key(variant) -> str:
    return " ".join(variant)


# The four commands: collapse is the paper's headline pipeline (the five
# ratios of acceptance criteria 6 and 7), dominated by the diffusion
# stencil and per-row metrics; stopping runs only the D = 0 ensemble, so
# no stencil call at all and metrics plus the shuffle gather dominate;
# raster is the one full-field path, where the exporters and peak memory
# matter; orders is the only place where enumerating shuffle orders
# costs anything.
#
# On a shared 2-core machine the speed of the same command drifted by
# 20-35% over seconds to minutes, so each wall time is rescaled by the
# reference timed in its own process and a run lasts about a minute for
# its median to be steady; repeated runs of four one-command workloads
# of that length would not fit in an hour. Hence two sessions:
# "ensembles" (collapse, stopping) exercises the ensemble kernels and
# bypasses the full-field path; "fields" (raster, orders) does the
# reverse. Each command is sized to 2-3 s, so a run holds about ten
# sessions: collapse uses a tenth of the acceptance budget (369,100
# instead of 369,1000), stopping a budget of 369,15 on the same L = 6187
# lattice, and orders n = 8 instead of 9; raster is the full
# acceptance-size simulate. Input variants change only
# values that cost nothing: the collapse grid resolution, the Peclet
# numbers of the stopping-time solve (all keep D <= 1/2, which needs
# Pe >= 18155 here) and which of the nine allowed n = 4 orders is
# simulated.
COLLAPSE = Command(
    name="collapse",
    args=("collapse", "--n", "4", "--ratio", "6/5", "--ratio", "5/4", "--ratio", "7/5",
          "--ratio", "8/5", "--ratio", "9/5", "--d", "0.5", "--tmax-from", "369,100"),
    variants=(("--grid-points", "200"), ("--grid-points", "160"),
              ("--grid-points", "240"), ("--grid-points", "280")),
    outputs=("collapse.csv", "universal_fit.json"),
)
STOPPING = Command(
    name="stopping",
    args=("stopping-time", "--n", "4", "--ratio", "13/10", "--tmax-from", "369,15",
          "--lm-mode", "length"),
    variants=(("--pe", "20000", "--pe", "40000", "--pe", "80000"),
              ("--pe", "25000", "--pe", "50000", "--pe", "100000"),
              ("--pe", "30000", "--pe", "60000", "--pe", "120000"),
              ("--pe", "22000", "--pe", "44000", "--pe", "88000")),
    outputs=("stopping_times.csv",),
)
RASTER = Command(
    name="raster",
    args=("simulate", "--n", "4", "--ratio", "9/5", "--d", "0.5", "--tmax-from", "369,1000"),
    variants=tuple(("--perm", perm) for perm in (
        "3,1,4,2", "2,4,1,3", "2,4,3,1", "3,2,4,1", "3,4,2,1",
        "4,1,3,2", "4,2,1,3", "4,3,1,2", "4,3,2,1")),
    outputs=("series.csv", "spacetime.pgm"),
)
ORDERS = Command(
    name="orders",
    args=("list-permutations", "--n", "8"),
    variants=((),),
    outputs=("stdout",),
)
WORKLOADS = {
    "ensembles": (COLLAPSE, STOPPING),
    "fields": (RASTER, ORDERS),
}


@dataclass
class Invocation:
    """What one child process did, as seen from outside."""

    wall_s: float  # spawn to exit, less the reference
    setup_s: float | None  # spawn to the end of the import, less the reference
    peak_rss_mb: float
    exit_code: int
    outputs: dict[str, str] = field(default_factory=dict)  # data output -> sha256
    problems: list[str] = field(default_factory=list)
    trace: dict | None = None
    ref_s: float | None = None  # the child's own reference time (child.reference)

    @property
    def failed(self) -> bool:
        return self.exit_code != 0 or bool(self.problems)

    @property
    def speed(self) -> float:
        """Nominal over measured reference time, 1 if none was timed: below 1
        while the host runs slow."""
        return REFERENCE_NOMINAL_S / self.ref_s if self.ref_s else 1.0

    @property
    def norm_wall_s(self) -> float:
        return self.wall_s * self.speed

    @property
    def norm_setup_s(self) -> float:
        return self.setup_s * self.speed


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv, sidecar: Path, stdout_path: Path, timeout_s: float) -> Invocation:
    """Run argv to completion and account for it with its own rusage.

    os.wait4 gives this child's ru_maxrss; RUSAGE_CHILDREN would report
    the largest child reaped so far instead. The child is killed after
    timeout_s. The reference time and the end of the import are read
    from the sidecar the child writes; the reference is taken out of
    wall and set-up time.
    """
    sidecar.unlink(missing_ok=True)
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(timeout_s, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    ref, setup, trace = None, None, None
    try:
        record = json.loads(sidecar.read_text())
        ref = record["ref_s"]
        wall -= ref
        setup = record["setup_done"] - start - ref
        trace = record.get("trace")
    except (OSError, ValueError, KeyError):
        pass
    return Invocation(wall, setup, usage.ru_maxrss / 1024.0, proc.returncode, trace=trace,
                      ref_s=ref)


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def output_digests(command: Command, out_dir: Path, stdout_path: Path) -> dict[str, str]:
    """sha256 of each data output; a missing file reads as 'missing'."""
    found = {}
    for name in command.outputs:
        path = stdout_path if name == "stdout" else out_dir / name
        found[name] = sha256(path) if path.is_file() else "missing"
    return found


def check(found: dict[str, str], frozen: dict[str, str] | None) -> list[str]:
    """Mismatches between the outputs' digests and the frozen ones."""
    if frozen is None:
        return ["no frozen digests for this input variant"]
    return [
        f"{name}: sha256 {found.get(name, 'missing')[:16]} != frozen {want[:16]}"
        for name, want in frozen.items()
        if found.get(name) != want
    ]


def invoke(command: Command, variant, work: Path, traced: bool, timeout_s: float,
           frozen: dict[str, str] | None) -> Invocation:
    """One CLI invocation of the command, outputs checked."""
    out_dir = work / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    cli_args = list(command.args) + list(variant)
    if command.outputs != ("stdout",):
        cli_args += ["--out", str(out_dir)]
    stdout_path = work / "stdout.txt"
    argv = [sys.executable, str(BENCH / "child.py"), str(work / "sidecar.json"),
            "1" if traced else "0", *cli_args]
    inv = spawn(argv, work / "sidecar.json", stdout_path, timeout_s)
    if inv.exit_code != 0:
        tail = stdout_path.with_suffix(".err").read_text(errors="replace").strip().splitlines()
        inv.problems.append(f"exit {inv.exit_code}: {tail[-1] if tail else 'no stderr'}")
    else:
        inv.outputs = output_digests(command, out_dir, stdout_path)
        inv.problems += check(inv.outputs, frozen)
    shutil.rmtree(out_dir, ignore_errors=True)
    return inv


def probe_setup(work: Path) -> Invocation:
    """An import-only child: one set-up sample."""
    argv = [sys.executable, str(BENCH / "child.py"), str(work / "sidecar.json"), "0"]
    return spawn(argv, work / "sidecar.json", work / "probe.txt", HARD_LIMIT_S)


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path):
    """Repeat sessions for about `seconds`; return (input variants,
    [(traced, [invocation per command])], invocations with a set-up time)."""
    with open(DIGESTS) as fh:
        digests = json.load(fh)
    inputs = []
    for command in WORKLOADS[name]:
        variant = command.variant(seed)
        inputs.append((command, variant, digests.get(command.name, {}).get(variant_key(variant))))
    start = time.monotonic()
    probe_setup(work)  # untimed: fills the page cache and compiles bytecode
    rounds = (False, True) if trace else (False,)
    sessions = []
    while True:
        round_start = time.monotonic()
        for traced in rounds:
            session = []
            for command, variant, frozen in inputs:
                remaining = HARD_LIMIT_S - (time.monotonic() - start)
                inv = invoke(command, variant, work, traced, max(remaining, 1.0), frozen)
                session.append(inv)
                print(f"  {command.name:9s}{' traced' if traced else ''} wall {inv.wall_s:7.3f} s  "
                      f"setup {inv.setup_s or float('nan'):6.3f} s  "
                      f"ref {inv.ref_s or float('nan'):6.3f} s  rss {inv.peak_rss_mb:6.1f} MB  "
                      f"{'FAILED ' + '; '.join(inv.problems) if inv.failed else 'ok'}", flush=True)
            sessions.append((traced, session))
        now = time.monotonic()
        if now + (now - round_start) > start + min(seconds, HARD_LIMIT_S):
            break
    setups = [inv for _, session in sessions for inv in session if inv.setup_s is not None]
    while not trace and len(setups) < MIN_SETUP_SAMPLES:
        probe = probe_setup(work)
        if probe.setup_s is None or probe.exit_code != 0:
            break
        setups.append(probe)
    variants = {command.name: variant_key(variant) for command, variant, _ in inputs}
    return variants, sessions, setups


def session_wall(session) -> float:
    return sum(inv.wall_s for inv in session)


def session_norm_wall(session) -> float:
    return sum(inv.norm_wall_s for inv in session)


def end_to_end(sessions, setups) -> dict:
    print(f"  raw medians: wall_s {statistics.median(session_wall(s) for _, s in sessions):.4f} s, "
          f"setup_s {statistics.median(inv.setup_s for inv in setups):.4f} s")
    return {
        "wall_norm_s": (statistics.median(session_norm_wall(s) for _, s in sessions), "s"),
        "setup_s": (statistics.median(inv.norm_setup_s for inv in setups), "s"),
        "peak_rss_mb": (statistics.median(max(inv.peak_rss_mb for inv in s) for _, s in sessions),
                        "MB"),
    }


def per_layer(sessions) -> tuple[dict, dict]:
    """Lower median of each layer metric over the traced sessions (so counts
    stay whole), and the hooks reported absent."""
    samples: dict[str, tuple[str, list]] = {}
    absent: dict[str, str] = {}
    for traced, session in sessions:
        if not traced or any(inv.trace is None or inv.setup_s is None for inv in session):
            continue
        trace = tracer.merge([inv.trace for inv in session])
        absent.update(trace["absent"])
        setup = sum(inv.setup_s for inv in session)
        for key, (value, unit) in tracer.layer_metrics(trace, session_wall(session), setup).items():
            samples.setdefault(key, (unit, []))[1].append(value)
    metrics = {key: (statistics.median_low(values), unit) for key, (unit, values) in samples.items()}
    untraced = [session_norm_wall(s) for traced, s in sessions if not traced]
    traced = [session_norm_wall(s) for t, s in sessions if t]
    if untraced and traced:
        metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    return metrics, absent


def print_command_counts(commands, sessions) -> None:
    """The counts of the last traced session, command by command, since the
    per-layer metrics pool the whole session."""
    traced = [session for t, session in sessions if t]
    if not traced:
        return
    for command, inv in zip(commands, traced[-1]):
        if inv.trace is None or inv.setup_s is None:
            continue
        counts = {key: value for key, (value, unit)
                  in tracer.layer_metrics(inv.trace, inv.wall_s, inv.setup_s).items()
                  if unit in ("count", "ratio", "B")}
        print(f"  {command.name} counts: {json.dumps(counts)}")


def provenance() -> dict:
    """The machine, library versions, commit and src/ size beside the numbers."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown (git failed)"
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = "missing"
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            **versions, "commit": commit, "src_lines": src_lines}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ietmix" / "cli.py").is_file():
        print(f"error: no ietmix source at {SRC}; run from an ietmix checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    work = BENCH / ".work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}", flush=True)
        variants, sessions, setups = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    invocations = [inv for _, session in sessions for inv in session]
    failed = sum(inv.failed for inv in invocations)
    if not setups:
        print("error: no invocation reached the end of its imports", file=sys.stderr)
        return 1
    if args.trace:
        metrics, absent = per_layer(sessions)
        for name, reason in sorted(absent.items()):
            print(f"  absent: {name}: {reason}")
        print_command_counts(WORKLOADS[args.workload], sessions)
    else:
        metrics = end_to_end(sessions, setups)
    print(json.dumps({"provenance": provenance(), "inputs": variants,
                      "samples": {"sessions": len(sessions), "setup": len(setups)}}))
    for key, (value, unit) in metrics.items():
        print(f"  {key:42s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(invocations),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
