"""Command-line front end.

Verbs:
  simulate           one protocol -> metric series + space-time raster
  list-permutations  allowed shuffle orders (optionally the rejected ones)
  sweep              ensembles over one or more ratios -> curves + fits
  fit                stretched-exponential fit of a series CSV
  collapse           rescaled decay collapse across ratios + universal fit
  stopping-time      Batchelor stopping times over a Peclet sweep
  table1             lattice size and matched iteration budget per ratio

Any value flag can also come from a JSON config file (--config, keys
named like the flag destinations), converted like the flag's own text
would be; an unknown key is an error. Each flag is settled once, before
the verb runs: the flag, else the config, else _DEFAULTS; a required
flag (sweep and collapse need --n and a --ratio) must be one of the
first two, and --pe stays text until _peclet converts it on every verb.
A bad value is refused before the first run and before any directory is
made, and a verb's files appear in --out only when it succeeds (see
io.output_dir). io.write_record writes the record of each run: simulate's
resolved protocol to metadata.json, and the resolved flags of sweep,
collapse and stopping-time to config.json; table1 --out and fit --out
write only their data.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .diffusion import (
    StabilityError, diffusivity_from_peclet, match_iterations, peclet_number, stable_budget,
)
from .fitting import MIN_FIT_SAMPLES, fit_stretched_exponential
from .io import (
    SpaceTimeWriter,
    export_collapse,
    export_ensemble,
    export_fit_scatter,
    export_series,
    export_steepening,
    export_table_one,
    fit_payload,
    json_text,
    order_labels,
    output_dir,
    write_json,
    write_record,
)
from .lattice import Protocol, Ratio, evolve, total_length
from .permutations import RULES, screen
from .runner import (
    collapse, in_two_processes, run_ensemble, run_ensembles, steepening_report, table_one,
)


def _add_common(sub):
    sub.add_argument("--config", help="JSON file supplying defaults for value flags")
    sub.add_argument("--out", help="output directory (default: current directory)")


#: The protocol flags, declared once for every verb that takes them.
_PROTOCOL_FLAGS = {
    "--n": {"type": int, "help": "number of pieces (2..9)"},
    "--ratio": {"help": "length ratio as a fraction a/b"},
    "--d": {"type": float, "help": "diffusivity in [0, 1/2]"},
    "--pe": {"help": "Peclet number (alternative to --d)"},
    "--tmax": {"type": int, "help": "iteration budget"},
    "--tmax-from": {"help": "derive the budget from a reference run, as L_ref,T_ref"},
    "--p": {"type": float, "help": "mixing-norm order (default 2)"},
}
_REPEATED_RATIO = {"action": "append",
                   "help": "length ratio as a fraction a/b; repeat for several ratios"}
#: The ratios of the paper's Table 1, which table1 lists by default.
_PAPER_RATIOS = ("5/4", "6/5", "7/5", "8/5", "9/5", "11/10", "13/10")


def _add_protocol_flags(sub, *names, ratio_repeats: bool):
    """Add the named protocol flags, or all of them, to a verb's parser."""
    for name in names or _PROTOCOL_FLAGS:
        spec = _REPEATED_RATIO if ratio_repeats and name == "--ratio" else _PROTOCOL_FLAGS[name]
        sub.add_argument(name, **spec)


def _config_value(action: argparse.Action, key: str, value):
    """A config value converted as the flag's command-line text would be."""
    if action.nargs == 0:  # on/off switch
        if not isinstance(value, bool):
            raise ValueError(f"config key {key!r}: expected true or false, got {value!r}")
        return value
    repeatable = isinstance(action, argparse._AppendAction)
    items = value if repeatable and isinstance(value, list) else [value]
    converted = []
    for item in items:
        if isinstance(item, (bool, list, dict)):
            raise ValueError(f"config key {key!r}: expected one value, got {item!r}")
        try:
            item = action.type(str(item)) if action.type else str(item)
        except ValueError:
            kind = getattr(action.type, "__name__", "value")
            raise ValueError(f"config key {key!r}: not a valid {kind}: {item!r}") from None
        if action.choices is not None and item not in action.choices:
            raise ValueError(f"config key {key!r}: {item!r} is not one of {list(action.choices)}")
        converted.append(item)
    return converted if repeatable else converted[0]


def _open(flag: str, path, **kwargs):
    """Open the file a flag names; a refusal names the flag and the path."""
    if Path(path).is_dir():
        raise ValueError(f"{flag} {path}: is a directory, not a file")
    try:
        return open(path, **kwargs)
    except OSError as exc:
        raise OSError(f"{flag} {path}: {exc.strerror or exc}") from None


def _merge_config(args: argparse.Namespace) -> None:
    """Fill the flags left unset from the --config file, if one is given."""
    if not getattr(args, "config", None):
        return
    with _open("--config", args.config) as fh:
        try:
            cfg = json.load(fh)
        except ValueError as exc:  # also a file that is not UTF-8 text
            raise ValueError(f"{args.config}: not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"{args.config}: config must be a JSON object")
    for key, value in cfg.items():
        action = args.flags.get(key)
        if action is None:
            raise ValueError(f"{args.config}: unknown config key {key!r}")
        current = getattr(args, key)
        # Value flags default to None and switches to False: both mean unset.
        if value is not None and (current is None or current is False):
            setattr(args, key, _config_value(action, key, value))


#: What a flag left unset by both the command line and --config reads as.
_DEFAULTS = {"p": 2.0, "format": "pgm", "column": "mixing_norm", "grid_points": 200,
             "grid_max": 5.0, "lm_mode": "count", "ref_ratio": "5/4", "ref_tmax": 50}


def _resolve(args) -> None:
    """Settle every flag of the verb, then make the checks all verbs share.

    An empty list from a config counts as unset. The ensemble verbs average
    over the allowed orders, and n = 2 has none.
    """
    _merge_config(args)
    for key, value in _DEFAULTS.items():
        if key in args.flags and getattr(args, key) is None:
            setattr(args, key, value)
    n, p = getattr(args, "n", None), getattr(args, "p", None)
    if n is not None and not 2 <= n <= 9:
        raise ValueError(f"--n must be an integer in 2..9, got {n}")
    if p is not None and not 1.0 <= p < math.inf:
        raise ValueError(f"--p must be a finite number >= 1, got {p:g}")
    for name in args.required:
        if getattr(args, name) in (None, []):
            raise ValueError(f"need --{name} (flag or config)")
    if args.ensemble and n == 2:
        raise ValueError("--n 2 has no allowed shuffle order; ensembles need --n 3 or more")


def _ratio(text, flag: str = "--ratio") -> Ratio:
    """A ratio flag's fraction; a refusal names the flag."""
    try:
        return Ratio.parse(str(text))
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _resolve_tmax(args, length: int) -> int:
    if args.tmax is not None and args.tmax_from is not None:
        raise ValueError("--tmax and --tmax-from are mutually exclusive")
    if args.tmax is not None:
        if args.tmax < 0:
            raise ValueError(f"--tmax must be nonnegative, got {args.tmax}")
        return args.tmax
    if args.tmax_from is not None:
        try:
            l_ref, t_ref = (int(v) for v in str(args.tmax_from).split(","))
            if l_ref <= 0 or t_ref <= 0:
                raise ValueError
        except ValueError:
            raise ValueError(f"--tmax-from takes L_ref,T_ref (two positive integers), "
                             f"got {args.tmax_from!r}") from None
        return match_iterations(l_ref, t_ref, length)
    raise ValueError("need --tmax or --tmax-from")


def _peclet(value) -> float:
    """A --pe value; a refusal names the flag."""
    try:
        pe = float(value)
    except ValueError:
        raise ValueError(f"--pe must be a number, got {value!r}") from None
    if not 0.0 < pe < math.inf:
        raise ValueError(f"--pe must be finite and positive, got {pe:g}")
    return pe


def _diffusivity(args, length: int, t_max: int, pe: float) -> float:
    """D for one --pe on the budget; a zero or unstable budget names the flags."""
    if t_max <= 0:
        raise ValueError(f"--pe needs a positive budget (--tmax or --tmax-from), got {t_max}")
    try:
        return diffusivity_from_peclet(length, pe, t_max)
    except StabilityError:
        need = stable_budget(length, pe)
        if args.tmax is not None:
            given, fix = f"--tmax {t_max}", f"raise --tmax to at least {need}"
        else:
            given = f"--tmax-from {args.tmax_from} (tmax {t_max})"
            fix = f"raise --tmax-from until tmax is at least {need}"
        raise ValueError(f"--pe {pe:g} with {given} on a length-{length} lattice "
                         f"needs D > 1/2; {fix}") from None


def _once(flag: str, values: list, spec: str = "") -> list:
    """values, each given once (a ratio in any of its forms, 3/2 or 6/4); the
    refusal names, as format(value, spec), the first that repeats an earlier one."""
    for k, value in enumerate(values):
        if value in values[:k]:
            raise ValueError(f"{flag} {value:{spec}} is given more than once")
    return values


def _runs(args, texts) -> list[tuple[Ratio, int, int, float]]:
    """(ratio, L, t_max, D) of every --ratio text, all checked before any run.

    A diffusive ensemble is fitted, so its budget must give the samples a
    fit needs.
    """
    runs = []
    for ratio in _once("--ratio", [_ratio(text) for text in texts]):
        length = total_length(args.n, ratio)
        t_max = _resolve_tmax(args, length)
        if args.d is not None and args.pe is not None:
            raise ValueError("--d and --pe are mutually exclusive")
        d = 0.0 if args.d is None else args.d
        if args.pe is not None:
            d = _diffusivity(args, length, t_max, _peclet(args.pe))
        elif not 0.0 <= d <= 0.5:
            raise ValueError(f"--d must be in the stable range [0, 1/2], got {args.d}")
        if args.ensemble and d > 0.0 and t_max + 1 < MIN_FIT_SAMPLES:
            raise ValueError(f"r={ratio}: tmax={t_max} gives {t_max + 1} samples, fewer than "
                             f"the {MIN_FIT_SAMPLES} a fit needs")
        runs.append((ratio, length, t_max, d))
    return runs


#: On two cores simulate's forked child also scores the last (T+1)//8 norms, so that it
#: ends with the verb's own process (measurements in README.md).
_CHILD_NORMS = 8


def _cmd_simulate(args) -> int:
    [(ratio, length, t_max, d)] = _runs(args, [args.ratio])
    try:
        perm = tuple(int(v) for v in str(args.perm).split(","))
    except ValueError:
        raise ValueError(
            f"--perm takes comma-separated piece numbers such as 3,1,4,2, got {args.perm!r}"
        ) from None
    try:  # --n, --d and --tmax are checked already, so the order is at fault
        Protocol(n=args.n, ratio=ratio, permutation=perm, d=d, t_max=t_max)
    except ValueError as exc:
        raise ValueError(f"--perm: {exc}") from None
    fmt = args.format
    pe = peclet_number(length, d, t_max) if d > 0 and t_max > 0 else None
    with output_dir(args.out) as out:
        def scan(**scans):  # the evolution that writes the raster
            with (contextlib.nullcontext() if fmt == "none" else
                  SpaceTimeWriter(out / f"spacetime.{fmt}", (t_max + 1, length), fmt)) as raster:
                return evolve(args.n, ratio, d, t_max, [perm], p=args.p, observe=raster, **scans)

        # With diffusion a forked child scans the runs, writes the raster and scores the norms
        # from split on while this process scores those before; a D = 0 norm is one value.
        split = t_max + 1 - (t_max + 1) // _CHILD_NORMS
        pair = d > 0.0 and in_two_processes(
            lambda: evolve(args.n, ratio, d, split - 1, [perm], p=args.p, runs=False),
            lambda: scan(norms=split))
        if pair:
            head, series = pair
            series = dataclasses.replace(series, mixing_norm=np.concatenate(
                (head.mixing_norm, series.mixing_norm), axis=1))
        else:
            series = scan()
        export_series(series.row(0), out / "series.csv")
        write_record(out / "metadata.json", {
            "n": args.n, "ratio": {"num": ratio.num, "den": ratio.den}, "permutation": list(perm),
            "d": d, "pe": pe, "tmax": t_max, "p": args.p})
    print(
        f"simulated n={args.n} r={ratio} perm={','.join(map(str, perm))} "
        f"d={d:g} tmax={t_max} (L={length}) -> {Path(args.out or '.')}"
    )
    return 0


def _cmd_list_permutations(args) -> int:
    allowed, rejected, broken = screen(args.n)
    lines = order_labels(allowed)
    if args.rejected:
        lines.append("")
        for label, row in zip(order_labels(rejected), broken.tolist()):
            lines.append(f"{label} rejected: " + ", ".join(r for r, hit in zip(RULES, row) if hit))
    # One write of one join: a print per order took most of the time at n = 9.
    sys.stdout.write("\n".join([*lines, ""]))
    return 0


def _cmd_sweep(args) -> int:
    runs = _runs(args, args.ratio)
    entries = []
    with output_dir(args.out) as out:
        for ratio, length, t_max, d in runs:
            ens = run_ensemble(args.n, ratio, d, t_max, p=args.p)
            export_ensemble(ens, out / f"r{ratio.num}_{ratio.den}")
            if ens.fit is not None:
                entries.append((ratio, d, ens.fit))
            print(
                f"r={ratio}: L={length} tmax={t_max} d={d:g}"
                + (f" tau={ens.fit.tau:.4g} alpha={ens.fit.alpha:.4g}" if ens.fit else "")
            )
        if entries:
            export_fit_scatter(entries, out / "fits.csv")
        write_record(out / "config.json", {"verb": "sweep", "n": args.n, "p": args.p})
    return 0


def _cmd_fit(args) -> int:
    col = args.column
    try:
        with _open("--series", args.series, newline="") as fh:
            reader = csv.DictReader(fh, restval="")  # a short row's missing cells read ""
            for name in ("T", col):
                if name not in (reader.fieldnames or ()):
                    raise ValueError(f"{args.series}: no column {name!r}")
            rows = list(reader)
    except UnicodeDecodeError as exc:
        raise ValueError(f"--series {args.series}: not UTF-8 text: {exc}") from None
    if not rows:
        raise ValueError(f"{args.series}: no data rows")
    t, y = [], []
    for k, row in enumerate(rows, start=1):
        for name, values in (("T", t), (col, y)):
            try:
                value = float(row[name])
                fault = ("not a finite number" if not math.isfinite(value) else
                         "negative" if name == col and value < 0 else "")
            except ValueError:
                fault = "not a number"
            if fault:
                raise ValueError(f"{args.series}: data row {k}, column {name!r}: "
                                 f"{fault}: {row[name]!r}")
            values.append(value)
    if args.m is not None and not 0.0 < args.m < math.inf:
        raise ValueError(f"--m must be finite and positive, got {args.m}")
    m = args.m if args.m is not None else y[0]
    try:
        fit = fit_stretched_exponential(np.array(t), np.array(y), m)
    except ValueError as exc:  # finite cells can still overflow the solve
        raise ValueError(f"{args.series}: {exc}") from None
    payload = fit_payload(fit)
    print(json_text(payload))
    if args.out:
        with output_dir(args.out) as out:
            write_json(out / "fit.json", payload)
    return 0


def _cmd_collapse(args) -> int:
    if args.grid_points < MIN_FIT_SAMPLES:
        raise ValueError(f"--grid-points must be at least {MIN_FIT_SAMPLES}, the samples "
                         f"a fit needs, got {args.grid_points}")
    if not 0.0 < args.grid_max < math.inf:
        raise ValueError(f"--grid-max must be finite and positive, got {args.grid_max}")
    runs = _runs(args, args.ratio)
    if any(d == 0.0 for *_, d in runs):
        raise ValueError("collapse fits diffusive ensembles only: give --d > 0 or --pe")
    ensembles = run_ensembles(dict(n=args.n, ratio=ratio, d=d, t_max=t_max, p=args.p, runs=False)
                              for ratio, _, t_max, d in runs)
    for ratio, length, t_max, d in runs:
        print(f"r={ratio}: L={length} tmax={t_max} d={d:g}")
    cr = collapse(ensembles, grid_points=args.grid_points, grid_max=args.grid_max)
    payload = {
        "tau_universal": cr.fit.tau, "alpha_universal": cr.fit.alpha,
        "sse": cr.fit.sse, "converged": cr.fit.converged,
    }
    with output_dir(args.out) as out:
        export_collapse(cr, out / "collapse.csv")
        write_json(out / "universal_fit.json", payload)
        write_record(out / "config.json", {
            "verb": "collapse", "n": args.n, "p": args.p,
            "grid_points": args.grid_points, "grid_max": args.grid_max})
    print(json_text(payload))
    return 0


def _cmd_stopping_time(args) -> int:
    ratio = _ratio(args.ratio)
    length = total_length(args.n, ratio)
    t_max = _resolve_tmax(args, length)
    pes = _once("--pe", sorted(_peclet(v) for v in args.pe), "g")
    for pe in pes:
        _diffusivity(args, length, t_max, pe)
    rows = steepening_report(
        args.n, ratio, t_max, pes, p=args.p,
        use_mean_lengths=args.lm_mode == "length", max_slopes=args.steepening,
    )
    with output_dir(args.out) as out:
        export_steepening(rows, out / "stopping_times.csv")
        write_record(out / "config.json", {
            "verb": "stopping-time", "n": args.n, "ratio": str(ratio), "tmax": t_max,
            "pe": pes, "lm_mode": args.lm_mode, "steepening": args.steepening})
    for row in rows:
        sol = row.solution
        if sol.found:
            extra = f" max_slope={row.max_slope:.4g}" if row.max_slope is not None else ""
            print(f"pe={row.pe:g}: T_stop={sol.iteration} (interp {sol.interpolated:.2f}){extra}")
        else:
            print(f"pe={row.pe:g}: no crossing within tmax={t_max}")
    return 0


def _cmd_table1(args) -> int:
    ratios = _once("--ratio", [_ratio(text) for text in args.ratio or _PAPER_RATIOS])
    if args.ref_tmax <= 0:
        raise ValueError(f"--ref-tmax must be positive, got {args.ref_tmax}")
    ref = (_ratio(args.ref_ratio, "--ref-ratio"), args.ref_tmax)
    rows = table_one(ratios, n=args.n or 4, reference=ref)  # the only verb with an optional --n
    print(f"{'r':>7} {'r_n':>4} {'xi':>6} {'L':>8} {'t_max':>8}")
    for row in rows:
        print(f"{str(row.ratio):>7} {row.r_n:>4} {row.xi:>6} {row.length:>8} {row.t_max:>8}")
    if args.out:
        with output_dir(args.out) as out:
            export_table_one(rows, out / "table1.csv")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ietmix",
        description="Cut-and-shuffle mixing of a 1-D lattice with diffusion.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    # Each verb below may declare the flags it needs and that it runs ensembles.
    parser.set_defaults(required=(), ensemble=False)

    s = sub.add_parser("simulate", help="run one protocol and export its records")
    _add_protocol_flags(s, ratio_repeats=False)
    s.add_argument("--perm", help="shuffle order, e.g. 3,1,4,2")
    s.add_argument("--format", choices=["pgm", "csv", "none"],
                   help="space-time raster format, or none for the metric series "
                        "only (default pgm)")
    _add_common(s)
    s.set_defaults(func=_cmd_simulate, required=("n", "ratio", "perm"))

    s = sub.add_parser("list-permutations", help="allowed shuffle orders")
    s.add_argument("--n", required=True, **_PROTOCOL_FLAGS["--n"])
    s.add_argument("--rejected", action="store_true",
                   help="also list rejected orders with the rule they break")
    s.set_defaults(func=_cmd_list_permutations)

    s = sub.add_parser("sweep", help="ensembles over ratios, averaged curves + fits")
    _add_protocol_flags(s, ratio_repeats=True)
    _add_common(s)
    s.set_defaults(func=_cmd_sweep, required=("n", "ratio"), ensemble=True)

    s = sub.add_parser("fit", help="fit a stretched exponential to a series CSV")
    s.add_argument("--series", required=True, help="CSV produced by simulate/sweep")
    s.add_argument("--column", help="value column (default mixing_norm)")
    s.add_argument("--m", type=float, help="fixed initial value (default: first row)")
    _add_common(s)
    s.set_defaults(func=_cmd_fit)

    s = sub.add_parser("collapse", help="rescaled decay collapse across ratios")
    _add_protocol_flags(s, ratio_repeats=True)
    s.add_argument("--grid-points", type=int, help="collapse grid size (default 200)")
    s.add_argument("--grid-max", type=float, help="grid end in T/T_Pe (default 5)")
    _add_common(s)
    s.set_defaults(func=_cmd_collapse, required=("n", "ratio"), ensemble=True)

    s = sub.add_parser("stopping-time", help="Batchelor stopping times over a Peclet sweep")
    _add_protocol_flags(s, "--n", "--ratio", "--tmax", "--tmax-from", "--p",
                        ratio_repeats=False)
    s.add_argument("--pe", action="append", help="repeatable Peclet value")
    s.add_argument("--lm-mode", choices=["count", "length"],
                   help="striation length from averaged counts (count, the default) "
                        "or averaged lengths")
    s.add_argument("--steepening", action="store_true",
                   help="also run diffusive ensembles and report max slopes")
    _add_common(s)
    s.set_defaults(func=_cmd_stopping_time, required=("n", "ratio", "pe"), ensemble=True)

    s = sub.add_parser("table1", help="lattice sizes and matched iteration budgets")
    s.add_argument("--n", type=int, help="number of pieces (2..9, default 4)")
    s.add_argument("--ratio", action="append",
                   help="length ratio as a fraction a/b; repeat for several ratios "
                        f"(default: the paper's seven, {', '.join(_PAPER_RATIOS)})")
    s.add_argument("--ref-ratio", help="reference ratio (default 5/4)")
    s.add_argument("--ref-tmax", type=int, help="reference budget (default 50)")
    _add_common(s)
    s.set_defaults(func=_cmd_table1)

    for verb_parser in sub.choices.values():
        # Config keys are checked against the flags of the chosen verb.
        verb_parser.set_defaults(
            flags={a.dest: a for a in verb_parser._actions if a.dest != "help"}
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _resolve(args)
        return args.func(args)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1
