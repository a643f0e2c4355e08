"""Generated command lines for every verb, run in-process on tiny lattices.

Valid values keep every lattice tiny (n <= 4, ratio terms <= 9, T <= 20);
they are mixed with malformed and out-of-range ones, clashing flags,
repeated values and bad config files. Whatever the command line, main must
return 0, 1 or argparse's 2 and raise nothing else, and a refusal (exit 1)
must print an "error: " message and leave no file behind: neither the
--out directory nor a .ietmix-* stage.
"""

import contextlib
import io
import json
import math
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ietmix.cli import main

_VALID_RATIOS = [f"{a}/{b}" for a in range(2, 10) for b in range(1, a) if math.gcd(a, b) == 1]
_RATIO = st.one_of(
    st.sampled_from(_VALID_RATIOS),
    st.sampled_from(["6/4", "x", "", "5/0", "0/4", "-5/4", "4/5", "5/5", "5/4/3", "5", "1.25"]),
)
_PIECES = st.sampled_from(["3", "4", "2", "1", "0", "-1", "10", "x", "3.5"])
# The reference length 3,000 is above every valid lattice's, so T <= T_ref <= 20.
_TMAX_FROM = st.one_of(
    st.integers(1, 20).map(lambda t: f"3000,{t}"),
    st.sampled_from(["0,5", "3000,0", "-3000,5", "5", "x", "1,2,3", ""]),
)
_FLAGS = {
    "--n": _PIECES,
    "--ratio": _RATIO,
    "--d": st.sampled_from(["0", "0.1", "0.25", "0.5", "0.6", "-0.1", "nan", "inf", "x",
                            "1e-320"]),
    "--pe": st.sampled_from(["1", "100", "1e4", "1e6", "1e9", "0", "-1", "nan", "inf", "x"]),
    "--tmax": st.one_of(st.integers(0, 20).map(str), st.sampled_from(["-1", "x", "2.5"])),
    "--tmax-from": _TMAX_FROM,
    "--p": st.sampled_from(["1", "2", "3.5", "0.5", "0", "nan", "inf", "x"]),
    "--perm": st.one_of(
        st.permutations([1, 2, 3, 4]).map(lambda q: ",".join(map(str, q))),
        st.permutations([1, 2, 3]).map(lambda q: ",".join(map(str, q))),
        st.sampled_from(["", "x", "1,1,2", "3,1,4,2,5", "0,1,2", "2,1"]),
    ),
    "--format": st.sampled_from(["pgm", "csv", "none", "json"]),
    "--grid-points": st.sampled_from(["5", "12", "50", "4", "0", "-3", "x"]),
    "--grid-max": st.sampled_from(["1", "5", "0.5", "0", "-1", "nan", "inf", "x"]),
    "--lm-mode": st.sampled_from(["count", "length", "bad"]),
    "--series": st.sampled_from(["series.csv", "flat.csv", "huge.csv", "empty.csv",
                                 "latin1.csv", "missing.csv", "."]),
    "--column": st.sampled_from(["mixing_norm", "cut_count", "T", "nope"]),
    "--m": st.sampled_from(["0.5", "1", "0", "-1", "nan", "inf", "x"]),
    "--ref-ratio": _RATIO,
    "--ref-tmax": st.sampled_from(["1", "50", "1000", "0", "-5", "x"]),
    "--config": st.sampled_from(["config.json", "config.json", "missing.json", "."]),
    "--out": st.sampled_from(["out", "out/nested", "series.csv"]),
}
_SWITCHES = {"--steepening", "--rejected"}
_PROTOCOL = ["--n", "--ratio", "--d", "--pe", "--tmax", "--tmax-from", "--p"]
_COMMON = ["--config", "--out"]
_VERB_FLAGS = {
    "simulate": _PROTOCOL + ["--perm", "--format"] + _COMMON,
    "list-permutations": ["--n", "--rejected"],
    "sweep": _PROTOCOL + _COMMON,
    "fit": ["--series", "--column", "--m"] + _COMMON,
    "collapse": _PROTOCOL + ["--grid-points", "--grid-max"] + _COMMON,
    "stopping-time": ["--n", "--ratio", "--tmax", "--tmax-from", "--p", "--pe", "--lm-mode",
                      "--steepening"] + _COMMON,
    "table1": ["--n", "--ratio", "--ref-ratio", "--ref-tmax"] + _COMMON,
}

_JSON_ODD = st.sampled_from([True, None, [], {}, 1.5, -2, "", [1, "x"]])


@st.composite
def _config(draw, verb):
    """The text of a --config file: a JSON object of the verb's flags, or not one."""
    kind = draw(st.sampled_from(["object", "object", "object", "not-json", "array", "unknown"]))
    if kind == "not-json":
        return "{"
    if kind == "array":
        return "[]"
    keys = [f for f in _VERB_FLAGS[verb] if f != "--config"]
    cfg = {}
    for flag in draw(st.lists(st.sampled_from(keys), max_size=4, unique=True)):
        key = flag.lstrip("-").replace("-", "_")
        if flag in _SWITCHES:
            cfg[key] = draw(st.one_of(st.booleans(), _JSON_ODD))
        else:  # a list is one value per use of a repeatable flag
            cfg[key] = draw(st.one_of(_FLAGS[flag], st.lists(_FLAGS[flag], max_size=3),
                                      _JSON_ODD))
    if kind == "unknown":
        cfg["no_such_flag"] = 1
    return json.dumps(cfg)


# A valid command per verb, which the drawn flags then amend or spoil. The
# diffusive runs are stable: D = L^2 / (Pe T) stays below 1/2 at Pe >= 1e8.
_VALID = {
    "--n": st.sampled_from(["3", "4"]),
    "--ratio": st.sampled_from(_VALID_RATIOS),
    "--tmax": st.integers(5, 20).map(str),
    "--d": st.sampled_from(["0.1", "0.25", "0.5"]),
    "--pe": st.sampled_from(["1e8", "1e9"]),
}
_BASE = {
    "simulate": ["--n", "--ratio", "--tmax", "--d"],
    "list-permutations": ["--n"],
    "sweep": ["--n", "--ratio", "--ratio", "--tmax", "--d"],
    "fit": [],
    "collapse": ["--n", "--ratio", "--ratio", "--tmax", "--d"],
    "stopping-time": ["--n", "--ratio", "--tmax", "--pe", "--pe"],
    "table1": [],
}


@st.composite
def _command(draw, verb):
    """argv for one verb, a valid command and then up to four drawn flags, and
    the text of its config file."""
    argv = [verb]
    for flag in dict.fromkeys(_BASE[verb]):
        for value in draw(st.lists(_VALID[flag], min_size=1, max_size=_BASE[verb].count(flag),
                                   unique=True)):
            argv += [flag, value]
    if verb == "simulate":
        n = int(argv[2])  # the value of --n, the first flag
        argv += ["--perm", ",".join(map(str, draw(st.permutations(range(1, n + 1)))))]
    if verb == "fit":
        argv += ["--series", "series.csv"]
    if "--out" in _VERB_FLAGS[verb] and draw(st.booleans()):
        argv += ["--out", "out"]
    for flag in draw(st.lists(st.sampled_from(_VERB_FLAGS[verb]), max_size=4)):
        if flag in _SWITCHES:
            argv.append(flag)
        else:
            argv += [flag, draw(_FLAGS[flag])]
    return argv, draw(_config(verb))


def _write_inputs(root: Path, config: str) -> None:
    """The files a generated command may name, all tiny."""
    (root / "config.json").write_text(config)
    rows = "".join(f"{t},{0.4 * 0.8 ** t!r},{t}\n" for t in range(21))
    (root / "series.csv").write_text("T,mixing_norm,cut_count\n" + rows)
    (root / "flat.csv").write_text("T,mixing_norm\n" + "".join(f"{t},0.3\n" for t in range(8)))
    (root / "huge.csv").write_text("T,mixing_norm\n0,1\n1,0.2\n2,0.1\n3,0.05\n1.7e308,0.5\n")
    (root / "empty.csv").write_text("T,mixing_norm\n")
    (root / "latin1.csv").write_bytes("T,mixing_norm\n0,\xe9\n".encode("latin-1"))


@pytest.mark.parametrize("verb", sorted(_VERB_FLAGS))
@settings(derandomize=True, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_generated_command_lines_end_cleanly(verb, data):
    argv, config = data.draw(_command(verb), label="argv, config")
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _write_inputs(root, config)
        made = set(os.listdir(root))
        stdout, stderr = io.StringIO(), io.StringIO()
        os.chdir(root)  # a verb run without --out writes into the working directory
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse refuses with exit 2
                    code = exc.code
        finally:
            os.chdir(here)
        assert code in (0, 1, 2), (argv, code)
        if code == 1:
            assert stderr.getvalue().startswith("error: "), (argv, stderr.getvalue())
            assert set(os.listdir(root)) == made, argv  # the inputs are all files
        assert not list(root.rglob(".ietmix-*")), argv
