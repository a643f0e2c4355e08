"""Self-test of the benchmark harness: python3 -m pytest perfbench -q"""

import json
import sys
import types

import run
import tracer


def _fake_layer(monkeypatch):
    """A module whose outer() calls inner() twice through the module namespace,
    advancing a fake clock by known amounts."""
    clock = {"t": 0.0}
    layer = types.ModuleType("fake_layer")

    def inner():
        clock["t"] += 2.0

    def outer():
        clock["t"] += 1.0
        layer.inner()
        layer.inner()
        clock["t"] += 3.0
        return "done"

    layer.inner, layer.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layer", layer)
    return layer, lambda: clock["t"]


def test_self_time_is_total_minus_child_spans(monkeypatch):
    layer, clock = _fake_layer(monkeypatch)
    t = tracer.Tracer(clock=clock)
    t.install([("fake.outer", ["fake_layer.outer"], None),
               ("fake.inner", ["fake_layer.inner"], None)])
    assert layer.outer() == "done"
    assert t.spans[("fake.outer", None)] == [1, 8.0, 4.0]
    assert t.spans[("fake.inner", "fake.outer")] == [2, 4.0, 4.0]
    assert t.absent == {}


def test_cli_self_time_excludes_setup_and_top_level_spans(monkeypatch):
    layer, clock = _fake_layer(monkeypatch)
    t = tracer.Tracer(clock=clock)
    t.install([("fake.outer", ["fake_layer.outer"], None)])
    layer.outer()
    metrics = tracer.layer_metrics(t.snapshot(), wall_s=20.0, setup_s=1.5)
    assert metrics["cli.self_s"] == (20.0 - 1.5 - 8.0, "s")


def test_missing_hook_target_is_reported_absent(monkeypatch):
    layer, clock = _fake_layer(monkeypatch)
    t = tracer.Tracer(clock=clock)
    t.install([("fake.gone", ["fake_layer.gone", "no_such_module.fn"], None),
               ("fake.inner", ["fake_layer.inner", "fake_layer.renamed"], None)])
    assert set(t.absent) == {"fake.gone"}
    assert "fake_layer.gone not found" in t.absent["fake.gone"]


def test_failing_observer_marks_counters_absent(monkeypatch):
    layer, clock = _fake_layer(monkeypatch)
    t = tracer.Tracer(clock=clock)
    t.install([("fake.outer", ["fake_layer.outer"], tracer._observe_solver)])
    assert layer.outer() == "done"
    assert "fake.outer counters" in t.absent
    assert t.spans[("fake.outer", None)][0] == 1


def test_nonzero_exit_counts_as_failure(tmp_path):
    bad = run.Command(name="bad", args=("list-permutations", "--n", "1"), variants=((),),
                      outputs=("stdout",))
    inv = run.invoke(bad, (), tmp_path, False, 60.0, {"stdout": "0" * 64})
    assert inv.exit_code == 1
    assert inv.failed
    assert inv.problems[0].startswith("exit 1: error:")


def test_digest_mismatch_counts_as_failure(tmp_path):
    small = run.Command(name="small", args=("list-permutations", "--n", "4"), variants=((),),
                        outputs=("stdout",))
    first = run.invoke(small, (), tmp_path, False, 60.0, None)
    assert first.exit_code == 0 and first.failed  # nothing frozen to compare with
    assert not run.invoke(small, (), tmp_path, False, 60.0, first.outputs).failed
    wrong = run.invoke(small, (), tmp_path, False, 60.0, {"stdout": "0" * 64})
    assert wrong.exit_code == 0
    assert wrong.failed


def test_peak_memory_is_per_child(tmp_path):
    big = run.spawn([sys.executable, "-c", "x = b'x' * (96 << 20)"],
                    tmp_path / "sidecar", tmp_path / "out", 60.0)
    small = run.spawn([sys.executable, "-c", "pass"], tmp_path / "sidecar", tmp_path / "out", 60.0)
    assert big.exit_code == small.exit_code == 0
    assert big.peak_rss_mb > 96
    assert small.peak_rss_mb < 64


def test_reference_is_taken_out_of_wall_and_setup_and_rescales_them(tmp_path):
    probe = run.probe_setup(tmp_path)
    assert probe.exit_code == 0 and probe.ref_s > 0
    assert 0 < probe.setup_s < probe.wall_s
    inv = run.Invocation(wall_s=3.0, setup_s=0.5, peak_rss_mb=80.0, exit_code=0,
                         ref_s=2 * run.REFERENCE_NOMINAL_S)
    assert (inv.norm_wall_s, inv.norm_setup_s) == (1.5, 0.25)


def test_merged_trace_pools_spans_and_sums_counters():
    a = {"spans": [["x", None, 1, 2.0, 2.0]], "counters": {"c": 1}, "absent": {}}
    b = {"spans": [["x", None, 2, 3.0, 1.0]], "counters": {"c": 2, "d": 5}, "absent": {"y": "gone"}}
    merged = tracer.merge([a, b])
    assert merged["counters"] == {"c": 3, "d": 5}
    assert merged["absent"] == {"y": "gone"}
    metrics = tracer.layer_metrics(merged, wall_s=10.0, setup_s=1.0)
    assert metrics["cli.self_s"] == (10.0 - 1.0 - 5.0, "s")


def test_trace_reports_every_declared_layer_metric():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    empty = {"spans": [], "counters": {}, "absent": {}}
    assert declared == set(tracer.layer_metrics(empty, 1.0, 0.5)) | {"trace.overhead_s"}
