"""Self-tests of the benchmark harness.

Run from the repository root::

    python3 -m pytest perfbench -q

They cover the percentile helper and its ten-samples-beyond rule, the
self-time arithmetic on nested spans, installing and removing span
wrappers (checked by function identity), the correctness checks, and a
short smoke run of every workload in both modes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

BENCHMARK = json.loads((wl.ROOT / "BENCHMARK.json").read_text())


# -- percentiles --------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert harness.percentile(values, 0.50) == 50
    assert harness.percentile(values, 0.95) == 95
    assert harness.percentile([7.0], 0.95) == 7.0
    with pytest.raises(ValueError):
        harness.percentile([], 0.5)


def test_p95_needs_ten_samples_beyond():
    assert harness.tail_samples(200, 0.95) == 10
    assert harness.tail_samples(199, 0.95) == 9
    short = harness.latency_summary(float(i) for i in range(199))
    assert not short["p95_supported"] and short["beyond_p95"] == 9
    enough = harness.latency_summary(float(i) for i in range(200))
    assert enough["p95_supported"] and enough["beyond_p95"] == 10
    assert enough["p50"] == 99.0 and enough["p95"] == 189.0
    assert harness.latency_summary([])["p50"] is None


# -- self time ----------------------------------------------------------------


def test_self_time_subtracts_covered_child_time():
    spans = [
        ("a", 0.0, 10.0, 1, 0, 1),
        ("b", 1.0, 4.0, 2, 1, 1),
        ("e", 3.0, 5.0, 5, 1, 1),   # overlaps b: the union counts once
        ("c", 5.0, 9.0, 3, 1, 1),
        ("d", 6.0, 7.0, 4, 3, 1),
        ("b", 11.0, 12.0, 6, 0, 6),  # a second root, same name as a child
    ]
    selfs = harness.self_times(spans)
    assert selfs["a"] == pytest.approx(10.0 - 8.0)
    assert selfs["b"] == pytest.approx(3.0 + 1.0)
    assert selfs["c"] == pytest.approx(3.0)
    assert selfs["d"] == pytest.approx(1.0)
    assert selfs["e"] == pytest.approx(2.0)
    # Without overlapping siblings, self times partition the root time.
    serial = [span for span in spans if span[0] != "e"]
    assert sum(harness.self_times(serial).values()) == \
        pytest.approx(harness.root_time(serial))


def test_recorder_nests_spans_per_thread():
    recorder = harness.SpanRecorder()
    inner = recorder.wrap("inner", lambda: 1)
    outer = recorder.wrap("outer", lambda: inner() + 1)
    assert outer() == 2 and recorder.spans == []  # inactive: no spans
    recorder.active = True
    outer()
    (i_name, *_i, i_id, i_parent, i_op), (o_name, *_o, o_id, o_parent,
                                          o_op) = recorder.spans
    assert (i_name, o_name) == ("inner", "outer")
    assert i_parent == o_id and o_parent == 0 and i_op == o_op == o_id


# -- installing and removing wrappers -----------------------------------------


@pytest.fixture
def fake_package(monkeypatch):
    """A two-module package: ``fakepkg.core`` defines the targets and
    ``fakepkg.user`` imports one of them by name."""
    core = types.ModuleType("fakepkg.core")

    def helper(x):
        return x + 1

    class Thing:
        def method(self):
            return core.helper(1)   # looked up at call time: wrapped

        @property
        def prop(self):
            return 5

        @classmethod
        def make(cls):
            return cls()

    class Db:
        def __init__(self):
            self._listeners = []

        def add_listener(self, fn):
            self._listeners.append(fn)

        def remove_listener(self, fn):
            self._listeners.remove(fn)

        def notify(self, event):
            for fn in list(self._listeners):
                fn(event)

    core.helper, core.Thing, core.Db = helper, Thing, Db
    user = types.ModuleType("fakepkg.user")
    user.helper = helper
    for name, module in (("fakepkg", types.ModuleType("fakepkg")),
                         ("fakepkg.core", core), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, module)
    return core, user


def test_wrappers_install_and_remove_by_identity(fake_package):
    core, user = fake_package
    targets = [("helper_ms", "fakepkg.core", "helper"),
               ("method_ms", "fakepkg.core:Thing", "method"),
               ("prop_ms", "fakepkg.core:Thing", "prop"),
               ("make_ms", "fakepkg.core:Thing", "make")]
    originals = {"helper": core.helper,
                 **{k: core.Thing.__dict__[k]
                    for k in ("method", "prop", "make")}}
    recorder = harness.SpanRecorder()
    instr = harness.Instrumentation(recorder, package="fakepkg")
    instr.hook_listeners("fakepkg.core:Db")
    db = core.Db()
    seen = []

    def listener(event):
        seen.append(event)

    db.add_listener(listener)
    instr.install(targets)
    assert user.helper is core.helper is not originals["helper"]
    assert harness.find_wrappers(targets, "fakepkg.core:Db")
    recorder.active = True
    thing = core.Thing.make()
    assert thing.method() == 2 and thing.prop == 5 and user.helper(1) == 2
    db.notify("e1")
    names = [span[0] for span in recorder.spans]
    assert names.count("helper_ms") == 2
    assert {"method_ms", "prop_ms", "make_ms",
            "model.database.listener.test_harness_ms"} <= set(names)
    instr.remove()
    assert core.helper is user.helper is originals["helper"]
    for key in ("method", "prop", "make"):
        assert core.Thing.__dict__[key] is originals[key]
    assert db._listeners == [listener]       # original back, same order
    assert instr.verify_removed(targets, "fakepkg.core:Db") == []
    db.notify("e2")
    db.remove_listener(listener)             # original is removable again
    assert seen == ["e1", "e2"] and db._listeners == []


def test_real_targets_resolve_and_restore():
    wl.load_repro()
    from repro.oql.evaluator import PatternEvaluator
    from repro.rules.engine import RuleEngine
    from repro.university import build_paper_database
    original = PatternEvaluator.__dict__["evaluate"]
    recorder = harness.SpanRecorder()
    instr = harness.Instrumentation(recorder)
    instr.hook_listeners(wl.DATABASE)
    data = build_paper_database()
    engine = RuleEngine(data.db)
    instr.install(wl.SPAN_TARGETS)
    recorder.active = True
    sum(1 for _ in engine.query(
        "context Teacher * Section * Course").subdatabase.patterns)
    data.db.associate(data["t2"], "teaches", data["s6"])
    names = {span[0] for span in recorder.spans}
    assert {"oql.parser.parse_ms", "oql.evaluator.evaluate_ms",
            "subdb.subdatabase.decode_ms", "model.database.associate_ms",
            "model.database.listener.rules.engine_ms"} <= names
    instr.remove()
    assert PatternEvaluator.__dict__["evaluate"] is original
    assert instr.verify_removed(wl.SPAN_TARGETS, wl.DATABASE) == []
    assert harness.find_wrappers(wl.SPAN_TARGETS, wl.DATABASE) == []


# -- correctness checks -------------------------------------------------------


def _read(text, patterns, version):
    return ("read", text, 0, 0,
            {"ok": True, "result": {"patterns": patterns,
                                    "pinned_version": version}})


def test_served_check_counts_wrong_answers_by_snapshot_version():
    tsc, dept = wl.SERVED_READS[0], wl.SERVED_READS[2]
    ready = {"base_counts": {tsc: 600, dept: 75}}
    associate = ("associate", None, 0, 0,
                 {"ok": True, "result": {"version": 10}})
    busy = ("read", dept, 0, 0, {"ok": False, "error": {"code": "BUSY"}})
    good = [associate, _read(tsc, 600, 9), _read(tsc, 601, 10),
            _read(dept, 75, 12)]
    assert run.check_served(good, ready)["failed"] == 0
    verdict = run.check_served(good + [_read(tsc, 600, 11), busy], ready)
    assert verdict["mismatched"] == 1 and verdict["busy"] == 1
    assert verdict["failed"] == 2


def test_served_cycle_is_ninety_ten():
    conn = run.Connection(None, None, {}, "t")
    ops = [conn.next_op() for _ in range(4 * wl.SERVED_CYCLE)]
    writes = [kind for kind, _text in ops if kind != "read"]
    assert len(writes) == 4 and writes[0] == "insert"
    reads = {text for kind, text in ops if kind == "read"}
    assert reads == set(wl.SERVED_READS)


def test_write_mix_is_stationary_and_tracks_gpa():
    wl.load_repro()
    from repro.university import generate_university
    db = generate_university(wl.dataset_config(60), seed=5).db
    before = wl.extent_sizes(db)
    mix = wl.WriteMix(db, 5, "t")
    mix.prefill()
    kinds = [mix.apply() for _ in range(3 * len(mix.KINDS))]
    assert kinds.count("delete") == 3
    actual = sum(1 for oid in db.extent("Student")
                 if db.get_attribute(oid, "GPA") > 3.5)
    assert mix.count_above(3.5) == actual
    mix.drain()
    assert wl.extent_sizes(db) == before


# -- BENCHMARK.json and the result line ------------------------------------


def test_benchmark_json_names_match_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} \
        == run.E2E_UNITS
    assert [m["name"] for m in BENCHMARK["per_layer"]] \
        == wl.layer_metric_names()
    for metric in BENCHMARK["per_layer"]:
        assert metric["unit"] == wl.layer_unit(metric["name"])


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_smoke_run(workload, trace):
    done = _run(wl.ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stdout
    assert result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK[section]}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "analytic", 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
