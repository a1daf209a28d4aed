"""The engine process of one benchmark run.

``run.py`` starts this script once per setup.  It builds the workload's
engine from the seed, prints a ``ready`` message, and then either exits
(a setup-only repetition), runs the in-process workload (``analytic``,
``write-churn``), or serves requests (``served-mixed``) until told to
stop.  Messages go to stdout as lines starting with ``@@`` followed by
JSON; commands arrive on stdin as JSON lines.

With ``--trace 1`` the span wrappers of ``harness.Instrumentation`` are
installed in this process: the listener hook before setup (inactive
until the traced phase), the function wrappers when the traced phase
starts.  All are removed, and the removal verified by identity, before
the untraced phase that gives the overhead baseline.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import workloads as wl  # noqa: E402


def emit(kind: str, **body) -> None:
    sys.stdout.write("@@" + json.dumps({"kind": kind, **body}) + "\n")
    sys.stdout.flush()


def read_command() -> dict:
    line = sys.stdin.readline()
    if not line:
        return {"cmd": "exit"}
    return json.loads(line)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_metadata(db, seed: int) -> dict:
    from repro.oql import kernels
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    stats = db.stats()
    return {"seed": seed, "nproc": wl.nproc(),
            "affinity_cpus": wl.affinity_cpus(),
            "python": sys.version.split()[0],
            "numpy": numpy_version,
            "numpy_active": kernels.numpy_active(),
            "sync_every": wl.SYNC_EVERY,
            "objects": stats["objects"], "links": stats["links"]}


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


class Tracing:
    """The traced phase's recorder, wrappers and counters."""

    def __init__(self):
        self.recorder = harness.SpanRecorder()
        self.instr = harness.Instrumentation(self.recorder)
        self.counters = {name: 0 for name in wl.EVAL_COUNTERS}
        self.counters["response_bytes"] = 0
        self.leftovers = None

    def hook_listeners(self) -> None:
        self.instr.hook_listeners(wl.DATABASE)

    def start(self) -> None:
        from repro.oql.evaluator import PatternEvaluator
        from repro.service import protocol
        counters = self.counters
        recorder = self.recorder
        raw_evaluate = PatternEvaluator.__dict__["evaluate"]
        raw_encode = protocol.encode_frame

        def evaluate(evaluator, *args, **kwargs):
            try:
                return raw_evaluate(evaluator, *args, **kwargs)
            finally:
                if recorder.active:
                    metrics = evaluator.last_metrics
                    for name in wl.EVAL_COUNTERS:
                        counters[name] += getattr(metrics, name, 0)

        def encode_frame(body):
            frame = raw_encode(body)
            if recorder.active:
                counters["response_bytes"] += len(frame)
            return frame

        # Counting wrappers first, span wrappers on top of them.
        PatternEvaluator.evaluate = evaluate
        self._counting = [(PatternEvaluator, "evaluate", raw_evaluate)]
        for mod_name in ("repro.service.protocol", "repro.service.server",
                         "repro.service"):
            module = sys.modules.get(mod_name)
            if module is not None and getattr(module, "encode_frame",
                                              None) is raw_encode:
                module.encode_frame = encode_frame
                self._counting.append((module, "encode_frame", raw_encode))
        self.instr.install(wl.SPAN_TARGETS)
        self.recorder.active = True

    def stop(self) -> None:
        self.recorder.active = False
        self.instr.remove()
        self.leftovers = self.instr.verify_removed(wl.SPAN_TARGETS,
                                                   wl.DATABASE)
        for owner, attr, raw in reversed(self._counting):
            setattr(owner, attr, raw)
        for owner, attr, raw in self._counting:
            current = owner.__dict__.get(attr) if isinstance(owner, type) \
                else getattr(owner, attr)
            if current is not raw:
                self.leftovers.append(f"{attr} (counting wrapper)")

    def start_per_call(self) -> None:
        """Wrap only the once-per-run calls (checkpoint, recovery)."""
        self.instr.install([t for t in wl.SPAN_TARGETS
                            if t[0] in wl.PER_CALL_SPANS])
        self.recorder.active = True

    def stop_per_call(self) -> None:
        self.instr.remove()
        self.leftovers += self.instr.verify_removed(wl.SPAN_TARGETS,
                                                    wl.DATABASE)

    def summary(self, ops: int) -> dict:
        """Per-op self milliseconds per span name plus the counters."""
        spans = self.recorder.spans
        selfs = harness.self_times(spans)
        calls = {}
        for name, *_rest in spans:
            calls[name] = calls.get(name, 0) + 1
        return {"ops": ops, "self_s": selfs, "calls": calls,
                "root_s": harness.root_time(
                    s for s in spans if s[0] != "workload.op"),
                "counters": dict(self.counters),
                "leftovers": self.leftovers}

    def dump(self, workload: str, seed: int) -> None:
        """Write the spans out, one JSON list per line."""
        out = wl.ROOT / ".bench_work" / "spans"
        out.mkdir(parents=True, exist_ok=True)
        with open(out / f"{workload}-seed{seed}.jsonl", "w") as handle:
            for span in self.recorder.spans:
                handle.write(json.dumps(span) + "\n")


def assert_untraced() -> list:
    """Wrappers still bound at the start of an untraced phase."""
    return harness.find_wrappers(wl.SPAN_TARGETS, wl.DATABASE)


# ---------------------------------------------------------------------------
# Setup
# ---------------------------------------------------------------------------


def build_engine(students: int, seed: int, controller: str):
    from repro.rules.engine import RuleEngine
    from repro.university import generate_university
    data = generate_university(wl.dataset_config(students), seed=seed)
    return data, RuleEngine(data.db, controller=controller)


def attach_wal(engine, root: Path):
    from repro.storage import open_backend
    backend = open_backend(root, "json", sync_every=wl.SYNC_EVERY)
    backend.attach(engine)
    return backend


def setup_analytic(args, workdir: Path) -> dict:
    from repro.rules.control import EvaluationMode
    students = wl.STUDENTS[args.scale]["analytic"]
    data, engine = build_engine(students, args.seed, "incremental")
    engine.universe.declare_index("Student", "GPA")
    engine.add_rule(wl.HONORS_RULE, label="Honors",
                    mode=EvaluationMode.PRE_EVALUATED)
    backend = attach_wal(engine, workdir / "data")
    queries = wl.analytic_queries(students)
    for text in queries:  # warm-up: interning, CSR, index, derivation
        sum(1 for _ in engine.query(text).subdatabase.patterns)
    return {"db": data.db, "engine": engine, "backend": backend,
            "queries": queries, "students": students}


def setup_churn(args, workdir: Path) -> dict:
    from repro.oql.subscribe import SubscriptionManager
    from repro.rules.control import EvaluationMode
    students = wl.STUDENTS[args.scale]["write-churn"]
    data, engine = build_engine(students, args.seed, "incremental")
    engine.universe.declare_index("Student", "GPA")
    engine.add_rule(wl.HONORS_RULE, label="Honors",
                    mode=EvaluationMode.PRE_EVALUATED)
    manager = SubscriptionManager(engine)
    sub = manager.subscribe(wl.CHURN_SUBSCRIPTION)
    backend = attach_wal(engine, workdir / "data")
    extents_start = wl.extent_sizes(data.db)
    mix = wl.WriteMix(data.db, args.seed, f"c{args.seed}")
    mix.prefill()
    sub_rows = len(sub.initial.added)
    for delta in sub.poll():
        sub_rows += len(delta.added) - len(delta.removed)
    for text in ("context Student * Section",
                 "context Student[GPA > 3.9] * Section * Course",
                 "context Honors:Student * Honors:Section", wl.CHURN_READ):
        sum(1 for _ in engine.query(text).subdatabase.patterns)
    return {"db": data.db, "engine": engine, "backend": backend,
            "mix": mix, "manager": manager, "sub": sub,
            "extents_start": extents_start,
            "sub_rows": sub_rows, "students": students}


def setup_served(args, workdir: Path) -> dict:
    from repro.service import QueryService, ServiceConfig
    students = wl.STUDENTS[args.scale]["served-mixed"]
    data, engine = build_engine(students, args.seed, "result")
    engine.add_rule(wl.TEACHER_COURSE_RULE, label="Teacher_course")
    config = ServiceConfig(port=0, max_concurrency=wl.nproc(),
                           cache_bytes=wl.SERVED_CACHE_BYTES,
                           backend_path=str(workdir / "data"),
                           backend_kind="json")
    service = QueryService(engine, config)
    service.start()
    db = data.db
    base = {text: len(engine.query(text).subdatabase)
            for text in wl.SERVED_READS}
    regrade = [oid.value for oid in sorted(db.extent("Student"),
                                           key=lambda o: o.value)
               if db.get_attribute(oid, "GPA") <= 3.9][:200]
    sections = sorted(oid.value for oid in db.extent("Section"))
    return {"db": db, "engine": engine, "service": service,
            "backend": service.backend, "students": students,
            "ready": {"port": service.address[1],
                      "host": service.address[0],
                      "version": db.version, "base_counts": base,
                      "extents": wl.extent_sizes(db),
                      "regrade_students": regrade, "sections": sections}}


SETUP = {"analytic": setup_analytic, "write-churn": setup_churn,
         "served-mixed": setup_served}


# ---------------------------------------------------------------------------
# Durability
# ---------------------------------------------------------------------------


def durability_check(state: dict, workdir: Path, target_query: str) -> dict:
    """Copy the live data directory as a simulated crash (the WAL is
    fsynced on every write, so the copy holds every acknowledged write),
    recover from the copy, and compare extent sizes and the rule
    target's canonical dump with the live engine."""
    engine, backend = state["engine"], state["backend"]
    crash = workdir / "crash-copy"
    shutil.copytree(backend.root, crash)
    times = []
    for _ in range(wl.RECOVER_REPS):
        store = type(backend)(crash)
        started = time.perf_counter()
        restored = store.recover()
        times.append(time.perf_counter() - started)
        store.close()
    recover_s = statistics.median(times)
    live_extents = wl.extent_sizes(engine.db)
    restored_extents = wl.extent_sizes(restored.db)
    live_dump = wl.canonical_rows(engine.query(target_query).subdatabase)
    restored_dump = wl.canonical_rows(
        restored.query(target_query).subdatabase)
    ok = live_extents == restored_extents and live_dump == restored_dump
    shutil.rmtree(crash)
    return {"recover_s": recover_s, "recover_samples_s": times,
            "durable": ok,
            "target_rows": len(live_dump),
            "extents_equal": live_extents == restored_extents,
            "target_equal": live_dump == restored_dump}


# ---------------------------------------------------------------------------
# In-process workloads
# ---------------------------------------------------------------------------


def timed_window(seconds: float, step, tracing=None) -> dict:
    """Call ``step(i)`` in a closed loop until ``seconds`` have passed
    and the op count is a whole number of ``step.cycle`` ops (so traced
    per-op counts repeat exactly).  ``step`` appends its own samples."""
    wrapped = tracing.recorder.wrap("workload.op", step) if tracing else step
    cycle = step.cycle
    started = time.perf_counter()
    deadline = started + seconds
    ops = 0
    while True:
        now = time.perf_counter()
        if now >= deadline and ops % cycle == 0:
            break
        wrapped(ops)
        ops += 1
    elapsed = time.perf_counter() - started
    return {"ops": ops, "elapsed_s": elapsed}


class AnalyticStep:
    def __init__(self, state: dict):
        self.engine = state["engine"]
        self.queries = state["queries"]
        self.cycle = len(self.queries)
        self.latencies = []
        self.observed = {text: set() for text in self.queries}
        self.by_query = {text: [] for text in self.queries}

    def __call__(self, i: int) -> None:
        text = self.queries[i % self.cycle]
        started = time.perf_counter()
        result = self.engine.query(text)
        rows = 0
        for _pattern in result.subdatabase.patterns:
            rows += 1
        elapsed = (time.perf_counter() - started) * 1000.0
        self.latencies.append(elapsed)
        self.by_query[text].append(elapsed)
        self.observed[text].add(rows)


class ChurnStep:
    cycle = wl.CHURN_READ_EVERY * len(wl.WriteMix.KINDS)

    def __init__(self, state: dict):
        self.engine = state["engine"]
        self.mix = state["mix"]
        self.sub = state["sub"]
        self.state = state
        self.reads = []
        self.writes = []
        self.mismatches = 0

    def __call__(self, i: int) -> None:
        if i % wl.CHURN_READ_EVERY == wl.CHURN_READ_EVERY - 1:
            started = time.perf_counter()
            result = self.engine.query(wl.CHURN_READ)
            rows = 0
            for _pattern in result.subdatabase.patterns:
                rows += 1
            self.reads.append((time.perf_counter() - started) * 1000.0)
            if rows != self.mix.count_above(wl.CHURN_READ_THRESHOLD):
                self.mismatches += 1
            if self.state["sub_rows"] != self.mix.count_above(
                    wl.CHURN_SUBSCRIPTION_THRESHOLD):
                self.mismatches += 1
            return
        started = time.perf_counter()
        self.mix.apply()
        self.writes.append((time.perf_counter() - started) * 1000.0)
        for delta in self.sub.poll():
            self.state["sub_rows"] += len(delta.added) - len(delta.removed)


def e2e_metrics(reads, writes, ops, elapsed_s) -> dict:
    read = harness.latency_summary(reads)
    write = harness.latency_summary(writes)
    return {"read_p50_ms": read["p50"], "read_p95_ms": read["p95"],
            "write_p50_ms": write["p50"], "write_p95_ms": write["p95"],
            "ops_per_s": ops / elapsed_s if elapsed_s else None,
            "samples": {"read": read, "write": write}}


def run_in_process(args, state: dict, workdir: Path, tracing) -> dict:
    workload = args.workload
    db = state["db"]
    backend = state["backend"]
    report = {"extents_start": state.get("extents_start")
              or wl.extent_sizes(db)}
    make_step = AnalyticStep if workload == "analytic" else ChurnStep
    traced = None
    if tracing is not None:
        wal_before = backend.wal.size_bytes()
        tracing.start()
        step = make_step(state)
        window = timed_window(args.seconds, step, tracing)
        wal_bytes = backend.wal.size_bytes() - wal_before
        tracing.stop()
        traced = {"step": step, "window": window, "wal_bytes": wal_bytes}
    leftovers = assert_untraced()
    step = make_step(state)
    window = timed_window(args.seconds, step)
    if workload == "analytic":
        reads, writes = step.latencies, []
        mismatches = 0
        # Write tail, after the read window so the reads above saw no
        # writes: GPA re-grades, one kind of write, so the percentiles do
        # not fall between the latency bands of different kinds (the
        # full mix is write-churn's).  The prefilled students are deleted
        # after the checkpoint, so recovery still replays a WAL tail.
        mix = wl.WriteMix(db, args.seed, f"a{args.seed}")
        mix.prefill()
        for _ in range(wl.ANALYTIC_WRITE_TAIL):
            started = time.perf_counter()
            mix.regrade()
            writes.append((time.perf_counter() - started) * 1000.0)
        attempted = window["ops"] + len(writes)
    else:
        reads, writes = step.reads, step.writes
        mismatches = step.mismatches
        mix = state["mix"]
        attempted = window["ops"]
    report.update(e2e_metrics(reads, writes, window["ops"],
                              window["elapsed_s"]))
    if tracing is not None:
        tracing.start_per_call()
    backend.checkpoint()
    mix.drain()
    report["extents_end"] = wl.extent_sizes(db)
    report["stationary"] = report["extents_end"] == report["extents_start"]
    durability = durability_check(state, workdir,
                                  "context Honors:Student * Honors:Section")
    if tracing is not None:
        tracing.stop_per_call()
        leftovers = leftovers + tracing.leftovers
    report["wrappers_left"] = leftovers
    report["durability"] = durability
    report["recover_s"] = durability["recover_s"]
    report["peak_rss_mb"] = peak_rss_mb()
    report["attempted"] = attempted
    report["mismatches"] = mismatches
    if workload == "analytic":
        report["observed_counts"] = {text: sorted(counts) for text, counts
                                     in step.observed.items()}
        report["per_op"] = {text: harness.latency_summary(values)
                            for text, values in step.by_query.items()}
        report["reference_counts"] = reference_counts(args, state)
        for text, counts in step.observed.items():
            if counts != {report["reference_counts"][text]}:
                report["mismatches"] += 1
    if traced is not None:
        report["trace"] = tracing.summary(traced["window"]["ops"])
        report["trace"].update(
            wal_bytes=traced["wal_bytes"],
            writes=len(getattr(traced["step"], "writes", ())),
            window=traced["window"], untraced_window=window)
        tracing.dump(workload, args.seed)
    return report


def reference_counts(args, state: dict) -> dict:
    """Row counts of the analytic rotation from the set-based reference
    executor (``compact=False``) on a fresh copy of the same data.

    Runs after the measured window and after peak RSS is taken, so the
    oracle's time and memory stay out of the metrics; the rotation makes
    no writes, so the counts are those of the data the window read.
    """
    from repro.rules.control import EvaluationMode
    from repro.rules.engine import RuleEngine
    from repro.university import generate_university
    data = generate_university(wl.dataset_config(state["students"]),
                               seed=args.seed)
    reference = RuleEngine(data.db, compact=False)
    reference.add_rule(wl.HONORS_RULE, label="Honors",
                       mode=EvaluationMode.PRE_EVALUATED)
    return {text: len(reference.query(text).subdatabase)
            for text in state["queries"]}


# ---------------------------------------------------------------------------
# Served workload (server side)
# ---------------------------------------------------------------------------


def serve(args, state: dict, workdir: Path, tracing) -> None:
    service = state["service"]
    while True:
        command = read_command()
        cmd = command.get("cmd")
        if cmd == "trace_on":
            wal_before = state["backend"].wal.size_bytes()
            tracing.start()
            emit("ack")
        elif cmd == "trace_off":
            tracing.stop()
            summary = tracing.summary(command.get("ops", 0))
            summary["wal_bytes"] = \
                state["backend"].wal.size_bytes() - wal_before
            emit("trace", trace=summary)
        elif cmd == "check_untraced":
            emit("ack", wrappers_left=assert_untraced())
        elif cmd == "checkpoint":
            if tracing is not None:
                tracing.start_per_call()
            state["backend"].checkpoint()
            emit("ack")
        elif cmd == "stop":
            db = state["db"]
            engine = state["engine"]
            final = {"version": db.version,
                     "counts": {text: len(engine.query(text).subdatabase)
                                for text in wl.SERVED_READS},
                     "extents": wl.extent_sizes(db)}
            final["durability"] = durability_check(
                state, workdir,
                "context Teacher_course:Teacher * Teacher_course:Course")
            if tracing is not None:
                tracing.stop_per_call()
                final["per_call"] = tracing.summary(0)
                tracing.dump(args.workload, args.seed)
            service.stop()
            final.update(recover_s=final["durability"]["recover_s"],
                         peak_rss_mb=peak_rss_mb(),
                         counters=dict(service.counters))
            emit("final", **final)
            return
        else:  # exit
            service.stop()
            return


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(wl.STUDENTS),
                        default="full")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    wl.load_repro()
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    tracing = None
    if args.trace:
        tracing = Tracing()
        tracing.hook_listeners()
    state = SETUP[args.workload](args, workdir)
    emit("ready", meta=run_metadata(state["db"], args.seed),
         **state.get("ready", {}))
    if args.workload == "served-mixed":
        serve(args, state, workdir, tracing)
        return 0
    command = read_command()
    if command.get("cmd") != "run":
        return 0
    report = run_in_process(args, state, workdir, tracing)
    emit("result", report=report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
