"""Workload definitions shared by the runner (``run.py``) and the engine
process (``worker.py``): dataset sizes, query texts, rules, the write
mix, and the span targets of the traced run.

See ``README.md`` in this directory for why each workload exists.
"""

from __future__ import annotations

import os
import random
import sys
from collections import deque
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("analytic", "served-mixed", "write-churn")

#: Students per workload at each scale.  ``smoke`` is for the harness
#: self-tests only.
STUDENTS = {
    "full": {"analytic": 4000, "served-mixed": 2500, "write-churn": 3000},
    "smoke": {"analytic": 300, "served-mixed": 300, "write-churn": 300},
}

#: Setups per run; ``setup_s`` is their median.
SETUP_REPS = 3

#: Recoveries per run; ``recover_s`` is their median.
RECOVER_REPS = 3

#: Flush policy of every WAL the benchmark attaches.
SYNC_EVERY = 1

HONORS_RULE = ("if context Student[GPA > 3.5] * Section "
               "then Honors (Student, Section)")
TEACHER_COURSE_RULE = ("if context Teacher * Section * Course "
                       "then Teacher_course (Teacher, Course)")

#: Served-mixed read mix (90% of ops).
SERVED_READS = (
    "context Teacher * Section * Course",
    "context Student[GPA > 3.95] * Section * Course",
    "context Department[name = 'Dept3'] * Course * Section",
    "context Teacher_course:Teacher * Teacher_course:Course",
)
#: Read groups of the served cycle, alternating from one cycle to the
#: next.  A write refreshes the session's snapshot, so the first read of
#: each query after it is cold.  These groups make the slowest cold read
#: (the Student re-filter) a ninth of all reads and all cold reads about
#: a quarter, so neither p50 nor p95 sits on the edge between two
#: latency modes.
SERVED_READ_GROUPS = (
    (SERVED_READS[1], SERVED_READS[0]),
    (SERVED_READS[1], SERVED_READS[2], SERVED_READS[3]),
)
#: Reads whose count grows by one per live Teacher the client inserted
#: (each such Teacher teaches exactly one Section).
SERVED_TEACHER_READS = (SERVED_READS[0], SERVED_READS[3])
#: The served op cycle: one write, then this many minus one reads.
SERVED_CYCLE = 10
#: Result cache of the served engine, large enough for the read mix.
SERVED_CACHE_BYTES = 64 << 20

#: Write-churn: one read every this many ops.
CHURN_READ_EVERY = 10
CHURN_READ = "context Student[GPA > 3.97]"
CHURN_READ_THRESHOLD = 3.97
CHURN_SUBSCRIPTION = "context Student[GPA > 3.8]"
CHURN_SUBSCRIPTION_THRESHOLD = 3.8
#: Students inserted at setup so the first deletes have a target; the
#: write mix deletes the student inserted this many cycles earlier.
CHURN_LAG = 4
#: GPA re-grades in the analytic workload's write tail (after its read
#: window).
ANALYTIC_WRITE_TAIL = 500


def nproc() -> int:
    return os.cpu_count() or 1


def affinity_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return nproc()


def load_repro():
    """Import ``repro`` from this checkout's ``src`` and nowhere else.

    Raises :class:`SystemExit` when the checkout carries no source tree,
    so the benchmark fails instead of measuring an installed copy.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no source tree at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__},"
                         f" not from {SRC}")
    return repro


def dataset_config(students: int):
    """The University shape every workload uses: 8 departments, 200
    courses x 3 sections, 4 enrollments per student, 2 prereqs per
    course."""
    from repro.university import GeneratorConfig
    return GeneratorConfig(departments=8, courses=200, sections_per_course=3,
                           teachers=60, students=students,
                           enrollments_per_student=4, tas=20,
                           grads=max(10, students // 50), faculty=20,
                           transcripts_per_grad=2, prereqs_per_course=2)


def analytic_queries(students: int) -> List[str]:
    """The analytic rotation.  The COUNT threshold sits at the mean
    enrollment per section, so about half the sections pass.  The
    display runs four times per rotation: with six equally weighted
    queries the median would fall exactly between the third and fourth
    fastest, on the edge of two latency bands; four of nine puts it well
    inside the display's band."""
    per_section = max(1, students * 4 // 600)
    display = ("context Department[name = 'Dept3'] * Course * "
               "Section[section# = 1] * Student[GPA > 2.6] display")
    return [
        "context Department * Course * Section * Student",
        display,
        "context Course * Course_1 ^3",
        display,
        "context Student[GPA > 3.9] * Section * Course",
        display,
        "context Honors:Student * Honors:Section * Course",
        f"context Section * Student "
        f"where COUNT(Student by Section) > {per_section}",
        display,
    ]


def canonical_rows(subdb) -> List[tuple]:
    """A subdatabase as a sorted list of OID-value tuples."""
    return sorted(tuple(None if v is None else v.value for v in p.values)
                  for p in subdb.patterns)


class WriteMix:
    """The stationary write mix over Students: insert, associate
    ``enrolled``, ``set_attribute GPA``, dissociate, delete.

    Each cycle inserts one Student and enrolls it, re-grades one
    generated Student, drops the previous cycle's enrollment and deletes
    the Student inserted :data:`CHURN_LAG` cycles earlier, so extent
    sizes stay flat.  :attr:`gpa` mirrors every Student's GPA so reads
    can be checked without a second evaluator.
    """

    KINDS = ("insert", "associate", "set_attribute", "dissociate", "delete")

    def __init__(self, db, seed: int, tag: str):
        self.db = db
        self.rng = random.Random(seed)
        self.tag = tag
        self.sections = sorted(db.extent("Section"), key=lambda o: o.value)
        self.base_students = sorted(db.extent("Student"),
                                    key=lambda o: o.value)
        self.gpa: Dict = {oid: db.get_attribute(oid, "GPA")
                          for oid in self.base_students}
        self.inserted: deque = deque()
        self.links: deque = deque()
        self.serial = 0
        self.step = 0

    def prefill(self) -> None:
        """Insert the lag window (setup, untimed)."""
        for _ in range(CHURN_LAG):
            self._insert()
            self._associate()

    def _insert(self):
        self.serial += 1
        gpa = round(2.0 + self.rng.random() * 2.0, 2)
        entity = self.db.insert("Student", None, **{
            "SS#": f"9-{self.tag}-{self.serial:07d}",
            "name": f"Churn{self.serial}", "GPA": gpa})
        self.inserted.append(entity.oid)
        self.gpa[entity.oid] = gpa

    def _associate(self):
        oid = self.inserted[-1]
        section = self.rng.choice(self.sections)
        self.db.associate(oid, "enrolled", section)
        self.links.append((oid, section))

    def apply(self) -> str:
        """Apply the next write of the cycle; returns its kind."""
        kind = self.KINDS[self.step % len(self.KINDS)]
        self.step += 1
        if kind == "insert":
            self._insert()
        elif kind == "associate":
            self._associate()
        elif kind == "set_attribute":
            self.regrade()
        elif kind == "dissociate":
            oid, section = self.links.popleft()
            self.db.dissociate(oid, "enrolled", section)
        else:
            oid = self.inserted.popleft()
            self.db.delete(oid)
            del self.gpa[oid]
        return kind

    def regrade(self) -> None:
        """Set a random generated Student's GPA."""
        oid = self.rng.choice(self.base_students)
        gpa = round(2.0 + self.rng.random() * 2.0, 2)
        self.db.set_attribute(oid, "GPA", gpa)
        self.gpa[oid] = gpa

    def drain(self) -> None:
        """Delete every Student still alive from this mix (untimed), so
        the run ends with the extents it started with."""
        while self.links:
            oid, section = self.links.popleft()
            self.db.dissociate(oid, "enrolled", section)
        while self.inserted:
            oid = self.inserted.popleft()
            self.db.delete(oid)
            del self.gpa[oid]

    def count_above(self, threshold: float) -> int:
        return sum(1 for g in self.gpa.values()
                   if g is not None and g > threshold)


def extent_sizes(db) -> Dict[str, int]:
    return {cls: db.extent_size(cls) for cls in sorted(db.schema.eclass_names)}


# ---------------------------------------------------------------------------
# Traced-run targets: (span name, owner, attribute)
# ---------------------------------------------------------------------------

DATABASE = "repro.model.database:Database"

SPAN_TARGETS = [
    ("oql.parser.parse_ms", "repro.oql.parser", "parse_query"),
    ("oql.evaluator.evaluate_ms", "repro.oql.evaluator:PatternEvaluator",
     "evaluate"),
    ("oql.kernels.run_steps_ms", "repro.oql.kernels", "execute_step"),
    ("oql.kernels.run_steps_ms", "repro.oql.kernels", "run_steps"),
    ("oql.kernels.run_steps_ms", "repro.oql.kernels", "closure_partition"),
    ("oql.kernels.columns_to_rows_ms", "repro.oql.kernels",
     "columns_to_rows"),
    ("subdb.subdatabase.materialize_ms",
     "repro.subdb.subdatabase:Subdatabase", "from_interned_rows"),
    ("subdb.subdatabase.decode_ms", "repro.subdb.subdatabase:Subdatabase",
     "patterns"),
    ("subdb.subdatabase.decode_ms", "repro.subdb.subdatabase:Subdatabase",
     "sorted_rows"),
    ("oql.operations.render_ms", "repro.oql.operations", "build_table"),
    ("oql.operations.render_ms", "repro.oql.operations:Table", "render"),
    ("oql.operations.render_ms", "repro.subdb.subdatabase:Subdatabase",
     "describe"),
    ("oql.operations.render_ms", "repro.oql.query:QueryResult", "render"),
    ("rules.engine.derive_ms", "repro.rules.engine:RuleEngine", "derive"),
    ("rules.engine.derive_ms", "repro.rules.derivation", "derive_target"),
    ("model.interning.build_ms", "repro.model.interning:OIDInterner",
     "build"),
    ("subdb.adjindex.adjacency_ms", "repro.subdb.adjindex:CompactStore",
     "adjacency"),
    ("subdb.attrindex.probe_ms", "repro.subdb.attrindex:AttrIndex", "probe"),
    ("service.protocol.encode_ms", "repro.service.protocol",
     "encode_frame"),
    ("service.protocol.decode_ms", "repro.service.protocol",
     "decode_frame"),
    ("service.session.execute_ms", "repro.service.session:ServerSession",
     "execute"),
    ("model.database.insert_ms", DATABASE, "insert"),
    ("model.database.set_attribute_ms", DATABASE, "set_attribute"),
    ("model.database.associate_ms", DATABASE, "associate"),
    ("model.database.dissociate_ms", DATABASE, "dissociate"),
    ("model.database.delete_ms", DATABASE, "delete"),
    ("model.interning.without_ms", "repro.model.interning:InternTable",
     "without"),
    ("subdb.attrindex.apply_ms", "repro.subdb.attrindex:AttrIndexStore",
     "apply_insert"),
    ("subdb.attrindex.apply_ms", "repro.subdb.attrindex:AttrIndexStore",
     "apply_delete"),
    ("subdb.attrindex.apply_ms", "repro.subdb.attrindex:AttrIndexStore",
     "apply_set_attribute"),
    ("rules.incremental.on_event_ms",
     "repro.rules.incremental:IncrementalRule", "on_event"),
    ("storage.wal.append_ms", "repro.storage.backends.wal:WriteAheadLog",
     "append"),
    ("storage.wal.sync_ms", "repro.storage.backends.wal:WriteAheadLog",
     "sync"),
    ("storage.checkpoint_ms", "repro.storage.backends.base:StorageBackend",
     "checkpoint"),
    ("storage.recover_ms", "repro.storage.backends.base:StorageBackend",
     "recover"),
]

#: Spans reported per call rather than per op: they run once, after the
#: measured window, in the durability check.
PER_CALL_SPANS = ("storage.checkpoint_ms", "storage.recover_ms")

LISTENER_MODULES = ("subdb.adjindex", "rules.engine", "oql.subscribe",
                    "storage.backends.base", "subdb.snapshot")

#: ``EvaluationMetrics`` fields summed over every evaluation.
EVAL_COUNTERS = ("extent_filter_evals", "rows_generated", "patterns_out",
                 "patterns_subsumed", "index_probes", "cache_hits",
                 "cache_misses")


def layer_metric_names() -> List[str]:
    """Every per-layer metric, in report order."""
    names: List[str] = []
    for name, _owner, _attr in SPAN_TARGETS:
        if name not in names:
            names.append(name)
    names += [f"model.database.listener.{m}_ms" for m in LISTENER_MODULES]
    names += ["oql.evaluator.extent_filter_evals",
              "oql.evaluator.rows_generated_per_row_out",
              "oql.evaluator.patterns_subsumed",
              "oql.evaluator.index_probes",
              "oql.cache.hit_ratio",
              "service.response_bytes", "service.busy_shed",
              "service.server.unattributed_ms",
              "storage.wal.bytes_per_write",
              "failed_frac", "unattributed_share", "trace.overhead_pct"]
    return names


def layer_unit(name: str) -> str:
    if name in PER_CALL_SPANS:
        return "ms/call"
    if name in ("service.server.unattributed_ms",):
        return "ms/op"
    if name.endswith("_ms"):
        return "ms/op"
    if name in ("oql.cache.hit_ratio", "failed_frac", "unattributed_share",
                "oql.evaluator.rows_generated_per_row_out"):
        return "ratio"
    if name == "trace.overhead_pct":
        return "%"
    if name in ("service.response_bytes",):
        return "B/op"
    if name == "storage.wal.bytes_per_write":
        return "B/write"
    if name == "service.busy_shed":
        return "count"
    return "count/op"
