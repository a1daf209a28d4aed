"""Concurrent evaluation: snapshot-isolated readers racing a writer,
plus query-budget cancellation of runaway evaluations.

The reader protocol under test (``subdb/snapshot.py``): a reader opens
``engine.snapshot_session()`` and evaluates queries — including
backward-chained rule targets — entirely against one pinned database
version.  A concurrent writer mutating the live database must never be
observed mid-batch, never cause a reader to raise, and never shift the
snapshot's version.

The budget protocol (``oql/budget.py``): an adversarial ``^*`` loop over
a complete prereq digraph has a factorial frontier and would effectively
never terminate; a 100 ms deadline must cancel it within 2x the deadline
and leave the universe fully usable.
"""

import json
import threading
import time

import pytest

from repro import QueryProcessor, RuleEngine, Universe, obs
from repro.model.database import Database
from repro.model.evolution import drop_association
from repro.oql.budget import BudgetExceeded, QueryBudget
from repro.storage.serialize import subdatabase_to_dict
from repro.subdb.snapshot import SnapshotExpiredError
from repro.university import build_paper_database, build_sdb
from repro.university.schema import build_university_schema


def _dump(subdb) -> bytes:
    doc = subdatabase_to_dict(subdb)
    doc["name"] = "_"
    return json.dumps(doc, sort_keys=True).encode()


def _paper_engine(compact: bool = True) -> RuleEngine:
    data = build_paper_database()
    engine = RuleEngine(data.db, compact=compact)
    engine.universe.register(build_sdb(data))
    engine.add_rule("if context Teacher * Section * Course "
                    "then Teacher_course (Teacher, Course)", label="R1")
    engine.add_rule(
        "if context Department[name = 'CIS'] * Course * Section * "
        "Student where COUNT(Student by Course) > 39 "
        "then Suggest_offer (Course)", label="R2")
    engine.add_rule(
        "if context Department * Suggest_offer:Course "
        "where COUNT(Suggest_offer:Course by Department) > 20 "
        "then Deps_need_res (Department)", label="R3")
    engine.add_rule(
        "if context TA * Teacher * Section * Suggest_offer:Course "
        "then May_teach (TA, Course)", label="R4")
    engine.add_rule(
        "if context Grad * Transcript[grade >= 3.0] * Course[c# < 5000] "
        "then May_teach (Grad, Course)", label="R5")
    engine.add_rule(
        "if context Grad * TA * Teacher * Section * Student * "
        "Grad_1 ^* then Grad_teaching_grad (Grad, Grad_)", label="R6")
    engine.add_rule(
        "if context Grad * TA * Teacher * Section * Student * "
        "Grad_1 ^* then First_and_third (Grad, Grad_2)", label="R7")
    return engine


# Queries the reader threads cycle through: base patterns and every
# paper rule target (the colon form forces backward chaining through
# the snapshot session's provider).
READER_QUERIES = [
    "context Teacher * Section * Course",
    "context Teacher_course:Teacher * Teacher_course:Course",
    "context Suggest_offer:Course",
    "context May_teach:TA",
    "context Grad_teaching_grad:Grad",
    "context First_and_third:Grad",
]


def _complete_prereq(n: int) -> Database:
    """A complete digraph on ``n`` courses: every course is a prereq of
    every other.  ``^*`` path enumeration over it is factorial."""
    db = Database(build_university_schema(), name=f"k{n}")
    courses = [db.insert("Course", f"c{i}",
                         **{"c#": 1000 + i, "title": f"C{i}",
                            "credit_hours": 3})
               for i in range(n)]
    for src in courses:
        for tgt in courses:
            if src is not tgt:
                db.associate(src, "prereq", tgt)
    return db


def _linear_prereq(n: int) -> Database:
    db = Database(build_university_schema(), name=f"chain{n}")
    courses = [db.insert("Course", f"c{i}",
                         **{"c#": 1000 + i, "title": f"C{i}",
                            "credit_hours": 3})
               for i in range(n)]
    for i in range(1, n):
        db.associate(courses[i], "prereq", courses[i - 1])
    return db


# ---------------------------------------------------------------------------
# Deterministic snapshot isolation (single-threaded).
# ---------------------------------------------------------------------------


class TestSnapshotIsolation:
    def test_snapshot_unaffected_by_later_mutations(self):
        engine = _paper_engine()
        db = engine.db
        course = next(iter(db.extent("Course")))
        qp = engine.snapshot_session()
        snap = qp.universe.snapshot
        before_extent = set(snap.extent("Course"))
        before_title = snap.attr_value(course, "title")
        before_result = _dump(qp.execute(READER_QUERIES[0]).subdatabase)

        new = db.insert("Course", "c999",
                        **{"c#": 9999, "title": "New", "credit_hours": 1})
        db.set_attribute(course, "title", "Changed")
        db.delete(new.oid)

        assert set(snap.extent("Course")) == before_extent
        assert snap.attr_value(course, "title") == before_title
        assert _dump(qp.execute(READER_QUERIES[0]).subdatabase) \
            == before_result
        qp.universe.close()

    def test_snapshot_pins_deleted_entity_and_links(self):
        db = _linear_prereq(4)
        universe = Universe(db)
        qp = QueryProcessor(universe.snapshot())
        snap = qp.universe.snapshot
        victim = next(oid for oid in db.extent("Course")
                      if db.entity(oid)["title"] == "C2")
        before = _dump(qp.execute("context Course * Course_1").subdatabase)
        db.delete(victim)
        assert not db.has(victim)
        # The snapshot still serves the entity, its attributes and its
        # prereq edges.
        assert snap.has(victim)
        assert snap.attr_value(victim, "title") == "C2"
        assert _dump(qp.execute("context Course * Course_1").subdatabase) \
            == before
        qp.universe.close()

    def test_derivation_confined_to_snapshot_registry(self):
        engine = _paper_engine()
        qp = engine.snapshot_session()
        qp.execute("context Suggest_offer:Course")
        assert "Suggest_offer" in qp.universe.subdb_names
        assert "Suggest_offer" not in engine.universe.subdb_names
        qp.universe.close()

    def test_snapshot_version_pinned(self):
        engine = _paper_engine()
        qp = engine.snapshot_session()
        pinned = qp.universe.pinned_version
        engine.db.set_attribute(next(iter(engine.db.extent("Course"))),
                                "title", "X")
        assert qp.universe.pinned_version == pinned
        assert qp.universe.snapshot.version == pinned
        qp.universe.close()

    def test_schema_evolution_poisons_unpinned_reads(self):
        db = _linear_prereq(3)
        universe = Universe(db)
        snap_universe = universe.snapshot()
        snap = snap_universe.snapshot
        pinned = set(snap.extent("Course"))  # pinned before the change
        drop_association(db, "Course", "prereq")
        # The pinned piece stays readable ...
        assert set(snap.extent("Course")) == pinned
        # ... but a fall-through read of an unpinned piece refuses.
        with pytest.raises(SnapshotExpiredError):
            snap.extent("Student")
        snap_universe.close()

    def test_close_is_idempotent(self):
        engine = _paper_engine()
        qp = engine.snapshot_session()
        qp.universe.close()
        qp.universe.close()


# ---------------------------------------------------------------------------
# Readers racing a writer.
# ---------------------------------------------------------------------------


class TestConcurrentReaders:
    READERS = 4
    ITERATIONS = 6
    WRITES = 400

    def test_readers_race_writer(self):
        engine = _paper_engine()
        db = engine.db
        course = next(iter(db.extent("Course")))
        original = (db.entity(course)["title"], db.entity(course)["c#"])

        stop = threading.Event()
        errors = []

        def writer():
            k = 0
            try:
                while not stop.is_set():
                    # Paired attribute update: readers must see the
                    # title and c# from the same batch, never a mix.
                    with db.batch():
                        db.set_attribute(course, "title", f"T{k}")
                        db.set_attribute(course, "c#", 9000 + k)
                    if k % 7 == 0:
                        tmp = db.insert(
                            "Course", f"tmp{k}",
                            **{"c#": 8000 + k, "title": f"Tmp{k}",
                               "credit_hours": 1})
                        db.associate(tmp, "prereq", course)
                        db.delete(tmp.oid)
                    k += 1
                    if k >= self.WRITES:
                        break
            except Exception as exc:  # pragma: no cover - fail the test
                errors.append(("writer", exc))
            finally:
                stop.set()

        def reader(index):
            try:
                iteration = 0
                while not stop.is_set() or iteration < 2:
                    qp = engine.snapshot_session()
                    try:
                        snap = qp.universe.snapshot
                        pinned = qp.universe.pinned_version
                        title = snap.attr_value(course, "title")
                        cnum = snap.attr_value(course, "c#")
                        if title.startswith("T") and title != original[0]:
                            k = int(title[1:])
                            assert cnum == 9000 + k, \
                                f"torn batch: {title!r} with c#={cnum}"
                        else:
                            assert (title, cnum) == original
                        query = READER_QUERIES[
                            (index + iteration) % len(READER_QUERIES)]
                        first = _dump(qp.execute(query).subdatabase)
                        second = _dump(qp.execute(query).subdatabase)
                        assert first == second, \
                            "snapshot evaluation not repeatable"
                        assert qp.universe.pinned_version == pinned
                    finally:
                        qp.universe.close()
                    iteration += 1
                    if iteration >= self.ITERATIONS and stop.is_set():
                        break
            except Exception as exc:
                errors.append((f"reader{index}", exc))
                stop.set()

        threads = [threading.Thread(target=reader, args=(i,))
                   for i in range(self.READERS)]
        writer_thread = threading.Thread(target=writer)
        for thread in threads:
            thread.start()
        writer_thread.start()
        writer_thread.join(timeout=60)
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors[0]
        assert not writer_thread.is_alive()
        assert not any(thread.is_alive() for thread in threads)

    def test_writer_not_blocked_by_idle_snapshot(self):
        """Holding a snapshot open must not stop writers (no long-held
        read lock): a full write runs while the snapshot exists."""
        engine = _paper_engine()
        qp = engine.snapshot_session()
        course = next(iter(engine.db.extent("Course")))
        engine.db.set_attribute(course, "title", "while-snapshotted")
        assert engine.db.entity(course)["title"] == "while-snapshotted"
        qp.universe.close()


# ---------------------------------------------------------------------------
# Budgets cancelling runaway evaluation.
# ---------------------------------------------------------------------------


class TestBudgetCancellation:
    @pytest.mark.parametrize("compact", [True, False],
                             ids=["compact", "set-based"])
    def test_deadline_cancels_unbounded_loop(self, compact):
        db = _complete_prereq(12)
        universe = Universe(db)
        qp = QueryProcessor(universe, on_cycle="stop", compact=compact)
        budget = QueryBudget(deadline_ms=100)
        with pytest.raises(BudgetExceeded) as info:
            qp.execute("context Course * Course_1 ^*", budget=budget)
        assert info.value.verdict == "deadline"
        # Partial metrics survive the trip.
        assert info.value.metrics is not None
        assert info.value.metrics.budget_verdict == "deadline"

        # The universe is uncorrupted: bounded queries on the tripped
        # universe match a freshly built twin byte for byte.
        fresh = QueryProcessor(Universe(_complete_prereq(12)),
                               on_cycle="stop", compact=compact)
        for query in ("context Course", "context Course * Course_1"):
            assert _dump(qp.execute(query).subdatabase) \
                == _dump(fresh.execute(query).subdatabase), query

    @pytest.mark.slow
    @pytest.mark.parametrize("compact", [True, False],
                             ids=["compact", "set-based"])
    def test_deadline_cancellation_is_prompt(self, compact):
        """Wall-clock half of the deadline contract, kept apart from
        the functional assertions above so loaded CI boxes don't flake
        the whole test: cancellation lands within a generous multiple
        of the budget, nowhere near the factorial full runtime."""
        qp = QueryProcessor(Universe(_complete_prereq(12)),
                            on_cycle="stop", compact=compact)
        budget = QueryBudget(deadline_ms=100)
        started = time.perf_counter()
        with pytest.raises(BudgetExceeded):
            qp.execute("context Course * Course_1 ^*", budget=budget)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        assert elapsed_ms < 2000.0, \
            f"cancelled after {elapsed_ms:.1f} ms (budget 100 ms)"

    def test_max_rows_verdict(self):
        db = _complete_prereq(8)
        qp = QueryProcessor(Universe(db))
        with pytest.raises(BudgetExceeded) as info:
            qp.execute("context Course * Course_1",
                       budget=QueryBudget(max_rows=5))
        assert info.value.verdict == "max_rows"

    def test_max_loop_levels_verdict(self):
        db = _linear_prereq(8)
        qp = QueryProcessor(Universe(db), on_cycle="stop")
        with pytest.raises(BudgetExceeded) as info:
            qp.execute("context Course * Course_1 ^*",
                       budget=QueryBudget(max_loop_levels=2))
        assert info.value.verdict == "max_loop_levels"

    def test_within_budget_queries_unaffected(self):
        db = _linear_prereq(6)
        qp = QueryProcessor(Universe(db), on_cycle="stop")
        budget = QueryBudget(deadline_ms=60_000, max_rows=1_000_000,
                             max_loop_levels=64)
        budgeted = _dump(qp.execute("context Course * Course_1 ^*",
                                    budget=budget).subdatabase)
        free = _dump(qp.execute("context Course * Course_1 ^*")
                     .subdatabase)
        assert budgeted == free

    def test_engine_query_budget_and_recovery(self):
        engine = _paper_engine()
        with pytest.raises(BudgetExceeded):
            engine.query("context Student * Section * Course",
                         budget=QueryBudget(max_rows=1))
        # The ambient budget is cleared: the same query now completes.
        result = engine.query("context Student * Section * Course")
        assert len(result.subdatabase) > 1
        assert engine.evaluator.budget is None


# ---------------------------------------------------------------------------
# Tracing under concurrency.
# ---------------------------------------------------------------------------


class TestTracingConcurrency:
    @pytest.fixture(autouse=True)
    def _no_tracer_leak(self):
        yield
        obs.uninstall()

    def test_traces_well_formed_under_reader_writer_stress(self):
        from tests.test_tracing import assert_well_formed
        engine = _paper_engine()
        db = engine.db
        course = next(iter(db.extent("Course")))
        tracer = obs.install()
        stop = threading.Event()
        errors = []

        def writer():
            try:
                for k in range(100):
                    db.set_attribute(course, "title", f"T{k}")
            except Exception as exc:  # pragma: no cover
                errors.append(("writer", exc))
            finally:
                stop.set()

        def reader(index):
            try:
                iteration = 0
                while not stop.is_set() or iteration < 2:
                    qp = engine.snapshot_session()
                    try:
                        query = READER_QUERIES[
                            (index + iteration) % len(READER_QUERIES)]
                        qp.execute(query)
                    finally:
                        qp.universe.close()
                    iteration += 1
                    if iteration >= 4 and stop.is_set():
                        break
            except Exception as exc:
                errors.append((f"reader{index}", exc))
                stop.set()

        threads = [threading.Thread(target=reader, args=(i,))
                   for i in range(3)]
        writer_thread = threading.Thread(target=writer)
        for thread in threads:
            thread.start()
        writer_thread.start()
        writer_thread.join(timeout=60)
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors[0]
        roots = tracer.recorder.traces()
        assert roots, "no traces recorded under stress"
        for root in roots:
            assert_well_formed(root)


class TestPerQueryMetrics:
    """Regression: ``EvaluationMetrics`` used to be reused across nested
    and successive evaluations, so a provider-driven cascade (or simply
    re-running a query on a reused evaluator) appended plan records onto
    the previous query's metrics."""

    def test_cascade_derivation_metrics_are_per_query(self):
        from repro.university.generator import (GeneratorConfig,
                                                generate_university)
        db = generate_university(GeneratorConfig(), seed=13).db
        engine = RuleEngine(db, compact=True)
        engine.add_rule("if context Student * Section "
                        "then Enrolled (Student, Section)")
        engine.add_rule("if context Enrolled:Section * Course "
                        "then Offered (Section, Course)")
        result = engine.query("context Offered:Section * Course")
        # The outer query's record only, not the concatenation of every
        # nested evaluation's plans.
        assert len(result.metrics.plans) <= 2
        again = engine.query("context Offered:Section * Course")
        assert again.metrics is not result.metrics
        assert len(again.metrics.plans) == len(result.metrics.plans)
