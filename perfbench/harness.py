"""Measurement primitives shared by the benchmark runner and its workers.

* :func:`percentile` / :func:`latency_summary` — nearest-rank percentiles
  and the rule that a percentile is only *supported* when at least ten
  samples lie beyond it.
* :class:`SpanRecorder` — spans kept in memory (name, start, end, span
  id, parent id, op id); :func:`self_times` turns them into per-name
  self time (duration minus the part of the interval its children
  cover).
* :class:`Instrumentation` — installs the recorder's wrappers around
  public functions and methods of the ``repro`` package from outside,
  removes them again, and proves the removal by function identity.

Nothing here imports ``repro``: the targets are resolved by import path
when :meth:`Instrumentation.install` runs.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import sys
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Samples that must lie beyond a percentile for it to be reported.
MIN_TAIL_SAMPLES = 10

#: Marker attribute set on every wrapper this module creates.
MARKER = "__perfbench_span__"


# ---------------------------------------------------------------------------
# Percentiles
# ---------------------------------------------------------------------------


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (``0 < q <= 1``):
    the smallest value with at least ``q`` of the samples at or below it."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_samples(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly beyond the nearest-rank
    ``q`` percentile."""
    return n - max(1, math.ceil(q * n))


def latency_summary(values_ms: Iterable[float]) -> Dict[str, Any]:
    """Median and p95 of a latency sample, with the sample count and the
    number of samples beyond p95.  ``p95_supported`` is false when fewer
    than :data:`MIN_TAIL_SAMPLES` lie beyond it."""
    ordered = sorted(values_ms)
    if not ordered:
        return {"n": 0, "p50": None, "p95": None, "beyond_p95": 0,
                "p95_supported": False}
    beyond = tail_samples(len(ordered), 0.95)
    return {"n": len(ordered),
            "p50": percentile(ordered, 0.50),
            "p95": percentile(ordered, 0.95),
            "beyond_p95": beyond,
            "p95_supported": beyond >= MIN_TAIL_SAMPLES}


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

#: One recorded span: (name, start_s, end_s, span_id, parent_id, op_id).
#: ``parent_id`` is 0 for a root span; ``op_id`` is the id of the root
#: span the span descends from, so every span of one op shares it.
Span = Tuple[str, float, float, int, int, int]


class SpanRecorder:
    """Collects spans from every thread while :attr:`active` is set.

    Parents are tracked per thread: a wrapped call made while another
    wrapped call is open on the same thread becomes its child.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.active = False
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        """A wrapper that records one ``name`` span per call of ``fn``
        while the recorder is active, and calls straight through
        otherwise."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            stack = recorder._stack()
            span_id = next(recorder._ids)
            parent_id, op_id = stack[-1] if stack else (0, span_id)
            stack.append((span_id, op_id))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append(
                    (name, start, end, span_id, parent_id, op_id))

        setattr(traced, MARKER, name)
        return traced


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Seconds of self time per span name: each span's duration minus
    the length of the union of its children's intervals (clipped to the
    span), summed over spans of the same name."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _name, start, end, _sid, parent, _op in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    out: Dict[str, float] = {}
    for name, start, end, sid, _parent, _op in spans:
        kids = [(max(s, start), min(e, end))
                for s, e in children.get(sid, ()) if e > start and s < end]
        own = (end - start) - _union_length(kids)
        out[name] = out.get(name, 0.0) + own
    return out


def root_time(spans: Iterable[Span]) -> float:
    """Seconds covered by root spans (their union per thread is their
    sum, since roots of one thread never overlap)."""
    return sum(end - start for _n, start, end, _s, parent, _o in spans
               if not parent)


# ---------------------------------------------------------------------------
# Installing wrappers from outside the program
# ---------------------------------------------------------------------------


def _resolve(path: str):
    """``"pkg.mod"`` → module; ``"pkg.mod:Class"`` → class."""
    module_name, _, class_name = path.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Instrumentation:
    """Installs :class:`SpanRecorder` wrappers over ``(span name, owner,
    attribute)`` targets and removes them again.

    A class target patches the class attribute (functions, class
    methods and property getters).  A module target patches the
    function in its defining module *and* in every loaded module of the
    same package that imported it by name, so callers that bound the
    name at import time see the wrapper too.

    :meth:`hook_listeners` additionally wraps every callable passed to
    ``Database.add_listener`` from then on in a span labelled with the
    module that registered it.
    """

    def __init__(self, recorder: SpanRecorder, package: str = "repro"):
        self.recorder = recorder
        self.package = package
        #: (owner, attribute, original raw value) for every patch made.
        self._patches: List[Tuple[Any, str, Any]] = []
        #: The same, for the patches undone by the last :meth:`remove`.
        self._removed: List[Tuple[Any, str, Any]] = []
        self._listener_dbs: Dict[int, Tuple[Any, list]] = {}
        self._listener_lock = threading.Lock()
        self._db_methods: Optional[Tuple[Any, Any, Any]] = None

    # -- targets --------------------------------------------------------

    def install(self, targets: Iterable[Tuple[str, str, str]]) -> None:
        for name, owner_path, attr in targets:
            owner = _resolve(owner_path)
            if isinstance(owner, type):
                self._patch_class(owner, attr, name)
            else:
                self._patch_function(owner, attr, name)

    def _patch_class(self, cls: type, attr: str, name: str) -> None:
        raw = cls.__dict__[attr]
        wrap = self.recorder.wrap
        if isinstance(raw, property):
            new = property(wrap(name, raw.fget), raw.fset, raw.fdel,
                           raw.__doc__)
        elif isinstance(raw, classmethod):
            new = classmethod(wrap(name, raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(wrap(name, raw.__func__))
        else:
            new = wrap(name, raw)
        setattr(cls, attr, new)
        self._patches.append((cls, attr, raw))

    def _patch_function(self, module, attr: str, name: str) -> None:
        original = getattr(module, attr)
        new = self.recorder.wrap(name, original)
        prefix = self.package + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.package
                                   or mod_name.startswith(prefix)):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, new)
                    self._patches.append((mod, key, original))

    # -- listeners --------------------------------------------------------

    def hook_listeners(self, database_path: str) -> None:
        """Wrap callables registered through ``Database.add_listener``
        (and map ``remove_listener`` calls back to the wrapper)."""
        cls = _resolve(database_path)
        orig_add = cls.__dict__["add_listener"]
        orig_remove = cls.__dict__["remove_listener"]
        self._db_methods = (cls, orig_add, orig_remove)
        inst = self

        def add_listener(db, listener):
            module = getattr(listener, "__module__", None) or "unknown"
            if module.startswith(inst.package + "."):
                module = module[len(inst.package) + 1:]
            wrapped = inst.recorder.wrap(
                f"model.database.listener.{module}_ms", listener)
            with inst._listener_lock:
                inst._listener_dbs.setdefault(id(db), (db, []))[1].append(
                    (listener, wrapped))
            orig_add(db, wrapped)

        def remove_listener(db, listener):
            with inst._listener_lock:
                entries = inst._listener_dbs.get(id(db), (db, []))[1]
                for i, (original, wrapped) in enumerate(entries):
                    if original == listener:
                        del entries[i]
                        break
                else:
                    wrapped = listener
            orig_remove(db, wrapped)

        setattr(add_listener, MARKER, "add_listener")
        setattr(remove_listener, MARKER, "remove_listener")
        cls.add_listener = add_listener
        cls.remove_listener = remove_listener

    def _unhook_listeners(self) -> None:
        if self._db_methods is None:
            return
        cls, orig_add, orig_remove = self._db_methods
        cls.add_listener = orig_add
        cls.remove_listener = orig_remove
        self._db_methods = None
        # Swap every still-registered wrapper back to its original, in
        # registration order (listeners are notified in that order).
        with self._listener_lock:
            for db, entries in self._listener_dbs.values():
                for _original, wrapped in entries:
                    orig_remove(db, wrapped)
                for original, _wrapped in entries:
                    orig_add(db, original)
            self._listener_dbs = {}

    # -- removal ------------------------------------------------------------

    def remove(self) -> None:
        """Undo every patch, newest first."""
        self.recorder.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._unhook_listeners()
        self._removed = list(self._patches)
        self._patches = []

    def verify_removed(self, targets: Iterable[Tuple[str, str, str]],
                       database_path: Optional[str] = None) -> List[str]:
        """Names of targets (and restored bindings) that still hold a
        wrapper.  An empty list proves the removal by identity: every
        patched binding is again the very object it held before."""
        leftovers = []
        for owner, attr, original in self._removed:
            current = (owner.__dict__.get(attr) if isinstance(owner, type)
                       else getattr(owner, attr, None))
            if current is not original:
                leftovers.append(f"{getattr(owner, '__name__', owner)}."
                                 f"{attr}")
        leftovers.extend(find_wrappers(targets, database_path))
        return leftovers


def find_wrappers(targets: Iterable[Tuple[str, str, str]],
                  database_path: Optional[str] = None) -> List[str]:
    """Targets whose current binding is a wrapper of this module."""
    found = []
    paths = [(owner, attr) for _n, owner, attr in targets]
    if database_path is not None:
        paths += [(database_path, "add_listener"),
                  (database_path, "remove_listener")]
    for owner_path, attr in paths:
        owner = _resolve(owner_path)
        value = (owner.__dict__.get(attr) if isinstance(owner, type)
                 else getattr(owner, attr, None))
        inner = value.fget if isinstance(value, property) else \
            getattr(value, "__func__", value)
        if hasattr(inner, MARKER):
            found.append(f"{owner_path}.{attr}")
    return found
