"""Vectorized columnar join kernels over flat int64 buffers.

The compact executor's inner loops used to materialize every joined row
as a Python tuple — one interpreter-level append *per output row*.
These kernels keep a plan's rows **columnar** (one int64 vector per
slot) while the plan runs, so a join hop becomes a handful of bulk
operations: per input row, one C-level slice copy of its CSR neighbor
run plus one replication of the existing columns by the neighbor
counts.  Rows only become tuples once, after the last hop.

Two interchangeable implementations sit behind a feature probe:

* a **numpy** path (when importable and not disabled via
  ``REPRO_NO_NUMPY=1``): the whole hop is fancy-indexed — offsets
  gather, prefix-sum index expansion, boolean-mask semi-join filter,
  ``np.repeat`` column replication — with zero per-row Python;
* a **pure-``array``/``memoryview``** fallback with one Python-level
  iteration per *input* row (not per output row) and C-level
  ``frombytes`` neighbor copies.

Both read the same :class:`StepSpec` buffers (the live CSR
``array("q")`` objects of :mod:`repro.subdb.adjindex`).  The kernels
are the compact executor's only hop loop (:func:`run_steps`) and only
closure loop (:func:`closure_partition`); the evaluator's set-based
``compact=False`` executor is the independent reference they are
checked against.  Both loops emit the ``join-step`` / ``loop-level``
tracer spans.

Budget enforcement is duck-typed: anything with ``CHECK_EVERY``,
``check_time()``, ``charge_rows(n)`` and ``check_level(level)`` works
(a :class:`~repro.oql.budget.QueryBudget`).
"""

from __future__ import annotations

import os
from array import array
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro import obs

try:
    if os.environ.get("REPRO_NO_NUMPY"):
        raise ImportError("numpy disabled by REPRO_NO_NUMPY")
    import numpy as _np
except ImportError:  # pragma: no cover - environment-dependent
    _np = None


def numpy_active() -> bool:
    """Whether the numpy fast path is in use (tests monkeypatch
    ``kernels._np = None`` to pin the fallback)."""
    return _np is not None


class CycleHit(Exception):
    """A loop hierarchy revisited an instance under ``on_cycle="error"``
    — carries the dense id so the evaluator (which owns the intern
    tables) can name the instance in the user-facing error."""

    def __init__(self, dense_id: int):
        super().__init__(dense_id)
        self.dense_id = dense_id


class NonTerminating(Exception):
    """An unbounded loop still had a live frontier at the depth bound."""


class StepSpec:
    """One join hop reduced to flat buffers.

    ``offsets``/``neighbors`` are the CSR arrays (any int64 buffer);
    ``tgt_filter`` is the slot's filtered extent as a *sorted*
    ``array("q")`` — ``None`` when the filter kept the whole extent.
    ``slot`` names the target slot in the ``join-step`` span.  Derived
    probe structures (masks, numpy views) are built lazily and cached.
    """

    __slots__ = ("op", "forward", "offsets", "neighbors", "tgt_size",
                 "tgt_filter", "slot", "_probe", "_np_mask", "_nbr_bytes")

    def __init__(self, op: str, forward: bool, offsets, neighbors,
                 tgt_size: int, tgt_filter: Optional[array] = None,
                 slot: str = ""):
        self.op = op
        self.forward = forward
        self.slot = slot
        self.offsets = offsets
        self.neighbors = neighbors
        self.tgt_size = tgt_size
        self.tgt_filter = tgt_filter
        self._probe = None
        self._np_mask = None
        self._nbr_bytes = None

    # -- lazy probe structures -----------------------------------------

    def nbr_bytes(self) -> memoryview:
        view = self._nbr_bytes
        if view is None:
            view = self._nbr_bytes = memoryview(self.neighbors).cast("B")
        return view

    def probe(self):
        """Fallback membership probe for the semi-join filter: a
        bytearray mask when the filter is a dense fraction of the
        target table (one C-level index per neighbor), else a
        frozenset."""
        probe = self._probe
        if probe is None:
            ids = self.tgt_filter
            if ids is None:
                return None
            if self.tgt_size >= 64 and 4 * len(ids) >= self.tgt_size:
                mask = bytearray(self.tgt_size)
                for v in ids:
                    mask[v] = 1
                probe = ("mask", mask)
            else:
                probe = ("set", frozenset(ids))
            self._probe = probe
        return probe

    def np_mask(self):
        mask = self._np_mask
        if mask is None and self.tgt_filter is not None:
            mask = _np.zeros(self.tgt_size, dtype=bool)
            if len(self.tgt_filter):
                mask[_np.frombuffer(self.tgt_filter, dtype=_np.int64)] = \
                    True
            self._np_mask = mask
        return mask


# ----------------------------------------------------------------------
# Column representation
# ----------------------------------------------------------------------

def anchor_column(ids):
    """The anchor ids as one column (a range, a sorted list, or an
    ``array("q")``)."""
    if _np is not None:
        if isinstance(ids, range):
            return _np.arange(ids.start, ids.stop, dtype=_np.int64)
        return _np.fromiter(ids, dtype=_np.int64, count=len(ids))
    return ids if isinstance(ids, array) else array("q", ids)


def columns_to_rows(cols) -> List[Tuple[int, ...]]:
    """Materialize columns as the row tuples the rest of the engine
    consumes (plain Python ints, identical across representations)."""
    if not cols or not len(cols[0]):
        return []
    return list(zip(*[col.tolist() for col in cols]))


# ----------------------------------------------------------------------
# One join hop
# ----------------------------------------------------------------------

def execute_step(cols, spec: StepSpec, budget=None):
    """Extend a columnar partition across one hop.

    Returns ``(new_cols, distinct_frontier)``; the new target column is
    appended (``forward``) or prepended.  Neighbor order within a row
    follows the CSR arrays (ascending), so output order is identical
    across the numpy path, the fallback path, and the historical
    tuple-at-a-time executor.
    """
    if budget is not None:
        budget.check_time()
    if spec.op == "*":
        if _np is not None:
            return _step_star_numpy(cols, spec, budget)
        return _step_star_arrays(cols, spec, budget)
    return _step_bang(cols, spec, budget)


def _step_star_numpy(cols, spec, budget):
    off = _np.frombuffer(spec.offsets, dtype=_np.int64)
    nbr = _np.frombuffer(spec.neighbors, dtype=_np.int64)
    ends = cols[-1] if spec.forward else cols[0]
    starts = off[ends]
    cnt = off[ends + 1] - starts
    frontier = int(_np.unique(ends).size)
    total = int(cnt.sum())
    if total == 0:
        empty = _np.empty(0, dtype=_np.int64)
        out = [empty for _ in range(len(cols) + 1)]
        return out, frontier
    # Expand the per-row CSR runs into one flat gather index:
    # idx[k] = starts[row of k] + (k - exclusive_prefix_sum[row of k]).
    csum = _np.cumsum(cnt)
    row_ids = _np.repeat(_np.arange(len(ends), dtype=_np.int64), cnt)
    idx = (_np.arange(total, dtype=_np.int64)
           - _np.repeat(csum - cnt, cnt)
           + _np.repeat(starts, cnt))
    tgt = nbr[idx]
    mask = spec.np_mask()
    if mask is not None:
        keep = mask[tgt]
        tgt = tgt[keep]
        row_ids = row_ids[keep]
    if budget is not None:
        budget.charge_rows(int(tgt.size))
    new_cols = [col[row_ids] for col in cols]
    if spec.forward:
        new_cols.append(tgt)
    else:
        new_cols.insert(0, tgt)
    return new_cols, frontier


def _step_star_arrays(cols, spec, budget):
    off = spec.offsets
    nbr_b = spec.nbr_bytes()
    nbr_q = memoryview(spec.neighbors).cast("B").cast("q") \
        if not isinstance(spec.neighbors, memoryview) else spec.neighbors
    ends = cols[-1] if spec.forward else cols[0]
    probe = spec.probe()
    out = array("q")
    counts: List[int] = []
    add_count = counts.append
    if probe is None:
        frombytes = out.frombytes
        for e in ends:
            s = off[e]
            t = off[e + 1]
            frombytes(nbr_b[8 * s:8 * t])
            add_count(t - s)
    else:
        kind, member = probe
        extend = out.extend
        if kind == "mask":
            for e in ends:
                vals = [v for v in nbr_q[off[e]:off[e + 1]] if member[v]]
                extend(vals)
                add_count(len(vals))
        else:
            for e in ends:
                vals = [v for v in nbr_q[off[e]:off[e + 1]]
                        if v in member]
                extend(vals)
                add_count(len(vals))
    frontier = len(set(ends))
    if budget is not None:
        budget.charge_rows(len(out))
        budget.check_time()
    new_cols = [_replicate(col, counts, len(out)) for col in cols]
    if spec.forward:
        new_cols.append(out)
    else:
        new_cols.insert(0, out)
    return new_cols, frontier


def _step_bang(cols, spec, budget):
    """The non-association operator: per distinct endpoint, the sorted
    complement of its neighbor set within the (filtered) target extent
    — computed once per endpoint, shared by every row ending there."""
    off = spec.offsets
    nbr_q = spec.neighbors
    ends = cols[-1] if spec.forward else cols[0]
    domain = (spec.tgt_filter if spec.tgt_filter is not None
              else range(spec.tgt_size))
    cand: Dict[int, bytes] = {}
    sizes: Dict[int, int] = {}
    for e in set(int(v) for v in ends):
        nbrs = set(nbr_q[off[e]:off[e + 1]])
        comp = array("q", [v for v in domain if v not in nbrs]) \
            if nbrs else array("q", domain)
        cand[e] = comp.tobytes()
        sizes[e] = len(comp)
    frontier = len(cand)
    counts = [sizes[int(e)] for e in ends]
    total = sum(counts)
    if budget is not None:
        budget.charge_rows(total)
        budget.check_time()
    out = array("q")
    frombytes = out.frombytes
    for e in ends:
        frombytes(cand[int(e)])
    if _np is not None:
        cnt = _np.fromiter(counts, dtype=_np.int64, count=len(counts))
        row_ids = _np.repeat(_np.arange(len(ends), dtype=_np.int64), cnt)
        new_cols = [col[row_ids] for col in cols]
        tgt = _np.frombuffer(out.tobytes(), dtype=_np.int64) \
            if len(out) else _np.empty(0, dtype=_np.int64)
        if spec.forward:
            new_cols.append(tgt)
        else:
            new_cols.insert(0, tgt)
        return new_cols, frontier
    new_cols = [_replicate(col, counts, total) for col in cols]
    if spec.forward:
        new_cols.append(out)
    else:
        new_cols.insert(0, out)
    return new_cols, frontier


def _replicate(col, counts: Sequence[int], total: int) -> array:
    """Repeat ``col[i]`` ``counts[i]`` times (fallback-path column
    replication; one Python iteration per *input* row)."""
    out = array("q")
    extend = out.extend
    append = out.append
    for v, c in zip(col, counts):
        if c == 1:
            append(v)
        elif c:
            extend([v] * c)
    return out


def run_steps(specs: Sequence[StepSpec], anchor_ids, budget=None):
    """Run a whole plan's hop sequence from the anchor ids.

    Returns ``(columns, stats)`` with per-step ``(distinct frontier,
    rows after)`` counts.  Each hop is one ``join-step`` span when a
    tracer is installed."""
    tracer = obs.TRACER
    cols = [anchor_column(anchor_ids)]
    stats: List[Tuple[int, int]] = []
    for spec in specs:
        span = tracer.start("join-step", slot=spec.slot, op=spec.op,
                            direction="right" if spec.forward
                            else "left") \
            if tracer is not None else None
        try:
            if len(cols[0]):
                cols, frontier = execute_step(cols, spec, budget)
                stats.append((frontier, len(cols[0])))
            else:
                stats.append((0, 0))
            if span is not None:
                span.add("frontier", stats[-1][0])
                span.add("rows_out", stats[-1][1])
        finally:
            if span is not None:
                tracer.finish(span)
    return cols, stats


# ----------------------------------------------------------------------
# Sorted-id set algebra (value-index probe composition)
# ----------------------------------------------------------------------
#
# Value-index probes (:mod:`repro.subdb.attrindex`) answer one predicate
# as an ascending, duplicate-free dense-id array; conjunctions and
# complements compose probes with these kernels before the result feeds
# the same ``tgt_filter``/anchor machinery the CSR join steps read.
# Results are byte-identical between the numpy path and the fallback.

def _as_np(ids):
    if isinstance(ids, array) or isinstance(ids, memoryview):
        return _np.frombuffer(ids, dtype=_np.int64)
    return _np.asarray(ids, dtype=_np.int64)


def _np_to_array(out) -> array:
    result = array("q")
    result.frombytes(_np.ascontiguousarray(out, dtype=_np.int64).tobytes())
    return result


def sorted_intersect(a, b) -> array:
    """Intersection of two ascending duplicate-free int64 id arrays."""
    if not len(a) or not len(b):
        return array("q")
    if _np is not None:
        return _np_to_array(_np.intersect1d(_as_np(a), _as_np(b),
                                            assume_unique=True))
    out = array("q")
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        va, vb = a[i], b[j]
        if va == vb:
            out.append(va)
            i += 1
            j += 1
        elif va < vb:
            i += 1
        else:
            j += 1
    return out


def sorted_union(a, b) -> array:
    """Union of two ascending duplicate-free int64 id arrays."""
    if not len(a):
        return array("q", b)
    if not len(b):
        return array("q", a)
    if _np is not None:
        return _np_to_array(_np.union1d(_as_np(a), _as_np(b)))
    out = array("q")
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        va, vb = a[i], b[j]
        if va == vb:
            out.append(va)
            i += 1
            j += 1
        elif va < vb:
            out.append(va)
            i += 1
        else:
            out.append(vb)
            j += 1
    if i < na:
        out.extend(a[i:])
    if j < nb:
        out.extend(b[j:])
    return out


def sorted_complement(size: int, a) -> array:
    """Ascending complement of ``a`` within ``range(size)``."""
    if not len(a):
        return array("q", range(size))
    if _np is not None:
        mask = _np.ones(size, dtype=bool)
        mask[_as_np(a)] = False
        return _np_to_array(_np.flatnonzero(mask))
    out = array("q")
    prev = 0
    for v in a:
        out.extend(range(prev, v))
        prev = v + 1
    out.extend(range(prev, size))
    return out


# ----------------------------------------------------------------------
# Loop closure
# ----------------------------------------------------------------------

def closure_partition(frontier: List[Tuple[int, ...]],
                      body_specs: Sequence[StepSpec],
                      body: int, max_level: int, on_cycle: str,
                      budget=None, unbounded: bool = False,
                      expansions: Optional[Dict[int, Tuple[Tuple[int, ...],
                                                           ...]]] = None):
    """Run the semi-naive closure to completion from the level-1
    frontier.

    Level N+1 extends only the rows *new at level N*, and each anchor
    instance's one-cycle body expansion is computed at most once and
    memoized in ``expansions`` (anchor id -> body extensions, anchor
    dropped) — pass a dict seeded from an earlier evaluation to reuse
    its expansions; new ones are added to it in place.  Loop rows grow
    from slot 0, so a row is subsumed exactly when it gets extended at
    the next level: a row is kept when it stops growing.
    ``on_cycle="error"`` raises :class:`CycleHit`; an unbounded loop
    with a live frontier at ``max_level`` raises
    :class:`NonTerminating`.  Each level is one ``loop-level`` span
    when a tracer is installed.

    Returns ``(kept_rows, stats)`` where stats counts the extended-row
    deltas, the distinct-endpoint traversals, and the last level
    reached.
    """
    tracer = obs.TRACER
    kept: List[Tuple[int, ...]] = []
    if expansions is None:
        expansions = {}
    level = 1
    total_extended = 0
    edge_traversals = 0
    while frontier and level < max_level:
        level += 1
        span = tracer.start("loop-level", level=level) \
            if tracer is not None else None
        extended: List[Tuple[int, ...]] = []
        try:
            if span is not None:
                span.add("frontier", len(frontier))
            if budget is not None:
                budget.check_level(level)
                budget.check_time()
            new_anchors = {row[-1] for row in frontier} - expansions.keys()
            if new_anchors:
                edge_traversals += _expand_anchor_ids(
                    new_anchors, expansions, body_specs, budget)
            if span is not None:
                span.add("new_anchors", len(new_anchors))
            append = extended.append
            next_check = budget.CHECK_EVERY if budget is not None else None
            charged = 0
            for row in frontier:
                grew = False
                for extension in expansions[row[-1]]:
                    last = extension[-1]
                    if any(row[p] == last
                           for p in range(0, len(row), body)):
                        if on_cycle == "error":
                            raise CycleHit(last)
                        continue
                    append(row + extension)
                    grew = True
                if not grew:
                    kept.append(row)
                if next_check is not None and len(extended) >= next_check:
                    # Chunked enforcement: overshoot past a deadline is
                    # bounded by one chunk of tuple appends, not one
                    # whole level of an exploding closure.
                    budget.charge_rows(len(extended) - charged)
                    charged = len(extended)
                    budget.check_time()
                    next_check = charged + budget.CHECK_EVERY
            if budget is not None:
                budget.charge_rows(len(extended) - charged)
        finally:
            if span is not None:
                span.add("rows_out", len(extended))
                tracer.finish(span)
        total_extended += len(extended)
        frontier = extended
    if unbounded and frontier and level >= max_level:
        raise NonTerminating()
    # The final frontier was never expanded: all of it survives.
    kept.extend(frontier)
    return kept, {"extended": total_extended,
                  "edge_traversals": edge_traversals,
                  "level": level}


def _expand_anchor_ids(anchors: Set[int],
                       expansions: Dict[int, Tuple[Tuple[int, ...], ...]],
                       body_specs: Sequence[StepSpec], budget) -> int:
    """One-cycle body expansion of each anchor id, via the columnar
    step kernels; memoized into ``expansions``.  Returns the
    distinct-endpoint traversals."""
    cols, stats = run_steps(body_specs, sorted(anchors), budget)
    for anchor in anchors:
        expansions[anchor] = ()
    grouped: Dict[int, List[Tuple[int, ...]]] = {}
    for row in columns_to_rows(cols):
        grouped.setdefault(row[0], []).append(row[1:])
    for anchor, exts in grouped.items():
        expansions[anchor] = tuple(exts)
    return sum(frontier for frontier, _rows in stats)
