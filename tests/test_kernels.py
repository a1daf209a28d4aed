"""Unit tests for the columnar join kernels (``repro.oql.kernels``).

The kernels are the compact executor's only hop loop (``run_steps``)
and only closure loop (``closure_partition``).  The numpy path and the
stdlib-``array`` fallback must compute the same rows; the closure must
reuse a seeded expansion table instead of re-traversing the body.
"""

from array import array

from repro import obs
from repro.oql import kernels


class TestKernelParity:
    # CSR over 4 sources: 0->{1,2}, 1->{2}, 2->{}, 3->{0,3}
    OFFSETS = array("q", [0, 2, 3, 3, 5])
    NEIGHBORS = array("q", [1, 2, 2, 0, 3])

    def _spec(self, op="*", tgt_filter=None):
        return kernels.StepSpec(op=op, forward=True,
                                offsets=self.OFFSETS,
                                neighbors=self.NEIGHBORS, tgt_size=4,
                                tgt_filter=tgt_filter)

    def test_star_and_bang_agree_across_modes(self, monkeypatch):
        anchor = kernels.anchor_column(range(4))
        results = {}
        for mode, value in (("numpy", None), ("fallback", object())):
            if value is not None:
                monkeypatch.setattr(kernels, "_np", None)
            specs = [self._spec("*"), self._spec("!")]
            cols, stats = kernels.run_steps(specs, anchor)
            results[mode] = (kernels.columns_to_rows(cols), stats)
            monkeypatch.undo()
        assert results["numpy"] == results["fallback"]

    def test_filter_respected_in_both_modes(self, monkeypatch):
        anchor = kernels.anchor_column(range(4))
        keep = array("q", [2])
        rows = {}
        for mode, disable in (("numpy", False), ("fallback", True)):
            if disable:
                monkeypatch.setattr(kernels, "_np", None)
            cols, _ = kernels.run_steps([self._spec("*", keep)], anchor)
            rows[mode] = kernels.columns_to_rows(cols)
            monkeypatch.undo()
        assert rows["numpy"] == rows["fallback"]
        assert all(row[-1] == 2 for row in rows["numpy"])


class TestClosure:
    # A chain 0 -> 1 -> 2 -> 3 over one table (a one-hop cycle body).
    OFFSETS = array("q", [0, 1, 2, 3, 3])
    NEIGHBORS = array("q", [1, 2, 3])

    def _specs(self):
        return [kernels.StepSpec("*", True, self.OFFSETS, self.NEIGHBORS,
                                 4, slot="Course_1")]

    def test_seeded_expansions_skip_the_traversal(self):
        frontier = [(0, 1)]
        memo = {}
        kept, stats = kernels.closure_partition(
            list(frontier), self._specs(), 1, 1000, "error",
            unbounded=True, expansions=memo)
        assert kept == [(0, 1, 2, 3)]
        assert stats["edge_traversals"] > 0
        assert set(memo) == {1, 2, 3}
        again, stats = kernels.closure_partition(
            list(frontier), self._specs(), 1, 1000, "error",
            unbounded=True, expansions=dict(memo))
        assert again == kept
        assert stats["edge_traversals"] == 0

    def test_levels_and_hops_are_traced(self):
        tracer = obs.install()
        try:
            with_span = tracer.start("query")
            kernels.closure_partition([(0, 1)], self._specs(), 1, 1000,
                                      "error", unbounded=True)
            tracer.finish(with_span)
        finally:
            obs.uninstall()
        names = [span.name for span in with_span.walk()]
        assert names.count("loop-level") == 3
        assert "join-step" in names
        step = next(span for span in with_span.walk()
                    if span.name == "join-step")
        assert step.attrs == {"slot": "Course_1", "op": "*",
                              "direction": "right"}
