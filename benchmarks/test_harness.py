"""Tests for the benchmark's own helpers: span self time, the percentile
rule and op failure counting.

    python3 -m pytest -q benchmarks
"""

import sys
import types

import pytest

from harness import CheckFailed, Tally, fail_skipped, iqm, run_op, tail_percentile
from spans import Span, SpanIndex, Tracer, self_times


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def _span(id, name, start, end, parent=-1):
    return Span(id, name, start, end, parent, 0)


class TestSelfTime:
    def test_nested_spans(self):
        spans = [_span(0, "a.outer", 0.0, 10.0),
                 _span(1, "b.inner", 1.0, 4.0, parent=0),
                 _span(2, "b.inner", 5.0, 6.0, parent=0),
                 _span(3, "c.leaf", 2.0, 3.0, parent=1)]
        assert self_times(spans) == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})
        ix = SpanIndex(spans)
        assert ix.layer_self("b") == pytest.approx(3.0)
        assert ix.inclusive("b.inner") == pytest.approx(4.0)
        assert ix.layer_self("c", root="a.outer") == pytest.approx(1.0)
        assert ix.layer_self("c", root="z.other") == 0.0

    def test_overlapping_children_are_covered_once(self):
        spans = [_span(0, "a.outer", 0.0, 10.0),
                 _span(1, "b.x", 1.0, 5.0, parent=0),
                 _span(2, "b.y", 3.0, 7.0, parent=0)]
        assert self_times(spans)[0] == pytest.approx(4.0)

    def test_recursion_through_another_wrapped_function(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        mod = types.ModuleType("fakepkg.mod")

        def f(depth):
            clock.advance(1.0)
            if depth:
                mod.g(depth - 1)
            clock.advance(1.0)

        def g(depth):
            clock.advance(0.5)
            mod.f(depth)
            clock.advance(0.5)

        mod.f, mod.g = f, g
        sys.modules["fakepkg.mod"] = mod
        try:
            targets = {"mod.f": (mod, "f", None), "mod.g": (mod, "g", None)}
            with tracer.installed(targets):
                with tracer.span("op.call"):
                    mod.f(2)            # f -> g -> f -> g -> f
            assert mod.f is f and mod.g is g
        finally:
            del sys.modules["fakepkg.mod"]

        ix = SpanIndex(tracer.spans())
        assert ix.calls("mod.f") == 3 and ix.calls("mod.g") == 2
        assert ix.inclusive("mod.f") == pytest.approx(8.0)   # outermost call only
        assert ix.inclusive("mod.g") == pytest.approx(6.0)
        assert ix.layer_self("mod") == pytest.approx(8.0)
        assert sum(ix.self_time.values()) == pytest.approx(8.0)
        assert ix.layer_self("op") == pytest.approx(0.0)
        by_name = {}
        for s in ix.spans:
            by_name.setdefault(s.name, []).append(ix.self_time[s.id])
        assert sorted(by_name["mod.f"]) == pytest.approx([2.0, 2.0, 2.0])
        assert sorted(by_name["mod.g"]) == pytest.approx([1.0, 1.0])

    def test_counts_are_recorded_on_the_span(self):
        tracer = Tracer()
        double = tracer.wrap("m.double", lambda x: 2 * x,
                             count=lambda args, kwargs, result: {"rows": result})
        double(3)
        double(x=4)
        ix = SpanIndex(tracer.spans())
        assert ix.count("m.double", "rows") == 14


class TestTailPercentile:
    @pytest.mark.parametrize("n, expected", [
        (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (199, 90.0), (200, 95.0),
        (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9), (10**6, 99.9)])
    def test_highest_percentile_with_ten_samples_beyond(self, n, expected):
        assert tail_percentile(n) == expected

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            tail_percentile(19)


def test_iqm_drops_a_quarter_from_each_end():
    assert iqm([5.0]) == 5.0
    assert iqm([1.0, 3.0]) == 2.0
    assert iqm([100.0, 2.0, 3.0, 4.0, -50.0, 3.0, 2.0, 4.0]) == pytest.approx(3.0)


class TestFailureCounting:
    def test_success_returns_elapsed(self):
        clock = FakeClock()
        tally = Tally()

        def op():
            clock.advance(2.5)
            return 0

        assert run_op(tally, "ok", op, clock=clock) == 2.5
        assert (tally.attempted, tally.failed) == (1, 0)

    def test_raise_counts_as_failed(self):
        tally = Tally()
        assert run_op(tally, "boom", lambda: 1 / 0) is None
        assert (tally.attempted, tally.failed) == (1, 1)
        assert "ZeroDivisionError" in tally.errors[0]

    def test_nonzero_exit_counts_as_failed(self):
        tally = Tally()
        assert run_op(tally, "exit", lambda: 2) is None
        assert tally.failed == 1 and "exit code 2" in tally.errors[0]

    def test_failed_check_counts_but_keeps_time(self):
        clock = FakeClock()
        tally = Tally()

        def op():
            clock.advance(1.0)
            return "result"

        def check(result):
            raise CheckFailed(f"bad {result}")

        assert run_op(tally, "checked", op, check, clock=clock) == 1.0
        assert (tally.attempted, tally.failed) == (1, 1)
        assert run_op(tally, "fine", lambda: "ok", lambda r: None) is not None
        assert tally.error_rate == pytest.approx(0.5)

    def test_skipped_ops_count_as_attempted_and_failed(self):
        tally = Tally()
        fail_skipped(tally, "query", 3, "no model")
        assert (tally.attempted, tally.failed) == (3, 3)
