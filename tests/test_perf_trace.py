"""Tests for the span tracer (repro.perf.trace).

Covers the design constraints stated in the module docstring: span
nesting and attributes, bounded memory (max_roots / max_children with
exact aggregates regardless), sinks, thread-local stacks, and the
near-zero disabled overhead that lets the instrumentation live inside
scalar hot paths like canonicalization.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.perf.trace import (
    _NULL_SPAN,
    Span,
    disable,
    enable,
    get_tracer,
    is_enabled,
    render_aggregate,
    render_tree,
    spans_to_dicts,
    trace,
)


@pytest.fixture(autouse=True)
def tracing_off():
    """Every test starts and ends with the module-global switch off."""
    disable()
    yield
    disable()


# ----------------------------------------------------------------------
# Disabled path
# ----------------------------------------------------------------------
class TestDisabled:
    def test_disabled_returns_shared_null_span(self):
        assert not is_enabled()
        assert get_tracer() is None
        ctx = trace("anything", level=3)
        assert ctx is _NULL_SPAN
        # Always the same singleton: no allocation on the disabled path.
        assert trace("other") is ctx

    def test_null_span_yields_none_and_propagates(self):
        with trace("x") as span:
            assert span is None
        with pytest.raises(ValueError):
            with trace("x"):
                raise ValueError("propagates through the null span")

    def test_disabled_overhead_is_small(self):
        """A disabled trace() call must stay well under 5% of the
        cheapest instrumented hot path (scalar canonicalization)."""
        from repro.core.equivalence import canonical

        def best_per_call(fn, n, repeats=5):
            best = float("inf")
            for _ in range(repeats):
                started = time.perf_counter()
                for _ in range(n):
                    fn()
                best = min(best, time.perf_counter() - started)
            return best / n

        word = 0x123456789ABCDEF0
        canonical(word, 4)  # warm caches
        t_canonical = best_per_call(lambda: canonical(word, 4), 50)

        def traced_noop():
            with trace("overhead.probe"):
                pass

        t_trace = best_per_call(traced_noop, 2000)
        # Generous bound for noisy CI runners; typical ratio is <1%.
        assert t_trace < 0.05 * t_canonical, (
            f"disabled span cost {t_trace * 1e6:.2f}us vs canonical "
            f"{t_canonical * 1e6:.2f}us"
        )


# ----------------------------------------------------------------------
# Enabled: trees, attrs, aggregates, caps
# ----------------------------------------------------------------------
class TestSpans:
    def test_nesting_builds_a_tree(self):
        tracer = enable()
        with trace("root", k=4) as root:
            assert root is not None
            with trace("child", i=0):
                with trace("grandchild"):
                    pass
            with trace("child", i=1):
                pass
        roots = tracer.roots()
        assert [span.name for span in roots] == ["root"]
        (tree,) = roots
        assert tree.attrs == {"k": 4}
        assert [c.name for c in tree.children] == ["child", "child"]
        assert [c.attrs["i"] for c in tree.children] == [0, 1]
        assert [g.name for g in tree.children[0].children] == ["grandchild"]
        assert tree.duration is not None and tree.duration >= 0
        for child in tree.children:
            assert child.duration <= tree.duration

    def test_span_attrs_mutable_inside_block(self):
        tracer = enable()
        with trace("bfs.level", level=2) as span:
            span.attrs["classes"] = 77
        (root,) = tracer.roots()
        assert root.attrs == {"level": 2, "classes": 77}

    def test_error_recorded_and_exception_propagates(self):
        tracer = enable()
        with pytest.raises(KeyError):
            with trace("failing"):
                raise KeyError("boom")
        (root,) = tracer.roots()
        assert root.error == "KeyError"
        assert root.duration is not None

    def test_max_roots_evicts_oldest(self):
        tracer = enable(max_roots=2)
        for i in range(4):
            with trace(f"root{i}"):
                pass
        assert [span.name for span in tracer.roots()] == ["root2", "root3"]

    def test_max_children_cap_counts_dropped(self):
        tracer = enable(max_children=3)
        with trace("parent"):
            for i in range(10):
                with trace("child", i=i):
                    pass
        (root,) = tracer.roots()
        assert len(root.children) == 3
        assert root.dropped_children == 7
        # Aggregates stay exact despite the cap.
        agg = tracer.aggregate()
        assert agg["child"]["count"] == 10
        assert agg["parent"]["count"] == 1

    def test_aggregate_statistics(self):
        tracer = enable()
        for _ in range(5):
            with trace("op"):
                pass
        agg = tracer.aggregate()
        entry = agg["op"]
        assert entry["count"] == 5
        assert 0 <= entry["min_s"] <= entry["mean_s"] <= entry["max_s"]
        assert entry["total_s"] == pytest.approx(entry["mean_s"] * 5)

    def test_reset_clears_roots_and_aggregates(self):
        tracer = enable()
        with trace("x"):
            pass
        tracer.reset()
        assert tracer.roots() == []
        assert tracer.aggregate() == {}

    def test_mispaired_exit_unwinds_stack(self):
        """Closing an outer span while an inner one leaked (generator
        abandoned mid-iteration, say) must not corrupt the stack."""
        tracer = enable()
        outer = trace("outer")
        inner = trace("inner")
        outer.__enter__()
        inner.__enter__()
        # Close outer without closing inner: the stack unwinds past it.
        outer.__exit__(None, None, None)
        with trace("after"):
            pass
        names = [span.name for span in tracer.roots()]
        assert names == ["outer", "after"]


# ----------------------------------------------------------------------
# Switch semantics, sinks, threads
# ----------------------------------------------------------------------
class TestTracerLifecycle:
    def test_enable_is_idempotent(self):
        first = enable(max_roots=8)
        second = enable(max_roots=999)
        assert second is first
        assert first.max_roots == 8
        disable()
        assert not is_enabled()
        assert trace("x") is _NULL_SPAN

    def test_sink_receives_every_completed_span(self):
        seen = []
        enable(sink=lambda name, seconds: seen.append((name, seconds)))
        with trace("a"):
            with trace("b"):
                pass
        names = [name for name, _ in seen]
        assert names == ["b", "a"]  # completion order: innermost first
        assert all(seconds >= 0 for _, seconds in seen)

    def test_enable_adds_sink_to_existing_tracer(self):
        enable()
        seen = []
        enable(sink=lambda name, seconds: seen.append(name))
        with trace("x"):
            pass
        assert seen == ["x"]

    def test_threads_build_independent_trees(self):
        tracer = enable(max_roots=16)
        barrier = threading.Barrier(2)

        def worker(tag):
            barrier.wait()
            with trace("thread.root", tag=tag):
                with trace("thread.child", tag=tag):
                    pass

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        roots = tracer.roots()
        # Two roots, one per thread -- no cross-thread nesting.
        assert sorted(span.attrs["tag"] for span in roots) == [0, 1]
        for span in roots:
            assert [c.name for c in span.children] == ["thread.child"]
        assert tracer.aggregate()["thread.root"]["count"] == 2


# ----------------------------------------------------------------------
# Rendering / JSON export
# ----------------------------------------------------------------------
class TestRendering:
    def test_render_tree_shows_nesting_attrs_and_drops(self):
        tracer = enable(max_children=1)
        with trace("parent", k=4):
            with trace("kept"):
                pass
            with trace("dropped"):
                pass
        (root,) = tracer.roots()
        text = render_tree(root)
        lines = text.splitlines()
        assert lines[0].startswith("- parent")
        assert "[k=4]" in lines[0]
        assert "kept" in lines[1]
        assert "1 more child span(s) dropped" in lines[2]

    def test_render_aggregate_table(self):
        tracer = enable()
        with trace("alpha"):
            pass
        text = render_aggregate(tracer.aggregate())
        assert "span" in text.splitlines()[0]
        assert "alpha" in text
        assert render_aggregate({}) == "(no spans recorded)"

    def test_spans_to_dicts_round_trips_structure(self):
        tracer = enable()
        with pytest.raises(RuntimeError):
            with trace("root", level=1):
                with trace("child"):
                    pass
                raise RuntimeError("x")
        (payload,) = spans_to_dicts(tracer.roots())
        assert payload["name"] == "root"
        assert payload["attrs"] == {"level": 1}
        assert payload["error"] == "RuntimeError"
        assert [c["name"] for c in payload["children"]] == ["child"]

    def test_span_to_dict_omits_empty_fields(self):
        span = Span(name="bare", attrs={}, started=0.0, duration=1.5)
        assert span.to_dict() == {"name": "bare", "duration_s": 1.5}


# ----------------------------------------------------------------------
# Integration with the instrumented hot paths
# ----------------------------------------------------------------------
class TestInstrumentation:
    def test_bfs_build_emits_level_spans(self):
        from repro.synth.bfs import build_database

        tracer = enable(max_roots=4)
        build_database(3, 4)
        agg = tracer.aggregate()
        assert agg["bfs.build"]["count"] == 1
        assert agg["bfs.level"]["count"] == 4
        (root,) = [s for s in tracer.roots() if s.name == "bfs.build"]
        levels = [c for c in root.children if c.name == "bfs.level"]
        assert [c.attrs["level"] for c in levels] == [1, 2, 3, 4]
        assert all(c.attrs["classes"] > 0 for c in levels)

    def test_canonical_emits_spans(self):
        from repro.core.equivalence import canonical

        tracer = enable()
        canonical(0x0123456789ABCDEF, 4)
        assert tracer.aggregate()["equivalence.canonical"]["count"] == 1

    def test_service_stats_and_span_metrics(self, handle4):
        from repro.service.daemon import ServiceConfig, SynthesisService

        svc = SynthesisService(
            handle4,
            config=ServiceConfig(
                n_wires=4,
                k=4,
                max_list_size=3,
                extra={"trace": True},
            ),
        )
        svc.start()
        try:
            import json

            requests = [
                {
                    "id": 1,
                    "op": "size",
                    "spec": "[1,0,2,3,4,5,6,7,8,9,10,11,12,13,14,15]",
                },
                {
                    "id": 2,
                    "op": "synth",
                    "spec": "[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,0]",
                },
                {
                    "id": 3,
                    "op": "compile",
                    "spec": {
                        "kind": "affine_xor",
                        "matrix": [[1, 0], [1, 1]],
                        "constant": [0, 1],
                    },
                },
            ]
            for request in requests:
                response = json.loads(svc.handle_line(json.dumps(request)))
                assert response["ok"], response
            stats = svc.stats()
            assert stats["trace"] == {"enabled": True}
            metrics = stats["metrics"]
            for span in (
                "service.batch", "service.lookup", "search.peel",
                "service.compile",
            ):
                assert metrics[f"span_{span}"]["count"] >= 1, span
        finally:
            svc.shutdown()

    def test_stopped_traced_service_turns_tracing_off(self, handle4):
        import json

        from repro.service.daemon import ServiceConfig, SynthesisService

        def config(**extra):
            return ServiceConfig(n_wires=4, k=4, max_list_size=3, extra=extra)

        traced = SynthesisService(handle4, config=config(trace=True)).start()
        traced.shutdown()
        before = traced.metrics.snapshot()
        svc = SynthesisService(handle4, config=config()).start()
        try:
            assert svc.stats()["trace"] == {"enabled": False}
            response = json.loads(svc.handle_line(json.dumps({
                "id": 1, "op": "synth",
                "spec": "[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,0]",
            })))
            assert response["ok"], response
        finally:
            svc.shutdown()
        assert traced.metrics.snapshot() == before
        assert not any(name.startswith("span_") for name in svc.metrics.snapshot())

    def test_service_without_trace_reports_disabled(self, handle4):
        from repro.service.daemon import ServiceConfig, SynthesisService

        svc = SynthesisService(
            handle4,
            config=ServiceConfig(n_wires=4, k=4, max_list_size=3),
        )
        svc.start()
        try:
            assert svc.stats()["trace"] == {"enabled": False}
        finally:
            svc.shutdown()
