"""Tests for per-request tracing: span nesting, explicit-duration
recording, coverage accounting, serialization round-trips, seeded
sampling determinism, and the retained-trace ring buffer."""

import pytest

from repro.obs.trace import Span, Trace, TraceSampler, TraceStore


def fake_clock(times):
    """A controllable monotonic clock (seconds); pop-from-front."""
    state = {"i": -1}

    def clock():
        state["i"] = min(state["i"] + 1, len(times) - 1)
        return times[state["i"]]

    return clock


class TestTrace:
    def test_span_nesting_and_attrs(self):
        trace = Trace("request", trace_id="t1", attrs={"query": "q0"})
        serve = trace.start_span("serve", batch_size=4)
        lookup = trace.start_span("cache_lookup", parent=serve, hit=False)
        trace.end_span(lookup)
        trace.end_span(serve)
        trace.finish(source="policy")
        assert trace.root.attrs == {"query": "q0", "source": "policy"}
        assert [c.name for c in trace.root.children] == ["serve"]
        assert [c.name for c in serve.children] == ["cache_lookup"]
        assert lookup.attrs == {"hit": False}
        assert lookup.duration_ms is not None and lookup.duration_ms >= 0.0
        # Child spans start within the parent's window.
        assert lookup.start_ms >= serve.start_ms

    def test_context_manager_closes_on_exception(self):
        trace = Trace("request")
        with pytest.raises(RuntimeError):
            with trace.span("serve") as span:
                raise RuntimeError("boom")
        assert span.duration_ms is not None

    def test_record_back_computes_start(self):
        # queue_wait is timed elsewhere (submission stamp) and recorded
        # with an explicit duration.
        clock = fake_clock([0.0, 0.010])
        trace = Trace("request", clock=clock)
        span = trace.record("queue_wait", 4.0, reason="deadline")
        assert span.duration_ms == 4.0
        assert span.start_ms == pytest.approx(10.0 - 4.0)
        assert trace.root.children == [span]

    def test_stage_durations_sum_repeated_names(self):
        trace = Trace("request")
        trace.record("cache_lookup", 1.0)
        trace.record("cache_lookup", 2.0)
        trace.record("serve", 5.0)
        durations = trace.stage_durations()
        assert durations["cache_lookup"] == pytest.approx(3.0)
        assert durations["serve"] == pytest.approx(5.0)

    def test_coverage_is_root_children_over_total(self):
        clock = fake_clock([0.0, 0.100])
        trace = Trace("request", clock=clock)
        trace.record("queue_wait", 30.0)
        serve = trace.record("serve", 60.0)
        # Nested spans must NOT double-count into coverage.
        trace.record("cache_lookup", 59.0, parent=serve)
        total = trace.finish()
        assert total == pytest.approx(100.0)
        assert trace.coverage() == pytest.approx(0.9)

    def test_finish_is_idempotent(self):
        trace = Trace("request")
        first = trace.finish()
        assert trace.finish() == first

    def test_finish_closes_spans_left_open(self):
        # A stage that lasts until the request resolves is started and
        # never ended: it ends where the root does, and so does a nested
        # span an exception skipped the end of.
        clock = fake_clock([0.0, 0.010, 0.020, 0.050])
        trace = Trace("request", clock=clock)
        resolve = trace.start_span("resolve")  # at 10 ms
        nested = trace.start_span("inner", parent=resolve)  # at 20 ms
        assert trace.finish() == pytest.approx(50.0)
        assert resolve.duration_ms == pytest.approx(40.0)
        assert nested.duration_ms == pytest.approx(30.0)

    def test_dict_round_trip_preserves_tree(self):
        trace = Trace("request", trace_id="42", sampled=False)
        serve = trace.start_span("serve", batch_size=2)
        trace.start_span("expert_dp", parent=serve, dp_subsets=17)
        for span in list(trace.root.walk())[1:]:
            trace.end_span(span)
        trace.finish(source="expert")
        clone = Trace.from_dict(trace.to_dict())
        assert clone.trace_id == "42"
        assert clone.sampled is False
        assert [s.name for s in clone.root.walk()] == [
            s.name for s in trace.root.walk()
        ]
        assert clone.root.children[0].children[0].attrs == {"dp_subsets": 17}
        # Serialization rounds offsets to 4 decimal places (0.1µs).
        assert clone.duration_ms == pytest.approx(trace.duration_ms, abs=1e-4)

    def test_format_renders_every_span(self):
        trace = Trace("request", trace_id="7", attrs={"shard": 1})
        serve = trace.record("serve", 3.0)
        trace.record("guardrail", 1.0, parent=serve, use_learned=True)
        trace.finish()
        text = trace.format()
        assert "trace 7" in text
        assert "serve" in text and "guardrail" in text
        assert "use_learned=True" in text
        assert "span coverage" in text


class TestTraceSampler:
    def test_edge_rates(self):
        assert all(TraceSampler(1.0).sample() for _ in range(20))
        assert not any(TraceSampler(0.0).sample() for _ in range(20))

    def test_seeded_determinism(self):
        first, second = TraceSampler(0.3, seed=9), TraceSampler(0.3, seed=9)
        a = [first.sample() for _ in range(200)]
        b = [second.sample() for _ in range(200)]
        assert a == b
        assert 0 < sum(a) < 200  # actually sampling, not a constant

    def test_different_seeds_differ(self):
        first, second = TraceSampler(0.5, seed=1), TraceSampler(0.5, seed=2)
        a = [first.sample() for _ in range(200)]
        b = [second.sample() for _ in range(200)]
        assert a != b

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            TraceSampler(1.5)


class TestTraceStore:
    def make_trace(self, trace_id, duration_ms):
        clock = fake_clock([0.0, duration_ms / 1000.0])
        trace = Trace("request", trace_id=trace_id, clock=clock)
        trace.finish()
        return trace

    def test_ring_evicts_oldest(self):
        store = TraceStore(capacity=2)
        for i in range(4):
            store.add(self.make_trace(str(i), float(i + 1)))
        assert store.retained == 4
        assert [t.trace_id for t in store.all()] == ["2", "3"]

    def test_slowest_orders_by_duration(self):
        store = TraceStore(capacity=8)
        for i, ms in enumerate([5.0, 50.0, 1.0, 20.0]):
            store.add(self.make_trace(str(i), ms))
        slowest = store.slowest(2)
        assert [t.trace_id for t in slowest] == ["1", "3"]

    def test_jsonl_round_trip(self, tmp_path):
        store = TraceStore()
        store.add(self.make_trace("a", 3.0))
        store.add(self.make_trace("b", 7.0))
        path = tmp_path / "traces.jsonl"
        assert store.write_jsonl(path) == 2
        back = TraceStore.read_jsonl(path)
        assert [t.trace_id for t in back] == ["a", "b"]
        assert back[1].duration_ms == pytest.approx(7.0)
