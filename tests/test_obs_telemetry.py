"""End-to-end telemetry tests: span trees built through the real
serving stack (front end -> shard worker -> service), SLO
slow-query capture, seeded retention determinism, and the event
stream's integration points."""

import statistics

import numpy as np
import pytest

from repro.core.featurize import QueryFeaturizer
from repro.db.query import parse_query
from repro.obs import (
    EventLog,
    Telemetry,
    TelemetryConfig,
    Trace,
    TraceStore,
    disabled,
)
from repro.rl.ppo import PPOAgent
from repro.serving import (
    FrontEndConfig,
    OptimizerService,
    ServingConfig,
    ServingFrontEnd,
)

CHAIN = "SELECT * FROM a, b, c WHERE a.id = b.a_id AND b.id = c.b_id"
BC = "SELECT * FROM b, c WHERE b.id = c.b_id"
AB = "SELECT * FROM a, b WHERE a.id = b.a_id"
#: What a queued thread-mode request's root span holds, in order: the
#: front end's stages around the service's ``serve``. A plan-cache hit
#: answered inside ``submit()`` is never queued, and its root holds
#: ``serve`` alone.
FRONTEND_STAGES = ["queue_wait", "pickup", "serve", "resolve"]


@pytest.fixture(scope="module")
def featurizer(small_db):
    return QueryFeaturizer(small_db.schema, max_relations=3)


@pytest.fixture(scope="module")
def agent(small_db, featurizer):
    return PPOAgent(
        featurizer.state_dim, featurizer.n_pair_actions, np.random.default_rng(3)
    )


def make_frontend(small_db, agent, featurizer, telemetry, **serving_kwargs):
    serving_kwargs.setdefault("regression_threshold", 1.5)
    return ServingFrontEnd.build(
        small_db,
        agent,
        featurizer=featurizer,
        serving_config=ServingConfig(**serving_kwargs),
        config=FrontEndConfig(max_batch=4),
        telemetry=telemetry,
    )


class TestFrontEndTracing:
    def test_span_tree_shape_and_attribute_integrity(
        self, small_db, agent, featurizer
    ):
        telemetry = Telemetry(TelemetryConfig(sample_rate=1.0, slo_ms=10_000.0))
        frontend = make_frontend(small_db, agent, featurizer, telemetry)
        # Three distinct fingerprints: every request is a cold miss.
        queries = [
            parse_query(BC, "bc0"),
            parse_query(AB, "ab0"),
            parse_query(CHAIN, "chain0"),
        ]
        with frontend:
            served = [frontend.optimize(q, timeout=10.0) for q in queries]

        traces = telemetry.store.all()
        assert len(traces) == len(queries)
        by_query = {t.root.attrs["query"]: t for t in traces}
        assert set(by_query) == {q.name for q in queries}

        for query, plan in zip(queries, served):
            trace = by_query[query.name]
            root = trace.root
            assert root.name == "request"
            # Attribute integrity: the trace agrees with the served plan.
            assert root.attrs["source"] == plan.source
            assert root.attrs["fingerprint"] == plan.fingerprint
            assert root.attrs["shard"] == 0
            child_names = [c.name for c in root.children]
            # The root's children tile the request end to end.
            assert child_names == FRONTEND_STAGES
            serve = root.children[FRONTEND_STAGES.index("serve")]
            serve_names = [c.name for c in serve.children]
            assert serve_names[0] == "cache_lookup"
            assert serve.children[0].attrs["hit"] is False  # cold cache
            # A non-cache request ran the policy and the guardrail.
            assert "policy_forward" in serve_names
            assert "guardrail" in serve_names
            guardrail = serve.children[serve_names.index("guardrail")]
            assert isinstance(guardrail.attrs["use_learned"], bool)
            # Every span closed, with non-negative duration.
            for span in root.walk():
                assert span.duration_ms is not None
                assert span.duration_ms >= 0.0

    def test_span_sums_explain_the_end_to_end_latency(
        self, small_db, agent, featurizer
    ):
        # A lone request is taken off the queue at once, and the nine
        # repeats are cache hits answered inside
        # submit(), whose trace is the serve alone. The claim is that no
        # stage is missing or counted twice, not that no thread was
        # descheduled between two clock reads, so the hits are judged
        # by their median.
        telemetry = Telemetry(TelemetryConfig(sample_rate=1.0, slo_ms=10_000.0))
        frontend = make_frontend(small_db, agent, featurizer, telemetry)
        with frontend:
            for i in range(10):
                frontend.optimize(parse_query(BC, f"cov{i}"), timeout=10.0)
        cold, *hits = telemetry.store.all()
        assert len(hits) == 9
        assert cold.coverage() >= 0.9, cold.format()
        assert statistics.median(t.coverage() for t in hits) >= 0.9, "\n".join(
            t.format() for t in hits
        )
        assert [c.name for c in cold.root.children] == FRONTEND_STAGES
        assert cold.root.children[0].attrs["shard"] == 0
        for trace in hits:
            assert [c.name for c in trace.root.children] == ["serve"]
            assert trace.root.attrs["source"] == "cache"

    def test_cache_hit_is_visible_in_the_trace(
        self, small_db, agent, featurizer
    ):
        telemetry = Telemetry(TelemetryConfig(sample_rate=1.0, slo_ms=10_000.0))
        frontend = make_frontend(small_db, agent, featurizer, telemetry)
        with frontend:
            frontend.optimize(parse_query(BC, "warm"), timeout=10.0)
            hit_plan = frontend.optimize(parse_query(BC, "warm"), timeout=10.0)
        assert hit_plan.source == "cache"
        trace = telemetry.store.all()[-1]
        # Answered inside submit(): no queue, no worker, no pickup.
        (serve,) = trace.root.children
        assert serve.name == "serve"
        assert serve.children[0].name == "cache_lookup"
        assert serve.children[0].attrs["hit"] is True
        # A cache hit never runs the policy.
        assert "policy_forward" not in [c.name for c in serve.children]

    def test_stage_histograms_feed_from_finished_traces(
        self, small_db, agent, featurizer
    ):
        telemetry = Telemetry(TelemetryConfig(sample_rate=1.0, slo_ms=10_000.0))
        frontend = make_frontend(small_db, agent, featurizer, telemetry)
        with frontend:
            for i in range(3):
                frontend.optimize(parse_query(BC, f"h{i}"), timeout=10.0)
            registry = frontend.metrics_registry()
        assert registry.get("repro_request_e2e_ms").count == 3
        summary = telemetry.stage_summary()
        # One miss through the queue; the two hits answered in submit().
        for stage in ("queue_wait", "pickup"):
            assert summary[stage]["count"] == 1.0
        for stage in ("serve", "cache_lookup"):
            assert summary[stage]["count"] == 3.0

    def test_disabled_telemetry_records_nothing(
        self, small_db, agent, featurizer
    ):
        telemetry = disabled()
        assert telemetry.begin_trace("request") is None
        telemetry.finish_trace(None)  # None-safe
        frontend = make_frontend(small_db, agent, featurizer, telemetry)
        with frontend:
            plan = frontend.optimize(parse_query(BC, "dark"), timeout=10.0)
        assert plan.query_name == "dark"
        assert telemetry.store.all() == []
        assert len(telemetry.events) == 0


class TestSloCapture:
    def test_slo_violations_are_always_retained_with_events(
        self, small_db, agent, featurizer
    ):
        # sample_rate=0: head sampling keeps nothing, so every retained
        # trace below is tail-based SLO capture.
        telemetry = Telemetry(TelemetryConfig(sample_rate=0.0, slo_ms=0.0))
        frontend = make_frontend(small_db, agent, featurizer, telemetry)
        with frontend:
            frontend.optimize(parse_query(BC, "slow0"), timeout=10.0)
        traces = telemetry.store.all()
        assert len(traces) == 1
        assert traces[0].sampled is False  # kept by SLO, not the sampler
        slow = telemetry.slow_queries()
        assert len(slow) == 1
        assert slow[0]["trace_id"] == traces[0].trace_id
        assert slow[0]["latency_ms"] > 0.0
        # The embedded trace is a complete, reparseable span tree.
        embedded = Trace.from_dict(slow[0]["trace"])
        assert embedded.root.attrs["query"] == "slow0"
        assert [c.name for c in embedded.root.children] == FRONTEND_STAGES

    def test_under_slo_unsampled_requests_are_dropped(
        self, small_db, agent, featurizer
    ):
        telemetry = Telemetry(TelemetryConfig(sample_rate=0.0, slo_ms=10_000.0))
        frontend = make_frontend(small_db, agent, featurizer, telemetry)
        with frontend:
            frontend.optimize(parse_query(BC, "fast0"), timeout=10.0)
        assert telemetry.store.all() == []
        assert telemetry.slow_queries() == []
        # ... but the request WAS traced and fed the histograms.
        assert telemetry.registry.get("repro_request_e2e_ms").count == 1

    def test_trace_and_event_files_round_trip(
        self, small_db, agent, featurizer, tmp_path
    ):
        # What an operator takes away from a run: the retained traces as
        # JSONL and the event sink's file, both readable offline.
        events_path = tmp_path / "events.jsonl"
        telemetry = Telemetry(TelemetryConfig(
            sample_rate=1.0, slo_ms=0.0, events_path=events_path
        ))
        frontend = make_frontend(small_db, agent, featurizer, telemetry)
        queries = [
            parse_query(BC, "file-bc"),
            parse_query(AB, "file-ab"),
            parse_query(CHAIN, "file-chain"),
        ]
        with frontend:
            for query in queries:
                frontend.optimize(query, timeout=10.0)

        traces_path = tmp_path / "traces.jsonl"
        assert telemetry.store.write_jsonl(traces_path) == len(queries)
        traces = TraceStore.read_jsonl(traces_path)
        assert sorted(t.root.attrs["query"] for t in traces) == sorted(
            q.name for q in queries
        )
        for trace in traces:
            assert [c.name for c in trace.root.children] == FRONTEND_STAGES

        events = EventLog.parse_jsonl(events_path.read_text())
        slow = [e for e in events if e["kind"] == "slow_query"]
        assert slow, events
        trace_ids = {t.trace_id for t in traces}
        for event in slow:
            embedded = Trace.from_dict(event["trace"])
            assert embedded.trace_id == event["trace_id"]
            assert embedded.trace_id in trace_ids
            assert [c.name for c in embedded.root.children] == FRONTEND_STAGES


class TestRetentionDeterminism:
    def run_stream(self, seed):
        telemetry = Telemetry(
            TelemetryConfig(sample_rate=0.4, seed=seed, slo_ms=10_000.0)
        )
        kept = []
        for i in range(60):
            trace = telemetry.begin_trace("request", query=f"q{i}")
            telemetry.finish_trace(trace)
        return [t.root.attrs["query"] for t in telemetry.store.all()]

    def test_same_seed_retains_the_same_requests(self):
        first = self.run_stream(seed=7)
        assert first == self.run_stream(seed=7)
        assert 0 < len(first) < 60  # the sampler is actually sampling

    def test_different_seed_retains_differently(self):
        assert self.run_stream(seed=7) != self.run_stream(seed=8)


class TestServiceEvents:
    def make_service(self, small_db, agent, featurizer, telemetry, **kwargs):
        return OptimizerService(
            small_db,
            agent,
            featurizer=featurizer,
            config=ServingConfig(**kwargs),
            telemetry=telemetry,
        )

    def test_guardrail_fallback_emits_event_and_tags_trace(
        self, small_db, agent, featurizer
    ):
        # A vanishingly small threshold forces the learned plan to lose.
        telemetry = Telemetry(TelemetryConfig(sample_rate=1.0, slo_ms=10_000.0))
        service = self.make_service(
            small_db, agent, featurizer, telemetry, regression_threshold=1e-9
        )
        plan = service.optimize(parse_query(CHAIN, "guarded"))
        assert plan.source == "fallback"
        events = telemetry.events.of_kind("guardrail_fallback")
        assert len(events) == 1
        assert events[0]["query"] == "guarded"
        assert events[0]["predicted_regression"] > 1e9 or (
            events[0]["predicted_regression"] > events[0]["threshold"]
        )
        trace = telemetry.store.all()[0]
        assert trace.root.attrs["fallback_reason"] == "predicted_regression"
        # The expert DP span nests under the guardrail decision.
        serve = trace.root.children[0]
        guardrail = [c for c in serve.children if c.name == "guardrail"][0]
        assert [c.name for c in guardrail.children] == ["expert_dp"]
        assert guardrail.children[0].attrs["dp_subsets"] > 0

    def test_policy_forward_span_carries_the_amortized_share(
        self, small_db, agent, featurizer
    ):
        # Three misses roll out in one lockstep pass: each waited for
        # all of it (the duration) and cost a third of it.
        telemetry = Telemetry(TelemetryConfig(sample_rate=1.0, slo_ms=10_000.0))
        service = self.make_service(small_db, agent, featurizer, telemetry)
        service.optimize_batch(
            [parse_query(BC, "bc"), parse_query(AB, "ab"), parse_query(CHAIN, "abc")]
        )
        spans = [
            span
            for trace in telemetry.store.all()
            for span in trace.root.walk()
            if span.name == "policy_forward"
        ]
        assert len(spans) == 3
        for span in spans:
            assert span.attrs["rollout_batch"] == 3
            assert span.attrs["amortized_ms"] == pytest.approx(
                span.duration_ms / 3, abs=1e-4
            )
        assert sum(s.attrs["amortized_ms"] for s in spans) == pytest.approx(
            spans[0].duration_ms, abs=1e-3
        )

    def test_statistics_invalidation_emits_event(
        self, small_db, agent, featurizer
    ):
        telemetry = Telemetry(TelemetryConfig(sample_rate=1.0, slo_ms=10_000.0))
        service = self.make_service(small_db, agent, featurizer, telemetry)
        service.optimize(parse_query(BC, "pre"))
        service.refresh_statistics(analyzed=small_db)
        service.refresh_statistics(tables=["b"], analyzed=small_db)
        events = telemetry.events.of_kind("stats_invalidation")
        assert [e["scope"] for e in events] == ["all", "tables"]
        assert events[1]["tables"] == ["b"]
