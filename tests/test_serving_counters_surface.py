"""Golden test for the operator surface: ``ServingFrontEnd.counters()``
and ``metrics_registry().names()`` on one fixed probe, under both
executors, against literals recorded at commit 3056a3f (before the
``counters()`` renderers were collapsed into one), minus the TTL
expirations count that left with the plan cache's TTL, plus the
statement memo's hits and misses, minus the two shared-memory transport
counts that left with the rings, minus the six ``costmemo_*`` counts and
five ``repro_costmemo_*`` names that left when serving planners stopped
carrying a sub-plan cost memo, minus the count and the registry name
of the degradation ladder's first rung, which served from the
guardrail's expert memo and left with it, minus the experience buffer's
degraded-tag count and registry name, which no collected trajectory
could ever raise. The thread executor probes its one shard, so its lane
reads one shard and no ``shard1_requests``; the process lane keeps two
workers. Both lanes gained ``frontend_hits_in_submit`` and its registry
name; the thread lane answers the probe's hit inside ``submit()``, so it
books one flush, one worker batch and one service batch where the
process lane books two. The four flush-reason counts and their registry
names left with the flusher thread; a flush is now a batch a worker
takes off its queue. Keys, values and value types are pinned; registry
names may only be added to, except by such a removal."""

import math

import numpy as np
import pytest

from repro.core.featurize import QueryFeaturizer
from repro.db.engine import Database
from repro.db.query import parse_query
from repro.rl.ppo import PPOAgent
from repro.serving import FrontEndConfig, ServingConfig, ServingFrontEnd
from repro.serving import frontend as frontend_module
from tests.conftest import small_fks, small_specs
from tests.helpers import wait_until

CHAIN = "SELECT * FROM a, b, c WHERE a.id = b.a_id AND b.id = c.b_id"

#: Every count of the probe that depends on neither time nor bytes, with
#: the type ``counters()`` returns it in (``repro info --probe`` prints
#: these, so ``2`` turning into ``2.0`` is a visible change).
COUNTS = {
    "cache_evictions": 0.0,
    "cache_hit_rate": 0.5,
    "cache_hits": 1.0,
    "cache_invalidations": 0.0,
    "cache_invalidations_partial": 1.0,
    "cache_misses": 1.0,
    "cache_size": 0.0,
    "degraded_dp": 0.0,
    "degraded_greedy": 0.0,
    "dp_bound_fallbacks": 0.0,
    "dp_pruned": 0.0,
    "dp_subsets_enumerated": 6.0,
    "estimator_estimates": 5.0,
    "estimator_fallbacks": 0.0,
    "estimator_stale_fallbacks": 0.0,
    "experience_added": 1.0,
    "experience_dropped": 0.0,
    "experience_size": 1.0,
    "expert_plans": 1.0,
    "fallback_rate": 0.5,
    "forward_passes": 2.0,
    "frontend_batch_occupancy_mean": 1.0,
    "frontend_breakers_open": 0,
    "frontend_circuit_opens": 0,
    "frontend_deadline_expired": 0,
    "frontend_load_shed": 0,
    "frontend_rejected": 0,
    "frontend_rerouted": 0,
    "frontend_retries": 0,
    "frontend_retries_exhausted": 0,
    "frontend_served_occupancy_mean": 1.0,
    "frontend_submitted": 2,
    "frontend_worker_restarts": 0,
    "guardrail_decisions": 1.0,
    "guardrail_timeouts": 0.0,
    "requests": 2.0,
    "served_degraded": 0.0,
    "served_from_cache": 1.0,
    "served_from_expert": 0.0,
    "served_from_fallback": 1.0,
    "served_from_policy": 0.0,
    "shard0_requests": 2,
    "states_scored": 2.0,
    # The front end canonicalizes both submissions of the one statement:
    # the first afresh, the second from its statement memo.
    "statement_memo_hits": 1.0,
    "statement_memo_misses": 1.0,
}
#: The thread executor's one shard, which answers the hit inside
#: ``submit()``: one flush and one batch, for the miss...
THREAD_COUNTS = {
    "frontend_shards": 1,
    "frontend_hits_in_submit": 1,
    "batches": 1.0,
    "frontend_flushes": 1,
    "frontend_served_batches": 1,
}
#: ...and ``executor="process"``'s two workers, whose plan caches live
#: in the workers, so both requests are queued and batched. They add
#: two batch frames, two refresh RPCs and the two registry snapshots
#: ``counters()`` itself pulls, each answered by one frame.
PROCESS_COUNTS = {
    "frontend_shards": 2,
    "frontend_hits_in_submit": 0,
    "batches": 2.0,
    "frontend_flushes": 2,
    "frontend_served_batches": 2,
    "shard1_requests": 0,
    "frontend_executor_processes": 2,
    "transport_control_roundtrips": 4,
    "transport_frames_received": 6,
    "transport_frames_sent": 6,
}
#: Present, numeric, but a wall-clock reading or a pickle size.
MEASURED = ["expert_plan_ms_p50", "expert_plan_ms_p95"]
PROCESS_MEASURED = ["transport_bytes_pipe"]

REGISTRY_NAMES = [
    "repro_cache_entries",
    "repro_cache_evictions_total",
    "repro_cache_hits_total",
    "repro_cache_invalidations_partial_total",
    "repro_cache_invalidations_total",
    "repro_cache_misses_total",
    "repro_estimator_estimates_total",
    "repro_estimator_fallbacks_total",
    "repro_estimator_lane_histogram",
    "repro_estimator_lane_learned",
    "repro_estimator_lane_pessimistic",
    "repro_estimator_stale",
    "repro_estimator_stale_fallbacks_total",
    "repro_experience_added_total",
    "repro_experience_dropped_total",
    "repro_experience_entries",
    "repro_expert_dp_bound_fallbacks_total",
    "repro_expert_dp_pruned_total",
    "repro_expert_dp_subsets_total",
    "repro_expert_plan_ms",
    "repro_expert_plans_total",
    "repro_frontend_circuit_opens_total",
    "repro_frontend_deadline_expired_total",
    "repro_frontend_down_shards",
    "repro_frontend_flushes_total",
    "repro_frontend_hits_in_submit_total",
    "repro_frontend_inflight",
    "repro_frontend_load_shed_total",
    "repro_frontend_rejected_total",
    "repro_frontend_rerouted_total",
    "repro_frontend_retries_exhausted_total",
    "repro_frontend_retries_total",
    "repro_frontend_served_batches_total",
    "repro_frontend_submitted_total",
    "repro_frontend_worker_restarts_total",
    "repro_guardrail_decisions_total",
    "repro_guardrail_timeouts_total",
    "repro_policy_forward_pass_ms",
    "repro_policy_forward_passes_total",
    "repro_policy_states_scored_total",
    "repro_request_latency_ms",
    "repro_serving_batches_total",
    "repro_serving_cache_served_total",
    "repro_serving_degraded_dp_total",
    "repro_serving_degraded_greedy_total",
    "repro_serving_degraded_total",
    "repro_serving_expert_served_total",
    "repro_serving_fallback_served_total",
    "repro_serving_policy_served_total",
    "repro_serving_request_ms",
    "repro_serving_requests_total",
    "repro_statement_memo_hits_total",
    "repro_statement_memo_misses_total",
]
PROCESS_REGISTRY_NAMES = [
    "repro_transport_bytes_pipe_total",
    "repro_transport_control_roundtrips_total",
    "repro_transport_frames_total",
]

#: Keys ``benchmarks/perf`` reads by name (``serving.py::check_run``,
#: ``layers.py::counter_metrics``), beside every ``shardN_requests``.
#: ``layers.py`` also reads ``costmemo_hits`` and ``costmemo_misses``,
#: with a default of 0: serving planners carry no sub-plan cost memo.
PINNED_BY_BENCHMARK = [
    "requests",
    "served_from_fallback",
    "served_from_expert",
    "guardrail_decisions",
    "expert_plans",
    "forward_passes",
    "states_scored",
    "cache_hits",
    "cache_misses",
    "cache_evictions",
    "cache_invalidations_partial",
    "frontend_submitted",
    "frontend_rejected",
    "frontend_retries",
    "frontend_flushes",
    "frontend_served_batches",
    "frontend_batch_occupancy_mean",
    "frontend_served_occupancy_mean",
]
#: ``layers.py`` also reads the two shared-memory transport keys that
#: left with the rings, with a default of 0.
PROCESS_PINNED_BY_BENCHMARK = [
    "transport_bytes_pipe",
]
#: ``counters_gained`` subtracts every key that does not end in one of
#: these, so all the others must stay numeric.
NOT_SUBTRACTED = ("_mean", "_rate", "_size", "_p50", "_p95")


@pytest.fixture(scope="module", params=["thread", "process"])
def surface(request):
    """One miss, one hit and one table-scoped refresh through the
    executor's default shards with the guardrail at 1.0, on a database of its own (the
    refresh changes statistics). No heartbeat (its pings are frames on
    a timer)."""
    executor = request.param
    db = Database.from_specs(small_specs(), small_fks(), seed=7)
    featurizer = QueryFeaturizer(db.schema, max_relations=3)
    agent = PPOAgent(
        featurizer.state_dim, featurizer.n_pair_actions, np.random.default_rng(3)
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(frontend_module, "HEARTBEAT_INTERVAL_S", math.inf)
        with ServingFrontEnd.build(
            db,
            agent,
            featurizer=featurizer,
            serving_config=ServingConfig(regression_threshold=1.0),
            config=FrontEndConfig(executor=executor),
        ) as frontend:
            query = parse_query(CHAIN, "probe")
            frontend.optimize(query, timeout=60.0)
            frontend.optimize(query, timeout=60.0)
            frontend.refresh_statistics(seed=11, sample_size=300, tables=["c"])
            # served_batches is booked just after the future resolves.
            batches = 2 if executor == "process" else 1
            assert wait_until(lambda: frontend.stats.served_batches == batches)
            counters = frontend.counters()
            names = frontend.metrics_registry().names()
    process = executor == "process"
    return {
        "counters": counters,
        "names": names,
        "counts": {**COUNTS, **(PROCESS_COUNTS if process else THREAD_COUNTS)},
        "measured": MEASURED + (PROCESS_MEASURED if process else []),
        "parent_names": REGISTRY_NAMES + (PROCESS_REGISTRY_NAMES if process else []),
        "pinned": PINNED_BY_BENCHMARK
        + (PROCESS_PINNED_BY_BENCHMARK if process else []),
    }


def test_counter_keys_are_the_parents(surface):
    expected = sorted([*surface["counts"], *surface["measured"]])
    assert len(expected) == (58 if "transport_frames_sent" in expected else 52)
    assert sorted(surface["counters"]) == expected


def test_counts_equal_the_parents_in_value_and_type(surface):
    counters = surface["counters"]
    wrong = {
        key: (counters[key], want)
        for key, want in surface["counts"].items()
        if counters[key] != want or type(counters[key]) is not type(want)
    }
    assert wrong == {}


def test_every_subtracted_value_is_numeric(surface):
    for key, value in surface["counters"].items():
        if not key.endswith(NOT_SUBTRACTED):
            assert type(value) in (int, float), key
    for key in surface["measured"]:
        assert surface["counters"][key] >= 0


def test_no_parent_registry_name_is_missing(surface):
    names = surface["names"]
    assert names == sorted(names)
    assert [n for n in surface["parent_names"] if n not in names] == []


def test_benchmark_pinned_keys_present(surface):
    counters = surface["counters"]
    assert [key for key in surface["pinned"] if key not in counters] == []
    shards = int(counters["frontend_shards"])
    assert {f"shard{k}_requests" for k in range(shards)} <= set(counters)
