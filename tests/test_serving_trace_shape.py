"""Pins the span tree every serve path of ``OptimizerService`` builds.

One in-process service with telemetry on, over a private copy of the
small database and a featurizer one relation narrower than the widest
query, is driven through every way a request can be answered: the
policy, the guardrail fallback, a renamed cache hit (and the same
spelling again, whose kept translation records no span), a burst with
an alias-renamed twin, an oversize query routed to the expert, the same
under a spent budget (the expert search times out into the degradation
ladder), and a policy whose forward pass is always non-finite. For each
request the ``serve`` subtree is pinned as nested ``(name, sorted attr
keys, children)``, with the root's attr keys and every discrete attr
value; the shard's ``counters()`` and the event kinds are pinned at the
end. Durations, fingerprints and free-text reasons are not pinned.
"""

import numpy as np
import pytest

from repro.core.featurize import QueryFeaturizer
from repro.db.engine import Database
from repro.db.query import parse_query
from repro.obs import Telemetry, TelemetryConfig
from repro.optimizer.planner import Planner
from repro.rl.ppo import PPOAgent
from repro.serving import OptimizerService, ServingConfig
from repro.serving.faults import FaultConfig, FaultInjector
from tests.conftest import small_fks, small_specs

CHAIN = "SELECT * FROM a, b, c WHERE a.id = b.a_id AND b.id = c.b_id"
CHAIN_RENAMED = "SELECT * FROM a AS u, b AS v, c AS w2 WHERE w2.b_id = v.id AND v.a_id = u.id"
CHAIN_SEL = CHAIN + " AND c.w = 2"
BC = "SELECT * FROM b, c WHERE b.id = c.b_id"
AB = "SELECT * FROM a, b WHERE a.id = b.a_id"
AB_RENAMED = "SELECT * FROM a AS u, b AS v WHERE u.id = v.a_id"
AB_SEL = AB + " AND a.x = 1"
OVERSIZE = (
    "SELECT * FROM a, b AS b1, b AS b2, c "
    "WHERE b1.a_id = a.id AND b2.a_id = a.id AND c.b_id = b1.id"
)
OVERSIZE_SEL = OVERSIZE + " AND a.x = 3"

#: Attributes whose values are part of the contract (the rest are
#: timings, counts of search work, fingerprints or free text).
DISCRETE = (
    "hit",
    "burst_duplicate",
    "renamed_hit",
    "use_learned",
    "failed",
    "rollout_batch",
    "source",
    "fallback_reason",
)

SERVE = ("batch_size", "source")
LOOKUP = ("cache_lookup", ("hit",), ())
FORWARD = ("policy_forward", ("amortized_ms", "failed", "rollout_batch"), ())
BUILD = ("plan_construction", (), ())
RENAMED_BUILD = ("plan_construction", ("renamed_hit",), ())
EXPERT = ("expert_dp", ("dp_subsets",), ())
GUARDRAIL = ("guardrail", ("use_learned",), (EXPERT,))
DEGRADED = ("degraded_serve", ("reason", "source"), ())
ROLLED_OUT = ("serve", SERVE, (LOOKUP, FORWARD, BUILD, GUARDRAIL))

SHAPES = {
    "policy": ROLLED_OUT,
    "fallback": ROLLED_OUT,
    "renamed": ("serve", SERVE, (LOOKUP, RENAMED_BUILD)),
    "renamed_again": ("serve", SERVE, (LOOKUP,)),
    "burst": ROLLED_OUT,
    "twin": (
        "serve",
        SERVE,
        (("cache_lookup", ("burst_duplicate", "hit"), ()), RENAMED_BUILD),
    ),
    "burst_other": ROLLED_OUT,
    "oversize": ("serve", SERVE, (LOOKUP, EXPERT)),
    "oversize_timeout": ("serve", SERVE, (LOOKUP, EXPERT, DEGRADED)),
    "nan": ("serve", SERVE, (LOOKUP, FORWARD, DEGRADED)),
}

ROOT_KEYS = ("estimator_lane", "fingerprint", "policy_version", "query", "source")
FALLBACK_ROOT_KEYS = tuple(sorted(ROOT_KEYS + ("fallback_reason",)))


def _fallback(rollout_batch):
    return [
        ("optimize", "source", "fallback"),
        ("optimize", "fallback_reason", "predicted_regression"),
        ("serve", "source", "fallback"),
        ("cache_lookup", "hit", False),
        ("policy_forward", "failed", False),
        ("policy_forward", "rollout_batch", rollout_batch),
        ("guardrail", "use_learned", False),
    ]


VALUES = {
    "policy": [
        ("optimize", "source", "policy"),
        ("serve", "source", "policy"),
        ("cache_lookup", "hit", False),
        ("policy_forward", "failed", False),
        ("policy_forward", "rollout_batch", 1),
        ("guardrail", "use_learned", True),
    ],
    "fallback": _fallback(1),
    "renamed": [
        ("optimize", "source", "cache"),
        ("serve", "source", "cache"),
        ("cache_lookup", "hit", True),
        ("plan_construction", "renamed_hit", True),
    ],
    "renamed_again": [
        ("optimize", "source", "cache"),
        ("serve", "source", "cache"),
        ("cache_lookup", "hit", True),
    ],
    "burst": _fallback(2),
    # The twin is answered from its group's plan: the guardrail's reason
    # stays on the request that was judged.
    "twin": [
        ("optimize", "source", "fallback"),
        ("serve", "source", "fallback"),
        ("cache_lookup", "hit", True),
        ("cache_lookup", "burst_duplicate", True),
        ("plan_construction", "renamed_hit", True),
    ],
    "burst_other": _fallback(2),
    "oversize": [
        ("optimize", "source", "expert"),
        ("serve", "source", "expert"),
        ("cache_lookup", "hit", False),
    ],
    "oversize_timeout": [
        ("optimize", "source", "degraded_greedy"),
        ("serve", "source", "degraded_greedy"),
        ("cache_lookup", "hit", False),
        ("degraded_serve", "source", "degraded_greedy"),
    ],
    "nan": [
        ("optimize", "source", "degraded_dp"),
        ("serve", "source", "degraded_dp"),
        ("cache_lookup", "hit", False),
        ("policy_forward", "failed", True),
        ("policy_forward", "rollout_batch", 1),
        ("degraded_serve", "source", "degraded_dp"),
    ],
}

#: The shard's counters after the run, but for the expert latency
#: percentiles (wall-clock readings, only checked for presence).
COUNTERS = {
    "batches": 8.0,
    "cache_evictions": 0.0,
    "cache_hit_rate": 0.2222,
    "cache_hits": 2.0,
    "cache_invalidations": 0.0,
    "cache_invalidations_partial": 0.0,
    "cache_misses": 7.0,
    "cache_size": 5.0,
    "degraded_dp": 1.0,
    "degraded_greedy": 1.0,
    "dp_bound_fallbacks": 0.0,
    "dp_pruned": 0.0,
    "dp_subsets_enumerated": 35.0,
    "estimator_estimates": 18.0,
    "estimator_fallbacks": 0.0,
    "estimator_stale_fallbacks": 0.0,
    "experience_added": 4.0,
    "experience_dropped": 0.0,
    "experience_size": 4.0,
    "expert_plans": 5.0,
    "fallback_rate": 0.4,
    "forward_passes": 6.0,
    "guardrail_decisions": 4.0,
    "guardrail_timeouts": 0.0,
    "requests": 10.0,
    "served_degraded": 2.0,
    "served_from_cache": 2.0,
    "served_from_expert": 1.0,
    "served_from_fallback": 4.0,
    "served_from_policy": 1.0,
    "statement_memo_hits": 1.0,
    "statement_memo_misses": 9.0,
    "states_scored": 7.0,
}
MEASURED = ("expert_plan_ms_p50", "expert_plan_ms_p95")
EVENTS = ["guardrail_fallback"] * 3 + ["degraded_serve"] * 2


@pytest.fixture(scope="module")
def run():
    """Serve every path once, in order; returns the service, its
    telemetry and the served plans."""
    db = Database.from_specs(small_specs(), small_fks(), seed=7)
    featurizer = QueryFeaturizer(db.schema, max_relations=3)
    agent = PPOAgent(
        featurizer.state_dim, featurizer.n_pair_actions, np.random.default_rng(3)
    )
    telemetry = Telemetry(TelemetryConfig(sample_rate=1.0, slo_ms=10_000.0))
    service = OptimizerService(
        db,
        agent,
        planner=Planner(db),
        featurizer=featurizer,
        config=ServingConfig(regression_threshold=1e9),
        telemetry=telemetry,
    )
    served = []

    def serve(*pairs, **kwargs):
        queries = [parse_query(sql, name) for sql, name in pairs]
        served.extend(service.optimize_batch(queries, **kwargs))

    serve((CHAIN, "policy"))
    service.set_guardrail_threshold(1e-6)
    serve((BC, "fallback"))
    serve((CHAIN_RENAMED, "renamed"))
    serve((CHAIN_RENAMED, "renamed_again"))
    serve((AB, "burst"), (AB_RENAMED, "twin"), (CHAIN_SEL, "burst_other"))
    serve((OVERSIZE, "oversize"))
    serve((OVERSIZE_SEL, "oversize_timeout"), budgets_ms=[0.0])
    service.install_fault_injector(FaultInjector(FaultConfig(policy_nan_rate=1.0)))
    serve((AB_SEL, "nan"))
    return service, telemetry, served


def _shape(span):
    return (
        span.name,
        tuple(sorted(span.attrs)),
        tuple(_shape(child) for child in span.children),
    )


def _traces(telemetry):
    return {t.root.attrs["query"]: t for t in telemetry.store.all()}


def test_every_request_is_traced_once(run):
    _service, telemetry, served = run
    names = [t.root.attrs["query"] for t in telemetry.store.all()]
    assert names == list(SHAPES)
    assert [p.query_name for p in served] == list(SHAPES)
    for trace in telemetry.store.all():
        assert [c.name for c in trace.root.children] == ["serve"]
        for span in trace.root.walk():
            assert span.duration_ms is not None


@pytest.mark.parametrize("name", list(SHAPES))
def test_serve_subtree_shape(run, name):
    _service, telemetry, _served = run
    (serve,) = _traces(telemetry)[name].root.children
    assert _shape(serve) == SHAPES[name]


@pytest.mark.parametrize("name", list(SHAPES))
def test_root_attr_keys(run, name):
    _service, telemetry, _served = run
    root = _traces(telemetry)[name].root
    judged_fallback = name in ("fallback", "burst", "burst_other")
    expected = FALLBACK_ROOT_KEYS if judged_fallback else ROOT_KEYS
    assert tuple(sorted(root.attrs)) == expected


@pytest.mark.parametrize("name", list(SHAPES))
def test_discrete_attr_values(run, name):
    _service, telemetry, served = run
    root = _traces(telemetry)[name].root
    values = [
        (span.name, key, span.attrs[key])
        for span in root.walk()
        for key in DISCRETE
        if key in span.attrs
    ]
    assert values == VALUES[name]
    by_name = {p.query_name: p for p in served}
    assert root.attrs["source"] == by_name[name].source


def test_counters_and_events(run):
    service, telemetry, _served = run
    counters = service.counters()
    for key in MEASURED:
        assert counters.pop(key) >= 0.0
    assert counters == COUNTERS
    assert [event["kind"] for event in telemetry.events.all()] == EVENTS
