"""Per-layer measurements, taken from outside the program.

Nothing in ``src/`` is instrumented for this. A layer is a module of
``repro``; its time is found by calling its public functions directly —
either in a **stepped replay**, which walks sampled requests through
the same calls ``OptimizerService.optimize_batch`` makes, one call and
one span at a time, or in a small loop over one function. Wrapper
layers (service, front end) are residuals: what their entry point takes
minus what the calls below it account for.
"""

from __future__ import annotations

import copy
import json
import multiprocessing
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

from repro.core.featurize import SlotState
from repro.nn.losses import mse_loss
from repro.serving import FrameConn, MicroBatchEngine, PlanCache
from repro.serving.fingerprint import canonical_alias_map, fingerprint
from repro.serving.procpool import K_BATCH, K_RESULT

BENCHMARK = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


class SpanLog:
    """Spans kept in memory and written out when the pass ends.

    A span is ``(id, name, start, end, parent id, request id)``; the
    spans of one request share its sequence number in the stream.
    """

    def __init__(self) -> None:
        self.spans: List[tuple] = []

    def add(self, name: str, start: float, end: float, parent, request) -> int:
        self.spans.append((len(self.spans), name, start, end, parent, request))
        return len(self.spans) - 1

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span_id, name, start, end, parent, request in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request": request,
                        }
                    )
                    + "\n"
                )

    def median_us(self, name: str) -> float:
        """Median duration of the spans called ``name``, in microseconds
        (a collector pause inside one span must not set a layer's cost)."""
        durations = [s[3] - s[2] for s in self.spans if s[1] == name]
        return float(np.median(durations)) * 1e6 if durations else 0.0


def fresh(query):
    """The same query as a new object: the database keys its per-query
    estimates by identity, so a copy pays for them again."""
    return replace(query)


class Replay:
    """The stepped replay: drives one request at a time through the
    calls the service makes for it —

        canonical_alias_map/fingerprint -> PlanCache.get ->
        db.cardinalities -> featurizer.encoder -> per round
        vector_into/pair_mask_into, policy.act_batch,
        decode_pair/encoder.join -> planner.evaluate_tree ->
        (guardrail) planner.optimize -> PlanCache.put

    — each call a child span of the request's ``replay`` span. The
    plan cache, the planner and its memo are the replay's own. ``rng``
    switches the policy from its mode to sampling (as training uses it).
    """

    def __init__(
        self, log: SpanLog, db, featurizer, policy, planner,
        guardrail: float | None = None, rng=None,
    ) -> None:
        self.log, self.db, self.featurizer = log, db, featurizer
        self.policy, self.planner = policy, planner
        self.guardrail, self.rng = guardrail, rng
        self.cache = PlanCache()
        self.hits = self.renamed = 0
        #: Up to 32 (state, mask) rows seen, for the forward benchmarks.
        self.rows: List[tuple] = []
        self._feats = np.empty((1, featurizer.state_dim))
        self._masks = np.empty((1, featurizer.n_pair_actions), dtype=bool)

    def step(self, query, seq: int) -> float:
        """Replay one request; returns the time its child spans cover,
        in milliseconds."""
        log, clock = self.log, time.perf_counter
        featurizer, planner = self.featurizer, self.planner
        feats, masks = self._feats, self._masks
        root = log.add("replay", clock(), 0.0, None, seq)
        covered = 0.0

        def span(name: str, began: float) -> None:
            nonlocal covered
            ended = clock()
            covered += ended - began
            log.add(name, began, ended, root, seq)

        began = clock()
        names = canonical_alias_map(query)
        fp = fingerprint(query, names)
        span("fingerprint", began)
        began = clock()
        entry = self.cache.get(fp)
        span("cache.get", began)
        tree = None
        if entry is not None:
            self.hits += 1
            tree, origin_names = entry
            if origin_names != names:
                # A hit from an alias-renamed twin: the cached join order
                # is re-expressed in the requester's aliases and costed.
                self.renamed += 1
                to_requester = {canon: alias for alias, canon in names.items()}
                rename = {a: to_requester[c] for a, c in origin_names.items()}
                began = clock()
                planner.evaluate_tree(_renamed(tree, rename), query)
                span("planner.evaluate_tree", began)
        elif query.n_relations > featurizer.max_relations:
            began = clock()
            tree = planner.optimize(query).join_tree
            span("planner.optimize", began)
        else:
            began = clock()
            cards = self.db.cardinalities(query)
            span("db.cardinalities", began)
            began = clock()
            state = SlotState(query, featurizer.max_relations)
            encoder = featurizer.encoder(state, cards)
            span("featurize.encoder_init", began)
            while not state.done:
                began = clock()
                encoder.vector_into(feats[0])
                encoder.pair_mask_into(masks[0], False)
                span("featurize.state", began)
                if len(self.rows) < 32:
                    self.rows.append((feats[0].copy(), masks[0].copy()))
                began = clock()
                actions, _ = self.policy.act_batch(
                    feats, masks, self.rng, self.rng is None
                )
                span("policy.forward", began)
                began = clock()
                encoder.join(*featurizer.decode_pair(int(actions[0])))
                span("featurize.decode", began)
            tree = state.tree()
            began = clock()
            planner.evaluate_tree(tree, query)
            span("planner.evaluate_tree", began)
            if self.guardrail is not None:
                began = clock()
                planner.optimize(query)
                span("planner.optimize", began)
        if entry is None:
            began = clock()
            self.cache.put(fp, (tree, names), tables=query.relations.values())
            span("cache.put", began)
        span_id, name, start, _, parent, request = log.spans[root]
        log.spans[root] = (span_id, name, start, clock(), parent, request)
        return covered * 1e3


def _renamed(tree, rename: Dict[str, str]):
    from repro.db.plans import JoinTree

    if tree.is_leaf:
        return JoinTree.leaf(rename[tree.alias])
    return JoinTree.join(_renamed(tree.left, rename), _renamed(tree.right, rename))


def mean_ms(call, repeats: float) -> float:
    repeats = max(2, round(repeats))
    start = time.perf_counter()
    for _ in range(repeats):
        call()
    return (time.perf_counter() - start) / repeats * 1e3


def policy_metrics(
    policy, rows: Sequence[tuple], scale: float = 1.0, rng=None
) -> Dict[str, float]:
    """Forward pass on 1 and on 32 real states, the arithmetic a state
    costs, and one optimizer step of the same network on 64 states."""
    states = np.stack([r[0] for r in rows] * (32 // len(rows) + 1))[:32]
    masks = np.stack([r[1] for r in rows] * (32 // len(rows) + 1))[:32]
    greedy = rng is None
    net = copy.deepcopy(policy.net)
    batch = np.concatenate([states, states])
    target = np.zeros((len(batch), policy.n_actions))
    weights = [w for w in policy.net.net.params.values() if w.ndim == 2]
    return {
        "policy.forward_ms_b1": mean_ms(
            lambda: policy.act_batch(states[:1], masks[:1], rng, greedy), 200 * scale
        ),
        "policy.forward_ms_b32": mean_ms(
            lambda: policy.act_batch(states, masks, rng, greedy), 50 * scale
        ),
        # Computed from the layer shapes (a multiply and an add per
        # weight), not counted by the program.
        "policy.flops_per_state": float(sum(2 * w.shape[0] * w.shape[1] for w in weights)),
        "nn.train_step_ms": mean_ms(
            lambda: net.train_step(batch, lambda out: mse_loss(out, target)), 20 * scale
        ),
    }


def batching_metrics(policy, featurizer, db, queries: Sequence) -> Dict[str, float]:
    """``MicroBatchEngine.rollout`` per query, alone and 32 at a time."""
    fit = [q for q in queries if q.n_relations <= featurizer.max_relations]
    fit = (fit * (64 // len(fit) + 1))[:64]
    engine = MicroBatchEngine(copy.deepcopy(policy), featurizer, db)
    alone = [fresh(q) for q in fit]
    start = time.perf_counter()
    for query in alone:
        engine.rollout([query])
    b1 = (time.perf_counter() - start) / len(fit) * 1e3
    together = [fresh(q) for q in fit]
    passes = engine.forward_passes
    start = time.perf_counter()
    for at in range(0, len(together), 32):
        engine.rollout(together[at : at + 32])
    b32 = (time.perf_counter() - start) / len(fit) * 1e3
    rollouts = (len(together) + 31) // 32
    return {
        "batching.rollout_ms_b1": b1,
        "batching.rollout_ms_b32": b32,
        "batching.amortization": b1 / b32,
        "batching.rounds_per_rollout": (engine.forward_passes - passes) / rollouts,
    }


def cache_invalidate_ms(queries: Sequence) -> float:
    """``PlanCache.invalidate_tables`` on a full default-size cache
    tagged with the sample's table sets, for its most common table."""
    tables = [frozenset(q.relations.values()) for q in queries]
    counts: Dict[str, int] = {}
    for tagged in tables:
        for table in tagged:
            counts[table] = counts.get(table, 0) + 1
    common = max(sorted(counts), key=counts.get)
    total = 0.0
    repeats = 5
    for _ in range(repeats):
        cache = PlanCache()
        for i in range(cache.capacity):
            cache.put(f"key-{i}", None, tables=tables[i % len(tables)])
        start = time.perf_counter()
        cache.invalidate_tables([common])
        total += time.perf_counter() - start
    return total / repeats * 1e3


def db_analyze_ms(db) -> float:
    """A table-scoped re-ANALYZE, as ``refresh_statistics`` issues it,
    on a private copy of the database."""
    private = copy.deepcopy(db)
    tables = sorted(private.tables)[:4]
    start = time.perf_counter()
    for table in tables:
        private.analyze(seed=1, sample_size=30_000, tables=[table])
    return (time.perf_counter() - start) / len(tables) * 1e3


def transport_roundtrip_us(query, served, scale: float = 1.0) -> float:
    """A real one-request batch message and its reply, echoed through
    two ``FrameConn`` endpoints over an in-process pipe pair."""
    near, far = multiprocessing.Pipe(duplex=True)
    client, worker = FrameConn(near), FrameConn(far)
    request = {
        "queries": [query],
        "fps": [served.fingerprint],
        "maps": [canonical_alias_map(query)],
        "budgets": [None],
        "collect": [False],
        "trace": [False],
    }
    reply = {"plans": [served], "version": 1, "events": [None]}

    def roundtrip() -> None:
        client.send(K_BATCH, request)
        worker.recv()
        worker.send(K_RESULT, reply)
        client.recv()

    try:
        return mean_ms(roundtrip, 200 * scale) * 1e3
    finally:
        client.close()
        worker.close()


def counter_metrics(counters: Dict[str, float], sent: int) -> Dict[str, float]:
    """Ratios and counts from what ``frontend.counters()`` gained over
    a pass."""

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    c = counters.get
    shards = [v for k, v in sorted(counters.items()) if k.startswith("shard")]
    expert_lookups = (
        c("guardrail_decisions", 0) + c("served_from_fallback", 0) + c("served_from_expert", 0)
    )
    guarded = c("served_from_fallback", 0) + c("served_from_expert", 0) > 0
    moved = c("transport_bytes_pipe", 0) + c("transport_bytes_shm", 0)
    return {
        "frontend.flush_occupancy": share(c("flushed", 0), c("frontend_flushes", 0)),
        "frontend.served_occupancy": share(
            c("batched", 0), c("frontend_served_batches", 0)
        ),
        "frontend.retries": c("frontend_retries", 0),
        "frontend.rejected": c("frontend_rejected", 0),
        "sharding.imbalance": share(max(shards), sum(shards) / len(shards)),
        "cache.hit_share": share(
            c("cache_hits", 0), c("cache_hits", 0) + c("cache_misses", 0)
        ),
        "cache.evictions": c("cache_evictions", 0),
        "cache.invalidated_entries": c("cache_invalidations_partial", 0),
        "batching.states_per_pass": share(c("states_scored", 0), c("forward_passes", 0)),
        "planner.memo_hit_share": share(
            c("costmemo_hits", 0), c("costmemo_hits", 0) + c("costmemo_misses", 0)
        ),
        "router.fallback_share": share(c("served_from_fallback", 0), c("requests", 0)),
        "router.expert_memo_hit_share": (
            1.0 - share(c("expert_plans", 0), expert_lookups) if guarded else 0.0
        ),
        "transport.bytes_per_request": share(moved, sent),
        "transport.shm_share": share(c("transport_bytes_shm", 0), moved),
        "transport.shm_fallbacks": c("transport_shm_fallbacks", 0),
    }


def replay_metrics(log: SpanLog) -> Dict[str, float]:
    return {
        "fingerprint.us": log.median_us("fingerprint"),
        "cache.get_us": log.median_us("cache.get"),
        "cache.put_us": log.median_us("cache.put"),
        "db.cardinalities_us": log.median_us("db.cardinalities"),
        "featurize.encoder_init_us": log.median_us("featurize.encoder_init"),
        "featurize.state_us": log.median_us("featurize.state"),
        "featurize.decode_us": log.median_us("featurize.decode"),
        "planner.evaluate_tree_us": log.median_us("planner.evaluate_tree"),
    }


def complete(measured: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    """Every per-layer metric BENCHMARK.json names, with its unit. A
    workload that does not exercise a layer reports 0 for it, because
    the driver wants every name from every workload."""
    listed = {m["name"]: m["unit"] for m in json.loads(BENCHMARK.read_text())["per_layer"]}
    unknown = set(measured) - set(listed)
    if unknown:
        raise KeyError(f"layer metrics BENCHMARK.json does not list: {sorted(unknown)}")
    return {
        name: {"value": float(measured.get(name, 0.0)), "unit": unit}
        for name, unit in listed.items()
    }
