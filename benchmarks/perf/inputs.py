"""Workload definitions and seeded input generation.

Everything the program under test receives is built here from the
benchmark's ``--seed``; the seed itself never crosses into ``repro``.
The fixed configuration (database, featurizer, policy size, planner
threshold, front-end defaults) is the one ISSUE 11 pins for every
serving workload, so two commits are compared on identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

import numpy as np

from repro.db.predicates import ColumnRef, JoinPredicate, predicate_signature
from repro.db.query import AggregateSpec, Query
from repro.workloads import job_lite_workload, make_imdb_database
from repro.workloads.generator import RandomQueryGenerator

DB_SCALE = 0.05
DB_SEED = 42
DB_SAMPLE_SIZE = 10_000
MAX_RELATIONS = 10
#: Serving-size policy (inference cost does not depend on weight values).
POLICY_HIDDEN = (512, 256)
AGENT_SEED = 0
GEQO_THRESHOLD = 8
#: Largest JOB-lite query the training featurizer must hold.
MAX_TRAIN_RELATIONS = 11

#: Streams that are the same on every run, whatever ``--seed`` says: the
#: warm-up that precedes timing and the audit sample whose plans are
#: compared across commits (``plan_cost_ratio``, ``plan_digest``).
WARM_SEED = 10_007
AUDIT_SEED = 20_011
#: ``train``: seed of the fixed-length audit training run.
AUDIT_TRAIN_SEED = 7
ZIPF_EXPONENT = 1.1


@dataclass(frozen=True)
class Spec:
    """One named traffic mix. ``window`` is the number of requests the
    single generator thread keeps outstanding (1 = the lone closed
    loop, calling ``frontend.optimize``)."""

    name: str
    kind: str = "serving"  # or "train"
    window: int = 1
    executor: str = "thread"
    guardrail: float | None = None
    relations: Tuple[int, int] = (4, 10)
    #: Distinct queries generated for the timed stream (``train``:
    #: episodes, 0 for no limit). The run stops at ``--seconds`` or when
    #: the stream is used up, whichever is first.
    stream: int = 0
    #: > 0: requests are Zipf draws over this many templates, half of
    #: them as alias-renamed twins, instead of distinct queries.
    templates: int = 0
    #: Requests between ``refresh_statistics(tables=[t])`` calls.
    refresh_every: int = 0
    #: Sizes of what surrounds the timed stream: the warm-up stream, the
    #: audit sample and how many of it are executed, the requests held
    #: back for the stepped replay, the episodes of the audit training
    #: run, and a scale on the repeat counts of the layer loops.
    warm: int = 96
    audit: int = 64
    executions: int = 16
    replay: int = 192
    audit_episodes: int = 256
    repeats: float = 1.0


#: BENCHMARK.json records why each workload is there; README.md says more.
WORKLOADS = (
    Spec("cold_lone", stream=2_400),
    Spec("cold_burst", window=32, stream=6_000),
    Spec("cold_burst_proc", window=32, executor="process", stream=9_000),
    Spec("hot_zipf", window=32, stream=80_000, templates=256, refresh_every=10_000),
    Spec("guarded_burst", window=16, guardrail=1.5, relations=(4, 12), stream=2_000),
    Spec("train", kind="train"),
)
BY_NAME = {w.name: w for w in WORKLOADS}


def selftest(workload: Spec) -> Spec:
    """The same workload at a size that finishes in about a second. The
    stream is short enough to be used up long before ``--seconds``, so a
    busy machine changes how long the self-test takes and not what it
    does."""
    small = replace(
        workload,
        stream=80,
        warm=8,
        audit=8,
        executions=2,
        replay=16,
        audit_episodes=16,
        repeats=0.1,
    )
    if workload.templates:
        small = replace(small, templates=24, stream=400, refresh_every=150)
    return small


def make_database():
    return make_imdb_database(
        scale=DB_SCALE, seed=DB_SEED, sample_size=DB_SAMPLE_SIZE
    )


def _shape_key(query: Query) -> tuple:
    """Equal fingerprints imply equal shape keys (both are alias-free
    renderings of the tables and selections), so de-duplicating on this
    key removes every fingerprint repeat at a tenth of the cost."""
    return (
        tuple(sorted(query.relations.values())),
        tuple(sorted(predicate_signature(p) for p in query.selections)),
    )


def distinct_queries(
    db,
    seed: Sequence[int],
    count: int,
    relations: Tuple[int, int],
    prefix: str,
    seen: set | None = None,
    shuffle: bool = True,
) -> List[Query]:
    """``count`` random queries, no two sharing a fingerprint — nor one
    with any query already recorded in ``seen``.

    Relation counts are dealt, not drawn: every run of ``hi - lo + 1``
    consecutive queries holds each count once — in shuffled order, or
    with ``shuffle=False`` in the same order on every seed, middle
    counts first. A query's cost grows steeply with its relation count,
    so with drawn counts the seed alone moved a slice's throughput by
    several percent.
    """
    rng = np.random.default_rng(list(seed))
    generator = RandomQueryGenerator(db)
    lo, hi = relations
    seen = set() if seen is None else seen
    queries: List[Query] = []
    deal = sorted(range(lo, hi + 1), key=lambda n: abs(2 * n - lo - hi))
    while len(queries) < count:
        for n_relations in rng.permutation(deal) if shuffle else deal:
            while True:
                query = generator.generate(
                    rng, int(n_relations), name=f"{prefix}-{len(queries)}"
                )
                key = _shape_key(query)
                if key not in seen:
                    break
            seen.add(key)
            queries.append(query)
    return queries[:count]


def rename_aliases(query: Query, name: str) -> Query:
    """The same query under fresh alias names (same fingerprint)."""
    alias = {old: f"x{i}" for i, old in enumerate(reversed(sorted(query.relations)))}

    def ref(column: ColumnRef) -> ColumnRef:
        return ColumnRef(alias[column.alias], column.column)

    return Query(
        name=name,
        relations={alias[a]: t for a, t in query.relations.items()},
        selections=[replace(p, column=ref(p.column)) for p in query.selections],
        joins=[JoinPredicate(ref(j.left), ref(j.right)) for j in query.joins],
        group_by=[ref(r) for r in query.group_by],
        aggregates=[
            AggregateSpec(a.func, None if a.column is None else ref(a.column))
            for a in query.aggregates
        ],
    )


def zipf_stream(
    templates: List[Query], seed: Sequence[int], count: int
) -> Tuple[List[Query], List[Query]]:
    """(pool, requests): the pool is every template and its renamed twin
    (served once before timing); requests are ``count`` Zipf draws over
    the templates, each a coin flip between original and twin."""
    twins = [rename_aliases(q, f"{q.name}-twin") for q in templates]
    rng = np.random.default_rng(list(seed))
    weights = 1.0 / np.arange(1, len(templates) + 1) ** ZIPF_EXPONENT
    ranks = rng.choice(len(templates), size=count, p=weights / weights.sum())
    flips = rng.random(count) < 0.5
    requests = [
        twins[r] if flip else templates[r] for r, flip in zip(ranks, flips)
    ]
    return templates + twins, requests


def serving_streams(db, workload: Spec, seed: int):
    """(warm, timed, audit) request lists for one serving workload."""
    audit = distinct_queries(
        db, (AUDIT_SEED,), workload.audit, workload.relations, "audit"
    )
    if workload.templates:
        # A template's rank is its place in this list and the head of a
        # Zipf draw is a sixth of the stream, so the relation count at
        # each rank is the same on every seed.
        templates = distinct_queries(
            db, (seed, 1), workload.templates, workload.relations, "tpl",
            shuffle=False,
        )
        warm, timed = zipf_stream(templates, (seed, 2), workload.stream)
        return warm, timed, audit
    seen: set = set()  # shared: a timed query never repeats a warm-up one
    warm = distinct_queries(
        db, (WARM_SEED,), workload.warm, workload.relations, "warm", seen
    )
    timed = distinct_queries(
        db, (seed, 1), workload.stream, workload.relations, "req", seen
    )
    return warm, timed, audit


def training_queries():
    """(train, held-out) JOB-lite workloads: variants a/b/c and d."""
    keep = lambda q: q.n_relations <= MAX_TRAIN_RELATIONS  # noqa: E731
    return (
        job_lite_workload(variants=("a", "b", "c")).filter(keep),
        job_lite_workload(variants=("d",)).filter(keep),
    )
