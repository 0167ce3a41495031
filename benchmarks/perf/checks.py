"""Output checks: what a served plan must satisfy to count as correct.

``plan_signature`` is copied from ``bench_serving_concurrency.py`` (not
imported) so this directory stays self-contained.
"""

from __future__ import annotations

import hashlib
import math
import time
from typing import Dict, List, Sequence

from repro.db.plans import HashJoin, MergeJoin, NestedLoopJoin

#: ``planner.optimize`` is timed per relation-count bucket while the
#: audit computes its expert costs (exhaustive DP below the GEQO
#: threshold of 8, genetic search from there on).
EXPERT_BUCKETS = (("r4-7", 4, 7), ("r8-10", 8, 10), ("r11-12", 11, 12))


def plan_signature(plan) -> tuple:
    """Operator-for-operator plan identity, with each equi-join
    predicate compared as an *unordered* equality: the sub-plan cost
    memo may serve a structurally identical fragment first costed for a
    query that wrote the same predicate with its sides swapped — same
    join, same operators, same cost, different rendering."""
    if isinstance(plan, (HashJoin, MergeJoin, NestedLoopJoin)):
        extra = frozenset(
            tuple(
                sorted(
                    (
                        f"{p.left.alias}.{p.left.column}",
                        f"{p.right.alias}.{p.right.column}",
                    )
                )
            )
            for p in plan.predicates
        )
    else:
        extra = plan.label()
    return (type(plan).__name__, extra) + tuple(
        plan_signature(child) for child in plan.children
    )


def _canonical(signature) -> str:
    """A rendering that does not depend on set iteration order."""
    if isinstance(signature, frozenset):
        return "{" + ",".join(sorted(_canonical(s) for s in signature)) + "}"
    if isinstance(signature, tuple):
        return "(" + ",".join(_canonical(s) for s in signature) + ")"
    return str(signature)


def plan_digest(plans: Sequence) -> str:
    """SHA-1 over every plan's signature, in order: equal digests on two
    commits mean operator-identical plans for the whole audit sample."""
    sha = hashlib.sha1()
    for plan in plans:
        sha.update(_canonical(plan_signature(plan)).encode())
        sha.update(b"\n")
    return sha.hexdigest()


def geometric_mean(ratios: Sequence[float]) -> float:
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios))


class Checks:
    """Named pass/fail checks collected over one run."""

    def __init__(self) -> None:
        self.failures: List[str] = []
        self.passed: List[str] = []

    def expect(self, ok: bool, name: str, detail: str = "") -> None:
        if ok:
            self.passed.append(name)
        else:
            self.failures.append(f"{name}: {detail}" if detail else name)

    @property
    def correct(self) -> bool:
        return not self.failures


def check_leaf_aliases(checks: Checks, queries, plans, name: str) -> None:
    """Each plan reads exactly the relations its query names."""
    wrong = [
        q.name
        for q, plan in zip(queries, plans)
        if plan is not None and plan.aliases != frozenset(q.relations)
    ]
    checks.expect(
        not wrong, name, f"{len(wrong)} plans with wrong leaves, first {wrong[:1]}"
    )


def audit_plans(
    checks: Checks,
    db,
    queries,
    served,
    served_costs: Sequence[float],
    reference,
    planner,
    guardrail: float | None,
    executions: int,
) -> Dict[str, float]:
    """The fixed audit sample, judged three ways.

    ``served`` are the plans that came out of the workload's own path;
    ``reference`` are fresh ``OptimizerService.optimize`` plans for the
    same queries (``None`` skips the parity check). Every served cost is
    compared with a fresh ``planner.optimize`` cost — their geometric
    mean is ``plan_cost_ratio`` — and the ``executions`` smallest
    queries are executed under both plans and must return equally many
    rows. The expert searches are timed on the way (``expert_ms_*``).
    """
    check_leaf_aliases(checks, queries, served, "audit_leaf_aliases")
    if reference is not None:
        differing = [
            q.name
            for q, a, b in zip(queries, served, reference)
            if plan_signature(a) != plan_signature(b)
        ]
        checks.expect(
            not differing,
            "audit_parity_with_fresh_service",
            f"{len(differing)} of {len(queries)} differ, first {differing[:1]}",
        )
    experts = []
    expert_ms: Dict[str, List[float]] = {label: [] for label, _, _ in EXPERT_BUCKETS}
    for query in queries:
        start = time.perf_counter()
        experts.append(planner.optimize(query))
        elapsed = (time.perf_counter() - start) * 1e3
        for label, lo, hi in EXPERT_BUCKETS:
            if lo <= query.n_relations <= hi:
                expert_ms[label].append(elapsed)
    ratios = [
        cost / expert.cost.total for cost, expert in zip(served_costs, experts)
    ]
    if guardrail is not None:
        worst = max(ratios)
        checks.expect(
            worst <= guardrail * (1 + 1e-9),
            "guardrail_bounds_served_cost",
            f"worst served/expert cost {worst:.3f} > {guardrail}",
        )
    smallest = sorted(range(len(queries)), key=lambda i: queries[i].n_relations)
    execute_ms: List[float] = []
    mismatched: List[str] = []
    censored = 0
    for i in smallest[:executions]:
        start = time.perf_counter()
        ours = db.execute_plan(served[i], queries[i])
        theirs = db.execute_plan(experts[i].plan, queries[i])
        execute_ms.append((time.perf_counter() - start) * 500.0)
        if ours.timed_out or theirs.timed_out:
            # The executor censors a plan whose intermediate result
            # passes two million rows; there is no row count to compare.
            censored += 1
        elif ours.rows != theirs.rows:
            mismatched.append(queries[i].name)
    checks.expect(
        not mismatched,
        "audit_execution_row_counts",
        f"row counts differ for {mismatched[:3]}",
    )
    checks.expect(
        censored < max(1, len(execute_ms)),
        "audit_execution_ran",
        "every audit execution was censored",
    )
    result = {
        "plan_cost_ratio": geometric_mean(ratios),
        "execute_ms": sum(execute_ms) / max(1, len(execute_ms)),
        "executions_censored": float(censored),
    }
    for label, samples in expert_ms.items():
        result[f"expert_ms_{label}"] = sum(samples) / len(samples) if samples else 0.0
    return result
