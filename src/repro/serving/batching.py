"""Micro-batched greedy inference over many queries at once.

A serving layer sees bursts of concurrent optimization requests. The
per-query loop (featurize → forward pass of batch 1 → join, repeated
until one tree remains) wastes the policy network's ability to score a
whole matrix of states in one call — ``CategoricalPolicy.probabilities``
already takes ``(states, masks)`` arrays. This engine runs all active
episodes in lockstep: at every round it stacks the changing part of the
state of every unfinished query, makes one batched forward pass (chunked
at ``max_batch_size``), and applies each query's chosen join. Queries
retire as their forests collapse to a single tree, so a burst of mixed
relation counts costs ``max(joins)`` forward passes instead of
``sum(joins)``. The pass is inference-only: nothing is stashed for
backpropagation, and the part of the input layer that a query's static
features feed is computed once per episode, not once per round.

One rollout reads one policy: ``rollout`` takes the policy object once,
and a hot-swap publishes a *new* object instead of writing into a
serving one — the next rollout sees it, a running one cannot, and
nothing on this path takes a lock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from repro.core.featurize import QueryFeaturizer, SlotState
from repro.db.engine import Database
from repro.db.plans import JoinTree
from repro.db.query import Query
from repro.nn.losses import masked_softmax_and_log
from repro.obs.metrics import Histogram
from repro.rl.env import Transition
from repro.rl.policy import CategoricalPolicy

__all__ = ["RolloutRecord", "MicroBatchEngine"]


@dataclass
class RolloutRecord:
    """One query's finished rollout: the join tree plus the transitions
    that produced it (rewards left at 0 for the service to fill in)."""

    query: Query
    tree: JoinTree
    transitions: List[Transition] = field(default_factory=list)


class MicroBatchEngine:
    """Stacked-state greedy rollout for bursts of queries."""

    def __init__(
        self,
        policy: CategoricalPolicy,
        featurizer: QueryFeaturizer,
        db: Database,
        max_batch_size: int = 64,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be at least 1")
        self.policy = policy
        self.featurizer = featurizer
        self.db = db
        self.max_batch_size = max_batch_size
        #: Forward passes made / states scored, for throughput reporting.
        self.forward_passes = 0
        self.states_scored = 0
        #: Per-forward-pass wall-clock latency. Shares the serving
        #: stack's log-bucket histogram implementation.
        self.forward_ms_hist = Histogram(
            "repro_policy_forward_pass_ms", "one batched policy forward pass"
        )
        #: Optional :class:`~repro.serving.faults.FaultInjector`. When
        #: set, ``policy_nan``-kind faults corrupt one forward pass's
        #: logits (keyed by forward ordinal) to exercise the NaN guard
        #: below; ``None`` costs one attribute check per pass.
        self.fault_injector = None

    def rollout(
        self,
        queries: Sequence[Query],
        greedy: bool = True,
        rng: np.random.Generator | None = None,
        record: bool = True,
        policy: CategoricalPolicy | None = None,
    ) -> List[RolloutRecord]:
        """Roll every query to a complete join tree, batching inference.

        Each query gets a stateful :class:`EpisodeEncoder`, so per round
        only the slot rows touched by the previous join are re-derived.
        The network pass is split the same way: a query's static block
        never changes during its episode, so its share of the input
        layer (``static @ W[tree_size:] + b``) is computed once, and a
        round multiplies only the tree block. Greedy actions are the
        argmax over the logits of valid actions (first index wins a
        tie); ``greedy=False`` samples from the same logits.

        ``record=False`` skips building transitions (and the softmax
        behind their log-probs) for callers that only want the trees.

        ``policy`` is the generation to roll out with (a caller that
        stamps answers with a version passes the policy it read with
        that version); omitted, ``self.policy`` as bound right now.
        """
        if policy is None:
            policy = self.policy
        featurizer, net = self.featurizer, policy.net
        states = [SlotState(q, featurizer.max_relations) for q in queries]
        encoders = [
            featurizer.encoder(s, self.db.cardinalities(q))
            for q, s in zip(queries, states)
        ]
        records = [RolloutRecord(query=q, tree=None) for q in queries]
        active = [i for i, s in enumerate(states) if not s.done]
        n_pairs = featurizer.n_pair_actions
        if net.out_features < n_pairs:
            raise ValueError(
                f"featurizer has {n_pairs} pair actions but the network "
                f"only {net.out_features}"
            )
        split = featurizer.tree_size
        first = net.input_layer
        if active:
            # Row slices are views of this generation's array: no copy,
            # and every round below multiplies the same weights.
            w_tree, w_static = first.weight[:split], first.weight[split:]
            pre = np.stack([e.static_block for e in encoders]) @ w_static
            pre += first.bias
        # Allocated once per rollout; every round overwrites its rows.
        width = min(len(active), self.max_batch_size)
        trees = np.empty((width, split))
        # Columns past n_pairs (a grown action layer) stay invalid.
        masks = np.zeros((width, net.out_features), dtype=bool)
        pair_masks = masks[:, :n_pairs]
        hidden = np.empty((width, first.out_features))
        row_ids = np.arange(width)
        pair_actions = featurizer.pair_actions
        while active:
            for start in range(0, len(active), self.max_batch_size):
                chunk = active[start : start + self.max_batch_size]
                n = len(chunk)
                for row, i in enumerate(chunk):
                    encoder = encoders[i]
                    trees[row] = encoder.tree_block
                    # Cross products stay valid actions: any pair joins.
                    encoder.pair_mask_into(pair_masks[row], False)
                valid = masks[:n]
                fwd_start = time.perf_counter()
                np.matmul(trees[:n], w_tree, out=hidden[:n])
                hidden[:n] += pre[chunk]
                logits = net.infer_after_input(hidden[:n])
                self.forward_ms_hist.observe(
                    (time.perf_counter() - fwd_start) * 1000.0
                )
                self.forward_passes += 1
                self.states_scored += n
                if self.fault_injector is not None and self.fault_injector.fires(
                    "policy_nan", f"fwd{self.forward_passes}"
                ):
                    logits = np.full_like(logits, np.nan)
                masked = np.where(valid, logits, -np.inf)
                best = masked.argmax(axis=1)
                # argmax lands on a NaN or +inf if a valid action has
                # one, and on -inf only if no action is valid.
                if not np.isfinite(masked[row_ids[:n], best]).all():
                    # Corrupt weights or activations — serving argmax
                    # over garbage would pick arbitrary joins silently.
                    # Fail the batch so the degradation ladder answers
                    # with a sound plan.
                    raise FloatingPointError(
                        "policy forward pass produced non-finite logits"
                    )
                if record or not greedy:
                    probs, log_probs = masked_softmax_and_log(logits, valid)
                actions = best if greedy else policy.sample(probs, rng)
                for row, (i, action) in enumerate(zip(chunk, actions.tolist())):
                    encoder = encoders[i]
                    if record:
                        records[i].transitions.append(
                            Transition(
                                np.concatenate([trees[row], encoder.static_block]),
                                pair_masks[row].copy(),
                                action,
                                0.0,
                                float(log_probs[row, action]),
                            )
                        )
                    encoder.join(*pair_actions[action])
            active = [i for i in active if not states[i].done]
        for finished, state in zip(records, states):
            finished.tree = state.tree()
        return records
