"""The episode loop with relative-cost tracking (Figure 3a's apparatus).

The trainer runs episodes against any planning environment, batches
them for the agent's policy update, and records — per episode — the
produced plan's cost (and latency when the reward executed it) both
absolutely and relative to the expert planner, which is precisely the
y-axis of Figure 3a ("Plan Cost relative to PostgreSQL").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.reporting import bucket_means, convergence_episode
from repro.core.rewards import ExpertBaseline, PlanOutcome
from repro.db.query import Query
from repro.rl.env import Trajectory
from repro.rl.vector_env import VectorRolloutEngine

__all__ = ["TrainingConfig", "EpisodeRecord", "TrainingLog", "Trainer"]


@dataclass(frozen=True)
class TrainingConfig:
    """Episode budget and batching for the training loop."""

    episodes: int = 1000
    #: Episodes per lockstep wave and per policy update.
    batch_size: int = 8
    max_steps_per_episode: int = 200


@dataclass(frozen=True)
class EpisodeRecord:
    """One episode's outcome."""

    episode: int
    query_name: str
    reward: float
    cost: float | None
    expert_cost: float | None
    latency_ms: float | None
    expert_latency_ms: float | None
    timed_out: bool

    @property
    def relative_cost(self) -> float | None:
        if self.cost is None or not self.expert_cost:
            return None
        return self.cost / self.expert_cost

    @property
    def relative_latency(self) -> float | None:
        if self.latency_ms is None or not self.expert_latency_ms:
            return None
        return self.latency_ms / self.expert_latency_ms


@dataclass
class TrainingLog:
    """Accumulated episode records with Figure-3a style accessors."""

    records: List[EpisodeRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def append(self, record: EpisodeRecord) -> None:
        self.records.append(record)

    # ------------------------------------------------------------------
    def relative_costs(self) -> np.ndarray:
        return np.asarray(
            [r.relative_cost for r in self.records if r.relative_cost is not None]
        )

    def relative_latencies(self) -> np.ndarray:
        return np.asarray(
            [r.relative_latency for r in self.records if r.relative_latency is not None]
        )

    def rewards(self) -> np.ndarray:
        return np.asarray([r.reward for r in self.records])

    def relative_cost_series(self, bucket_size: int = 100) -> List[Tuple[int, float]]:
        """The Figure 3a series: episode bucket -> mean relative cost."""
        return bucket_means(self.relative_costs(), bucket_size)

    def converged_at(self, threshold: float = 1.2, window: int = 100) -> int | None:
        return convergence_episode(self.relative_costs(), threshold, window)

    def timeout_fraction(self, first_n: int | None = None) -> float:
        records = self.records[:first_n] if first_n else self.records
        if not records:
            return 0.0
        return sum(r.timed_out for r in records) / len(records)

    def tail_mean_relative_cost(self, tail: int = 100) -> float:
        rel = self.relative_costs()
        if len(rel) == 0:
            raise ValueError("no relative costs recorded")
        return float(rel[-tail:].mean())

    def tail_median_relative_cost(self, tail: int = 100) -> float:
        """Median is the robust converged-quality summary: exploration
        episodes produce occasional catastrophic outliers that dominate
        a mean without reflecting the learned policy."""
        rel = self.relative_costs()
        if len(rel) == 0:
            raise ValueError("no relative costs recorded")
        return float(np.median(rel[-tail:]))


class Trainer:
    """Runs episodes, updates the agent, and logs relative metrics.

    Episodes are collected in lockstep waves of ``batch_size`` env
    clones with one stacked forward pass per step, so the env must
    ``spawn`` and the agent's ``policy`` must ``act_batch``.
    """

    def __init__(
        self,
        env,
        agent,
        baseline: ExpertBaseline,
        rng: np.random.Generator,
        config: TrainingConfig | None = None,
    ) -> None:
        self.env = env
        self.agent = agent
        self.baseline = baseline
        self.rng = rng
        self.config = config or TrainingConfig()
        self._episode_counter = 0

    # ------------------------------------------------------------------
    def _engine(self) -> VectorRolloutEngine:
        """A lockstep engine over ``batch_size`` env clones.

        Built fresh per call: ``spawn`` captures the env's *current*
        reward source, and trainers like the §5.2 bootstrap swap it
        between runs.
        """
        width = max(1, self.config.batch_size)
        envs = [self.env] + [self.env.spawn() for _ in range(width - 1)]
        return VectorRolloutEngine(envs, self.agent.policy)

    def run(
        self,
        episodes: int | None = None,
        log: TrainingLog | None = None,
        update: bool = True,
    ) -> TrainingLog:
        """Train for ``episodes`` episodes (appending to ``log`` if given)."""
        episodes = episodes or self.config.episodes
        engine = self._engine()
        # Each wave is exactly one update batch, collected under one
        # policy.
        log = log or TrainingLog()
        remaining = episodes
        while remaining > 0:
            wave = min(self.config.batch_size, remaining)
            batch = engine.collect(
                wave,
                self.rng,
                greedy=False,
                max_steps=self.config.max_steps_per_episode,
            )
            for trajectory in batch:
                log.append(self._record(trajectory))
            if update:
                self.agent.update(batch)
            remaining -= wave
        return log

    def replay(
        self,
        trajectories: Sequence[Trajectory],
        log: TrainingLog | None = None,
        update: bool = True,
        events=None,
    ) -> TrainingLog:
        """Learn from trajectories collected elsewhere (the serving
        layer's experience buffer): record each served episode and run
        the same batched policy updates as :meth:`run`. Empty
        trajectories (single-relation queries) are skipped.

        ``events`` (an :class:`~repro.obs.events.EventLog`, or any object
        with ``emit(kind, **payload)``) records the hands-free retraining
        pass in the serving stack's flight recorder: how many
        trajectories were replayed and whether the policy weights were
        actually updated (the swap an operator wants an audit trail of).
        """
        usable = [t for t in trajectories if t.transitions]
        result = self._learn(usable, log, update)
        if events is not None:
            events.emit(
                "retraining_replay",
                trajectories=len(usable),
                skipped=len(trajectories) - len(usable),
                weights_updated=bool(update and usable),
                mean_reward=(
                    round(
                        sum(t.total_reward for t in usable) / len(usable), 6
                    )
                    if usable
                    else None
                ),
            )
        return result

    def _learn(
        self, trajectories, log: TrainingLog | None, update: bool
    ) -> TrainingLog:
        """Record every trajectory and update the agent in batches."""
        log = log or TrainingLog()
        batch: List[Trajectory] = []
        for trajectory in trajectories:
            log.append(self._record(trajectory))
            batch.append(trajectory)
            if update and len(batch) >= self.config.batch_size:
                self.agent.update(batch)
                batch = []
        if update and batch:
            self.agent.update(batch)
        return log

    def _record(self, trajectory: Trajectory) -> EpisodeRecord:
        outcome: PlanOutcome = trajectory.info["outcome"]
        query: Query = trajectory.info["query"]
        self._episode_counter += 1
        expert_latency = (
            self.baseline.latency(query) if outcome.latency_ms is not None else None
        )
        return EpisodeRecord(
            episode=self._episode_counter,
            query_name=query.name,
            reward=trajectory.total_reward,
            cost=outcome.cost,
            expert_cost=self.baseline.cost(query),
            latency_ms=outcome.latency_ms,
            expert_latency_ms=expert_latency,
            timed_out=outcome.timed_out,
        )

    # ------------------------------------------------------------------
    def evaluate(
        self, queries: Sequence[Query], greedy: bool = True
    ) -> Dict[str, EpisodeRecord]:
        """Greedy (mode) evaluation on fixed queries, no learning."""
        queries = list(queries)
        trajectories = self._engine().collect(
            len(queries),
            self.rng,
            greedy=greedy,
            max_steps=self.config.max_steps_per_episode,
            queries=queries,
        )
        return {
            query.name: self._record(trajectory)
            for query, trajectory in zip(queries, trajectories)
        }
