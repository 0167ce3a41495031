"""Online experience collection for hands-free retraining.

The paper's end state is an optimizer that keeps learning from the
queries it serves ("continuously learning as queries are sent"). The
service records every policy rollout it serves as a full trajectory —
(state, mask, action, terminal reward) plus the ``outcome``/``query``
info the :class:`~repro.core.trainer.Trainer` needs — into this bounded
replay buffer. A periodic job drains the buffer into
``Trainer.replay`` and the policy improves without anyone labelling
anything.

Only a policy rollout that the guardrail judged is collected, so no
serve off the degradation ladder (budgeted-prune DP, greedy) ever
reaches the buffer: its plan is not the plan the policy rolled out.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, List

from repro.rl.env import Trajectory

__all__ = ["ExperienceBuffer"]


class ExperienceBuffer:
    """A bounded FIFO of served-query trajectories.

    Thread-safe: worker shards append while a retraining job drains, so
    mutations and their counters move under one lock.
    """

    def __init__(self, capacity: int = 10_000) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self.added = 0
        self.dropped = 0
        self._lock = threading.Lock()
        self._trajectories: Deque[Trajectory] = deque(maxlen=capacity)

    def __len__(self) -> int:
        with self._lock:
            return len(self._trajectories)

    def add(self, trajectory: Trajectory) -> None:
        with self._lock:
            if len(self._trajectories) == self.capacity:
                self.dropped += 1
            self._trajectories.append(trajectory)
            self.added += 1

    def drain(self) -> List[Trajectory]:
        """Remove and return everything, oldest first."""
        with self._lock:
            out = list(self._trajectories)
            self._trajectories.clear()
            return out

