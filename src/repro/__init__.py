"""handsfree-qo: a reproduction of "Towards a Hands-Free Query Optimizer
through Deep Learning" (Marcus & Papaemmanouil, CIDR 2019).

Subpackages
-----------
- :mod:`repro.nn` — numpy neural-network library (MLPs, Adam, masked
  softmax, action-layer surgery),
- :mod:`repro.db` — the relational engine substrate (storage, stats,
  cardinality estimation, cost model, executor with simulated latency),
- :mod:`repro.optimizer` — the traditional "expert" optimizer (Selinger
  DP, GEQO genetic search, physical selection),
- :mod:`repro.workloads` — the JOB-lite benchmark (IMDB-shaped schema,
  named templates ``1a``-``22d``, random query generation),
- :mod:`repro.rl` — policy-gradient RL (REINFORCE, PPO),
- :mod:`repro.core` — the paper's contribution: ReJOIN featurization
  and environments, reward signals, trainers for learning from
  demonstration (§5.1), cost-model bootstrapping (§5.2), and
  incremental curricula (§5.3),
- :mod:`repro.serving` — optimizer-as-a-service: plan cache on
  canonical query fingerprints, micro-batched inference, guardrail
  fallback to the expert plan, and online experience collection for
  hands-free retraining.

Command line: ``python -m repro --help`` regenerates the paper's
figures from the terminal; ``benchmarks/perf/run.py`` drives the
serving layer under load. See README.md.
"""

__version__ = "1.0.0"
