"""The serving rollout's inference-only forward pass, against the
stateless loop it replaced: same actions, same recorded states, same
log-probs, on every JOB-lite query the featurizer holds plus random
4-10-relation queries; re-entrancy of ``MLP.infer``; and weight
hot-swaps seen by the very next rollout."""

import copy
import sys
import threading

import numpy as np
import pytest

from repro.core.featurize import QueryFeaturizer, SlotState
from repro.nn.losses import masked_softmax_and_log
from repro.nn.network import MLP
from repro.rl.policy import CategoricalPolicy
from repro.rl.ppo import PPOAgent
from repro.serving import MicroBatchEngine, OptimizerService, ServingConfig
from repro.workloads.generator import RandomQueryGenerator
from repro.workloads.imdb import make_imdb_database
from repro.workloads.job import job_lite_queries

MAX_RELATIONS = 10
N_RANDOM = 210


@pytest.fixture(scope="module")
def imdb():
    return make_imdb_database(scale=0.02, seed=5, sample_size=5000)


@pytest.fixture(scope="module")
def featurizer(imdb):
    return QueryFeaturizer(imdb.schema, max_relations=MAX_RELATIONS)


@pytest.fixture(scope="module")
def policy(featurizer):
    return PPOAgent(
        featurizer.state_dim, featurizer.n_pair_actions, np.random.default_rng(11)
    ).policy


@pytest.fixture(scope="module")
def queries(imdb):
    job = [
        q for q in job_lite_queries().values() if q.n_relations <= MAX_RELATIONS
    ]
    rng = np.random.default_rng(23)
    generator = RandomQueryGenerator(imdb)
    # Counts dealt 4..10 in turn, so every size is covered evenly.
    random = [
        generator.generate(rng, 4 + i % 7, name=f"rand-{i}") for i in range(N_RANDOM)
    ]
    return job + random


def reference_rollout(policy, featurizer, db, queries, greedy=True, rng=None):
    """The stateless lockstep loop the engine's rollout replaced, kept
    as the oracle: every state featurized from scratch, the stashing
    ``forward`` over the whole state vector, masked softmax, argmax over
    probabilities. Returns, per query, its ``(state, mask, action,
    log_prob)`` steps."""
    states = [SlotState(q, featurizer.max_relations) for q in queries]
    cards = [db.cardinalities(q) for q in queries]
    steps = [[] for _ in queries]
    active = [i for i, s in enumerate(states) if not s.done]
    while active:
        feats = np.stack([featurizer.featurize(states[i], cards[i]) for i in active])
        masks = np.stack(
            [featurizer.pair_mask(states[i], forbid_cross_products=False) for i in active]
        )
        probs, log_probs = masked_softmax_and_log(policy.net.forward(feats), masks)
        if greedy:
            actions = np.argmax(probs, axis=1)
        else:
            actions = CategoricalPolicy.sample(probs, rng)
        for row, i in enumerate(active):
            action = int(actions[row])
            steps[i].append((feats[row], masks[row], action, log_probs[row, action]))
            states[i].join(*featurizer.decode_pair(action))
        active = [i for i in active if not states[i].done]
    return steps


@pytest.fixture(scope="module")
def reference(policy, featurizer, imdb, queries):
    return reference_rollout(policy, featurizer, imdb, queries)


def assert_matches(records, reference_steps):
    assert len(records) == len(reference_steps)
    for record, steps in zip(records, reference_steps):
        assert [t.action for t in record.transitions] == [s[2] for s in steps], (
            record.query.name
        )
        for transition, (state, mask, _action, log_prob) in zip(
            record.transitions, steps
        ):
            assert np.array_equal(transition.state, state)
            assert np.array_equal(transition.mask, mask)
            assert abs(transition.log_prob - log_prob) <= 1e-12


class TestRolloutMatchesTheStatelessOracle:
    def test_workload_is_what_it_claims(self, queries):
        sizes = {q.n_relations for q in queries}
        assert sizes >= set(range(4, MAX_RELATIONS + 1))
        assert sum(q.name.startswith("rand-") for q in queries) >= 200

    @pytest.mark.parametrize("group", [1, 7, 32])
    def test_actions_states_and_log_probs(
        self, policy, featurizer, imdb, queries, reference, group
    ):
        engine = MicroBatchEngine(policy, featurizer, imdb)
        for at in range(0, len(queries), group):
            records = engine.rollout(queries[at : at + group])
            assert_matches(records, reference[at : at + group])

    def test_chunked_passes_keep_each_episodes_static_share(
        self, policy, featurizer, imdb, queries, reference
    ):
        # One rollout over everything, 7 rows per pass: chunks change
        # membership as episodes retire, and each row must keep meeting
        # its own query's pre-activation.
        engine = MicroBatchEngine(policy, featurizer, imdb, max_batch_size=7)
        assert_matches(engine.rollout(queries), reference)

    def test_recorded_state_is_the_encoders_vector(
        self, policy, featurizer, imdb, queries
    ):
        sample = queries[::9]
        records = MicroBatchEngine(policy, featurizer, imdb).rollout(sample)
        for query, record in zip(sample, records):
            state = SlotState(query, featurizer.max_relations)
            encoder = featurizer.encoder(state, imdb.cardinalities(query))
            for transition in record.transitions:
                assert np.array_equal(transition.state, encoder.vector())
                assert np.array_equal(transition.mask, encoder.pair_mask(False))
                encoder.join(*featurizer.decode_pair(transition.action))
            assert state.tree().render() == record.tree.render()

    def test_unrecorded_rollout_builds_the_same_trees_and_no_transitions(
        self, policy, featurizer, imdb, queries
    ):
        sample = queries[:40]
        engine = MicroBatchEngine(policy, featurizer, imdb)
        recorded = engine.rollout(sample)
        bare = engine.rollout(sample, record=False)
        assert all(r.transitions == [] for r in bare)
        assert [r.tree.render() for r in bare] == [r.tree.render() for r in recorded]

    def test_sampling_draws_from_the_same_logits(
        self, policy, featurizer, imdb, queries
    ):
        sample = queries[:21]
        expected = reference_rollout(
            policy, featurizer, imdb, sample, greedy=False,
            rng=np.random.default_rng(5),
        )
        records = MicroBatchEngine(policy, featurizer, imdb).rollout(
            sample, greedy=False, rng=np.random.default_rng(5)
        )
        assert_matches(records, expected)

    def test_service_that_collects_nothing_records_nothing(
        self, policy, featurizer, imdb, queries, monkeypatch
    ):
        seen = []
        original = MicroBatchEngine.rollout

        def spy(self, *args, **kwargs):
            records = original(self, *args, **kwargs)
            seen.extend(records)
            return records

        monkeypatch.setattr(MicroBatchEngine, "rollout", spy)
        for collect in (False, True):
            seen.clear()
            service = OptimizerService(
                imdb,
                copy.deepcopy(policy),
                featurizer=featurizer,
                config=ServingConfig(
                    regression_threshold=None, collect_experience=collect
                ),
            )
            service.optimize_batch(queries[:5])
            assert len(seen) == 5
            assert all(bool(r.transitions) == collect for r in seen)


class TestInferIsReentrant:
    def test_same_logits_as_the_stashing_forward(self, policy, reference):
        states = np.stack([s[0] for steps in reference[:20] for s in steps])
        net = copy.deepcopy(policy.net)
        assert np.array_equal(net.infer(states), net.forward(states))
        assert np.array_equal(net.infer(states[0]), net.forward(states[0]))

    def test_infer_stashes_nothing(self):
        net = MLP(6, [8, 5], 3, np.random.default_rng(0), activation="tanh")
        net.infer(np.ones((2, 6)))
        with pytest.raises(RuntimeError, match="backward called before forward"):
            net.net.backward(np.zeros((2, 3)))

    def test_threads_sharing_one_policy_without_a_lock(self, policy, reference):
        # More threads than cores and a short switch interval: every
        # pass is interrupted mid-network by passes on other inputs. A
        # pass that kept anything on the shared layers would read
        # another thread's activations.
        states = np.stack([s[0] for steps in reference[:40] for s in steps])
        shares = np.array_split(states, 4)
        serial = [policy.net.infer(share) for share in shares]
        mismatches = []

        def worker(k):
            for _ in range(40):
                if not np.array_equal(policy.net.infer(shares[k]), serial[k]):
                    mismatches.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(k,)) for k in range(len(shares))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert mismatches == []


class TestHotSwap:
    def test_next_rollout_uses_the_new_weights(self, featurizer, imdb, queries):
        def fresh_policy(seed):
            return PPOAgent(
                featurizer.state_dim,
                featurizer.n_pair_actions,
                np.random.default_rng(seed),
            ).policy

        old, new = fresh_policy(1), fresh_policy(2)
        sample = queries[:30]
        before = reference_rollout(old, featurizer, imdb, sample)
        after = reference_rollout(new, featurizer, imdb, sample)
        assert [[s[2] for s in q] for q in before] != [[s[2] for s in q] for q in after]

        service = OptimizerService(
            imdb, old, featurizer=featurizer,
            config=ServingConfig(regression_threshold=None),
        )
        assert_matches(service.engine.rollout(sample), before)
        service.apply_policy_weights(
            {k: v.copy() for k, v in new.net.net.params.items()}, version=2
        )
        assert_matches(service.engine.rollout(sample), after)
        assert service.policy_version == 2
