"""What a serving process holds: numpy as its one third-party import,
policy copies without training state, and no reference cycles left for
the collector by a served request."""

import gc
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro.core.featurize import QueryFeaturizer
from repro.rl.ppo import PPOAgent, PPOConfig
from repro.serving import ServingConfig, ServingFrontEnd
from repro.workloads.generator import RandomQueryGenerator
from repro.workloads.imdb import make_imdb_database


def test_numpy_is_the_only_third_party_import():
    """In a fresh interpreter, the CLI, a worker process's entry module
    and the workloads pull in no package beyond numpy and the standard
    library (a graph library once cost every process 18 MB)."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import repro.cli, repro.serving.procpool, repro.workloads\n"
        "tops = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "print(' '.join(sorted(t for t in tops - set(sys.stdlib_module_names)\n"
        "                      if not t.startswith('__'))))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["numpy", "repro"]


@pytest.fixture(scope="module")
def imdb():
    return make_imdb_database(scale=0.02, seed=5, sample_size=5000)


@pytest.fixture(scope="module")
def featurizer(imdb):
    return QueryFeaturizer(imdb.schema, max_relations=10)


def make_agent(featurizer):
    return PPOAgent(
        featurizer.state_dim,
        featurizer.n_pair_actions,
        np.random.default_rng(0),
        PPOConfig(hidden=(32,)),
    )


def training_state(policy):
    """The arrays a policy holds beyond its weights and biases."""
    net = policy.net
    held = [layer._grad_weight for layer in net.linear_layers()]
    held += [layer._x for layer in net.linear_layers()]
    held += list(net.optimizer._m.values())
    return [a for a in held if a is not None]


class TestServingCopies:
    def test_a_trained_policy_copies_to_its_weights_alone(self, featurizer):
        agent = make_agent(featurizer)
        policy = agent.policy
        x = np.random.default_rng(1).normal(size=(4, featurizer.state_dim))
        policy.net.train_step(x, lambda out: (0.0, np.ones_like(out)))
        assert training_state(policy)

        copy = policy.serving_copy()
        assert training_state(copy) == []
        for name, weight in policy.net.net.params.items():
            served = copy.net.net.params[name]
            assert np.array_equal(served, weight) and served is not weight
        assert np.array_equal(copy.net.infer(x), policy.net.infer(x))
        assert len(pickle.dumps(copy)) < len(pickle.dumps(policy)) / 2

    def test_served_and_swapped_policies_hold_no_training_state(
        self, imdb, featurizer
    ):
        agent = make_agent(featurizer)
        with ServingFrontEnd.build(imdb, agent, featurizer=featurizer) as frontend:
            (service,) = frontend.services
            assert training_state(service.engine.policy) == []
            params = {k: v + 1.0 for k, v in agent.policy.net.net.params.items()}
            frontend.apply_policy_weights(params, version=2)
            served = service.engine.policy
            assert training_state(served) == []
            for name, value in params.items():
                assert np.array_equal(served.net.net.params[name], value)


@pytest.mark.parametrize("guardrail", [None, 1.5], ids=["learned", "guarded"])
def test_serving_leaves_no_cyclic_garbage(imdb, featurizer, guardrail):
    """Cold queries of 4-10 relations (GEQO from 8), guardrail off and
    on: once warm, a served request frees everything it made by
    reference counting alone."""
    generator = RandomQueryGenerator(imdb)
    rng = np.random.default_rng(11)
    queries = [
        generator.generate(rng, 4 + i % 7, name=f"cold-{i}") for i in range(40)
    ]
    config = ServingConfig(regression_threshold=guardrail)
    with ServingFrontEnd.build(
        imdb,
        make_agent(featurizer),
        featurizer=featurizer,
        serving_config=config,
        planner_kwargs={"geqo_threshold": 8},
    ) as frontend:
        frontend.optimize_batch(queries[:10])
        gc.collect()
        gc.disable()
        try:
            served = frontend.optimize_batch(queries[10:])
            assert gc.collect() == 0
        finally:
            gc.enable()
    assert len(served) == 30
