"""Tests for repro.workloads: imdb schema, JOB-lite templates, generator."""

import numpy as np
import pytest

from repro.optimizer.planner import Planner
from repro.workloads.generator import RandomQueryGenerator, Workload
from repro.workloads.imdb import imdb_foreign_keys, imdb_specs, make_imdb_database
from repro.workloads.job import (
    FAMILIES,
    FIGURE_3B_QUERIES,
    job_lite_queries,
    job_lite_query,
    job_lite_workload,
)


@pytest.fixture(scope="module")
def tiny_imdb():
    """A very small JOB-lite instance for fast workload tests."""
    return make_imdb_database(scale=0.02, seed=5, sample_size=5000)


class TestImdbSchema:
    def test_seventeen_tables(self):
        assert len(imdb_specs()) == 17

    def test_scale_controls_rows(self):
        small = {s.name: s.n_rows for s in imdb_specs(0.1)}
        large = {s.name: s.n_rows for s in imdb_specs(1.0)}
        assert small["title"] < large["title"]
        # dimension tables are fixed-size
        assert small["kind_type"] == large["kind_type"] == 7

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            imdb_specs(0)

    def test_fk_graph_connected(self):
        from repro.db.schema import DatabaseSchema

        specs = imdb_specs(0.02)
        schema = DatabaseSchema(
            tables={s.name: s.to_schema() for s in specs},
            foreign_keys=imdb_foreign_keys(),
        )
        graph = schema.join_graph()
        reached, frontier = set(), [next(iter(graph))]
        while frontier:
            table = frontier.pop()
            if table not in reached:
                reached.add(table)
                frontier.extend(graph[table])
        assert reached == set(graph)

    def test_database_builds_and_indexes(self, tiny_imdb):
        assert tiny_imdb.n_tables == 17
        assert tiny_imdb.index_on("title", "id") is not None
        assert tiny_imdb.index_on("cast_info", "movie_id") is not None
        assert tiny_imdb.stats["title"].n_rows == tiny_imdb.tables["title"].n_rows

    def test_fk_consistency(self, tiny_imdb):
        from repro.db.schema import NULL_INT

        for fk in imdb_foreign_keys():
            child = tiny_imdb.tables[fk.src_table].column(fk.src_column)
            parent = set(tiny_imdb.tables[fk.dst_table].column(fk.dst_column))
            child_values = set(child[child != NULL_INT])
            assert child_values <= parent, fk.render()

    def test_skew_present(self, tiny_imdb):
        movie_ids = tiny_imdb.tables["cast_info"].column("movie_id")
        _, counts = np.unique(movie_ids, return_counts=True)
        assert counts.max() > 3 * np.median(counts)


class TestJobLite:
    def test_88_queries(self):
        queries = job_lite_queries()
        assert len(queries) == len(FAMILIES) * 4

    def test_figure_3b_queries_exist(self):
        queries = job_lite_queries()
        for name in FIGURE_3B_QUERIES:
            assert name in queries

    def test_all_queries_connected_and_valid(self, tiny_imdb):
        for query in job_lite_queries().values():
            query.validate_against(tiny_imdb.schema)
            assert query.is_connected(), query.name

    def test_relation_count_spread(self):
        counts = {q.n_relations for q in job_lite_queries().values()}
        assert min(counts) <= 4
        assert max(counts) >= 11

    def test_deterministic(self):
        q1 = job_lite_query("13c")
        q2 = job_lite_query("13c")
        assert q1.sql() == q2.sql()

    def test_variants_differ(self):
        sqls = {job_lite_query(f"5{v}").sql() for v in "abcd"}
        assert len(sqls) >= 2

    def test_unknown_family_rejected(self):
        with pytest.raises(KeyError):
            job_lite_query("99a")

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            job_lite_query("1z")

    def test_self_join_families_use_distinct_aliases(self):
        q = job_lite_query("12a")
        tables = list(q.relations.values())
        assert tables.count("info_type") == 2

    def test_queries_optimizable_and_executable(self, tiny_imdb):
        planner = Planner(tiny_imdb)
        for name in ("1a", "3b", "8c"):
            query = job_lite_query(name)
            result = planner.optimize(query)
            executed = tiny_imdb.execute_plan(result.plan, query, budget_ms=1e7)
            assert not executed.timed_out, name

    def test_workload_container(self):
        wl = job_lite_workload(variants=("a",))
        assert len(wl) == len(FAMILIES)
        assert "1a" in wl
        assert wl["1a"].name == "1a"

    def test_every_query_has_expert_plan(self, tiny_imdb):
        """All 88 JOB-lite queries must optimize without error."""
        planner = Planner(tiny_imdb, geqo_threshold=8)
        for name, query in job_lite_queries().items():
            result = planner.optimize(query)
            assert result.cost.total > 0, name
            assert result.join_tree.aliases == frozenset(query.relations), name

    def test_figure_3b_queries_execute(self, tiny_imdb):
        """The ten Figure 3b queries run to completion under budget."""
        planner = Planner(tiny_imdb, geqo_threshold=8)
        for name in FIGURE_3B_QUERIES:
            query = job_lite_query(name)
            plan = planner.optimize(query).plan
            result = tiny_imdb.execute_plan(plan, query, budget_ms=1e8)
            assert not result.timed_out, name


class TestWorkloadContainer:
    def make(self, n=10):
        queries = [job_lite_query(f"{f}a") for f in range(1, n + 1)]
        return Workload("test", queries)

    def test_duplicate_names_rejected(self):
        q = job_lite_query("1a")
        with pytest.raises(ValueError):
            Workload("dup", [q, q])

    def test_split(self):
        wl = self.make()
        rng = np.random.default_rng(0)
        train, evals = wl.split(0.3, rng)
        assert len(train) + len(evals) == len(wl)
        assert len(evals) == 3
        assert not set(q.name for q in train) & set(q.name for q in evals)

    def test_split_bad_fraction(self):
        with pytest.raises(ValueError):
            self.make().split(1.5, np.random.default_rng(0))

    def test_sample_deterministic(self):
        wl = self.make()
        a = wl.sample(np.random.default_rng(1)).name
        b = wl.sample(np.random.default_rng(1)).name
        assert a == b

    def test_filter(self):
        wl = self.make()
        small = wl.filter(lambda q: q.n_relations <= 5)
        assert all(q.n_relations <= 5 for q in small)

    def test_relation_counts(self):
        counts = self.make().relation_counts()
        assert counts == sorted(set(counts))


class TestRandomQueryGenerator:
    def test_exact_relation_count(self, tiny_imdb):
        gen = RandomQueryGenerator(tiny_imdb)
        rng = np.random.default_rng(0)
        for n in (1, 2, 5, 10, 17):
            q = gen.generate(rng, n)
            assert q.n_relations == n

    def test_generated_queries_connected(self, tiny_imdb):
        gen = RandomQueryGenerator(tiny_imdb)
        rng = np.random.default_rng(1)
        for _ in range(20):
            q = gen.generate(rng, int(rng.integers(2, 9)))
            assert q.is_connected()
            q.validate_against(tiny_imdb.schema)

    def test_single_relation_queries(self, tiny_imdb):
        """§5.3.2: low-relation-count queries must be synthesizable."""
        gen = RandomQueryGenerator(tiny_imdb)
        rng = np.random.default_rng(2)
        q = gen.generate(rng, 1)
        assert q.n_relations == 1
        assert not q.joins

    def test_generated_queries_optimizable(self, tiny_imdb):
        gen = RandomQueryGenerator(tiny_imdb)
        rng = np.random.default_rng(3)
        planner = Planner(tiny_imdb)
        for _ in range(5):
            q = gen.generate(rng, int(rng.integers(2, 7)))
            result = planner.optimize(q)
            assert result.cost.total > 0

    def test_workload_generation(self, tiny_imdb):
        gen = RandomQueryGenerator(tiny_imdb)
        rng = np.random.default_rng(4)
        wl = gen.workload(rng, size=15, relation_range=(2, 6))
        assert len(wl) == 15
        assert all(2 <= q.n_relations <= 6 for q in wl)

    def test_self_joins_get_fresh_aliases(self, tiny_imdb):
        gen = RandomQueryGenerator(tiny_imdb)
        rng = np.random.default_rng(5)
        for _ in range(10):
            q = gen.generate(rng, 12)
            assert len(q.relations) == 12  # aliases unique by construction

    def test_bad_relation_count(self, tiny_imdb):
        gen = RandomQueryGenerator(tiny_imdb)
        with pytest.raises(ValueError):
            gen.generate(np.random.default_rng(0), 0)

    def test_bad_relation_range(self, tiny_imdb):
        gen = RandomQueryGenerator(tiny_imdb)
        with pytest.raises(ValueError):
            gen.workload(np.random.default_rng(0), 5, relation_range=(5, 2))
