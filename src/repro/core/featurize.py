"""ReJOIN state vectorization (paper §3, "State and Actions").

A state during bottom-up join ordering is the current forest of
subtrees plus the query's join and selection predicates. Following the
ReJOIN design:

- **tree vectors** — each subtree occupies one row of a fixed-size
  matrix; the entry for a relation contained in the subtree is
  ``1 / (depth + 1)`` where depth is measured from the subtree root
  (a monotone depth encoding, deeper ⇒ smaller);
- **join-graph features** — a binary upper-triangular table×table
  matrix marking which base-table pairs the query joins;
- **predicate features** — a binary flag per schema column that carries
  a selection predicate, plus a per-table estimated selectivity.

Aliases map to their base table's slot (JOB-style self-joins share a
slot; collisions add, which keeps the encoding well-defined — a
documented simplification of the original per-alias encoding).

Subtrees live in *slots*: initially alias ``k`` (sorted order) occupies
slot ``k``; the action ``(i, j)`` joins slot ``i`` (left) with slot
``j`` and stores the result in ``min(i, j)``. Pair actions are encoded
as a fixed enumeration of ordered slot pairs, so the action layer has a
constant size and invalid pairs are masked.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.db.cardinality import QueryCardinalities
from repro.db.plans import JoinTree
from repro.db.query import Query
from repro.db.schema import DatabaseSchema

__all__ = ["EpisodeEncoder", "QueryFeaturizer", "SlotState"]


class SlotState:
    """The mutable forest-of-subtrees state of one episode.

    Alongside the subtree forest it maintains, per occupied slot, an
    alias bitmask and the union of the join-graph adjacency over the
    slot's members (both from the query's cached
    :meth:`~repro.db.query.Query.join_graph_index`), so
    :meth:`connected` is two integer ANDs instead of a predicate-list
    scan per call.
    """

    def __init__(self, query: Query, max_relations: int) -> None:
        aliases = sorted(query.relations)
        if len(aliases) > max_relations:
            raise ValueError(
                f"query {query.name} has {len(aliases)} relations; featurizer "
                f"supports at most {max_relations}"
            )
        self.query = query
        self.slots: List[JoinTree | None] = [JoinTree.leaf(a) for a in aliases]
        self.slots += [None] * (max_relations - len(aliases))
        jg = query.join_graph_index()
        pad = max_relations - len(aliases)
        # Sorted aliases occupy slots in order, so slot k's mask is bit k.
        self._masks: List[int] = [1 << jg.index[a] for a in aliases] + [0] * pad
        self._nbrs: List[int] = [jg.adjacency[jg.index[a]] for a in aliases] + [0] * pad

    @property
    def occupied(self) -> List[int]:
        return [i for i, t in enumerate(self.slots) if t is not None]

    @property
    def n_subtrees(self) -> int:
        return len(self.occupied)

    @property
    def done(self) -> bool:
        return self.n_subtrees == 1

    def tree(self) -> JoinTree:
        if not self.done:
            raise RuntimeError("episode not finished: multiple subtrees remain")
        return self.slots[self.occupied[0]]

    def join(self, i: int, j: int) -> JoinTree:
        """Join slot i (left) with slot j (right); result goes to min(i, j)."""
        if i == j:
            raise ValueError("cannot join a slot with itself")
        left, right = self.slots[i], self.slots[j]
        if left is None or right is None:
            raise ValueError(f"slot {i if left is None else j} is empty")
        merged = JoinTree.join(left, right)
        lo, hi = min(i, j), max(i, j)
        self.slots[lo] = merged
        self.slots[hi] = None
        self._masks[lo] |= self._masks[hi]
        self._masks[hi] = 0
        self._nbrs[lo] |= self._nbrs[hi]
        self._nbrs[hi] = 0
        return merged

    def connected(self, i: int, j: int) -> bool:
        """True if a join predicate links the two slots' subtrees."""
        if self.slots[i] is None or self.slots[j] is None:
            return False
        return bool(self._nbrs[i] & self._masks[j])


class QueryFeaturizer:
    """Vectorizes (query, forest) states and enumerates pair actions.

    ``include_cardinality=False`` drops the per-subtree log-cardinality
    feature, reverting to the original ReJOIN encoding (structure +
    predicates only) — kept as an ablation switch.
    """

    def __init__(
        self,
        schema: DatabaseSchema,
        max_relations: int = 18,
        include_cardinality: bool = True,
    ) -> None:
        if max_relations < 2:
            raise ValueError("max_relations must be at least 2")
        self.schema = schema
        self.max_relations = max_relations
        self.include_cardinality = include_cardinality
        self.tables: List[str] = schema.table_names
        self.table_index: Dict[str, int] = {t: i for i, t in enumerate(self.tables)}
        self.columns: List[Tuple[str, str]] = [
            (t, c.name) for t, c in schema.all_columns()
        ]
        self.column_index: Dict[Tuple[str, str], int] = {
            tc: i for i, tc in enumerate(self.columns)
        }
        n = len(self.tables)
        self._n_tables = n
        # Each tree row carries the relation-depth encoding plus one
        # normalized log-cardinality feature (the estimated size of the
        # subtree's intermediate result — the key join-ordering signal).
        self._tree_size = max_relations * (n + 1)
        self._graph_size = n * (n - 1) // 2
        self._pred_size = len(self.columns)
        self._sel_size = n
        # Ordered slot pairs (i, j), i != j, in deterministic order.
        self.pair_actions: List[Tuple[int, int]] = [
            (i, j)
            for i in range(max_relations)
            for j in range(max_relations)
            if i != j
        ]
        self.pair_index: Dict[Tuple[int, int], int] = {
            p: k for k, p in enumerate(self.pair_actions)
        }
        # (i, j) -> action id as an array, for vectorized mask assembly.
        self._pair_index_matrix = np.full(
            (max_relations, max_relations), -1, dtype=np.int64
        )
        for k, (i, j) in enumerate(self.pair_actions):
            self._pair_index_matrix[i, j] = k

    # ------------------------------------------------------------------
    @property
    def state_dim(self) -> int:
        return self._tree_size + self._graph_size + self._pred_size + self._sel_size

    @property
    def tree_size(self) -> int:
        """Length of the **tree block**. The state vector is laid out
        ``[tree block | static block]``: the first ``tree_size`` entries
        (the slot matrix, row-major) are all a join action can change;
        the rest (join graph, predicate flags, selectivities) are fixed
        by the query. :class:`EpisodeEncoder` exposes the two blocks;
        whoever splits a weight matrix by them splits it here."""
        return self._tree_size

    @property
    def n_pair_actions(self) -> int:
        return len(self.pair_actions)

    # ------------------------------------------------------------------
    def subtree_vector(self, tree: JoinTree, query: Query) -> np.ndarray:
        """One row of the tree matrix: 1/(depth+1) per contained relation."""
        row = np.zeros(self._n_tables)
        for alias, depth in tree.leaf_depths().items():
            table = query.table_of(alias)
            row[self.table_index[table]] += 1.0 / (depth + 1.0)
        return row

    def _join_graph_features(self, query: Query) -> np.ndarray:
        flags = np.zeros(self._graph_size)
        for pred in query.joins:
            ta = self.table_index[query.table_of(pred.left.alias)]
            tb = self.table_index[query.table_of(pred.right.alias)]
            if ta == tb:
                continue  # self-join on one base table: no off-diagonal slot
            lo, hi = min(ta, tb), max(ta, tb)
            # index of (lo, hi) in the upper triangle
            idx = lo * (2 * self._n_tables - lo - 1) // 2 + (hi - lo - 1)
            flags[idx] = 1.0
        return flags

    def _predicate_features(
        self, query: Query, cards: QueryCardinalities | None
    ) -> Tuple[np.ndarray, np.ndarray]:
        flags = np.zeros(self._pred_size)
        sels = np.ones(self._sel_size)
        for pred in query.selections:
            table = query.table_of(pred.column.alias)
            key = (table, pred.column.column)
            if key in self.column_index:
                flags[self.column_index[key]] = 1.0
        if cards is not None:
            for alias in query.relations:
                info = cards.scan_info(alias)
                idx = self.table_index[query.table_of(alias)]
                sels[idx] = min(sels[idx], info.selectivity)
        return flags, sels

    def featurize(
        self, state: SlotState, cards: QueryCardinalities | None = None
    ) -> np.ndarray:
        """The full state vector for the network."""
        query = state.query
        tree = np.zeros((self.max_relations, self._n_tables + 1))
        for slot, subtree in enumerate(state.slots):
            if subtree is not None:
                tree[slot, : self._n_tables] = self.subtree_vector(subtree, query)
                if cards is not None and self.include_cardinality:
                    rows = cards.rows_for_aliases(subtree.aliases)
                    tree[slot, self._n_tables] = np.log10(max(rows, 1.0)) / 10.0
        flags, sels = self._predicate_features(query, cards)
        return np.concatenate(
            [tree.ravel(), self._join_graph_features(query), flags, sels]
        )

    # ------------------------------------------------------------------
    def pair_mask(self, state: SlotState, forbid_cross_products: bool = True) -> np.ndarray:
        """Validity mask over pair actions for the current forest.

        With ``forbid_cross_products``, only predicate-connected pairs are
        valid whenever at least one such pair exists (cross products stay
        available as a last resort for disconnected join graphs).
        """
        occupied = state.occupied
        mask = np.zeros(self.n_pair_actions, dtype=bool)
        connected_any = False
        entries: List[Tuple[int, bool]] = []
        for i in occupied:
            for j in occupied:
                if i == j:
                    continue
                connected = state.connected(i, j)
                connected_any = connected_any or connected
                entries.append((self.pair_index[(i, j)], connected))
        for idx, connected in entries:
            mask[idx] = connected or not forbid_cross_products
        if forbid_cross_products and not connected_any:
            for idx, _ in entries:
                mask[idx] = True
        return mask

    def decode_pair(self, action: int) -> Tuple[int, int]:
        return self.pair_actions[action]

    def encoder(
        self, state: SlotState, cards: QueryCardinalities | None = None
    ) -> "EpisodeEncoder":
        """A stateful incremental encoder for one episode over ``state``."""
        return EpisodeEncoder(self, state, cards)

    def actions_for_tree(self, tree: JoinTree, query: Query) -> List[int]:
        """The pair-action sequence that reproduces ``tree`` from scratch.

        Used to replay an expert's join order inside the environment
        (learning from demonstration, §5.1).
        """
        state = SlotState(query, self.max_relations)
        slot_of: Dict[frozenset, int] = {
            state.slots[i].aliases: i for i in state.occupied
        }
        actions: List[int] = []
        for join in tree.iter_joins():
            i = slot_of[join.left.aliases]
            j = slot_of[join.right.aliases]
            actions.append(self.pair_index[(i, j)])
            state.join(i, j)
            slot_of[join.aliases] = min(i, j)
        return actions


class EpisodeEncoder:
    """Stateful per-episode featurization — the incremental fast path.

    :meth:`QueryFeaturizer.featurize` rebuilds the whole state vector
    (static query blocks included) on every call, and
    :meth:`QueryFeaturizer.pair_mask` re-derives slot connectivity from
    the join predicates on every call. During an episode only the two
    slot rows touched by a join action actually change, so this encoder:

    - caches the static blocks (join graph, predicate flags,
      selectivities) once at construction;
    - maintains the tree matrix in place, refreshing only the merged
      slot's row and zeroing the freed slot's row on :meth:`join`;
    - maintains a slot-connectivity matrix incrementally — merging two
      slots ORs their connectivity rows, since a predicate links the
      merged forest exactly when it linked either part.

    :meth:`vector` and :meth:`pair_mask` are bitwise-identical to the
    stateless methods (the parity tests assert this); route all joins
    through :meth:`join` so the caches stay consistent.
    """

    def __init__(
        self,
        featurizer: QueryFeaturizer,
        state: SlotState,
        cards: QueryCardinalities | None = None,
    ) -> None:
        f = featurizer
        self.featurizer = f
        self.state = state
        self.cards = cards
        query = state.query
        flags, sels = f._predicate_features(query, cards)
        #: The state vector's last ``state_dim - tree_size`` entries;
        #: never changes during the episode.
        self.static_block = np.concatenate(
            [f._join_graph_features(query), flags, sels]
        )
        self._tree = np.zeros((f.max_relations, f._n_tables + 1))
        #: The state vector's first ``tree_size`` entries: a flat *view*
        #: of the slot matrix, so it is current after every :meth:`join`.
        self.tree_block = self._tree.reshape(-1)
        for slot in state.occupied:
            self._refresh_row(slot)
        self._conn = np.zeros((f.max_relations, f.max_relations), dtype=bool)
        occupied = state.occupied
        if all(state.slots[i].is_leaf for i in occupied):
            slot_of = {state.slots[i].alias: i for i in occupied}
            for pred in query.joins:
                i, j = slot_of[pred.left.alias], slot_of[pred.right.alias]
                if i != j:
                    self._conn[i, j] = self._conn[j, i] = True
        else:  # adopted mid-episode: derive connectivity from scratch
            for i in occupied:
                for j in occupied:
                    if i < j and state.connected(i, j):
                        self._conn[i, j] = self._conn[j, i] = True

    def _refresh_row(self, slot: int) -> None:
        f = self.featurizer
        subtree = self.state.slots[slot]
        row = self._tree[slot]
        row[:] = 0.0
        row[: f._n_tables] = f.subtree_vector(subtree, self.state.query)
        if self.cards is not None and f.include_cardinality:
            rows = self.cards.rows_for_aliases(subtree.aliases)
            row[f._n_tables] = np.log10(max(rows, 1.0)) / 10.0

    def join(self, i: int, j: int) -> JoinTree:
        """Apply the pair action and update every cached block it touches."""
        merged = self.state.join(i, j)
        lo, hi = min(i, j), max(i, j)
        self._conn[lo] |= self._conn[hi]
        self._conn[:, lo] |= self._conn[:, hi]
        self._conn[hi, :] = False
        self._conn[:, hi] = False
        self._conn[lo, lo] = False
        self._refresh_row(lo)
        self._tree[hi] = 0.0
        return merged

    def vector(self) -> np.ndarray:
        """The full state vector (a fresh array, safe to store)."""
        return np.concatenate([self.tree_block, self.static_block])

    def vector_into(self, out: np.ndarray) -> None:
        """Write the state vector into a caller-owned row.

        The micro-batch engines stack many states per forward pass;
        writing straight into the batch matrix skips the per-state
        concatenate-then-stack double copy of :meth:`vector`.
        """
        split = self.tree_block.size
        out[:split] = self.tree_block
        out[split:] = self.static_block

    def pair_mask(self, forbid_cross_products: bool = True) -> np.ndarray:
        """Validity mask over pair actions, from the cached connectivity."""
        mask = np.zeros(self.featurizer.n_pair_actions, dtype=bool)
        self.pair_mask_into(mask, forbid_cross_products)
        return mask

    def pair_mask_into(
        self, out: np.ndarray, forbid_cross_products: bool = True
    ) -> None:
        """Write the pair-action mask into a caller-owned boolean row
        (assumed zeroed or reused — it is fully overwritten)."""
        f = self.featurizer
        out[:] = False
        occupied = np.asarray(self.state.occupied, dtype=np.int64)
        if len(occupied) < 2:
            return
        rows, cols = occupied[:, None], occupied[None, :]
        connected = self._conn[rows, cols]
        if forbid_cross_products and connected.any():
            allowed = connected
        else:
            allowed = np.ones_like(connected)
        np.fill_diagonal(allowed, False)
        out[f._pair_index_matrix[rows, cols][allowed]] = True
