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
    scan per call, plus the ascending list of occupied slots, so
    :attr:`done` is a length check instead of a scan of every slot.
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
        self._live: List[int] = list(range(len(aliases)))

    @property
    def occupied(self) -> List[int]:
        return list(self._live)

    @property
    def n_subtrees(self) -> int:
        return len(self._live)

    @property
    def done(self) -> bool:
        return len(self._live) == 1

    def tree(self) -> JoinTree:
        if not self.done:
            raise RuntimeError("episode not finished: multiple subtrees remain")
        return self.slots[self._live[0]]

    def join(self, i: int, j: int) -> JoinTree:
        """Join slot i (left) with slot j (right); result goes to min(i, j)."""
        if i == j:
            raise ValueError("cannot join a slot with itself")
        left, right = self.slots[i], self.slots[j]
        if left is None or right is None:
            raise ValueError(f"slot {i if left is None else j} is empty")
        merged = JoinTree.join(left, right)
        lo, hi = (i, j) if i < j else (j, i)
        self.slots[lo] = merged
        self.slots[hi] = None
        self._masks[lo] |= self._masks[hi]
        self._masks[hi] = 0
        self._nbrs[lo] |= self._nbrs[hi]
        self._nbrs[hi] = 0
        self._live.remove(hi)
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
        # For the episode encoders' pair masks: which (i, j) entries of
        # a slot-by-slot matrix are actions (row-major, as above), and
        # the ids of the actions that name each slot.
        self._off_diagonal = ~np.eye(max_relations, dtype=bool)
        self._slot_actions: List[np.ndarray] = [
            np.array(
                [k for k, (i, j) in enumerate(self.pair_actions) if s in (i, j)],
                dtype=np.intp,
            )
            for s in range(max_relations)
        ]

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
        pairs = [(i, j) for i in occupied for j in occupied if i != j]
        if forbid_cross_products and any(state.connected(*p) for p in pairs):
            pairs = [p for p in pairs if state.connected(*p)]
        mask = np.zeros(self.n_pair_actions, dtype=bool)
        mask[[self.pair_index[p] for p in pairs]] = True
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


_DEPTH_SHIFT = 16
_COLUMN_BITS = (1 << _DEPTH_SHIFT) - 1
_ONE_DEEPER = 1 << _DEPTH_SHIFT


class EpisodeEncoder:
    """Stateful per-episode featurization — the incremental fast path.

    :meth:`QueryFeaturizer.featurize` and :meth:`QueryFeaturizer.
    pair_mask` rebuild everything on every call. During an episode only
    the two slots a join touches change, so this encoder:

    - caches the static blocks (join graph, predicate flags,
      selectivities) once at construction;
    - keeps each slot's members' ``(table column, depth)`` in
      :meth:`~repro.db.plans.JoinTree.leaf_depths` walk order, so a
      join rewrites the merged row from the two member lists (depths
      plus one, left before right: the reference's summation order);
    - reads the cardinality column by the slot's :class:`SlotState`
      bitmask from the query's mask-keyed memo
      (:meth:`~repro.db.cardinality.QueryCardinalities.rows_for_mask`);
    - keeps the all-pairs mask and clears the freed slot's actions on a
      join; the cross-product-forbidding mask is read off
      :class:`SlotState`'s neighbour and member bitmasks.

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
        self._rows = (
            cards.rows_for_mask if cards is not None and f.include_cardinality
            else None
        )
        table_index, table_of = f.table_index, query.table_of
        #: Per slot, its members as ``depth << _DEPTH_SHIFT | column``
        #: ints (no per-member tuples for the collector to track).
        self._members: List[List[int] | None] = [None] * f.max_relations
        for slot in state._live:
            tree = state.slots[slot]
            # A leaf's one member is itself at depth 0.
            self._members[slot] = (
                [table_index[table_of(tree.alias)]]
                if tree.is_leaf
                else [
                    depth << _DEPTH_SHIFT | table_index[table_of(alias)]
                    for alias, depth in tree.leaf_depths().items()
                ]
            )
            self._write_row(slot)
        occupied = np.zeros(f.max_relations, dtype=bool)
        occupied[state._live] = True
        self._pairs = np.logical_and.outer(occupied, occupied)[f._off_diagonal]

    def _write_row(self, slot: int) -> None:
        row = self._tree[slot]
        row.fill(0.0)
        sums: Dict[int, float] = {}
        for member in self._members[slot]:
            col = member & _COLUMN_BITS
            sums[col] = sums.get(col, 0.0) + 1.0 / ((member >> _DEPTH_SHIFT) + 1.0)
        for col, value in sums.items():
            row[col] = value
        if self._rows is not None:
            rows = self._rows(self.state._masks[slot])
            row[-1] = np.log10(max(rows, 1.0)) / 10.0

    def join(self, i: int, j: int) -> JoinTree:
        """Apply the pair action and update every cached block it touches."""
        merged = self.state.join(i, j)
        lo, hi = (i, j) if i < j else (j, i)
        members = self._members
        # Left members before right ones: the reference's walk order.
        members[lo] = [
            m + _ONE_DEEPER for part in (members[i], members[j]) for m in part
        ]
        members[hi] = None
        self._write_row(lo)
        self._tree[hi].fill(0.0)
        self._pairs[self.featurizer._slot_actions[hi]] = False
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
        """Validity mask over pair actions for the current forest."""
        mask = np.zeros(self.featurizer.n_pair_actions, dtype=bool)
        self.pair_mask_into(mask, forbid_cross_products)
        return mask

    def pair_mask_into(
        self, out: np.ndarray, forbid_cross_products: bool = True
    ) -> None:
        """Write the pair-action mask into a caller-owned boolean row
        (assumed zeroed or reused — it is fully overwritten)."""
        if forbid_cross_products:
            state = self.state
            live, masks, nbrs = state._live, state._masks, state._nbrs
            pair_index = self.featurizer.pair_index
            ids = [
                pair_index[i, j]
                for i in live
                for j in live
                if i != j and nbrs[i] & masks[j]
            ]
            if ids:
                out[:] = False
                out[ids] = True
                return
        out[:] = self._pairs

