"""Candidate generation for the tuning advisor.

Per query we propose (in the spirit of [Chaudhuri & Narasayya, VLDB'97]
and [Agrawal et al., VLDB'00]):

* single-column indexes on every sargable (column op literal) predicate,
* multi-column indexes: equality columns first, then one range column,
* covering variants: the above plus INCLUDE of all other referenced
  columns of that table,
* foreign-key join indexes (on the join column of the inner side), with
  and without covering includes,
* two-table join views materializing exactly the query's join with its
  referenced columns, stored clustered on the query's seek key (then the
  parent and child ``ID``) when the key has a NOT NULL column — an
  indexed view, costed as a clustered seek — else as a heap.

Each candidate is a one-structure :class:`Configuration` (a view comes
with its cluster), deduplicated by signature across the workload.

Filter columns, join edges and EXISTS correlations are read from the
query's :class:`~repro.sqlast.SelectShape` — the classification the
optimizer plans from; queries arrive qualified, as the translator's do.
"""

from __future__ import annotations

import itertools

from ..engine import Database, Index, JoinViewDefinition
from ..sqlast import Query, SelectShape, shape_of
from .config import Configuration, make_view_candidate

_MAX_KEY_COLUMNS = 3


class CandidateGenerator:
    """Produces deduplicated index and view candidates for a workload."""

    def __init__(self, db: Database):
        self.db = db
        self._seen: set[tuple] = set()      # index and view signatures
        self._counter = itertools.count()

    def _index(self, table: str, keys: tuple[str, ...],
               included: tuple[str, ...] = ()) -> Index | None:
        # The row locator is in every leaf: never INCLUDE the primary key.
        primary_key = self.db.catalog.table(table).primary_key
        included = tuple(sorted(set(included) - set(keys) - {primary_key}))
        signature = (table, keys, included)
        if signature in self._seen:
            return None
        self._seen.add(signature)
        return Index(
            name=f"cand_ix_{next(self._counter)}",
            table_name=table,
            key_columns=keys,
            included_columns=included,
        )

    def for_query(self, query: Query) -> list[Configuration]:
        """The query's new candidates, one structure each: every
        SELECT's indexes, then every SELECT's views."""
        indexes: list[Configuration] = []
        views: list[Configuration] = []
        for select in query.selects:
            shape = shape_of(select)
            indexes += (Configuration([index])
                        for index in self._indexes_for_shape(shape))
            views += self._views_for_shape(shape)
        return indexes + views

    # ------------------------------------------------------------------
    def _indexes_for_shape(self, shape: SelectShape) -> list[Index]:
        out: list[Index] = []
        for alias, table in shape.alias_tables.items():
            eq = shape.key_eq[alias][:_MAX_KEY_COLUMNS]
            ranges = shape.key_range[alias]
            referenced = shape.required[alias]
            keys_variants: list[tuple[str, ...]] = []
            if eq:
                keys_variants.append(eq)
            if ranges:
                keys_variants.append(eq + (ranges[0],))
                if not eq:
                    keys_variants.append((ranges[0],))
            join_cols = [lc if la == alias else rc
                         for la, lc, ra, rc in shape.joins
                         if alias in (la, ra)]
            for join_col in join_cols:
                keys_variants.append((join_col,))
                if eq:
                    keys_variants.append((join_col,) + eq)
            for keys in keys_variants:
                plain = self._index(table, keys)
                if plain is not None:
                    out.append(plain)
                covering = self._index(table, keys,
                                       tuple(referenced - set(keys)))
                if covering is not None:
                    out.append(covering)
        for exists in shape.exists:
            if exists.corr_column is None:
                continue  # nothing the optimizer could probe by
            keys = (exists.corr_column,) + tuple(
                part.left.column for part in exists.eq_parts[:1])
            probe = self._index(exists.table, keys)
            if probe is not None:
                out.append(probe)
        return out

    def _views_for_shape(self, shape: SelectShape) -> list[Configuration]:
        out: list[Configuration] = []
        for la, lc, ra, rc in shape.joins:
            ta, tb = shape.alias_tables[la], shape.alias_tables[ra]
            # Orient: child carries the FK (the non-ID side of the join).
            if lc != "ID" and rc == "ID":
                child_alias, child_table, fk = la, ta, lc
                parent_alias, parent_table = ra, tb
            elif rc != "ID" and lc == "ID":
                child_alias, child_table, fk = ra, tb, rc
                parent_alias, parent_table = la, ta
            else:
                continue
            sides = ((parent_alias, parent_table), (child_alias, child_table))

            def keyable(keys: dict[str, tuple[str, ...]]) -> list:
                # A stored key column holds no NULL: only the columns
                # the mapped schema declares NOT NULL.
                return [(alias, column) for alias, table in sides
                        for column in keys[alias]
                        if not self.db.catalog.table(table)
                        .column(column).nullable]

            # The seek key as _indexes_for_shape keys an index.
            seek = (keyable(shape.key_eq)[:_MAX_KEY_COLUMNS]
                    + keyable(shape.key_range)[:1])
            required = dict(shape.required)
            if seek:
                # Rows are unique on (seek key, parent ID, child ID).
                required[child_alias] = required[child_alias] | {"ID"}
            columns: list[tuple[str, tuple[str, str]]] = []
            view_column: dict[tuple[str, str], str] = {}
            used_names: set[str] = set()
            for alias, table in sides:
                for column in sorted(required[alias]):
                    name = column if column not in used_names else \
                        f"{table}_{column}"
                    used_names.add(name)
                    columns.append((name, (table, column)))
                    view_column[alias, column] = name
            cluster_key: tuple[str, ...] = ()
            if seek:
                # (Once each: the seek may be on an ID.)
                ids = [(parent_alias, "ID"), (child_alias, "ID")]
                cluster_key = tuple(dict.fromkeys(
                    view_column[part] for part in seek + ids))
            definition = JoinViewDefinition(
                parent_table=parent_table, child_table=child_table,
                child_fk_column=fk, columns=tuple(columns))
            signature = (parent_table, child_table, fk,
                         tuple(sorted(c for c, _ in columns)), cluster_key)
            if signature in self._seen:
                continue
            self._seen.add(signature)
            name = f"cand_view_{next(self._counter)}"
            out.append(make_view_candidate(name, definition, self.db,
                                           cluster_key))
        return out
