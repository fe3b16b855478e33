"""Sorted outer-union XPath-to-SQL translation (paper Section 1.1, [21]).

Given a :class:`~repro.mapping.MappedSchema`, an XPath query becomes::

    SELECT T.ID, <inline slots>, NULL, ...      -- context branch
    FROM <context partition> T WHERE <pred>
    UNION ALL
    SELECT T.ID, NULL, ..., C.<value>           -- one branch per
    FROM <context partition> T, <child> C       -- child-table projection
    WHERE <pred> AND C.PID = T.ID
    ORDER BY 1

The translator is mapping-aware:

* repetition-split projections occupy ``k`` inline slots plus one
  overflow-branch slot (exactly the paper's Mapping 2 SQL),
* union-distributed tables produce one branch set per *relevant*
  partition — partitions whose columns cannot satisfy the predicate or
  the projection are skipped (the I/O saving the transformation exists
  to provide),
* selections on outlined/overflow leaves become correlated EXISTS
  probes, with repetition-split selections ORing the inline columns with
  the overflow probe.

Supported XPath subset (everything the paper's workloads use): child and
descendant axes, one predicate on the final context step (value
comparison or existence), union projections of leaf paths.

The compared value is read in one place and decides nothing: every
query of one shape gets the same statement up to that constant, so a
*template* (a query whose comparison has no value, see
:class:`repro.xpath.Predicate`) translates to the shared statement with
``sqlast.Parameter(1)`` wherever the constant goes, and
``sqlast.bind(translate(template), (value,))`` is ``translate`` of the
query with the value in.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..errors import TranslationError
from ..mapping import LeafStorage, MappedSchema, PartitionSpec, TableGroup
from ..sqlast import (And, BoolExpr, ColumnRef, Comparison, ComparisonOp,
                      Exists, IsNull, Literal, Or, Parameter, Query, Select,
                      SelectItem, TableRef, conjunction)
from ..xpath import Axis, CompareOp, Predicate, Step, XPathQuery, parse_xpath
from ..xsd import NodeKind, SchemaNode, SchemaTree

_OP_MAP = {
    CompareOp.EQ: ComparisonOp.EQ,
    CompareOp.NE: ComparisonOp.NE,
    CompareOp.LT: ComparisonOp.LT,
    CompareOp.LE: ComparisonOp.LE,
    CompareOp.GT: ComparisonOp.GT,
    CompareOp.GE: ComparisonOp.GE,
}


# ----------------------------------------------------------------------
# Step resolution over the schema tree
# ----------------------------------------------------------------------


def _region_tag_children(tree: SchemaTree, node: SchemaNode) -> list[SchemaNode]:
    """Direct TAG children (crossing constructor nodes, not TAG nodes);
    an attribute has none."""
    if node.kind != NodeKind.TAG:
        return []
    return [entry.node for entry in tree.plan(node).entries]


def _tag_descendants(tree: SchemaTree, node: SchemaNode,
                     name: str) -> list[SchemaNode]:
    out: list[SchemaNode] = []
    stack = [node]
    while stack:
        current = stack.pop()
        for child in _region_tag_children(tree, current):
            if child.name == name:
                out.append(child)
            stack.append(child)
    return out


def resolve_steps(tree: SchemaTree, steps: tuple[Step, ...],
                  start: SchemaNode | None = None) -> list[SchemaNode]:
    """All TAG nodes reached by the location path.

    ``start=None`` evaluates from the virtual document node (absolute
    paths); otherwise relative to ``start``.
    """
    if start is None:
        first = steps[0]
        frontier: list[SchemaNode] = []
        if tree.root.name == first.name:
            frontier.append(tree.root)
        if first.axis == Axis.DESCENDANT:
            frontier.extend(_tag_descendants(tree, tree.root, first.name))
        rest = steps[1:]
    else:
        frontier = [start]
        rest = steps
    for step in rest:
        next_frontier: list[SchemaNode] = []
        for node in frontier:
            if step.name.startswith("@"):
                name = step.name[1:]
                holders = [node]
                if step.axis == Axis.DESCENDANT:
                    stack = [node]
                    while stack:
                        current = stack.pop()
                        kids = _region_tag_children(tree, current)
                        holders.extend(kids)
                        stack.extend(kids)
                for holder in holders:
                    next_frontier.extend(
                        a for a in tree.attributes_of(holder)
                        if a.name == name)
            elif step.axis == Axis.CHILD:
                next_frontier.extend(
                    c for c in _region_tag_children(tree, node)
                    if c.name == step.name)
            else:
                next_frontier.extend(_tag_descendants(tree, node, step.name))
        frontier = next_frontier
    # Deduplicate, preserving order.
    seen: set[int] = set()
    out = []
    for node in frontier:
        if node.node_id not in seen:
            seen.add(node.node_id)
            out.append(node)
    return out


# ----------------------------------------------------------------------
# Slot plans
# ----------------------------------------------------------------------


@dataclass
class _Slot:
    """One output column after the leading ID column."""

    label: str
    # Inline content: column name available in context partitions.
    inline_column: str | None = None
    # Child-table content: (join chain of table names, value column).
    chain: tuple[str, ...] = ()
    chain_column: str | None = None



@dataclass
class _ContextPlan:
    """Translation state for one resolved context node.

    ``owner_id`` is the annotated node whose table group holds the
    context rows (for a repetition-split leaf context this is the
    *parent* region's owner, since the first k occurrences live there).

    ``anchor`` is the node the predicate applies to. When its owner
    table differs from the context's, ``up_chain`` lists the table-group
    annotations joining the context table upward to the anchor's table
    (exclusive of the context group, inclusive of the anchor group).
    """

    node: SchemaNode
    anchor: SchemaNode
    owner_id: int
    group: TableGroup
    partitions: list[PartitionSpec]
    anchor_group: TableGroup
    up_chain: tuple[str, ...] = ()
    # True: the predicate applies to the last up_chain table; False: the
    # up_chain (if any) is a pure discrimination join for a shared
    # (type-merged) context table and the predicate stays on the context.
    anchor_on_up: bool = False
    slots: list[_Slot] = field(default_factory=list)


class Translator:
    """Translate XPath queries to SQL under one mapped schema."""

    def __init__(self, schema: MappedSchema):
        self.schema = schema
        self.tree = schema.tree

    # ------------------------------------------------------------------
    def translate(self, query: XPathQuery | str) -> Query:
        if isinstance(query, str):
            query = parse_xpath(query)
        if query.predicate is not None and \
                query.predicate_step != len(query.steps) - 1:
            # Predicate on an earlier step: resolve anchors first, then
            # the remaining steps relative to each anchor.
            anchors = resolve_steps(
                self.tree, query.steps[:query.predicate_step + 1])
            contexts: list[tuple[SchemaNode, SchemaNode]] = []
            for anchor in anchors:
                for node in resolve_steps(
                        self.tree, query.steps[query.predicate_step + 1:],
                        start=anchor):
                    contexts.append((node, anchor))
        else:
            contexts = [(node, node)
                        for node in resolve_steps(self.tree, query.steps)]
        if not contexts:
            raise TranslationError(
                f"path {query} matches no element of the schema")
        plans = [self._plan_context(node, anchor, query)
                 for node, anchor in contexts]
        plans = self._consolidate(plans)
        total_slots = sum(len(p.slots) for p in plans)
        selects: list[Select] = []
        offset = 0
        for plan in plans:
            selects.extend(self._emit_branches(
                plan, query.predicate, offset, total_slots))
            offset += len(plan.slots)
        if not selects:
            raise TranslationError(
                f"query {query} selects nothing under this mapping")
        order = (1,) if len(selects) > 1 else ()
        return Query(selects=tuple(selects), order_by=order)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def _context_owner(self, node: SchemaNode) -> int:
        """The annotated node whose table group holds the context rows."""
        tree = self.tree
        if tree.is_attribute(node):
            storage = self.schema.storage_of(node.node_id)
            annotation = storage.inline_annotation
            assert annotation is not None
            holder = tree.parent(node)
            assert holder is not None
            return self.schema.owner_of[holder.node_id] \
                if self.schema.mapping.annotation_of(holder.node_id) is None \
                else holder.node_id
        if tree.is_leaf_element(node):
            storage = self.schema.storage_of(node.node_id)
            if storage.is_split or storage.is_inlined:
                # Inline (or split-inline) storage lives in the parent
                # region's table group.
                annotation = storage.inline_annotation
                assert annotation is not None
                group = self.schema.group(annotation)
                # Find which of the group's owners is this leaf's region
                # owner (the nearest annotated strict ancestor).
                ancestor = tree.nearest_tag_ancestor(node)
                while ancestor is not None and \
                        self.schema.mapping.annotation_of(
                            ancestor.node_id) is None:
                    ancestor = tree.nearest_tag_ancestor(ancestor)
                if ancestor is None:
                    raise TranslationError(
                        f"leaf <{node.name}> has no annotated ancestor")
                return ancestor.node_id
        return self.schema.owner_of[node.node_id]

    def _plan_context(self, node: SchemaNode, anchor: SchemaNode,
                      query: XPathQuery) -> _ContextPlan:
        owner_id = self._context_owner(node)
        annotation = self.schema.mapping.annotation_of(owner_id)
        assert annotation is not None
        group = self.schema.group(annotation)

        up_chain: tuple[str, ...] = ()
        anchor_on_up = False
        anchor_group = group
        if anchor is not node:
            anchor_owner = self.schema.owner_of[anchor.node_id]
            if anchor_owner != owner_id:
                up_chain = self._up_chain(owner_id, anchor_owner)
                anchor_group = self.schema.group(up_chain[-1])
                anchor_on_up = True

        plan = _ContextPlan(node=node, anchor=anchor, owner_id=owner_id,
                            group=group, partitions=list(group.partitions),
                            anchor_group=anchor_group, up_chain=up_chain,
                            anchor_on_up=anchor_on_up)
        if query.projections:
            for path in query.projections:
                self._add_projection_slots(plan, node, path)
        else:
            self._add_self_slots(plan, node)
        return plan

    def _consolidate(self, plans: list[_ContextPlan]) -> list[_ContextPlan]:
        """Merge plans over shared (type-merged) tables; add
        discrimination joins where a specific owner is addressed.

        When a path like ``//author`` resolves to every owner of one
        shared table with identical slots, a single scan suffices. When
        only some owners are addressed (``/dblp/inproceedings/author``),
        each plan joins up to its parent table so that rows of the other
        owners are filtered out.
        """
        mapping = self.schema.mapping
        by_group: dict[str, list[_ContextPlan]] = {}
        order: list[str] = []
        for plan in plans:
            if plan.group.annotation not in by_group:
                order.append(plan.group.annotation)
            by_group.setdefault(plan.group.annotation, []).append(plan)
        out: list[_ContextPlan] = []
        for annotation in order:
            bucket = by_group[annotation]
            group = bucket[0].group
            signatures = {
                tuple((s.label, s.inline_column, s.chain, s.chain_column)
                      for s in plan.slots)
                for plan in bucket}
            owners = {plan.owner_id for plan in bucket}
            self_anchored = all(plan.anchor is plan.node and
                                not plan.up_chain for plan in bucket)
            if len(signatures) == 1 and self_anchored and                     len(bucket) == len(owners) and                     owners == set(group.owner_ids):
                out.append(bucket[0])
                continue
            for plan in bucket:
                if len(group.owner_ids) > 1 and not plan.up_chain:
                    parent_owner = mapping.parent_owner_of(plan.owner_id)
                    if parent_owner is None:
                        raise TranslationError(
                            f"cannot discriminate shared table "
                            f"{annotation!r} rows: no parent table")
                    parent_annotation = mapping.annotation_of(parent_owner)
                    assert parent_annotation is not None
                    plan.up_chain = (parent_annotation,)
                    plan.anchor_on_up = False
                out.append(plan)
        return out

    def _up_chain(self, owner_id: int, anchor_owner: int) -> tuple[str, ...]:
        """Table-group annotations from the context's parent owner up to
        (and including) the anchor's owner."""
        tree = self.tree
        mapping = self.schema.mapping
        chain: list[str] = []
        current = tree.nearest_tag_ancestor(tree.node(owner_id))
        while current is not None:
            annotation = mapping.annotation_of(current.node_id)
            if annotation is not None:
                chain.append(annotation)
                if current.node_id == anchor_owner:
                    return tuple(chain)
            current = tree.nearest_tag_ancestor(current)
        raise TranslationError(
            "predicate anchor is not an ancestor table of the context; "
            "not supported")

    # ------------------------------------------------------------------
    # Slots
    # ------------------------------------------------------------------
    def _add_self_slots(self, plan: _ContextPlan, node: SchemaNode) -> None:
        """Slots for a query returning the context elements themselves."""
        tree = self.tree
        if tree.is_value_node(node):
            self._add_leaf_slots(plan, node, node.name)
            return
        # Complex context: return its inline columns (child tables are
        # out of scope for subtree reconstruction; see module docstring).
        for spec in plan.group.columns:
            if spec.name in ("ID", "PID"):
                continue
            plan.slots.append(_Slot(label=spec.name,
                                    inline_column=spec.name))

    def _add_projection_slots(self, plan: _ContextPlan, context: SchemaNode,
                              path: tuple[Step, ...]) -> None:
        targets = resolve_steps(self.tree, path, start=context)
        if not targets:
            # Projection names an element absent from this context's
            # subtree; it contributes an always-NULL slot.
            plan.slots.append(_Slot(label=path[-1].name))
            return
        for target in targets:
            if not self.tree.is_value_node(target):
                raise TranslationError(
                    f"projection <{target.name}> is not a leaf element "
                    f"or attribute")
            self._add_leaf_slots(plan, target, target.name)

    def _add_leaf_slots(self, plan: _ContextPlan, leaf: SchemaNode,
                        label: str) -> None:
        storage = self.schema.storage_of(leaf.node_id)
        owner_annotation = plan.group.annotation
        if storage.is_split and storage.inline_annotation == owner_annotation:
            for column in storage.split_columns:
                plan.slots.append(_Slot(label=column, inline_column=column))
            chain = self._join_chain(plan.owner_id, leaf)
            plan.slots.append(_Slot(label=f"{label}_rest", chain=chain,
                                    chain_column=storage.value_column))
            return
        if storage.is_inlined and storage.inline_annotation == owner_annotation:
            plan.slots.append(_Slot(label=label,
                                    inline_column=storage.column))
            return
        if storage.has_own_table and \
                storage.own_annotation == owner_annotation and \
                leaf.node_id == plan.owner_id:
            # The context *is* the outlined leaf: its value column is
            # inline in its own table.
            plan.slots.append(_Slot(label=label,
                                    inline_column=storage.value_column))
            return
        # Stored away from the context table: follow the join chain.
        chain = self._join_chain(plan.owner_id, leaf)
        column = self._remote_value_column(leaf, storage)
        plan.slots.append(_Slot(label=label, chain=chain,
                                chain_column=column))

    def _remote_value_column(self, leaf: SchemaNode,
                             storage: LeafStorage) -> str:
        if storage.has_own_table:
            assert storage.value_column is not None
            return storage.value_column
        assert storage.column is not None
        return storage.column

    def _join_chain(self, owner_id: int,
                    leaf: SchemaNode) -> tuple[str, ...]:
        """Table names joining the context table down to the leaf's table.

        Walks annotated nodes strictly between the context owner and the
        leaf (inclusive of the leaf's storage owner). Intermediate
        groups must be partition-free; the final group contributes its
        partition that holds the value column.
        """
        schema = self.schema
        storage = schema.storage_of(leaf.node_id)
        final_annotation = (storage.own_annotation
                            if storage.has_own_table
                            else storage.inline_annotation)
        assert final_annotation is not None
        annotated: list[str] = []
        current: SchemaNode | None = leaf
        while current is not None and current.node_id != owner_id:
            annotation = schema.mapping.annotation_of(current.node_id)
            if annotation is not None:
                annotated.append(annotation)
            current = self.tree.nearest_tag_ancestor(current)
        if current is None:
            raise TranslationError(
                f"leaf <{leaf.name}> is not below the context element")
        annotated.reverse()
        if not storage.has_own_table and annotated and \
                annotated[-1] != final_annotation:
            annotated.append(final_annotation)
        if not annotated:
            annotated = [final_annotation]
        tables: list[str] = []
        for i, annotation in enumerate(annotated):
            group = self.schema.group(annotation)
            is_last = i == len(annotated) - 1
            if is_last:
                column = self._remote_value_column(leaf, storage)
                parts = group.partitions_with_column(column)
            else:
                parts = group.partitions
            if len(parts) != 1:
                raise TranslationError(
                    f"join chain through partitioned table group "
                    f"{annotation!r} is not supported")
            tables.append(parts[0].table_name)
        return tuple(tables)

    # ------------------------------------------------------------------
    # Predicate conditions
    # ------------------------------------------------------------------
    def _predicate_condition(self, plan: _ContextPlan,
                             predicate: Predicate,
                             partition: PartitionSpec,
                             anchor_alias: str,
                             alias_counter):
        """WHERE condition for the predicate on one *anchor* partition.

        Returns ``False`` when the predicate can never hold on this
        partition, or the boolean expression otherwise.
        """
        targets = resolve_steps(self.tree, predicate.path, start=plan.anchor)
        if not targets:
            return False
        options: list[BoolExpr] = []
        for leaf in targets:
            if not self.tree.is_value_node(leaf):
                raise TranslationError(
                    f"selection path ends at non-leaf <{leaf.name}>")
            condition = self._leaf_condition(plan, predicate, leaf,
                                             partition, anchor_alias,
                                             alias_counter)
            if condition is not None:
                options.append(condition)
        if not options:
            return False
        if len(options) == 1:
            return options[0]
        return Or(tuple(options))

    def _leaf_condition(self, plan: _ContextPlan, predicate: Predicate,
                        leaf: SchemaNode, partition: PartitionSpec,
                        anchor_alias: str, alias_counter):
        storage = self.schema.storage_of(leaf.node_id)
        anchor_annotation = plan.anchor_group.annotation
        anchor_owner = self.schema.owner_of[plan.anchor.node_id]

        def value_test(ref: ColumnRef) -> BoolExpr:
            if predicate.op is None:
                return IsNull(ref, negated=True)
            # A template's comparison (no value) takes it at run time.
            return Comparison(ref, _OP_MAP[predicate.op],
                              Parameter(1) if predicate.value is None
                              else Literal(predicate.value))

        if storage.is_split and \
                storage.inline_annotation == anchor_annotation:
            parts: list[BoolExpr] = []
            for column in storage.split_columns:
                if column in partition.column_names:
                    parts.append(value_test(ColumnRef(anchor_alias, column)))
            overflow = self._exists_probe(anchor_owner, leaf, storage,
                                          anchor_alias, alias_counter,
                                          value_test)
            parts.append(overflow)
            return Or(tuple(parts)) if len(parts) > 1 else parts[0]
        if storage.is_inlined and \
                storage.inline_annotation == anchor_annotation:
            assert storage.column is not None
            if storage.column not in partition.column_names:
                return None  # statically absent in this partition
            return value_test(ColumnRef(anchor_alias, storage.column))
        return self._exists_probe(anchor_owner, leaf, storage, anchor_alias,
                                  alias_counter, value_test)

    def _exists_probe(self, anchor_owner: int, leaf: SchemaNode,
                      storage: LeafStorage, anchor_alias: str,
                      alias_counter, value_test) -> BoolExpr:
        chain = self._join_chain(anchor_owner, leaf)
        if len(chain) != 1:
            raise TranslationError(
                f"selection on <{leaf.name}> requires a multi-hop probe; "
                f"not supported")
        alias = f"E{next(alias_counter)}"
        column = self._remote_value_column(leaf, storage)
        where = conjunction([
            Comparison(ColumnRef(alias, "PID"), ComparisonOp.EQ,
                       ColumnRef(anchor_alias, "ID")),
            value_test(ColumnRef(alias, column)),
        ])
        inner = Select(
            items=(SelectItem(Literal(1)),),
            from_tables=(TableRef(chain[0], alias),),
            where=where)
        return Exists(inner)

    # ------------------------------------------------------------------
    # Branch emission
    # ------------------------------------------------------------------
    def _emit_branches(self, plan: _ContextPlan,
                       predicate: Predicate | None,
                       offset: int, total_slots: int) -> list[Select]:
        selects: list[Select] = []
        alias_counter = itertools.count(1)
        context_alias = "T"
        anchor_alias = "P" if (plan.up_chain and plan.anchor_on_up) \
            else context_alias

        # Up-chain joins (context table -> ... -> anchor table).
        up_variants: list[tuple[tuple[TableRef, ...], list[BoolExpr],
                                PartitionSpec | None]] = []
        if plan.up_chain:
            refs: list[TableRef] = []
            joins: list[BoolExpr] = []
            previous = context_alias
            for i, annotation in enumerate(plan.up_chain):
                group = self.schema.group(annotation)
                is_last = i == len(plan.up_chain) - 1
                if is_last and plan.anchor_on_up:
                    alias = anchor_alias
                else:
                    alias = f"U{next(alias_counter)}"
                if is_last:
                    for anchor_partition in group.partitions:
                        variant_refs = tuple(
                            refs + [TableRef(anchor_partition.table_name,
                                             alias)])
                        variant_joins = joins + [Comparison(
                            ColumnRef(previous, "PID"), ComparisonOp.EQ,
                            ColumnRef(alias, "ID"))]
                        up_variants.append((variant_refs, variant_joins,
                                            anchor_partition))
                else:
                    if len(group.partitions) != 1:
                        raise TranslationError(
                            "predicate chain through partitioned group "
                            f"{annotation!r} is not supported")
                    refs.append(TableRef(group.partitions[0].table_name,
                                         alias))
                    joins.append(Comparison(
                        ColumnRef(previous, "PID"), ComparisonOp.EQ,
                        ColumnRef(alias, "ID")))
                    previous = alias
        else:
            up_variants.append(((), [], None))

        for context_partition in plan.partitions:
            for up_refs, up_joins, anchor_partition in up_variants:
                pred_partition = (anchor_partition
                                  if anchor_partition is not None
                                  and plan.anchor_on_up
                                  else context_partition)
                if predicate is not None:
                    condition = self._predicate_condition(
                        plan, predicate, pred_partition, anchor_alias,
                        alias_counter)
                    if condition is False:
                        continue
                else:
                    condition = None
                where_parts = list(up_joins)
                if condition is not None:
                    where_parts.append(condition)
                selects.extend(self._branches_for_partition(
                    plan, context_partition, where_parts, up_refs,
                    context_alias, offset, total_slots, alias_counter))
        return selects

    def _branches_for_partition(self, plan: _ContextPlan,
                                partition: PartitionSpec,
                                where_parts: list[BoolExpr],
                                up_refs: tuple[TableRef, ...],
                                context_alias: str, offset: int,
                                total_slots: int,
                                alias_counter) -> list[Select]:
        selects: list[Select] = []
        # Context branch with the inline slots present in this partition.
        inline_items: list[tuple[int, ColumnRef]] = []
        for i, slot in enumerate(plan.slots):
            if slot.inline_column and \
                    slot.inline_column in partition.column_names:
                inline_items.append(
                    (offset + i, ColumnRef(context_alias, slot.inline_column)))
        wants_inline = any(s.inline_column for s in plan.slots)
        if inline_items or (not plan.slots) or \
                (not wants_inline and not any(s.chain for s in plan.slots)):
            selects.append(self._make_select(
                partition.table_name, context_alias,
                conjunction(where_parts), dict(inline_items), total_slots,
                joins=up_refs))
        # One branch per chained (child-table) slot.
        for i, slot in enumerate(plan.slots):
            if not slot.chain:
                continue
            join_aliases = [f"C{next(alias_counter)}" for _ in slot.chain]
            join_conditions: list[BoolExpr] = []
            previous = context_alias
            for table, alias in zip(slot.chain, join_aliases):
                join_conditions.append(
                    Comparison(ColumnRef(alias, "PID"), ComparisonOp.EQ,
                               ColumnRef(previous, "ID")))
                previous = alias
            value_ref = ColumnRef(join_aliases[-1], slot.chain_column)
            where = conjunction(where_parts + join_conditions)
            selects.append(self._make_select(
                partition.table_name, context_alias, where,
                {offset + i: value_ref}, total_slots,
                joins=up_refs + tuple(
                    TableRef(t, a)
                    for t, a in zip(slot.chain, join_aliases))))
        return selects

    def _make_select(self, context_table: str, context_alias: str,
                     where: BoolExpr | None,
                     slot_values: dict[int, ColumnRef],
                     total_slots: int,
                     joins: tuple[TableRef, ...]) -> Select:
        items = [SelectItem(ColumnRef(context_alias, "ID"), alias="ID")]
        for position in range(total_slots):
            value = slot_values.get(position)
            if value is None:
                items.append(SelectItem(Literal(None)))
            else:
                items.append(SelectItem(value))
        return Select(
            items=tuple(items),
            from_tables=(TableRef(context_table, context_alias),) + joins,
            where=where)


def translate_xpath(schema: MappedSchema, xpath: XPathQuery | str) -> Query:
    """Module-level convenience wrapper around :class:`Translator`."""
    return Translator(schema).translate(xpath)
