"""Statistics: collect once at the finest granularity, derive everywhere.

Paper Section 4.1: "The search always starts with a fully split schema
... Such a schema allows statistics to be collected on the finest
granularity. Later, any generated schema can be transformed from the
fully split schema by only using merge transformations. Thus, the
statistics of such schema can be accurately derived."

We collect, per schema-tree node, directly from the XML data:

* instance counts of every TAG node,
* value distributions (:class:`~repro.engine.ColumnStats`) of every leaf,
* per-REPETITION cardinality histograms (for repetition-split sizing,
  Section 4.6),
* per-TAG *joint* presence signatures over the optional/choice features
  in its non-repeated region — exactly the statistic needed to size the
  partitions of any (merged) implicit-union candidate exactly, which the
  paper notes is hard to infer in the other direction.

:func:`derive_table_stats` then produces engine ``TableStats`` for the
tables of *any* mapping without touching the data again.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..engine import ColumnStats, TableStats
from ..errors import MappingError
from ..xmlkit import Document, Element, collection_paused
from ..xsd import BaseType, ElementPlan, SchemaTree
from .relschema import MappedSchema, conditions_hold


@dataclass
class CollectedStats:
    """Finest-granularity statistics for one schema tree + data set."""

    total_elements: int = 0
    instance_counts: dict[int, int] = field(default_factory=dict)
    leaf_stats: dict[int, ColumnStats] = field(default_factory=dict)
    cardinality: dict[int, Counter] = field(default_factory=dict)
    joint: dict[int, Counter] = field(default_factory=dict)

    def instances(self, node_id: int) -> int:
        return self.instance_counts.get(node_id, 0)

    def occurrences_at_least(self, rep_id: int, k: int) -> int:
        """#parent instances with >= k occurrences under the repetition."""
        hist = self.cardinality.get(rep_id, Counter())
        return sum(freq for count, freq in hist.items() if count >= k)

    def overflow_count(self, rep_id: int, k: int) -> int:
        """Total occurrences beyond the first ``k`` per parent instance."""
        hist = self.cardinality.get(rep_id, Counter())
        return sum((count - k) * freq for count, freq in hist.items()
                   if count > k)

    def total_occurrences(self, rep_id: int) -> int:
        hist = self.cardinality.get(rep_id, Counter())
        return sum(count * freq for count, freq in hist.items())

    def suggest_split_count(self, rep_id: int, cmax: int = 5,
                            coverage: float = 0.80) -> int | None:
        """Paper Section 4.6: smallest k <= cmax covering ``coverage`` of
        instances; None when the cardinality distribution is not skewed
        enough for repetition split to pay off."""
        hist = self.cardinality.get(rep_id)
        if not hist:
            return None
        total = sum(hist.values())
        max_card = max(hist)
        if max_card <= cmax:
            return max_card if max_card >= 1 else None
        running = 0
        for k in range(0, cmax + 1):
            running += hist.get(k, 0)
            if k >= 1 and running / total >= coverage:
                return k
        if hist.get(0, 0) + sum(f for c, f in hist.items()
                                if 1 <= c <= cmax) >= coverage * total:
            return cmax
        return None


# ----------------------------------------------------------------------
# Collection
# ----------------------------------------------------------------------


class _Collector:
    def __init__(self, tree: SchemaTree):
        self.tree = tree
        self.total_elements = 0
        self.instance_counts: Counter = Counter()
        self.leaf_values: dict[int, list] = {}
        self.cardinality: dict[int, Counter] = {}
        self.joint: dict[int, Counter] = {}
        self._tables: dict[int, dict[str, tuple]] = {}
        self._counted_by_values: list[int] = []

    def run(self, docs) -> CollectedStats:
        if isinstance(docs, (Document, Element)):
            docs = [docs]
        for doc in docs:
            root = doc.root if isinstance(doc, Document) else doc
            if root.tag != self.tree.root.name:
                raise MappingError(
                    f"document root <{root.tag}> does not match schema")
            self._visit_tag(root, self.tree.plan(self.tree.root),
                            collectors_above=[])
        # A leaf its parent's loop records has one value per instance.
        for leaf_id in self._counted_by_values:
            count = len(self.leaf_values[leaf_id])
            self.instance_counts[leaf_id] = count
            self.total_elements += count
        leaf_stats = {}
        for leaf_id, values in self.leaf_values.items():
            leaf = self.tree.node(leaf_id)
            base = self.tree.leaf_base_type(leaf)  # element or attribute
            leaf_stats[leaf_id] = ColumnStats.from_values(
                _typed(base, values), is_string=(base.value == "string"))
        return CollectedStats(
            total_elements=self.total_elements,
            instance_counts=dict(self.instance_counts),
            leaf_stats=leaf_stats,
            cardinality=self.cardinality,
            joint=self.joint,
        )

    # ------------------------------------------------------------------
    def _table(self, plan: ElementPlan) -> dict[str, tuple]:
        """Child tag -> (child plan, atoms, repetition id, leaf id), the
        leaf id set only where the child is a leaf without attributes,
        whose value its parent's loop records in place.

        Where a region declares one name twice, the collector has always
        counted every such child under the last declaration.
        """
        table = {}
        for name, (node, atoms, _, _, rep_id) in plan.last_dispatch.items():
            child = self.tree.plan(node)
            leaf_id = (child.node_id
                       if child.is_leaf and not child.attributes else None)
            table[name] = (child, atoms, rep_id, leaf_id)
        self._tables[plan.node_id] = table
        return table

    def _visit_tag(self, element: Element, plan: ElementPlan,
                   collectors_above: list[set]) -> None:
        self.total_elements += 1
        counts = self.instance_counts
        counts[plan.node_id] += 1
        for attr in plan.attributes:
            value = element.attribute_map.get(attr.name)
            if value is not None:
                counts[attr.node.node_id] += 1
                self._record(attr.node.node_id, value)
        if plan.is_leaf:
            self._record(plan.node_id, element.text)
            return
        signature: set = set()
        collectors = collectors_above + [signature]
        rep_counts: dict[int, int] = dict.fromkeys(plan.repetitions, 0)
        table = self._tables.get(plan.node_id)
        if table is None:
            table = self._table(plan)
        leaf_values = self.leaf_values
        # Iterate the element itself (not .children) so a lazy root's
        # child list is streamed, never materialized.
        for child in element:
            entry = table.get(child.tag)
            if entry is None:
                raise MappingError(
                    f"unexpected element <{child.tag}> under "
                    f"<{element.tag}> while collecting statistics")
            child_plan, atoms, rep_id, leaf_id = entry
            if atoms:
                for target in collectors:
                    target |= atoms
            if rep_id is not None:
                rep_counts[rep_id] += 1
            if leaf_id is not None:
                values = leaf_values.get(leaf_id)
                if values is None:
                    # Made at the leaf's first value, so ``leaf_stats``
                    # and ``instance_counts`` list leaves in the order
                    # they occur; ``run`` fills in the count.
                    values = leaf_values[leaf_id] = []
                    counts[leaf_id] = 0
                    self._counted_by_values.append(leaf_id)
                values.append(child.text)
            elif rep_id is not None:
                self._visit_tag(child, child_plan, collectors_above=[])
            else:
                self._visit_tag(child, child_plan, collectors)
        for rep_id, count in rep_counts.items():
            histogram = self.cardinality.get(rep_id)
            if histogram is None:
                histogram = self.cardinality[rep_id] = Counter()
            histogram[count] += 1
        joint = self.joint.get(plan.node_id)
        if joint is None:
            joint = self.joint[plan.node_id] = Counter()
        joint[frozenset(signature)] += 1

    def _record(self, leaf_id: int, value: str) -> None:
        values = self.leaf_values.get(leaf_id)
        if values is None:
            values = self.leaf_values[leaf_id] = []
        values.append(value)


def _typed(base: BaseType, values: list[str]) -> list:
    """Numeric leaves as numbers (``None`` where the text is not one)."""
    convert = {BaseType.INTEGER: int, BaseType.DECIMAL: float}.get(base)
    if convert is None:
        return values
    typed = []
    for value in values:
        try:
            typed.append(convert(value))
        except ValueError:
            typed.append(None)
    return typed


def collect_statistics(tree: SchemaTree, docs) -> CollectedStats:
    """Collect finest-granularity statistics from documents."""
    with collection_paused():
        return _Collector(tree).run(docs)


# ----------------------------------------------------------------------
# Derivation
# ----------------------------------------------------------------------


def _uniform_int_stats(rows: int, lo: int, hi: int,
                       n_distinct: int | None = None) -> ColumnStats:
    if rows == 0:
        return ColumnStats(row_count=0)
    hi = max(hi, lo)
    buckets = min(32, max(1, rows))
    boundaries = [lo + round((hi - lo) * (b + 1) / buckets)
                  for b in range(buckets)]
    return ColumnStats(
        row_count=rows, null_count=0,
        n_distinct=n_distinct if n_distinct is not None else rows,
        min_value=lo, max_value=hi,
        boundaries=boundaries, bucket_rows=rows / buckets)


class StatsDeriver:
    """Derives per-table statistics for any mapping from collected stats."""

    def __init__(self, collected: CollectedStats):
        self.collected = collected

    # ------------------------------------------------------------------
    def derive(self, schema: MappedSchema) -> dict[str, TableStats]:
        out: dict[str, TableStats] = {}
        for group in schema.groups.values():
            for partition in group.partitions:
                out[partition.table_name] = self._partition_stats(
                    schema, group, partition)
        return out

    # ------------------------------------------------------------------
    def _partition_stats(self, schema, group, partition) -> TableStats:
        tree = schema.tree
        collected = self.collected
        rows = 0
        parent_rows = 0
        leaf_owner = None
        for owner_id in group.owner_ids:
            node = tree.node(owner_id)
            rep = tree.enclosing_repetition(node)
            split = (schema.mapping.split_map.get(rep.node_id)
                     if rep is not None else None)
            if tree.is_leaf_element(node) and split is not None:
                # Overflow table of a repetition split.
                rows += collected.overflow_count(rep.node_id, split)
            else:
                rows += self._matching_instances(owner_id,
                                                 partition.conditions)
            leaf_owner = node
            parent_owner = schema.mapping.parent_owner_of(owner_id)
            if parent_owner is not None:
                parent_rows += collected.instances(parent_owner)

        stats = TableStats(row_count=rows)
        for name in partition.column_names:
            spec = group.column(name)
            stats.columns[name] = self._column_stats(
                schema, group, partition, spec, rows, parent_rows)
        return stats

    def _matching_instances(self, owner_id: int, conditions) -> int:
        collected = self.collected
        if not conditions:
            return collected.instances(owner_id)
        joint = collected.joint.get(owner_id)
        if joint is None:
            return 0
        return sum(freq for signature, freq in joint.items()
                   if conditions_hold(conditions, signature))

    # ------------------------------------------------------------------
    def _column_stats(self, schema, group, partition, spec, rows,
                      parent_rows) -> ColumnStats:
        collected = self.collected
        if spec.name == "ID":
            return _uniform_int_stats(rows, 1, max(collected.total_elements, 1))
        if spec.name == "PID":
            return _uniform_int_stats(
                rows, 1, max(collected.total_elements, 1),
                n_distinct=min(max(parent_rows, 1), max(rows, 1)))
        assert spec.leaf_id is not None
        source = collected.leaf_stats.get(spec.leaf_id)
        if source is None:
            return ColumnStats(row_count=rows, null_count=rows)
        if spec.occurrence is not None:
            # Repetition-split column name_i: non-null iff the parent has
            # >= i occurrences.
            leaf = schema.tree.node(spec.leaf_id)
            rep = schema.tree.enclosing_repetition(leaf)
            assert rep is not None
            non_null = collected.occurrences_at_least(
                rep.node_id, spec.occurrence)
            non_null = min(non_null, rows)
            return source.scaled(rows, new_null_count=rows - non_null)
        # Plain column: presence governed by the leaf's optional/choice
        # ancestors within the owner region.
        non_null = self._leaf_presence(schema, group, partition, spec, rows)
        return source.scaled(rows, new_null_count=max(0, rows - non_null))

    def _leaf_presence(self, schema, group, partition, spec,
                       rows: int) -> int:
        """#rows of the partition where the leaf column is non-null."""
        collected = self.collected
        if schema.tree.is_leaf_element(group.owner_ids[0]):
            return rows  # value column of a leaf's own table
        # Among the partition's instances, those showing every OPTION
        # and CHOICE branch on the path owner -> leaf.
        total = joint_total = 0
        if spec.features:
            for signature, freq in collected.joint.get(
                    group.owner_ids[0], {}).items():
                if conditions_hold(partition.conditions, signature):
                    joint_total += freq
                    if spec.features <= signature:
                        total += freq
        if joint_total == 0:
            # Nothing governs the path (attributes, leaves of
            # always-present elements) or nothing to condition on:
            # presence follows the instance counts.
            owner_count = sum(collected.instances(o)
                              for o in group.owner_ids) or 1
            ratio = collected.instances(spec.leaf_id) / owner_count
            return int(round(rows * min(1.0, ratio)))
        return int(round(rows * total / joint_total))


def derive_table_stats(schema: MappedSchema,
                       collected: CollectedStats) -> dict[str, TableStats]:
    """Convenience wrapper around :class:`StatsDeriver`."""
    return StatsDeriver(collected).derive(schema)
