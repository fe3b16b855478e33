"""Shred XML documents into relational rows under a mapping.

Every element receives a globally unique integer ID in document order;
annotated elements become rows (ID, PID, columns...), inlined leaves
become column values in their owner's row, repetition-split leaves fill
the ``name_1 .. name_k`` columns with the overflow going to the leaf's
own table, and union-distributed owners are routed to the partition
whose condition matches the instance's optional/choice signature.

Streaming
---------

The shredder is a *generator* at its core: :meth:`Shredder.shred_rows`
walks the document and yields one ``(table_name, row)`` pair per
produced row, in emission order, holding only the current root-to-leaf
path of open row contexts. Everything else is a view over that stream:

* :meth:`Shredder.shred` drains it into ``{table: [rows]}`` (the eager
  form — unchanged behaviour);
* :func:`shred_typed_batches` groups it into per-table batches of at
  most ``batch_size`` *typed* rows — each value coerced to its column's
  SQL type as it is written into its row — so peak memory is bounded by
  the batch size, not the document size; :func:`shred_typed_rows`
  drains it eagerly.

Because eager and streaming forms consume the *same* generator, their
rows (values, IDs, and per-table order) are identical by construction.

ID contract
-----------

Element IDs restart at 1 on every ``shred*`` call, so reusing one
:class:`Shredder` produces exactly the rows a fresh instance would —
the invariant :func:`shred_typed_rows` and the execution backends rely
on. A multi-document list inside one call numbers continuously across
the documents; a database is loaded by one call, once.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterator

from ..errors import ShreddingError
from ..xmlkit import Document, Element
from ..xsd import ElementPlan
from .relschema import MappedSchema, conditions_hold

#: Rows buffered per table before a streaming batch is emitted.
DEFAULT_BATCH_SIZE = 5000

#: One emitted (table, row) pair.
RowEvent = tuple[str, tuple]

# What a child element of a content region is to the row being filled.
_ANNOTATED, _LEAF, _SPLIT_LEAF, _INLINE_COMPLEX = range(4)


def _picker(slots: list[int], width: int):
    """``values -> row`` keeping ``slots`` of a ``width``-slot value list."""
    return tuple if slots == list(range(width)) else itemgetter(*slots)


class _Owner:
    """The flat shred plan of one annotated element.

    A row of its table group is a list with one slot per group column,
    filled by slot while the element's region is walked and — when
    ``coerce`` holds the columns' coercers rather than ``None`` — typed
    as it is written. ``partitions`` says which slots each horizontal
    partition keeps.
    """

    __slots__ = ("name", "annotation", "typed", "width", "slot", "coerce",
                 "partitions", "attrs", "value_slot", "region")

    def __init__(self, shredder: "Shredder", plan: ElementPlan, typed: bool):
        schema = shredder.schema
        annotation = schema.mapping.annotation_of(plan.node_id)
        if annotation is None:
            raise ShreddingError(
                f"internal error: node #{plan.node_id} is not annotated")
        group = schema.group(annotation)
        self.name = plan.node.name
        self.annotation = annotation
        self.typed = typed
        self.width = len(group.columns)
        self.slot = {c.name: i for i, c in enumerate(group.columns)}
        self.coerce = [c.sql_type.text_coercer() if typed else None
                       for c in group.columns]
        #: (conditions, table name, values -> row) per partition.
        self.partitions = [
            (p.conditions, p.table_name,
             _picker([self.slot[n] for n in p.column_names], self.width))
            for p in group.partitions]
        self.attrs = shredder._attribute_writes(plan, self)
        #: The value column of an annotated leaf element; such an owner
        #: has no region to fill.
        self.value_slot = None
        self.region = None
        if plan.is_leaf:
            self.value_slot = self.slot[
                schema.storage_of(plan.node_id).value_column]
        else:
            self.region = shredder._region(plan, self)


class _Entry:
    """One child tag of a region: the tree's dispatch entry decorated
    with what the mapping does with that child."""

    __slots__ = ("kind", "plan", "owner", "atoms", "slot", "coerce",
                 "attrs", "column", "split_slots", "target", "region")

    def __init__(self, kind: int, plan: ElementPlan, owner: _Owner, atoms):
        self.kind = kind
        self.plan = plan
        self.owner = owner      # whose row this region fills
        self.atoms = atoms      # OPTION / CHOICE atoms the child shows
        self.slot = self.coerce = self.column = None
        self.attrs = self.split_slots = ()
        #: The child's own ``_Owner`` (annotated; the overflow table of
        #: a split leaf) or region (inlined complex). The first and the
        #: last are compiled when the first such child is met.
        self.target = self.region = None


class _RowState:
    """What routing and repetition split need to remember per row."""

    __slots__ = ("atoms", "split_counts")

    def __init__(self):
        self.atoms: set = set()
        self.split_counts: dict[int, int] = {}


class Shredder:
    """Shreds documents according to one :class:`MappedSchema`.

    The tree's :class:`~repro.xsd.ElementPlan` says how a region's
    children are laid out; the shredder adds, once per annotated node,
    where the mapping puts each of them (``_Owner``). The per-element
    path is lookups in the two.
    """

    def __init__(self, schema: MappedSchema):
        self.schema = schema
        self.tree = schema.tree
        self._owners: dict[tuple[int, bool], _Owner] = {}
        self._next_id = 1

    # ------------------------------------------------------------------
    def shred(self, docs) -> dict[str, list[tuple]]:
        """Shred one document or a list; returns rows per table name."""
        rows: dict[str, list[tuple]] = {name: []
                                        for name in self.schema.table_names}
        for table_name, row in self.shred_rows(docs):
            rows[table_name].append(row)
        return rows

    def shred_rows(self, docs) -> Iterator[RowEvent]:
        """Yield ``(table_name, row)`` pairs in emission order.

        The streaming core: child rows are emitted while their owner's
        region is being filled, and the owner's own row once its region
        is complete, so memory is bounded by the open root-to-leaf path
        (plus the current child subtree), never the document.
        """
        return self._events(docs, typed=False)

    # ------------------------------------------------------------------
    def _batches(self, docs, batch_size: int,
                 typed: bool) -> Iterator[tuple[str, list[tuple]]]:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1 (got {batch_size})")
        buffers: dict[str, list[tuple]] = {}
        for table_name, row in self._events(docs, typed):
            buffer = buffers.setdefault(table_name, [])
            buffer.append(row)
            if len(buffer) >= batch_size:
                del buffers[table_name]
                yield table_name, buffer
        for table_name in self.schema.table_names:
            buffer = buffers.get(table_name)
            if buffer:
                yield table_name, buffer

    def _events(self, docs, typed: bool) -> Iterator[RowEvent]:
        """The one row stream; ``typed`` rows carry column-typed values
        (what a backend loads), untyped rows the document's text."""
        self._next_id = 1
        if isinstance(docs, (Document, Element)):
            docs = [docs]
        out: list[RowEvent] = []
        for doc in docs:
            root = doc.root if isinstance(doc, Document) else doc
            schema_root = self.tree.root
            if root.tag != schema_root.name:
                raise ShreddingError(
                    f"document root <{root.tag}> does not match schema "
                    f"root <{schema_root.name}>")
            owner = self._owner(schema_root.node_id, typed)
            if owner.region is None:
                self._shred_annotated(root, owner, None, out)
            else:
                values, state = self._open_row(root, owner, None), _RowState()
                # Iterating the element itself (not .children) keeps a
                # lazy root's child list unmaterialized, and emitting
                # after every child keeps ``out`` one subtree long.
                for child in root:
                    self._fill_region(root, (child,), owner.region, values,
                                      state, out)
                    yield from out
                    out.clear()
                out.append(self._route(owner, values, state))
            yield from out
            out.clear()

    # ------------------------------------------------------------------
    def _open_row(self, element: Element, owner: _Owner,
                  parent_id: int | None) -> list:
        values: list = [None] * owner.width
        values[0] = self._next_id   # ID, PID lead every table group
        values[1] = parent_id
        self._next_id += 1
        if owner.attrs and element.attribute_map:
            self._write_attributes(element, owner.attrs, values)
        return values

    def _shred_annotated(self, element: Element, owner: _Owner,
                         parent_id: int | None, out: list) -> None:
        values = self._open_row(element, owner, parent_id)
        state = None    # a leaf's table is never partitioned
        if owner.region is None:
            coerce = owner.coerce[owner.value_slot]
            text = element.text
            values[owner.value_slot] = text if coerce is None else coerce(text)
        else:
            state = _RowState()
            self._fill_region(element, element, owner.region, values, state,
                              out)
        out.append(self._route(owner, values, state))

    def _fill_region(self, parent: Element, children,
                     region: dict[str, _Entry], values: list,
                     state: _RowState, out: list) -> None:
        """Fill ``values`` from ``children``, which are ``parent``'s (all
        of them, or the next one of a streamed root)."""
        for child in children:
            entry = region.get(child.tag)
            if entry is None:
                raise ShreddingError(
                    f"unexpected element <{child.tag}> under "
                    f"<{parent.tag}> for this mapping")
            if entry.atoms:
                state.atoms |= entry.atoms
            kind = entry.kind
            if kind == _LEAF:
                slot = entry.slot
                if values[slot] is not None:
                    raise ShreddingError(
                        f"leaf <{child.tag}> occurs more than once in one "
                        f"<{parent.tag}> instance but is mapped to "
                        f"the single column {entry.column!r}; a repeated "
                        f"leaf needs a repetition (split or outlined) in "
                        f"the mapping")
                coerce = entry.coerce
                text = child.text
                values[slot] = text if coerce is None else coerce(text)
                if entry.attrs and child.attribute_map:
                    self._write_attributes(child, entry.attrs, values)
            elif kind == _ANNOTATED:
                if entry.target is None:
                    entry.target = self._owner(entry.plan.node_id,
                                               entry.owner.typed)
                self._shred_annotated(child, entry.target, values[0], out)
            elif kind == _SPLIT_LEAF:
                node_id = entry.plan.node_id
                count = state.split_counts.get(node_id, 0)
                state.split_counts[node_id] = count + 1
                coerce = entry.coerce
                text = child.text
                value = text if coerce is None else coerce(text)
                if count < len(entry.split_slots):
                    values[entry.split_slots[count]] = value
                else:
                    # Overflow: a row of the leaf's own table. Not
                    # _shred_annotated — a split leaf's attributes have
                    # never been stored, inline or in overflow.
                    target = entry.target
                    row: list = [None] * target.width
                    row[0], row[1] = self._next_id, values[0]
                    row[target.value_slot] = value
                    self._next_id += 1
                    out.append(self._route(target, row, None))
            else:  # _INLINE_COMPLEX: the child's region fills this row too
                if entry.attrs and child.attribute_map:
                    self._write_attributes(child, entry.attrs, values)
                if entry.region is None:
                    entry.region = self._region(entry.plan, entry.owner)
                self._fill_region(child, child, entry.region, values, state,
                                  out)

    @staticmethod
    def _write_attributes(element: Element, writes, values: list) -> None:
        attributes = element.attribute_map
        for name, slot, coerce in writes:
            value = attributes.get(name)
            if value is not None:
                values[slot] = value if coerce is None else coerce(value)

    # ------------------------------------------------------------------
    # Compilation: once per annotated node, never per element
    # ------------------------------------------------------------------
    def _owner(self, node_id: int, typed: bool) -> _Owner:
        owner = self._owners.get((node_id, typed))
        if owner is None:
            owner = self._owners[node_id, typed] = _Owner(
                self, self.tree.plan(node_id), typed)
        return owner

    def _attribute_writes(self, plan: ElementPlan, owner: _Owner):
        """(attribute name, slot, coercer) per attribute with a column."""
        writes = []
        for attribute in plan.attributes:
            column = self.schema.column_of_leaf.get(attribute.node.node_id)
            if column is not None:
                slot = owner.slot[column]
                writes.append((attribute.name, slot, owner.coerce[slot]))
        return tuple(writes)

    def _region(self, plan: ElementPlan, owner: _Owner) -> dict[str, _Entry]:
        """``plan.entries`` decorated with the mapping's facts."""
        schema = self.schema
        annotation_map = schema.mapping.annotation_map
        split_map = schema.mapping.split_map
        region: dict[str, _Entry] = {}
        for node, atoms, _, _, rep_id in plan.entries:
            if node.name in region:
                raise ShreddingError(
                    f"ambiguous element name <{node.name}> in one content "
                    f"region; not supported by the shredder")
            child = self.tree.plan(node)
            if rep_id in split_map and child.is_leaf:
                storage = schema.storage_of(node.node_id)
                entry = _Entry(_SPLIT_LEAF, child, owner, atoms)
                entry.split_slots = tuple(owner.slot[c]
                                          for c in storage.split_columns)
                entry.target = self._owner(node.node_id, owner.typed)
                entry.coerce = entry.target.coerce[entry.target.value_slot]
            elif node.node_id in annotation_map:
                entry = _Entry(_ANNOTATED, child, owner, atoms)
            elif child.is_leaf:
                entry = _Entry(_LEAF, child, owner, atoms)
                entry.column = schema.column_of_leaf.get(node.node_id)
                if entry.column is None:
                    raise ShreddingError(
                        f"leaf #{node.node_id} <{node.name}> has no column")
                entry.slot = owner.slot[entry.column]
                entry.coerce = owner.coerce[entry.slot]
                entry.attrs = self._attribute_writes(child, owner)
            else:
                entry = _Entry(_INLINE_COMPLEX, child, owner, atoms)
                entry.attrs = self._attribute_writes(child, owner)
            region[node.name] = entry
        return region

    # ------------------------------------------------------------------
    def _route(self, owner: _Owner, values: list,
               state: _RowState | None) -> RowEvent:
        partitions = owner.partitions
        if len(partitions) == 1:
            _, table_name, pick = partitions[0]
            return table_name, pick(values)
        for conditions, table_name, pick in partitions:
            if conditions_hold(conditions, state.atoms):
                return table_name, pick(values)
        raise ShreddingError(
            f"no partition of {owner.annotation!r} matches instance "
            f"#{values[0]} of <{owner.name}>")


def shred_typed_batches(schema: MappedSchema, docs,
                        batch_size: int = DEFAULT_BATCH_SIZE
                        ) -> Iterator[tuple[str, list[tuple]]]:
    """Stream *typed* row batches per table with bounded memory.

    The streaming twin of :func:`shred_typed_rows`: every value is
    coerced to its column's SQL type as the shredder writes it into its
    row, so any execution backend can load arbitrarily large documents
    while holding at most ``batch_size`` rows per table. Both functions
    share this code path, which is what keeps eager and streaming loads
    byte-identical at the data layer.
    """
    return Shredder(schema)._batches(docs, batch_size, typed=True)


def shred_typed_rows(schema: MappedSchema, docs) -> dict[str, list[tuple]]:
    """Shred documents into *typed* rows per table name.

    Shredded values are text; this applies each column's SQL-type
    coercion, producing the exact rows any execution backend (the
    in-memory engine, SQLite, ...) should load. It drains
    :func:`shred_typed_batches`, so the eager and streaming load paths
    see byte-identical rows by construction.
    """
    typed_by_table: dict[str, list[tuple]] = {
        name: [] for name in schema.table_names}
    for table_name, batch in shred_typed_batches(schema, docs):
        typed_by_table[table_name].extend(batch)
    return typed_by_table


def load_documents(db, schema: MappedSchema, docs,
                   analyze: bool = True,
                   batch_size: int = DEFAULT_BATCH_SIZE) -> None:
    """Shred documents and load (typed) rows into an engine database.

    Tables are created from the mapped schema if absent. Rows stream
    through :func:`shred_typed_batches`, so only the loaded database —
    never a second full copy of the shredded rows — is held in memory.
    """
    existing = set(db.catalog.tables)
    for table in schema.to_engine_tables():
        if table.name not in existing:
            db.register_table(table)
        # Materialize every mapped table (streaming only emits non-empty
        # batches; a zero-row table must still become executable, not
        # stats-only).
        db.insert_rows(table.name, [])
    for table_name, typed in shred_typed_batches(schema, docs, batch_size):
        db.insert_rows(table_name, typed)
    if analyze:
        db.analyze()
        db.build_primary_key_indexes()
