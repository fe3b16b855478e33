"""SQL dialects: render ``repro.sqlast`` trees and catalog DDL.

``str(query)`` already yields SQL that most engines mostly accept, but
a dialect is deliberately explicit about everything where "mostly" is
not good enough:

* **Identifier quoting** — every table/column/alias is ``"quoted"`` so
  schema-derived names can never collide with keywords.
* **Type affinity** — each dialect declares how the engine's logical
  :class:`~repro.engine.SQLType` maps onto physical column types (see
  the per-dialect notes below and docs/backends.md).
* **Covering indexes** — neither SQLite nor DuckDB has an ``INCLUDE``
  clause, so included columns are appended to the key, after the
  table's primary key: ``(key…, ID, included…)``. The index still
  covers the query, and it orders equal keys by ``ID`` as the engine's
  index (and SQL Server's, whose row locator follows the key) does, so
  an equality seek on it delivers ``ID`` order and a statement's
  ``ORDER BY 1`` needs no sort. A plain index needs no ``ID``: SQLite
  already orders its equal keys by rowid.
* **Materialized structures** — join views become populated tables
  (``CREATE TABLE ... AS SELECT``), matching how the engine's size and
  cost accounting treats them; a view with a cluster key is written in
  that key's order, and on SQLite stored as a ``WITHOUT ROWID`` table
  whose primary key is the cluster key.

:class:`SQLiteDialect` (the default; :func:`render_query` renders
through its singleton):

* DATE maps to TEXT affinity: the engine stores dates as strings, and
  SQLite's own NUMERIC affinity for ``DATE`` would coerce year-like
  strings to integers and re-order mixed columns.
* BOOLEAN maps to INTEGER (the engine compares/sorts booleans
  numerically) and DECIMAL to REAL; bound booleans are stored as 0/1.

:class:`DuckDBDialect` keeps DECIMAL as ``DECIMAL(18, 6)`` and BOOLEAN
as a real ``BOOLEAN`` column — the divergences the comparator must
reconcile (see docs/backends.md "Backend matrix"). Six fractional
digits are enough for the generated datasets (one fractional digit) to
round-trip exactly through the decimal column. DATE stays VARCHAR for
the same string-storage reason as SQLite, and boolean literals render
as ``TRUE``/``FALSE`` because DuckDB's comparison of ``BOOLEAN`` with
an integer literal requires an explicit cast.

Ordering semantics line up without translation work for both dialects:
SQLite orders ``NULL < numeric < text`` ascending, exactly the
engine's ``encode_key`` order, and ``ORDER BY <position>`` after
``UNION ALL`` is supported natively by both engines.
"""

from __future__ import annotations

from ..engine import Index, SQLType, Table
from ..errors import ReproError
from ..sqlast import (And, BoolExpr, ColumnRef, Comparison, Exists, IsNull,
                      Literal, Or, Parameter, Query, Scalar, Select,
                      SelectItem, TableRef)

__all__ = [
    "Dialect", "SQLiteDialect", "DuckDBDialect", "DialectError",
    "SQLITE", "DUCKDB", "render_query",
]


class DialectError(ReproError):
    """An AST node the dialect cannot render."""


class Dialect:
    """Rendering rules for one SQL engine.

    Subclasses override the ``name``/``types`` class attributes and, if
    needed, the :meth:`literal` / :meth:`storable` hooks. Everything
    else (expression and statement rendering, DDL/DML) is shared — the
    supported AST surface is identical across engines; only spellings
    of types and constants differ.
    """

    #: Dialect key as used by ``--backend``.
    name = "ansi"

    #: Logical :class:`SQLType` -> physical column type name.
    types: dict[SQLType, str] = {
        SQLType.INTEGER: "INTEGER",
        SQLType.DECIMAL: "DECIMAL",
        SQLType.VARCHAR: "VARCHAR",
        SQLType.DATE: "DATE",
        SQLType.BOOLEAN: "BOOLEAN",
    }

    # -- hooks ---------------------------------------------------------
    def quote(self, name: str) -> str:
        return '"' + name.replace('"', '""') + '"'

    def type_name(self, sql_type: SQLType) -> str:
        return self.types[sql_type]

    def literal(self, literal: Literal) -> str:
        """Render one constant.

        ``Literal.__str__`` already yields portable spellings (doubled
        quotes, 1/0 booleans, repr'd finite floats, NULL); dialects
        with genuine boolean columns override this.
        """
        return str(literal)

    def storable(self, value: object) -> object:
        """Convert one typed-row value of a BOOLEAN column into a driver
        binding (``load`` hands every other column's values over as
        they are)."""
        return value

    def parameter(self, index: int) -> str | None:
        """The placeholder for bound value ``index`` (1-based), or
        ``None`` when the dialect declares none: constants then reach
        its engine spliced into the text by :meth:`literal`. A dialect
        declares one only once its engine is shown to compare a bound
        value exactly as it compares that literal."""
        return None

    # -- expressions ---------------------------------------------------
    def render_scalar(self, expr: Scalar) -> str:
        if isinstance(expr, Literal):
            return self.literal(expr)
        if isinstance(expr, ColumnRef):
            column = self.quote(expr.column)
            if expr.table:
                return f"{self.quote(expr.table)}.{column}"
            return column
        if isinstance(expr, Parameter):
            placeholder = self.parameter(expr.index)
            if placeholder is None:
                raise DialectError(
                    f"the {self.name} dialect binds no parameters; "
                    f"sqlast.bind() {expr} to its value first")
            return placeholder
        raise DialectError(f"cannot render scalar {expr!r}")

    def render_condition(self, expr: BoolExpr) -> str:
        if isinstance(expr, Comparison):
            return (f"{self.render_scalar(expr.left)} {expr.op.value} "
                    f"{self.render_scalar(expr.right)}")
        if isinstance(expr, IsNull):
            suffix = "IS NOT NULL" if expr.negated else "IS NULL"
            return f"{self.render_scalar(expr.operand)} {suffix}"
        if isinstance(expr, And):
            return " AND ".join(f"({self.render_condition(i)})"
                                for i in expr.items)
        if isinstance(expr, Or):
            return " OR ".join(f"({self.render_condition(i)})"
                               for i in expr.items)
        if isinstance(expr, Exists):
            return f"EXISTS ({self.render_select(expr.subquery)})"
        raise DialectError(f"cannot render condition {expr!r}")

    # -- statements ----------------------------------------------------
    # render_table_ref / render_item are public: repro.sqlast.render
    # calls them (structurally, to avoid a layering cycle) when asked
    # to pretty-print in a specific dialect.
    def render_table_ref(self, ref: TableRef) -> str:
        table = self.quote(ref.table)
        if ref.alias and ref.alias != ref.table:
            return f"{table} AS {self.quote(ref.alias)}"
        return table

    def render_item(self, item: SelectItem) -> str:
        rendered = self.render_scalar(item.expr)
        if item.alias:
            return f"{rendered} AS {self.quote(item.alias)}"
        return rendered

    def render_select(self, select: Select) -> str:
        parts = ["SELECT " + ", ".join(self.render_item(i)
                                       for i in select.items)]
        parts.append("FROM " + ", ".join(self.render_table_ref(t)
                                         for t in select.from_tables))
        if select.where is not None:
            parts.append("WHERE " + self.render_condition(select.where))
        return " ".join(parts)

    def render_query(self, query: Query) -> str:
        """One translated query as a single statement."""
        body = " UNION ALL ".join(self.render_select(s)
                                  for s in query.selects)
        if query.order_by:
            body += " ORDER BY " + ", ".join(str(p) for p in query.order_by)
        return body

    # -- DDL / DML -----------------------------------------------------
    def create_table_sql(self, table: Table) -> str:
        columns = []
        for column in table.columns:
            decl = f"{self.quote(column.name)} {self.type_name(column.sql_type)}"
            if table.primary_key == column.name:
                decl += " PRIMARY KEY"
            columns.append(decl)
        return (f"CREATE TABLE {self.quote(table.name)} "
                f"({', '.join(columns)})")

    def insert_sql(self, table: Table) -> str:
        names = ", ".join(self.quote(c.name) for c in table.columns)
        marks = ", ".join("?" for _ in table.columns)
        return (f"INSERT INTO {self.quote(table.name)} ({names}) "
                f"VALUES ({marks})")

    def create_index_sql(self, index: Index, primary_key: str | None) -> str:
        """``CREATE INDEX`` with the included columns appended to the
        key — after ``primary_key``, the indexed table's key, when the
        index includes columns and does not already name it."""
        key = index.key_columns
        if index.included_columns and primary_key is not None \
                and primary_key not in index.all_columns:
            key += (primary_key,)
        columns = ", ".join(self.quote(c)
                            for c in key + index.included_columns)
        return (f"CREATE INDEX {self.quote(index.name)} "
                f"ON {self.quote(index.table_name)} ({columns})")

    def view_rows_sql(self, view: Table, cluster: Index | None) -> str:
        """The join the view table ``view`` materializes, one row per
        child row, in the order of its ``cluster`` key — else in child
        ``ID`` order: document order, so a scan of the view table yields
        a parent's children as a scan of the child table does."""
        definition = view.view_def
        assert definition is not None
        items = []
        for view_col, (source_table, source_col) in definition.columns:
            alias = "P" if source_table == definition.parent_table else "C"
            items.append(f"{alias}.{self.quote(source_col)} "
                         f"AS {self.quote(view_col)}")
        names = view.column_names()
        by = (", ".join(str(names.index(column) + 1)
                        for column in cluster.key_columns)
              if cluster is not None else 'C."ID"')
        return (
            f"SELECT {', '.join(items)} "
            f"FROM {self.quote(definition.parent_table)} AS P, "
            f"{self.quote(definition.child_table)} AS C "
            f"WHERE C.{self.quote(definition.child_fk_column)} = P.\"ID\" "
            f"ORDER BY {by}")

    def create_view_table_sql(self, view: Table,
                              cluster: Index | None) -> list[str]:
        """The statements that materialize the join view table ``view``
        as a populated table: here one ``CREATE TABLE … AS``, written in
        the order of its ``cluster`` key (a dialect with clustered
        tables overrides)."""
        return [f"CREATE TABLE {self.quote(view.name)} AS "
                f"{self.view_rows_sql(view, cluster)}"]


class SQLiteDialect(Dialect):
    """SQLite spellings — see the module docstring for the rationale."""

    name = "sqlite"

    types = {
        SQLType.INTEGER: "INTEGER",
        SQLType.DECIMAL: "REAL",
        SQLType.VARCHAR: "TEXT",
        SQLType.DATE: "TEXT",      # engine stores dates as strings
        SQLType.BOOLEAN: "INTEGER",  # engine compares/sorts them numerically
    }

    def storable(self, value: object) -> object:
        # BOOLEAN columns have INTEGER affinity; store 0/1 so that
        # comparisons against rendered 1/0 literals match.
        if isinstance(value, bool):
            return int(value)
        return value

    def parameter(self, index: int) -> str:
        # A bound TEXT value has no affinity, exactly like the quoted
        # literal it replaces, so the column's affinity decides the
        # comparison either way (docs/serving.md, "Plan cache").
        return f"?{index}"

    def create_view_table_sql(self, view: Table,
                              cluster: Index | None) -> list[str]:
        # A clustered view is a WITHOUT ROWID table: its rows are the
        # leaves of the primary-key B-tree, which a SELECT filtering on
        # the key's leading columns enters "USING PRIMARY KEY". The
        # columns are declared with the affinities CREATE TABLE … AS
        # would have given them.
        if cluster is None:
            return super().create_view_table_sql(view, cluster)
        name = self.quote(view.name)
        columns = ", ".join(
            f"{self.quote(column.name)} {self.type_name(column.sql_type)}"
            for column in view.columns)
        key = ", ".join(self.quote(column) for column in cluster.key_columns)
        return [f"CREATE TABLE {name} ({columns}, PRIMARY KEY ({key})) "
                f"WITHOUT ROWID",
                f"INSERT INTO {name} {self.view_rows_sql(view, cluster)}"]


class DuckDBDialect(Dialect):
    """DuckDB spellings — DECIMAL and BOOLEAN stay first-class.

    The deliberate divergences from :class:`SQLiteDialect`:

    * DECIMAL columns are ``DECIMAL(18, 6)`` (exact for the generated
      datasets' one fractional digit), not REAL.
    * BOOLEAN columns are real booleans, and boolean *literals* render
      as ``TRUE``/``FALSE`` — DuckDB will not implicitly compare a
      BOOLEAN column against the bare integer ``1``.
    * DATE stays VARCHAR: the engine stores date values as strings and
      compares them lexicographically, which for ISO dates is the same
      order DuckDB's DATE type would give, without parsing surprises.
    * No :meth:`parameter` syntax yet: whether ``$1`` against BIGINT,
      DECIMAL(18, 6) and BOOLEAN columns compares like DuckDB's untyped
      string literal is unchecked, so constants stay spliced.
    """

    name = "duckdb"

    types = {
        # SQLite's INTEGER affinity is 64-bit; DuckDB's INTEGER is
        # 32-bit, so BIGINT is the semantic match (element IDs grow
        # with document scale).
        SQLType.INTEGER: "BIGINT",
        SQLType.DECIMAL: "DECIMAL(18, 6)",
        SQLType.VARCHAR: "VARCHAR",
        SQLType.DATE: "VARCHAR",   # engine stores dates as strings
        SQLType.BOOLEAN: "BOOLEAN",
    }

    def literal(self, literal: Literal) -> str:
        if isinstance(literal.value, bool):
            return "TRUE" if literal.value else "FALSE"
        return str(literal)

    def storable(self, value: object) -> object:
        # bool binds natively to BOOLEAN columns; everything else the
        # driver handles (floats are cast into DECIMAL(18, 6) exactly
        # for the one-fractional-digit dataset values).
        return value


SQLITE = SQLiteDialect()
DUCKDB = DuckDBDialect()


def render_query(query: Query) -> str:
    """One translated query as a single SQLite statement."""
    return SQLITE.render_query(query)
