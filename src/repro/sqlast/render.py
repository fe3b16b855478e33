"""Pretty-printing of SQL ASTs.

``str(query)`` already yields valid single-line SQL; :func:`render`
produces a multi-line layout like the listings in the paper, which the
examples print for the user. It uses the plain ``str()`` forms; SQL for
a particular engine (quoted identifiers, its constants) is rendered by
``repro.backends.dialect.Dialect.render_query``.
"""

from __future__ import annotations

from .ast import Query, Select


def render_select(select: Select, indent: str = "") -> str:
    lines = [indent + "SELECT " + ", ".join(str(i) for i in select.items),
             indent + "FROM " + ", ".join(str(t) for t in select.from_tables)]
    if select.where is not None:
        lines.append(indent + "WHERE " + str(select.where))
    return "\n".join(lines)


def render(query: Query, indent: str = "") -> str:
    """Multi-line SQL text for a query."""
    blocks = [render_select(s, indent) for s in query.selects]
    body = ("\n" + indent + "UNION ALL\n").join(blocks)
    if query.order_by:
        body += "\n" + indent + "ORDER BY " + ", ".join(
            str(i) for i in query.order_by)
    return body
