"""Reference evaluator: run XPath queries directly over XML documents.

This evaluator is the ground truth for correctness testing of the whole
shredding pipeline: for any mapping, shredding a document and running the
translated SQL must return the same multiset of values that this
evaluator returns on the original document.
"""

from __future__ import annotations

from ..xmlkit import Document, Element
from .ast import Axis, Predicate, Step, XPathQuery


def _attribute_elements(context: Element, name: str) -> list[Element]:
    """Synthetic leaf elements carrying attribute values."""
    value = context.attribute_map.get(name)
    if value is None:
        return []
    synthetic = Element(f"@{name}")
    synthetic.add_text(value)
    return [synthetic]


def _step_matches(step: Step, context: Element) -> list[Element]:
    """Elements reachable from ``context`` via one location step."""
    if step.name.startswith("@"):
        name = step.name[1:]
        if step.axis == Axis.CHILD:
            return _attribute_elements(context, name)
        out: list[Element] = []
        for node in context.iter():
            out.extend(_attribute_elements(node, name))
        return out
    if step.axis == Axis.CHILD:
        return context.find_all(step.name)
    return list(context.descendants(step.name))


def _eval_relpath(path: tuple[Step, ...], context: Element) -> list[Element]:
    """All elements reached by a relative path from ``context``."""
    frontier = [context]
    for step in path:
        next_frontier: list[Element] = []
        for node in frontier:
            next_frontier.extend(_step_matches(step, node))
        frontier = next_frontier
    return frontier


def _predicate_holds(predicate: Predicate, context: Element) -> bool:
    targets = _eval_relpath(predicate.path, context)
    if predicate.op is None:
        return bool(targets)
    assert predicate.value is not None
    return any(predicate.op.compare(t.string_value(), predicate.value)
               for t in targets)


def evaluate(query: XPathQuery, doc: Document | Element) -> list[Element]:
    """Return the result elements of ``query`` on ``doc``, in document order.

    If the query has projections, the result is the concatenation of all
    projection matches per context element (grouped by context element,
    as the sorted outer-union SQL translation produces). Otherwise the
    context elements themselves are returned.
    """
    root = doc.root if isinstance(doc, Document) else doc
    # The first step is evaluated against a virtual document node, so a
    # leading child axis tests the root element's own name.
    first = query.steps[0]
    if first.name.startswith("@"):
        # The document node has no attributes; only the descendant axis
        # can reach attribute values from here.
        frontier = (_step_matches(first, root)
                    if first.axis == Axis.DESCENDANT else [])
    elif first.axis == Axis.CHILD:
        frontier = [root] if root.tag == first.name else []
    else:
        frontier = [root] if root.tag == first.name else []
        frontier += [el for el in root.descendants(first.name)]
    if query.predicate is not None and query.predicate_step == 0:
        frontier = [el for el in frontier
                    if _predicate_holds(query.predicate, el)]
    for i, step in enumerate(query.steps[1:], start=1):
        next_frontier: list[Element] = []
        for node in frontier:
            matches = _step_matches(step, node)
            if query.predicate is not None and query.predicate_step == i:
                matches = [el for el in matches
                           if _predicate_holds(query.predicate, el)]
            next_frontier.extend(matches)
        frontier = next_frontier
    if not query.projections:
        return frontier
    results: list[Element] = []
    for context in frontier:
        for path in query.projections:
            results.extend(_eval_relpath(path, context))
    return results


def evaluate_values(query: XPathQuery, doc: Document | Element) -> list[str]:
    """Like :func:`evaluate` but returning string-values (handy in tests)."""
    return [el.string_value() for el in evaluate(query, doc)]
