"""Validate XML instances against a schema tree.

This is a structural validator: it checks element nesting and occurrence
constraints against the content models of the schema tree, and checks
that leaf values are lexically valid for their base type. The shredder
relies on documents having been validated, so the loader runs this first
by default.

Everything it consults per element — content model, child dispatch,
attribute declarations, lexical checks — comes compiled from
:meth:`SchemaTree.plan`. An element knows nothing of its parent, so a
violation's location is collected on the way out: each level of the
walk adds its element to the violation as it passes, and the path is
worked out only once there is a violation to report.

Data files repeat themselves: 5 000 DBLP publications show 236 distinct
child-tag sequences. One :meth:`Validator.validate` call therefore
remembers which (element plan, child-tag sequence) pairs the content
model accepted and matches each only once. It remembers the verdict on
*structure* alone — every child's own value, attributes and content are
still checked every time — and only acceptances: a sequence the model
refuses is matched again, by the same code, to word the violation.
"""

from __future__ import annotations

from ..errors import ValidationError
from ..xmlkit import Document, Element, collection_paused
from .nodes import UNBOUNDED
from .tree import (M_CHOICE, M_OPTION, M_REPETITION, M_SEQUENCE, M_TAG,
                   ElementPlan, SchemaTree)


# How many accepted (plan, child tags) pairs one validate() call keeps.
# Past it, sequences are matched as if nothing were remembered.
_REMEMBERED_SEQUENCES = 4096


class _Violation(Exception):
    """A violation at ``element``; the message is ``before`` + the
    element's path + ``after``. ``trail`` runs from the element up to
    the root, one ancestor added per level the violation leaves."""

    def __init__(self, element: Element, before: str, after: str = ""):
        super().__init__(before, after)
        self.trail, self.before, self.after = [element], before, after


def _path(trail: list[Element]) -> str:
    """``/<root tag>/<tag>[i]/...`` of ``trail[0]``, whose ancestors up
    to the root follow it: ``i`` counts all siblings, from 1.

    A ``LazyElement`` generates fresh children on every iteration, so
    the validated child cannot be found among them again: ``[?]``.
    """
    steps: list[str] = []
    for element, parent in zip(trail, trail[1:]):
        siblings = parent.children
        position = next((str(i) for i, sibling in enumerate(siblings, 1)
                         if sibling is element), "?")
        steps.append(f"{element.tag}[{position}]")
    steps.append(trail[-1].tag)
    return "/" + "/".join(reversed(steps))


class Validator:
    """Validates documents/elements against a :class:`SchemaTree`."""

    def __init__(self, tree: SchemaTree):
        self.tree = tree
        # plan -> {child tag: that child's plan}; filled as plans are
        # met and true for as long as the tree is, so any thread's
        # filling is every thread's.
        self._child_plans: dict[ElementPlan, dict[str, ElementPlan]] = {}

    def validate(self, doc: Document | Element) -> None:
        """Raise :class:`~repro.errors.ValidationError` on any violation."""
        root = doc.root if isinstance(doc, Document) else doc
        schema_root = self.tree.root
        if root.tag != schema_root.name:
            raise ValidationError(
                f"root element <{root.tag}> does not match schema root "
                f"<{schema_root.name}>")
        try:
            # The memo lives in this call's frame: two threads, or two
            # documents, never share it, and it is gone with the call.
            with collection_paused():
                self._validate_siblings(
                    (root,), {root.tag: self.tree.plan(schema_root)}, set())
        except _Violation as found:
            raise ValidationError(
                found.before + _path(found.trail) + found.after
            ) from None

    # ------------------------------------------------------------------
    def _validate_siblings(
            self, elements: tuple[Element, ...],
            plans: dict[str, ElementPlan],
            accepted: set[tuple[ElementPlan, tuple[str, ...]]]) -> None:
        """Validate each of ``elements`` — the root, or the children of
        one element — and everything below it, in document order;
        ``plans`` has the plan of each by tag."""
        for el in elements:
            plan = plans[el.tag]
            if el.attribute_map or plan.required_attributes:
                self._validate_attributes(el, plan)
            if plan.is_leaf:
                if len(el):
                    raise _Violation(el, "element at ",
                                     " must be a leaf but has child elements")
                if plan.lexical is not None and plan.lexical(el.text) is None:
                    raise _Violation(
                        el, f"value {el.text!r} at ",
                        f" is not a valid {plan.base_type.value}")
                continue
            children = el.children
            tags = tuple([child.tag for child in children])
            if (plan, tags) not in accepted:
                endpoints = _match(plan.model, tags, 0)
                if len(tags) not in endpoints:
                    consumed = max(endpoints, default=0)
                    offending = (tags[consumed] if consumed < len(tags)
                                 else "(end)")
                    raise _Violation(
                        el, "content of ", " does not match its model near "
                        f"child #{consumed + 1} <{offending}>")
                if len(accepted) < _REMEMBERED_SEQUENCES:
                    accepted.add((plan, tags))
            # Every child matched a TAG particle of this model, so its
            # name is in the dispatch.
            try:
                self._validate_siblings(children, self._plans_below(plan),
                                        accepted)
            except _Violation as found:
                found.trail.append(el)
                raise

    def _plans_below(self, plan: ElementPlan) -> dict[str, ElementPlan]:
        """The plan of each child element ``plan`` declares, by tag."""
        below = self._child_plans.get(plan)
        if below is None:
            plan_of = self.tree.plan
            below = self._child_plans[plan] = {
                tag: plan_of(entry.node)
                for tag, entry in plan.dispatch.items()}
        return below

    @staticmethod
    def _validate_attributes(el: Element, plan: ElementPlan) -> None:
        declared = plan.attribute_by_name
        for name, value in el.attribute_map.items():
            decl = declared.get(name)
            if decl is None:
                raise _Violation(el, f"unexpected attribute {name!r} at ")
            if decl.lexical is not None and decl.lexical(value) is None:
                raise _Violation(
                    el, f"value {value!r} at ",
                    f"/@{name} is not a valid {decl.base_type.value}")
        for name in plan.required_attributes:
            if name not in el.attribute_map:
                raise _Violation(
                    el, f"missing required attribute {name!r} at ")


# ----------------------------------------------------------------------
# Content-model matching (NFA-style set-of-positions simulation)
# ----------------------------------------------------------------------
def _match(item: tuple, tags: tuple[str, ...], pos: int) -> set[int]:
    """Positions in ``tags`` where a match of ``item`` from ``pos`` can end."""
    op = item[0]
    if op == M_TAG:
        if pos < len(tags) and tags[pos] == item[1]:
            return {pos + 1}
        return set()
    if op == M_SEQUENCE:
        positions = {pos}
        for part in item[1]:
            positions = set().union(
                *[_match(part, tags, p) for p in positions])
            if not positions:
                break
        return positions
    if op == M_OPTION:
        return {pos} | _match(item[1], tags, pos)
    if op == M_CHOICE:
        return set().union(*[_match(branch, tags, pos) for branch in item[1]])
    if op == M_REPETITION:
        _, inner, min_occurs, max_occurs = item
        reachable: set[int] = set()
        frontier = {pos}
        count = 0
        while frontier:
            if count >= min_occurs:
                reachable |= frontier
            if max_occurs != UNBOUNDED and count >= max_occurs:
                break
            new_frontier = set().union(
                *[_match(inner, tags, p) for p in frontier])
            if new_frontier == frontier:
                break  # only zero-width matches are left
            frontier = new_frontier
            count += 1
        return reachable
    raise ValidationError(f"unexpected model opcode {op}")  # pragma: no cover


def validate(doc: Document | Element, tree: SchemaTree) -> None:
    """Module-level convenience wrapper around :class:`Validator`."""
    Validator(tree).validate(doc)
