"""A small XML document object model.

The model is intentionally minimal: elements, attributes, and text. It is
the substrate both for the XPath reference evaluator and for the shredder
that loads XML into the relational engine. Mixed content is supported
(text interleaved with child elements) but the shredding layer only uses
element/attribute/text-leaf structure, matching the paper's data model.

A document is a tree, not a graph: an element holds its children and
knows nothing of its parent, so a dropped document is freed by
reference counting, never left to the cyclic garbage collector. Code
that needs an element's ancestors carries them down (or, like the
validator, collects them on the way back up).

That is also why the ingest stages may run with automatic cyclic
collection paused (:func:`collection_paused`): a collection finds
nothing in a tree, only walks it.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from typing import Iterable, Iterator, Mapping

#: The child list of every leaf: an empty tuple, shared, which the
#: collector does not track. A leaf is one tracked object, not three.
_LEAF: tuple[()] = ()


class _NoAttributes(dict):
    """The empty mapping that every element without attributes shares,
    so that such an element stores no dict of its own. A dict, so it
    reads as fast as an element's own; it refuses every write, and a
    pickle or copy of it is itself."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("attribute_map is read-only: write through "
                        "Element.attributes")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self) -> str:
        return "NO_ATTRIBUTES"


#: The ``attribute_map`` of every element without attributes.
NO_ATTRIBUTES: Mapping[str, str] = _NoAttributes()


_pause_lock = threading.Lock()
_pause_depth = 0
_pause_resumes = False


@contextmanager
def collection_paused() -> Iterator[None]:
    """Pause automatic cyclic garbage collection for the ``with`` body.

    A stage that builds or drains an acyclic structure allocates
    objects by the ten thousand, and every 700 of them the collector
    walks the young ones, every tenth walk the older ones too, and now
    and then the whole heap — freeing nothing, because nothing the
    stage makes refers back to itself. Reference counting frees all of
    it; the collector only adds the walks. The ingest stages run under
    this pause, each safe for its own reason:

    * ``parse`` builds a tree whose nodes never point back up (above);
    * ``Validator.validate`` reads the tree and holds only a per-call
      set of (plan, tag tuple) pairs, and its violation's ancestor list;
    * ``collect_statistics`` fills counters, dicts and lists of strings
      and numbers, none pointing back at another;
    * ``RelationalBackend.load`` hands tuples of scalars to the driver
      a batch at a time.

    On a streamed (generated) document the set-up of each stage leaves
    a few hundred cyclic objects whatever the document's size; the next
    collection after the pause takes them. A generator body must never
    hold a pause: suspended, it would leave collection off in its
    consumer's code, so the caller that drains it holds the pause.

    Pauses overlap — nested, or from two threads — and collection
    resumes when the last one ends, on every exit path, and only if it
    was enabled when the first one began.
    """
    global _pause_depth, _pause_resumes
    with _pause_lock:
        if _pause_depth == 0:
            _pause_resumes = gc.isenabled()
            gc.disable()
        _pause_depth += 1
    try:
        yield
    finally:
        with _pause_lock:
            _pause_depth -= 1
            if _pause_depth == 0 and _pause_resumes:
                gc.enable()


class Element:
    """An XML element node.

    Parameters
    ----------
    tag:
        The element name.
    attributes:
        Mapping of attribute name to string value.

    An element without attributes stores no dict: ``attribute_map`` is
    then the shared, empty :data:`NO_ATTRIBUTES`, and ``attributes`` —
    the element's own mutable dict — is created on first access, as
    ElementTree's ``attrib`` is. Code that only reads attributes reads
    ``attribute_map``, which allocates nothing.
    """

    __slots__ = ("tag", "attribute_map", "_children", "_texts")

    def __init__(self, tag: str, attributes: dict[str, str] | None = None):
        self.tag = tag
        self.attribute_map: Mapping[str, str] = (
            dict(attributes) if attributes else NO_ATTRIBUTES)
        # A leaf holds no list: _children is _LEAF and _texts its text.
        # From the first child on, _children[i] is preceded by _texts[i]
        # and _texts has one extra trailing entry, so text after the last
        # child is representable.
        self._children: list[Element] | tuple[()] = _LEAF
        self._texts: list[str] | str = ""

    @property
    def attributes(self) -> dict[str, str]:
        """The attributes, a dict that writes go through; made on the
        first access of an element that has none."""
        attributes = self.attribute_map
        if attributes is NO_ATTRIBUTES:
            attributes = self.attribute_map = {}
        return attributes

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def append(self, child: "Element") -> "Element":
        """Attach ``child`` as the last child element and return it."""
        if self._children is _LEAF:
            self._children = [child]
            self._texts = [self._texts, ""]
        else:
            self._children.append(child)
            self._texts.append("")
        return child

    def add_text(self, text: str) -> None:
        """Append character data at the current position."""
        if self._children is _LEAF:
            self._texts += text
        else:
            self._texts[-1] += text

    def make_child(self, tag: str, text: str | None = None,
                   attributes: dict[str, str] | None = None) -> "Element":
        """Create, attach, and return a child element.

        Convenience used heavily by the synthetic data generators.
        """
        child = Element(tag, attributes)
        if text is not None:
            child.add_text(text)
        return self.append(child)

    # ------------------------------------------------------------------
    # Navigation
    # ------------------------------------------------------------------
    @property
    def children(self) -> tuple["Element", ...]:
        """Child elements, in document order."""
        return tuple(self._children)

    def find_all(self, tag: str) -> list["Element"]:
        """Direct children with the given tag."""
        return [c for c in self._children if c.tag == tag]

    def find(self, tag: str) -> "Element | None":
        """First direct child with the given tag, or ``None``."""
        for child in self._children:
            if child.tag == tag:
                return child
        return None

    def iter(self) -> Iterator["Element"]:
        """Depth-first pre-order iterator over this element and descendants."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node._children))

    def descendants(self, tag: str | None = None) -> Iterator["Element"]:
        """All strict descendants, optionally filtered by tag."""
        for node in self.iter():
            if node is self:
                continue
            if tag is None or node.tag == tag:
                yield node

    # ------------------------------------------------------------------
    # Content
    # ------------------------------------------------------------------
    @property
    def text(self) -> str:
        """Concatenated character data directly inside this element."""
        if self._children is _LEAF:
            return self._texts
        return "".join(self._texts)

    @property
    def text_segments(self) -> tuple[str, ...]:
        """Raw text segments interleaved with children (for serialization)."""
        if self._children is _LEAF:
            return (self._texts,)
        return tuple(self._texts)

    def string_value(self) -> str:
        """XPath string-value: all descendant text concatenated in order."""
        parts: list[str] = []

        def walk(el: Element) -> None:
            if el._children is _LEAF:
                parts.append(el._texts)
                return
            for i, child in enumerate(el._children):
                parts.append(el._texts[i])
                walk(child)
            parts.append(el._texts[len(el._children)])

        walk(self)
        return "".join(parts)

    # ------------------------------------------------------------------
    # Dunder
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Element {self.tag!r} children={len(self._children)}>"

    def __iter__(self) -> Iterator["Element"]:
        return iter(self._children)

    def __len__(self) -> int:
        return len(self._children)


def _new_child(parent: Element, tag: str, attributes: Mapping[str, str],
               text: str) -> Element:
    """``parent.make_child(tag, text, attributes)`` as the parser needs
    it, once per element of a file: ``attributes`` — a non-empty dict,
    or :data:`NO_ATTRIBUTES` — is kept, not copied, and the child is
    built as a leaf without ``__init__``."""
    child = Element.__new__(Element)
    child.tag = tag
    child.attribute_map = attributes
    child._children = _LEAF
    child._texts = text
    return parent.append(child)


def _new_leaves(parent: Element, leaves: list[tuple[str, str, str]]
                ) -> None:
    """Make a run of attribute-less leaves, each given as (character data
    before it, tag, its text), the whole content so far of ``parent``,
    which has none yet: what ``add_text`` and ``_new_child`` would build
    one leaf at a time, at one call for the run."""
    new = Element.__new__
    children = []
    texts = []
    for before, tag, text in leaves:
        child = new(Element)
        child.tag = tag
        child.attribute_map = NO_ATTRIBUTES
        child._children = _LEAF
        child._texts = text
        children.append(child)
        texts.append(before)
    texts.append("")
    parent._children = children
    parent._texts = texts


class Document:
    """An XML document: a root element plus optional declaration info."""

    __slots__ = ("root", "version", "encoding")

    def __init__(self, root: Element, version: str = "1.0", encoding: str = "UTF-8"):
        self.root = root
        self.version = version
        self.encoding = encoding

    def iter(self) -> Iterator[Element]:
        """Depth-first pre-order iterator over all elements."""
        return self.root.iter()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Document root={self.root.tag!r}>"


class LazyElement(Element):
    """An element whose children are *generated*, not stored.

    The substrate of the streaming data plane (docs/scaling.md): a
    synthetic data set at 10^6 publications cannot be materialized as
    one giant child list, so the root element holds a zero-argument
    ``factory`` returning a fresh iterator of child elements instead.
    Every iteration (``for child in el``) calls the factory again, so a
    deterministic factory (seeded RNG created inside it) makes the
    element re-iterable with identical content while only one child
    subtree is alive at a time.

    Supported: streaming iteration, lazy pre-order ``iter()``,
    ``descendants``, ``find``/``find_all`` (O(n) scans), ``len`` and
    ``string_value`` (O(n) streaming). Not supported: ``append`` /
    ``make_child`` / ``add_text`` — a lazy element's content comes from
    its factory only.
    """

    __slots__ = ("_factory",)

    def __init__(self, tag: str, factory,
                 attributes: dict[str, str] | None = None):
        super().__init__(tag, attributes)
        self._factory = factory

    # -- construction is disabled: content comes from the factory ------
    def append(self, child: "Element") -> "Element":
        raise TypeError("LazyElement content comes from its factory; "
                        "append() is not supported")

    def add_text(self, text: str) -> None:
        raise TypeError("LazyElement content comes from its factory; "
                        "add_text() is not supported")

    # -- streaming navigation ------------------------------------------
    def __iter__(self) -> Iterator["Element"]:
        return iter(self._factory())

    def __len__(self) -> int:
        return sum(1 for _ in self)

    @property
    def children(self) -> tuple["Element", ...]:
        """Materializes every child — defeats streaming; prefer iteration."""
        return tuple(self)

    def iter(self) -> Iterator["Element"]:
        yield self
        for child in self:
            yield from child.iter()

    def find_all(self, tag: str) -> list["Element"]:
        return [c for c in self if c.tag == tag]

    def find(self, tag: str) -> "Element | None":
        for child in self:
            if child.tag == tag:
                return child
        return None

    @property
    def text(self) -> str:
        return ""

    def string_value(self) -> str:
        return "".join(child.string_value() for child in self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<LazyElement {self.tag!r}>"


def element(tag: str, *children: "Element | str",
            attributes: dict[str, str] | None = None) -> Element:
    """Functional helper to build element trees in tests and examples.

    Strings become text content; elements become children, in order::

        element("movie", element("title", "Titanic"), element("year", "1997"))
    """
    el = Element(tag, attributes)
    for child in children:
        if isinstance(child, str):
            el.add_text(child)
        else:
            el.append(child)
    return el


def count_elements(nodes: Iterable[Element]) -> int:
    """Total number of elements in the given forests (used by stats)."""
    return sum(1 for root in nodes for _ in root.iter())
