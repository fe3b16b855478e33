"""Property-based tests: serialize/parse round-trips for random trees
and records (runs of leaves), every spelling of a tree parses to that
tree, and a node built by any sequence of calls reads like a plain pair
of lists.

The example budget is the active hypothesis profile's
(``tests/conftest.py``): the default here, 1 000 in the CI step that
pins the seed.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xmlkit import Element, escape_text, parse, serialize

_tag_names = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True)
# Text without raw control chars; parser/writer must round-trip the rest.
_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc")),
    max_size=40,
)
_attr_values = _text


@st.composite
def elements(draw, depth=3):
    tag = draw(_tag_names)
    attrs = draw(st.dictionaries(_tag_names, _attr_values, max_size=3))
    el = Element(tag, attrs)
    if depth > 0:
        for _ in range(draw(st.integers(0, 3))):
            if draw(st.booleans()):
                el.add_text(draw(_text))
            el.append(draw(elements(depth=depth - 1)))
    el.add_text(draw(_text))
    return el


@st.composite
def records(draw):
    """Runs of attribute-less leaves, the parser's fast path, cut now and
    then by character data, a leaf with attributes or a nested element."""
    el = Element(draw(_tag_names))
    for _ in range(draw(st.integers(1, 8))):
        how = draw(st.integers(0, 5))
        if how == 0:
            el.append(draw(elements(depth=1)))
        elif how == 1:
            el.add_text(draw(_text | st.sampled_from(["\n  ", " "])))
        else:
            el.make_child(draw(_tag_names), draw(_text))
    return el


_trees = elements() | records()


def same(a, b):
    assert a.tag == b.tag
    assert a.attributes == b.attributes
    assert a.text_segments == b.text_segments
    assert len(a.children) == len(b.children)
    for ca, cb in zip(a.children, b.children):
        assert sum(child is cb for child in b.children) == 1
        same(ca, cb)


@given(_trees)
@settings(deadline=None)
def test_serialize_parse_roundtrip(el):
    text = serialize(el)
    reparsed = parse(text).root
    assert el.string_value() == reparsed.string_value()
    same(el, reparsed)


@given(_trees)
@settings(deadline=None)
def test_double_roundtrip_is_stable(el):
    once = serialize(parse(serialize(el)).root)
    twice = serialize(parse(once).root)
    assert once == twice


# ----------------------------------------------------------------------
# One tree, many spellings
# ----------------------------------------------------------------------
_GAPS = ["", " ", "\n", "\t ", "\r\n  "]
_MISC = ["<!---->", "<!-- a <b> & c -- d -->", "<?pi?>", "<?pi <x a='1'> ?>",
         "<!-- ]]> -->"]


def _spell_text(text, rng):
    """Character data for ``text``: escaped runs, references, CDATA
    sections, with comments and PIs (which add nothing) in between."""
    out = []
    at = 0
    while at < len(text):
        run = text[at:at + rng.randint(1, 6)]
        at += len(run)
        how = rng.randrange(5)
        if how == 0 and "]]>" not in run:
            out.append(f"<![CDATA[{run}]]>")
        elif how == 1:
            out.append("".join(f"&#{ord(ch)};" for ch in run))
        elif how == 2:
            out.append("".join(f"&#x{ord(ch):X};" for ch in run))
        elif how == 3:
            out.append(escape_text(run).replace("'", "&apos;"))
        else:
            out.append(escape_text(run))
        if rng.random() < 0.2:
            out.append(rng.choice(_MISC))
    if rng.random() < 0.1:
        out.append("<![CDATA[]]>")
    return "".join(out)


def _spell_attribute(value, rng):
    quote = rng.choice("'\"")
    out = []
    for ch in value:
        how = rng.randrange(6)
        if how == 0:
            out.append(f"&#{ord(ch)};")
        elif how == 1:
            out.append(f"&#x{ord(ch):x};")
        elif ch == "&":
            out.append("&amp;")
        elif ch == quote:
            out.append("&apos;" if quote == "'" else "&quot;")
        elif ch == "<" and how == 2:    # a raw "<" is legal in a value
            out.append("&lt;")
        else:
            out.append(ch)
    gap = rng.choice
    return f"{gap(_GAPS)}={gap(_GAPS)}{quote}{''.join(out)}{quote}"


def _spell(el, rng):
    gap = rng.choice
    # attributes need no white space between them, the first needs some
    head = el.tag + "".join(
        gap(_GAPS[1:] if i == 0 else _GAPS) + name
        + _spell_attribute(value, rng)
        for i, (name, value) in enumerate(el.attributes.items())) + gap(_GAPS)
    if not el.children and not el.text and rng.random() < 0.5:
        return f"<{head}/>"
    body = []
    for segment, child in zip(el.text_segments, el.children):
        body.append(_spell_text(segment, rng))
        body.append(_spell(child, rng))
    body.append(_spell_text(el.text_segments[-1], rng))
    return f"<{head}>{''.join(body)}</{el.tag}{gap(_GAPS)}>"


@given(_trees, st.randoms(use_true_random=False))
@settings(deadline=None)
def test_every_spelling_parses_to_the_same_tree(el, rng):
    prolog = rng.choice(["", "<?xml version='1.0'?>", " \n"]) + rng.choice(
        ["", "<!-- before -->", "<!DOCTYPE r [<!ELEMENT r ANY>]>\n",
         "<?pi?> "])
    epilog = rng.choice(["", "\n", "<!-- after -->", " <?pi?>\n"])
    text = prolog + _spell(el, rng) + epilog
    root = parse(text).root
    # the spelled element itself is the root, no holder above it
    assert len(list(root.iter())) == len(list(el.iter()))
    same(el, root)


# ----------------------------------------------------------------------
# A node against a list model
# ----------------------------------------------------------------------
# A leaf holds its text as one string and no child list; its first child
# turns both into the interleaved lists. Whatever the order of calls,
# every reader must see what two plain lists per element would give.
_node_calls = st.lists(st.tuples(
    st.sampled_from(["append", "add_text", "make_child"]),
    st.integers(0, 1_000),          # which element built so far
    st.sampled_from("abc"),
    st.none() | _text), max_size=40)


@given(_node_calls)
@settings(deadline=None)
def test_any_sequence_of_calls_reads_like_two_lists(calls):
    root = Element("r")
    nodes = [root]
    model = {id(root): ([], [""])}      # children, text segments

    for call, which, tag, text in calls:
        el = nodes[which % len(nodes)]
        children, texts = model[id(el)]
        if call == "add_text":
            el.add_text(text or "")
            texts[-1] += text or ""
            continue
        if call == "append":
            child = Element(tag)
            if text is not None:
                child.add_text(text)
            assert el.append(child) is child
        else:
            child = el.make_child(tag, text)
        children.append(child)
        texts.append("")
        model[id(child)] = ([], [text or ""])
        nodes.append(child)

    def string_value(el):
        children, texts = model[id(el)]
        return "".join(t + string_value(c) for t, c in zip(texts, children)) \
            + texts[-1]

    def preorder(el):
        yield el
        for child in model[id(el)][0]:
            yield from preorder(child)

    for el in nodes:
        children, texts = model[id(el)]
        assert el.children == tuple(children)
        assert list(el) == children and len(el) == len(children)
        assert el.text_segments == tuple(texts)
        assert el.text == "".join(texts)
        assert el.string_value() == string_value(el)
        assert list(el.iter()) == list(preorder(el))
        for tag in "abc":
            assert el.find_all(tag) == [c for c in children if c.tag == tag]
            assert el.find(tag) is next(
                (c for c in children if c.tag == tag), None)
