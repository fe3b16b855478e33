"""Property-based validator tests: generated-valid documents validate;
random structural mutations are rejected; remembering which child-tag
sequences a content model accepted hides no violation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.xmlkit import Document, Element, parse
from repro.xsd import Validator, validate

from tests.test_pipeline_properties import (build_document, build_tree,
                                            schema_specs)
from tests.test_schema_plan import orders_schema


@given(schema_specs(), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_generated_documents_validate(spec, seed):
    kinds, with_choice = spec
    tree, _ = build_tree(kinds, with_choice)
    doc = build_document(tree, kinds, with_choice, seed, n_items=10)
    validate(doc, tree)  # must not raise


def _mutate(doc: Document, rng: random.Random) -> str | None:
    """Apply one structural corruption; returns its label or None."""
    items = list(doc.root.children)
    if not items:
        return None
    item = rng.choice(items)
    mutation = rng.choice(["bogus-child", "drop-required", "double-choice"])
    if mutation == "bogus-child":
        item.make_child("bogus_element", "x")
        return mutation
    if mutation == "drop-required":
        # Remove a required (plain) field if one exists.
        for child in item.children:
            if child.tag == "alpha":  # first field; plain in many specs
                item._children.remove(child)
                item._texts.pop()
                return mutation
        return None
    if mutation == "double-choice":
        if item.find("left") is not None or item.find("right") is not None:
            item.make_child("left", "1")
            item.make_child("left", "2")
            return mutation
        return None
    return None


@given(schema_specs(), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_mutated_documents_rejected(spec, seed):
    kinds, with_choice = spec
    tree, _ = build_tree(kinds, with_choice)
    doc = build_document(tree, kinds, with_choice, seed, n_items=6)
    rng = random.Random(seed + 1)
    mutation = _mutate(doc, rng)
    if mutation is None or (mutation == "drop-required"
                            and kinds[0] != "plain"):
        return  # no applicable corruption for this spec
    with pytest.raises(ValidationError):
        validate(doc, tree)


# ----------------------------------------------------------------------
# The verdict memo knows structure, not content
# ----------------------------------------------------------------------
# One validate() call matches each (element plan, child-tag sequence)
# once. Every order below shows the same sequence, so all but the first
# are judged from memory — and must still be refused for what only they
# hold, in the words used before there was a memo.
_CORRUPTIONS = {
    "leaf value": (
        lambda o: o.replace("<cost>1.5</cost>", "<cost>abc</cost>"),
        "value 'abc' at /orders/order[{k}]/shipping[2]/cost[2] is not a "
        "valid decimal"),
    "attribute value": (
        lambda o: o.replace('qty="1"', 'qty="two"'),
        "value 'two' at /orders/order[{k}]/line[3]/@qty is not a valid "
        "integer"),
    "unexpected attribute": (
        lambda o: o.replace("<customer>", '<customer colour="red">'),
        "unexpected attribute 'colour' at /orders/order[{k}]/customer[1]"),
    "missing required attribute": (
        lambda o: o.replace(' sku="S"', ""),
        "missing required attribute 'sku' at /orders/order[{k}]/line[3]"),
    "invalid child, same tags around it": (
        lambda o: o.replace("<city>t</city>", ""),
        "content of /orders/order[{k}]/shipping[2] does not match its "
        "model near child #1 <cost>"),
    "leaf with a child": (
        lambda o: o.replace("<note>n</note>", "<note><b/></note>"),
        "element at /orders/order[{k}]/note[4] must be a leaf but has "
        "child elements"),
}


def _order(i: int) -> str:
    return (f'<order id="{i}"><customer>c</customer><shipping><city>t</city>'
            f'<cost>1.5</cost></shipping><line sku="S" qty="1"/>'
            f"<note>n</note></order>")


@given(st.integers(2, 6), st.data(), st.sampled_from(sorted(_CORRUPTIONS)))
@settings(max_examples=60, deadline=None)
def test_a_sibling_with_a_remembered_sequence_is_still_checked(n, data, kind):
    corrupt, message = _CORRUPTIONS[kind]
    bad = data.draw(st.integers(1, n - 1))      # never the first to be seen
    orders = [_order(i) for i in range(n)]
    tree = orders_schema()
    validate(parse(f"<orders>{''.join(orders)}</orders>"), tree)
    orders[bad] = corrupt(orders[bad])
    with pytest.raises(ValidationError) as excinfo:
        validate(parse(f"<orders>{''.join(orders)}</orders>"), tree)
    assert str(excinfo.value) == message.format(k=bad + 1)


@given(st.integers(3, 6), st.data())
@settings(max_examples=30, deadline=None)
def test_a_sequence_refused_once_is_refused_again(n, data):
    first = data.draw(st.integers(0, n - 2))
    second = data.draw(st.integers(first + 1, n - 1))
    misplaced = _order(0).replace("<note>n</note>", "").replace(
        "<customer>", "<note>n</note><customer>")
    message = ("content of /orders/order[{k}] does not match its model near "
               "child #1 <note>")
    validator = Validator(orders_schema())      # one object throughout
    orders = [_order(i) for i in range(n)]
    validator.validate(parse(f"<orders>{''.join(orders)}</orders>"))
    orders[first] = orders[second] = misplaced
    for _ in range(2):
        with pytest.raises(ValidationError) as excinfo:
            validator.validate(parse(f"<orders>{''.join(orders)}</orders>"))
        assert str(excinfo.value) == message.format(k=first + 1)
    orders[first] = _order(first)
    with pytest.raises(ValidationError) as excinfo:
        validator.validate(parse(f"<orders>{''.join(orders)}</orders>"))
    assert str(excinfo.value) == message.format(k=second + 1)
