"""Property-based end-to-end tests over *random* schemas.

Hypothesis generates random schema trees (with optionals, choices, and
repetitions), random conforming documents, and random mappings
(annotations + repetition splits + union distributions). For every
combination, the full pipeline — shred, derive stats, translate, plan,
execute — must agree with the XPath reference evaluator, and the
statistics derived for every partition with the rows loaded into it.

Two generators run the same two properties: flat record schemas
(root -> item* -> fields), and *nested* content models — option,
choice, sequence, an inlined complex element carrying an attribute and
a repeated leaf inside one another to depth 3, plus a repeated *group*,
which every mapping must refuse by name. The nested properties take
their example budget from the active hypothesis profile
(``tests/conftest.py``: ``--hypothesis-profile=ci`` in CI). What the
nested generator found at the commit that added it is pinned below as
plain tests.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.backends import compare_design
from repro.backends.compare import OK
from repro.datasets import DatasetBundle
from repro.engine import Database
from repro.errors import MappingError, TranslationError
from repro.mapping import (Mapping, UnionDistribution, collect_statistics,
                           derive_schema, derive_table_stats,
                           hybrid_inlining, load_documents, Shredder)
from repro.search import GreedySearch
from repro.translate import translate_xpath
from repro.workload import Workload
from repro.xmlkit import Document, Element, parse
from repro.xpath import evaluate_values, parse_xpath
from repro.xsd import (BaseType, NodeKind, TreeBuilder, parse_dtd, parse_xsd,
                       validate)

from .test_select_shape import design_cases

_FIELDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"]


@st.composite
def schema_specs(draw):
    """A random flat record schema: root -> item* -> fields.

    Each field is plain, optional, repeated, or part of a choice pair —
    covering every constructor the mapping layer handles.
    """
    n_fields = draw(st.integers(2, 6))
    kinds = draw(st.lists(
        st.sampled_from(["plain", "optional", "repeated"]),
        min_size=n_fields, max_size=n_fields))
    with_choice = draw(st.booleans())
    return kinds, with_choice


def build_tree(kinds: list[str], with_choice: bool):
    b = TreeBuilder("random")
    root = b.tag("root", annotation="root")
    rep = b.rep(root)
    item = b.tag("item", rep, annotation="item")
    field_nodes = []
    for i, kind in enumerate(kinds):
        name = _FIELDS[i]
        if kind == "plain":
            field_nodes.append((b.leaf(name, item), kind))
        elif kind == "optional":
            field_nodes.append((b.optional_leaf(name, item), kind))
        else:
            field_nodes.append(
                (b.repeated_leaf(name, item, annotation=name), kind))
    if with_choice:
        choice = b.choice(item)
        b.leaf("left", choice, BaseType.INTEGER)
        b.leaf("right", choice, BaseType.INTEGER)
    return b.build(root), field_nodes


def build_document(tree, kinds, with_choice, seed, n_items=30):
    rng = random.Random(seed)
    root = Element("root")
    for i in range(n_items):
        item = root.make_child("item")
        for j, kind in enumerate(kinds):
            name = _FIELDS[j]
            if kind == "plain":
                item.make_child(name, f"v{rng.randrange(6)}")
            elif kind == "optional":
                if rng.random() < 0.6:
                    item.make_child(name, f"o{rng.randrange(4)}")
            else:
                for _ in range(rng.randrange(4)):
                    item.make_child(name, f"r{rng.randrange(5)}")
        if with_choice:
            side = "left" if rng.random() < 0.5 else "right"
            item.make_child(side, str(rng.randrange(100)))
    return Document(root)


def random_mapping(tree, kinds, with_choice, seed) -> Mapping:
    rng = random.Random(seed)
    mapping = hybrid_inlining(tree)
    item = tree.find_tag_by_path(("root", "item"))
    for j, kind in enumerate(kinds):
        name = _FIELDS[j]
        leaf = tree.find_tag_by_path(("root", "item", name))
        if kind == "repeated" and rng.random() < 0.5:
            rep = tree.parent(leaf)
            mapping = mapping.with_split(rep.node_id, rng.choice([1, 2, 3]))
        elif kind == "optional" and rng.random() < 0.4:
            option = tree.parent(leaf)
            mapping = mapping.with_distribution(UnionDistribution(
                optional_ids=frozenset({option.node_id})))
        elif kind == "plain" and rng.random() < 0.3:
            mapping = mapping.with_annotation(leaf.node_id, f"{name}_out")
    if with_choice and rng.random() < 0.5:
        choice = tree.nodes_of_kind(NodeKind.CHOICE)[0]
        mapping = mapping.with_distribution(
            UnionDistribution(choice_id=choice.node_id))
    mapping.validate()
    return mapping


def queries_for(kinds, with_choice):
    out = ["/root/item/" + _FIELDS[0]]
    for j, kind in enumerate(kinds):
        out.append(f"//item/{_FIELDS[j]}")
    out.append(f'//item[{_FIELDS[0]} = "v2"]/({_FIELDS[0]} | {_FIELDS[1]})')
    if "optional" in kinds:
        opt = _FIELDS[kinds.index("optional")]
        out.append(f"//item[{opt}]/{_FIELDS[0]}")
    if "repeated" in kinds:
        repd = _FIELDS[kinds.index("repeated")]
        out.append(f'//item[{repd} = "r1"]/{_FIELDS[0]}')
    if with_choice:
        out.append("//item/left")
        out.append('//item[right >= "50"]/' + _FIELDS[0])
    return out


def assert_engine_matches_dom(schema, doc, xpaths):
    """Every translatable query answers as the DOM evaluator does."""
    db = Database()
    load_documents(db, schema, doc)
    for xpath in xpaths:
        expected = sorted(evaluate_values(parse_xpath(xpath), doc))
        try:
            sql = translate_xpath(schema, xpath)
        except TranslationError:
            continue  # outside the supported translation subset
        rows = db.execute(sql).rows
        got = sorted(str(v) for row in rows for v in row[1:]
                     if v is not None)
        assert got == expected, (xpath, schema.mapping.signature())


def assert_derived_rows_match_loaded(schema, doc):
    """Every partition is estimated at exactly the rows loaded into it."""
    shredded = Shredder(schema).shred(doc)
    derived = derive_table_stats(schema, collect_statistics(schema.tree, doc))
    for table_name, rows in shredded.items():
        assert derived[table_name].row_count == len(rows), (
            table_name, schema.mapping.signature())


@given(schema_specs(), st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_random_mapping_pipeline_equivalence(spec, seed):
    kinds, with_choice = spec
    tree, _ = build_tree(kinds, with_choice)
    doc = build_document(tree, kinds, with_choice, seed)
    mapping = random_mapping(tree, kinds, with_choice, seed + 1)
    assert_engine_matches_dom(derive_schema(mapping), doc,
                              queries_for(kinds, with_choice))


@given(schema_specs(), st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_random_mapping_derived_stats_match_shredded(spec, seed):
    kinds, with_choice = spec
    tree, _ = build_tree(kinds, with_choice)
    doc = build_document(tree, kinds, with_choice, seed)
    mapping = random_mapping(tree, kinds, with_choice, seed + 1)
    assert_derived_rows_match_loaded(derive_schema(mapping), doc)


# ----------------------------------------------------------------------
# Nested content models
# ----------------------------------------------------------------------
def nested_particles(depth: int):
    """``("leaf",)``, ``("rep",)`` (a repeated leaf), ``("opt", p)``,
    ``("choice", [p, ...])``, ``("seq", [p, ...])``, ``("elem",
    has_attribute, [p, ...])`` (an inlined complex element) or
    ``("group", p)`` (``p*``: a repeated group unless ``p`` is an
    element), nested ``depth`` levels deep."""
    flat = st.sampled_from([("leaf",), ("leaf",), ("rep",)])
    if depth == 0:
        return flat
    inner = nested_particles(depth - 1)
    several = st.lists(inner, min_size=2, max_size=3)
    return st.one_of(
        flat,
        st.tuples(st.just("opt"), inner),
        st.tuples(st.just("choice"), several),
        st.tuples(st.just("seq"), several),
        st.tuples(st.just("elem"), st.booleans(),
                  st.lists(inner, min_size=1, max_size=2)),
        st.tuples(st.just("opt"), st.tuples(st.just("choice"), several)),
        st.tuples(st.just("group"), inner))


#: ``item``'s content: a sequence of particles nested up to depth 3.
nested_specs = st.lists(nested_particles(2), min_size=2, max_size=4)


def build_nested_tree(spec):
    """The tree of root -> item* -> ``spec``, and the spec with every
    element named (names are unique across the schema)."""
    b = TreeBuilder("nested")
    root = b.tag("root", annotation="root")
    item = b.tag("item", b.rep(root), annotation="item")
    names = (f"n{i}" for i in range(1, 1000))

    def add(particle, parent):
        kind = particle[0]
        if kind == "leaf":
            return kind, b.leaf(next(names), parent).name
        if kind == "rep":
            return kind, b.repeated_leaf(next(names), parent).name
        if kind == "opt":
            return kind, add(particle[1], b.opt(parent))
        if kind == "group":
            return kind, add(particle[1], b.rep(parent))
        if kind == "elem":
            tag = b.tag(next(names), parent)
            if particle[1]:
                b.attribute("a", tag)
            return kind, tag.name, particle[1], [add(p, tag)
                                                 for p in particle[2]]
        node = b.choice(parent) if kind == "choice" else b.seq(parent)
        return kind, [add(p, node) for p in particle[1]]

    named = [add(particle, item) for particle in spec]
    return b.build(root), named


def build_nested_document(named, seed, n_items=40):
    rng = random.Random(seed)

    def fill(particle, element):
        kind = particle[0]
        if kind == "leaf":
            element.make_child(particle[1], f"v{rng.randrange(4)}")
        elif kind == "rep":
            for _ in range(rng.randrange(4)):
                element.make_child(particle[1], f"v{rng.randrange(4)}")
        elif kind == "opt":
            if rng.random() < 0.6:
                fill(particle[1], element)
        elif kind == "group":
            for _ in range(rng.randrange(3)):
                fill(particle[1], element)
        elif kind == "choice":
            fill(rng.choice(particle[1]), element)
        elif kind == "seq":
            for part in particle[1]:
                fill(part, element)
        else:
            child = element.make_child(particle[1])
            if particle[2] and rng.random() < 0.5:
                child.attributes["a"] = f"v{rng.randrange(4)}"
            for part in particle[3]:
                fill(part, child)

    root = Element("root")
    for _ in range(n_items):
        fill(("seq", named), root.make_child("item"))
    return Document(root)


def nested_mapping(tree, seed) -> Mapping:
    """Hybrid inlining plus drawn repetition splits and union
    distributions: every CHOICE and OPTION is a candidate, the ones
    ``validate()`` refuses are skipped. Raises ``MappingError`` where
    the schema has a repeated group."""
    rng = random.Random(seed)
    mapping = hybrid_inlining(tree)
    for node in tree.iter_nodes():
        if node.kind == NodeKind.REPETITION:
            if tree.is_leaf_element(tree.children(node)[0]) and \
                    rng.random() < 0.4:
                mapping = mapping.with_split(node.node_id,
                                             rng.choice([1, 2, 3]))
        elif node.kind in (NodeKind.CHOICE, NodeKind.OPTION) and \
                len(mapping.distributions) < 3 and rng.random() < 0.5:
            candidate = mapping.with_distribution(
                UnionDistribution(choice_id=node.node_id)
                if node.kind == NodeKind.CHOICE else
                UnionDistribution(optional_ids=frozenset({node.node_id})))
            try:
                candidate.validate()
            except MappingError:
                continue
            mapping = candidate
    return mapping


def nested_value_paths(named, prefix=""):
    """The path below ``item`` of every leaf element and attribute."""
    for particle in named:
        kind = particle[0]
        if kind in ("leaf", "rep"):
            yield prefix + particle[1]
        elif kind in ("opt", "group"):
            yield from nested_value_paths([particle[1]], prefix)
        elif kind in ("choice", "seq"):
            yield from nested_value_paths(particle[1], prefix)
        else:
            if particle[2]:
                yield f"{prefix}{particle[1]}/@a"
            yield from nested_value_paths(particle[3],
                                          f"{prefix}{particle[1]}/")


def nested_queries(named):
    """Every value path as a projection, a value predicate and an
    existence predicate (the survey's query classes over child steps)."""
    paths = list(nested_value_paths(named))
    out = [f"/root/item/{path}" for path in paths]
    for path in paths:
        out.append(f'/root/item[{path} = "v1"]/{paths[0]}')
        out.append(f"/root/item[{path}]/{paths[-1]}")
    return out


def nested_case(spec, seed):
    """``(document, schema, named spec)``; the schema is ``None`` where
    the mapping layer refused the tree — which it may only do by name,
    from ``validate()``, and only for a repeated group. Validating the
    document and collecting its statistics work either way."""
    tree, named = build_nested_tree(spec)
    doc = build_nested_document(named, seed)
    validate(doc, tree)
    collect_statistics(tree, doc)
    try:
        mapping = nested_mapping(tree, seed + 1)
    except MappingError as refusal:
        assert "repeats as part of a group" in str(refusal)
        event("refused: repeated group")
        return doc, None, named
    event(f"distributions: {len(mapping.distributions)}")
    return doc, derive_schema(mapping), named


@given(nested_specs, st.integers(0, 10_000))
@settings(deadline=None)
def test_nested_mapping_pipeline_equivalence(spec, seed):
    doc, schema, named = nested_case(spec, seed)
    if schema is not None:
        assert_engine_matches_dom(schema, doc, nested_queries(named))


@given(nested_specs, st.integers(0, 10_000))
@settings(deadline=None)
def test_nested_mapping_derived_stats_match_shredded(spec, seed):
    doc, schema, _ = nested_case(spec, seed)
    if schema is not None:
        assert_derived_rows_match_loaded(schema, doc)


# ----------------------------------------------------------------------
# What the nested generator found, pinned
# ----------------------------------------------------------------------
def item_dtd(model: str, *leaves: str) -> str:
    return (f"<!ELEMENT root (item*)>\n<!ELEMENT item {model}>\n"
            + "".join(f"<!ELEMENT {leaf} (#PCDATA)>\n" for leaf in leaves))


NESTED_CHOICE_XSD = """
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"
           xmlns:sdb="urn:repro:storage">
  <xs:element name="root" sdb:table="root">
    <xs:complexType><xs:sequence>
      <xs:element name="item" minOccurs="0" maxOccurs="unbounded"
                  sdb:table="item">
        <xs:complexType><xs:sequence>
          <xs:element name="name" type="xs:string"/>
          <xs:choice>
            <xs:choice>
              <xs:element name="x" type="xs:string"/>
              <xs:element name="y" type="xs:string"/>
            </xs:choice>
            <xs:element name="z" type="xs:string"/>
          </xs:choice>
        </xs:sequence></xs:complexType>
      </xs:element>
    </xs:sequence></xs:complexType>
  </xs:element>
</xs:schema>
"""


class TestChoiceNestedInAChoice:
    """``item := (name, ((x | y) | z))``. The dispatch entry kept only
    the innermost choice, so collector and shredder never saw the outer
    one: the default greedy search distributed it, ``item_x`` was sized
    at 0 rows and the design could not be loaded."""

    @pytest.mark.parametrize("spelling", ["dtd", "xsd"])
    def test_greedy_design_is_sized_and_loaded_exactly(self, spelling):
        tree = (parse_xsd(NESTED_CHOICE_XSD) if spelling == "xsd" else
                parse_dtd(item_dtd("(name,((x|y)|z))", "name", "x", "y", "z"),
                          root="root"))
        parts = ["<root>"]
        for i in range(600):    # 197 <z>, 403 <x> or <y>
            tag = "z" if i * 197 % 600 < 197 else "xy"[i % 2]
            parts.append(f"<item><name>n{i}</name><{tag}>v{i % 5}</{tag}>"
                         f"</item>")
        doc = parse("".join(parts) + "</root>")
        validate(doc, tree)
        stats = collect_statistics(tree, doc)
        workload = Workload.from_strings(
            "nested", ['/root/item[z = "v3"]/name', "/root/item/z"])
        result = GreedySearch(tree, workload, stats).run()
        item = tree.find_tag_by_path(("root", "item"))
        outer = tree.plan(item).dispatch["z"].choice_branch[0]
        assert result.mapping.distributions == {
            UnionDistribution(choice_id=outer)}
        derived = derive_table_stats(result.schema, stats)
        assert {name: table.row_count for name, table in derived.items()} \
            == {"item_x": 403, "item_z": 197, "root": 1}
        assert_derived_rows_match_loaded(result.schema, doc)
        report = compare_design(result.schema, result.configuration, doc,
                                [sql for sql, _ in result.sql_queries])
        assert report.status == OK, report.describe()


class TestRefusedByName:
    """What the mapping layer cannot store is refused by
    ``Mapping.validate()`` — never half-partitioned, given no storage,
    or left for the shredder to blame on a valid document."""

    @pytest.mark.parametrize("model, cycle", [
        ("(name,(x|y)?)", (None, "x", "y")),        # under an option
        ("(name,(a|b?))", (None, "a", "b")),        # a branch can be empty
        ("(name,((p|q)|r))", ("r", "p", "q")),      # in another's branch
    ])
    def test_choice_an_instance_can_lack(self, model, cycle):
        """Items take ``cycle`` in turn (``None``: neither leaf), so a
        third of them show no branch of the probed leaf's choice."""
        probe = cycle[1]
        tree = parse_dtd(item_dtd(model, "name", *filter(None, cycle)),
                         root="root")
        parts = ["<root>"]
        for i in range(90):
            tag = cycle[i % 3]
            parts.append(f"<item><name>n{i}</name>"
                         + (f"<{tag}>v{i % 4}</{tag}>" if tag else "")
                         + "</item>")
        doc = parse("".join(parts) + "</root>")
        validate(doc, tree)
        choice = tree.entry(tree.find_tags(probe)[0]).choice_branch[0]
        dist = UnionDistribution(choice_id=choice)
        with pytest.raises(MappingError, match="can lack it"):
            hybrid_inlining(tree).with_distribution(dist).validate()
        # The selector proposes it (the query reads one branch of two);
        # greedy drops it and returns a design that loads.
        stats = collect_statistics(tree, doc)
        workload = Workload.from_strings(
            "lacking", [f'/root/item[{probe} = "v1"]/name'])
        result = GreedySearch(tree, workload, stats).run()
        assert dist not in result.mapping.distributions
        assert_derived_rows_match_loaded(result.schema, doc)
        assert_engine_matches_dom(result.schema, doc,
                                  [str(q.query) for q in workload])

    @pytest.mark.parametrize("model", ["(name,(k,v)*)", "(name,(k?)*,v)",
                                       "(name,(k|v)*)"])
    def test_repeated_group(self, model):
        tree = parse_dtd(item_dtd(model, "name", "k", "v"), root="root")
        doc = parse("<root><item><name>n</name><k>1</k><v>2</v></item></root>")
        validate(doc, tree)
        k = tree.find_tags("k")[0]
        assert collect_statistics(tree, doc).instances(k.node_id) == 1
        with pytest.raises(MappingError) as refusal:
            hybrid_inlining(tree)
        assert str(refusal.value) == (
            f"node #{k.node_id} <k> repeats as part of a group; only a "
            f"repeated element can be mapped")


@pytest.mark.parametrize("index", range(10))
def test_partitions_of_a_group_sum_to_its_owners(index):
    """For every design of ``tests/test_select_shape.py``: each table
    is sized at its loaded rows, and the partitions of a distributed
    group hold every instance of its owner between them."""
    name, schema, _, stats, *_ = design_cases()[index]
    docs = DatasetBundle.named(name.split("/")[0], scale=600, seed=7).docs
    shredded = Shredder(schema).shred(docs)
    derived = derive_table_stats(schema, stats)
    for group in schema.groups.values():
        for table in group.table_names:
            assert derived[table].row_count == len(shredded[table]), table
        if len(group.partitions) > 1:
            assert sum(len(shredded[t]) for t in group.table_names) == sum(
                stats.instances(owner) for owner in group.owner_ids)
