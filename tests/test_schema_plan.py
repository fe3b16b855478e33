"""The compiled schema plan: same answers, pinned messages, per-schema work.

``SchemaTree.plan(node)`` is the one region walker behind the validator,
the statistics collector and the shredder. These tests hold it to

(a) byte-identity with the interpretive implementation it replaced —
    digests recorded from commit ``a15154b`` and committed in
    ``tests/fixtures/schema_plan_digests.json`` (re-record with
    ``PYTHONPATH=<checkout>/src python tests/test_schema_plan.py``);
(b) the validator's messages, path included, one per error kind (a
    sequence that fails part-way reports child #1: the matcher keeps no
    furthest position once its position set is empty — pinned as is);
(c) what each consumer does with a region that declares one child name
    twice;
(d) work that scales with the schema, never with the document.
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.datasets import (dblp_schema, generate_dblp, generate_movies,
                            movie_schema)
from repro.errors import SchemaTreeError, ShreddingError, ValidationError
from repro.mapping import (Shredder, UnionDistribution, collect_statistics,
                           derive_schema, fully_split, hybrid_inlining,
                           shared_inlining, shred_typed_batches,
                           shred_typed_rows)
from repro.xmlkit import parse
from repro.xsd import BaseType, NodeKind, TreeBuilder, validate

DIGESTS = Path(__file__).parent / "fixtures" / "schema_plan_digests.json"


def orders_schema():
    """Attributes on annotated, inlined-complex and inlined-leaf
    elements — the paths DBLP and Movie do not exercise."""
    b = TreeBuilder("orders")
    orders = b.tag("orders", annotation="orders")
    order = b.tag("order", b.rep(orders), annotation="ord")
    b.attribute("id", order, BaseType.INTEGER, required=True)
    b.attribute("placed", order, BaseType.DATE)
    customer = b.leaf("customer", order)
    b.attribute("vip", customer, BaseType.BOOLEAN)
    shipping = b.tag("shipping", b.opt(order))
    b.attribute("express", shipping, BaseType.BOOLEAN)
    b.leaf("city", shipping)
    b.optional_leaf("cost", shipping, BaseType.DECIMAL)
    line = b.tag("line", b.rep(order), annotation="line")
    b.attribute("sku", line, required=True)
    b.attribute("qty", line, BaseType.INTEGER)
    note = b.repeated_leaf("note", order, annotation="note")
    b.attribute("lang", note)
    return b.build(orders)


def orders_document(n: int = 60):
    parts = ["<orders>"]
    for i in range(1, n + 1):
        placed = f' placed="2004-03-{1 + i % 28:02d}"' if i % 3 else ""
        vip = ' vip="true"' if i % 4 == 0 else ""
        parts.append(f'<order id="{i}"{placed}>'
                     f"<customer{vip}>c{i % 7}</customer>")
        if i % 2:
            express = ' express="1"' if i % 5 == 0 else ""
            cost = f"<cost>{i}.5</cost>" if i % 3 == 0 else ""
            parts.append(f"<shipping{express}><city>t{i % 5}</city>{cost}"
                         f"</shipping>")
        for j in range(i % 4):
            qty = f' qty="{j + 1}"' if j % 2 == 0 else ""
            parts.append(f'<line sku="S-{(i + j) % 9}"{qty}/>')
        parts.extend(f'<note lang="l{j}">n{i}-{j}</note>' if j else
                     f"<note>n{i}-{j}</note>" for j in range(i % 3))
        parts.append("</order>")
    parts.append("</orders>")
    return parse("".join(parts))


def identity_cases():
    """``(case name, tree, document, mapping)`` for every fixture."""
    dblp, movie = dblp_schema(), movie_schema()
    orders = orders_schema()
    documents = {"dblp": generate_dblp(300, seed=5),
                 "movie": generate_movies(300, seed=5),
                 "orders": orders_document()}
    presets = (hybrid_inlining, shared_inlining, fully_split)
    for name, tree in (("dblp", dblp), ("movie", movie), ("orders", orders)):
        for preset in presets:
            yield (f"{name}/{preset.__name__}", tree, documents[name],
                   preset(tree))
    author = dblp.find_tag_by_path(("dblp", "inproceedings", "author"))
    yield ("dblp/repetition-split", dblp, documents["dblp"],
           hybrid_inlining(dblp).with_split(dblp.parent(author).node_id, 2))
    choice = movie.nodes_of_kind(NodeKind.CHOICE)[0]
    aka = movie.find_tag_by_path(("movies", "movie", "aka_title"))
    year_opt = movie.parent(movie.find_tag_by_path(
        ("movies", "movie", "year")))
    yield ("movie/union-distributed", movie, documents["movie"],
           hybrid_inlining(movie)
           .with_split(movie.parent(aka).node_id, 2)
           .with_distribution(UnionDistribution(choice_id=choice.node_id))
           .with_distribution(UnionDistribution(
               optional_ids=frozenset({year_opt.node_id}))))
    note = orders.find_tag_by_path(("orders", "order", "note"))
    yield ("orders/repetition-split", orders, documents["orders"],
           hybrid_inlining(orders).with_split(orders.parent(note).node_id, 1))


def rows_digest(rows: dict[str, list[tuple]]) -> str:
    """SHA-256 over table order, row order, values (typed) and IDs."""
    digest = hashlib.sha256()
    for table, table_rows in rows.items():
        digest.update(repr((table, table_rows)).encode())
    return digest.hexdigest()


def stats_dump(stats) -> str:
    """A canonical text of every field of a ``CollectedStats``.

    Outer dictionaries keep their insertion order (it is part of what a
    caller iterating them sees); histogram and signature counters are
    sorted, since a ``frozenset`` has no order to keep.
    """
    return repr((
        stats.total_elements,
        list(stats.instance_counts.items()),
        [(leaf, dataclasses.astuple(column))
         for leaf, column in stats.leaf_stats.items()],
        [(rep, sorted(histogram.items()))
         for rep, histogram in stats.cardinality.items()],
        [(node, sorted((sorted(signature), count)
                       for signature, count in joint.items()))
         for node, joint in stats.joint.items()],
    ))


def compute_digests() -> dict[str, dict[str, str]]:
    out: dict[str, dict[str, str]] = {"rows": {}, "stats": {}}
    for name, tree, doc, mapping in identity_cases():
        out["rows"][name] = rows_digest(
            shred_typed_rows(derive_schema(mapping), doc))
        dataset = name.split("/")[0]
        if dataset not in out["stats"]:
            out["stats"][dataset] = hashlib.sha256(
                stats_dump(collect_statistics(tree, doc)).encode()
            ).hexdigest()
    return out


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text())


@pytest.fixture(scope="module")
def cases():
    return {name: rest for name, *rest in identity_cases()}


# Named from the fixture file so collecting this module generates no
# documents; the first test checks the two lists agree.
CASE_NAMES = list(json.loads(DIGESTS.read_text())["rows"])


# ----------------------------------------------------------------------
# (a) identity with the interpretive implementation
# ----------------------------------------------------------------------
class TestIdentityWithParent:
    def test_every_fixture_has_a_recorded_digest(self, recorded, cases):
        assert list(recorded["rows"]) == list(cases)
        assert sorted(recorded["stats"]) == ["dblp", "movie", "orders"]

    @pytest.mark.parametrize("name", CASE_NAMES)
    def test_typed_rows_digest(self, name, cases, recorded):
        tree, doc, mapping = cases[name]
        validate(doc, tree)
        rows = shred_typed_rows(derive_schema(mapping), doc)
        assert rows_digest(rows) == recorded["rows"][name]

    @pytest.mark.parametrize("dataset", ["dblp", "movie", "orders"])
    def test_collected_stats_digest(self, dataset, cases, recorded):
        tree, doc, _ = cases[f"{dataset}/hybrid_inlining"]
        dump = stats_dump(collect_statistics(tree, doc))
        assert (hashlib.sha256(dump.encode()).hexdigest()
                == recorded["stats"][dataset])

    @pytest.mark.parametrize("name", CASE_NAMES)
    def test_typed_as_written_equals_coercing_the_text_rows(self, name,
                                                            cases):
        # The reference is the pass the slot plan replaced: shred text,
        # then coerce every value of every row by its column's type.
        tree, doc, mapping = cases[name]
        schema = derive_schema(mapping)
        text = Shredder(schema).shred(doc)
        coercers = {t.name: [c.sql_type.coerce for c in t.columns]
                    for t in schema.to_engine_tables()}
        reference = {
            table: [tuple(coerce(v) for coerce, v in zip(coercers[table], r))
                    for r in rows]
            for table, rows in text.items()}
        assert shred_typed_rows(schema, doc) == reference

    @pytest.mark.parametrize("batch_size", [1, 7, 5000])
    def test_lazy_root_batches_concatenate_to_eager(self, batch_size):
        schema = derive_schema(hybrid_inlining(dblp_schema()))
        lazy = generate_dblp(120, seed=9, stream=True)
        eager = generate_dblp(120, seed=9)
        assert Shredder(schema).shred(lazy) == Shredder(schema).shred(eager)
        joined: dict[str, list] = {n: [] for n in schema.table_names}
        for table, rows in shred_typed_batches(schema, lazy, batch_size):
            assert 0 < len(rows) <= batch_size
            joined[table].extend(rows)
        assert joined == shred_typed_rows(schema, eager)



# ----------------------------------------------------------------------
# (b) validator messages, in full
# ----------------------------------------------------------------------
PUBLICATION = ("<inproceedings><title>T</title><booktitle>V</booktitle>"
               "<year>{year}</year><author>A</author><pages>1</pages>"
               "</inproceedings>")
GOOD = PUBLICATION.format(year="1999")

INVALID = {
    "wrong root": (
        "dblp", "<movies/>",
        "root element <movies> does not match schema root <dblp>"),
    "unexpected child": (
        "dblp", f"<dblp>{GOOD}<bogus/></dblp>",
        "content of /dblp does not match its model near child #2 <bogus>"),
    "model mismatch": (
        "dblp", f"<dblp>{GOOD}{GOOD}<inproceedings><title>T</title>"
                f"<year>1</year></inproceedings></dblp>",
        "content of /dblp/inproceedings[3] does not match its model near "
        "child #1 <title>"),
    "model ends early": (
        "dblp", f"<dblp>{GOOD}<inproceedings><title>T</title>"
                f"</inproceedings></dblp>",
        "content of /dblp/inproceedings[2] does not match its model near "
        "child #1 <title>"),
    "leaf with children": (
        "dblp", f"<dblp>{GOOD}<inproceedings><title>T<b/></title>"
                f"<booktitle>V</booktitle><year>1</year><author>A</author>"
                f"<pages>1</pages></inproceedings></dblp>",
        "element at /dblp/inproceedings[2]/title[1] must be a leaf but has "
        "child elements"),
    "bad value": (
        "dblp", f"<dblp>{GOOD}{GOOD}{PUBLICATION.format(year='19x9')}</dblp>",
        "value '19x9' at /dblp/inproceedings[3]/year[3] is not a valid "
        "integer"),
    "unexpected attribute": (
        "orders", '<orders><order id="1" colour="red"><customer>c</customer>'
                  "</order></orders>",
        "unexpected attribute 'colour' at /orders/order[1]"),
    "missing required attribute": (
        "orders", '<orders><order id="1"><customer>c</customer></order>'
                  "<order><customer>c</customer></order></orders>",
        "missing required attribute 'id' at /orders/order[2]"),
    "bad attribute value": (
        "orders", '<orders><order id="1"><customer>c</customer>'
                  '<line sku="a" qty="two"/></order></orders>',
        "value 'two' at /orders/order[1]/line[2]/@qty is not a valid "
        "integer"),
}


class TestValidatorMessages:
    @pytest.mark.parametrize("kind", list(INVALID))
    def test_message_pinned_in_full(self, kind):
        schema, xml, message = INVALID[kind]
        tree = dblp_schema() if schema == "dblp" else orders_schema()
        with pytest.raises(ValidationError) as raised:
            validate(parse(xml), tree)
        assert str(raised.value) == message

    def test_path_starts_at_the_validated_element(self):
        # validate() accepts a sub-element; its path is relative to it.
        b = TreeBuilder("pub")
        pub = b.tag("inproceedings", annotation="inproc")
        b.leaf("year", pub, BaseType.INTEGER)
        doc = parse("<dblp><x/><inproceedings><year>MM</year>"
                    "</inproceedings></dblp>")
        with pytest.raises(ValidationError) as raised:
            validate(doc.root.children[1], b.build(pub))
        assert str(raised.value) == ("value 'MM' at /inproceedings/year[1] "
                                     "is not a valid integer")


class TestContentModelJudgedOncePerSequence:
    """One ``validate()`` call matches each (element plan, child-tag
    sequence) against the content model once."""

    @staticmethod
    def _count_top_level_matches(monkeypatch, tree):
        module = sys.modules["repro.xsd.validate"]
        models = {id(tree.plan(node).model) for node in tree.iter_nodes()
                  if node.kind == NodeKind.TAG}
        calls = []
        match = module._match

        def counting(item, tags, pos):
            if pos == 0 and id(item) in models:
                calls.append((id(item), tags))
            return match(item, tags, pos)

        monkeypatch.setattr(module, "_match", counting)
        return calls

    def test_dblp_sequences_are_matched_once_each(self, monkeypatch):
        tree = dblp_schema()
        doc = generate_dblp(300, seed=3)
        parents = [el for el in doc.iter() if len(el)]
        calls = self._count_top_level_matches(monkeypatch, tree)
        validate(doc, tree)
        assert len(calls) == len(set(calls)) < len(parents) / 2
        validate(doc, tree)     # nothing outlives a call
        assert len(calls) == 2 * len(set(calls))

    def test_past_its_bound_the_memo_only_stops_growing(self, monkeypatch):
        monkeypatch.setattr(sys.modules["repro.xsd.validate"],
                            "_REMEMBERED_SEQUENCES", 1)
        tree = dblp_schema()
        doc = generate_dblp(50, seed=3)
        parents = [el for el in doc.iter() if len(el)]
        calls = self._count_top_level_matches(monkeypatch, tree)
        validate(doc, tree)
        assert len(calls) == len(parents)   # the root's took the one place
        for schema, xml, message in INVALID.values():
            tree = dblp_schema() if schema == "dblp" else orders_schema()
            with pytest.raises(ValidationError) as raised:
                validate(parse(xml), tree)
            assert str(raised.value) == message


class TestLexicalSpace:
    """``int()`` / ``float()`` accept far more than XSD does; a bound
    ``nan`` reached SQLite as NULL."""

    REFUSED = {
        BaseType.INTEGER: ["1_000", "\u0663", "nan", "inf", "1e5", "1.0",
                           "", "+", "0x10", "1 2"],
        BaseType.DECIMAL: ["1_000.5", "\u0663.5", "nan", "inf", "-inf",
                           "1e5", "", ".", "1.2.3", "Infinity"],
        BaseType.BOOLEAN: ["True", "yes", "", "2"],
        BaseType.DATE: ["2004-3-1", "04-03-01", "2004/03/01",
                        "\u0662\u0660\u0660\u0664-03-01", "2004-03-01T00:00"],
    }
    ACCEPTED = {
        BaseType.INTEGER: ["0", "-0", "+5", "007", " 12 ", "\n3\t",
                           "123456789012345678901234567890"],
        BaseType.DECIMAL: ["0", "1.5", "-1.", ".5", "+0.50", " 2.25 ", "12"],
        BaseType.BOOLEAN: ["true", "false", "0", "1", " true "],
        BaseType.DATE: ["2004-03-01", "-0044-03-15", "12004-03-01",
                        "2004-03-01Z", "2004-03-01+05:30", " 2004-03-01 "],
        BaseType.STRING: ["", "nan", "1_000", "\u0663"],
    }

    @staticmethod
    def leaf_tree(base):
        b = TreeBuilder("v")
        root = b.tag("r", annotation="r")
        b.leaf("v", root, base)
        b.attribute("a", root, base)
        return b.build(root)

    @pytest.mark.parametrize("base", list(REFUSED))
    def test_refused(self, base):
        tree = self.leaf_tree(base)
        for text in self.REFUSED[base]:
            root = parse("<r><v/></r>").root
            root.children[0].add_text(text)
            with pytest.raises(ValidationError, match="is not a valid"):
                validate(root, tree)
            ok = parse(f"<r><v>{self.ACCEPTED[base][0]}</v></r>").root
            ok.attributes["a"] = text
            with pytest.raises(ValidationError, match="/r/@a is not a valid"):
                validate(ok, tree)

    @pytest.mark.parametrize("base", list(ACCEPTED))
    def test_accepted(self, base):
        tree = self.leaf_tree(base)
        for text in self.ACCEPTED[base]:
            root = parse("<r><v/></r>").root
            root.children[0].add_text(text)
            root.attributes["a"] = text
            validate(root, tree)

    @pytest.mark.parametrize("seed", [1, 7, 11, 2004])
    def test_bundled_generators_emit_no_refused_form(self, seed):
        validate(generate_dblp(400, seed=seed), dblp_schema())
        validate(generate_movies(400, seed=seed), movie_schema())


class TestZeroWidthModels:
    """A repetition over something that can match nothing must reach a
    fixed point, not loop."""

    @staticmethod
    def tree(min_occurs):
        b = TreeBuilder("z")
        root = b.tag("r", annotation="r")
        b.leaf("a", b.opt(b.rep(root, min_occurs=min_occurs)))
        return b.build(root)

    @pytest.mark.parametrize("xml", ["<r/>", "<r><a>1</a></r>",
                                     "<r><a>1</a><a>2</a></r>"])
    def test_optional_under_star_accepts(self, xml):
        validate(parse(xml), self.tree(0))      # (a?)*

    def test_optional_under_star_refuses_other_children(self):
        with pytest.raises(ValidationError) as raised:
            validate(parse("<r><b/></r>"), self.tree(0))
        assert str(raised.value) == (
            "content of /r does not match its model near child #1 <b>")

    def test_minimum_is_not_met_by_empty_iterations(self):
        # (a?){2,}: the matcher stops at the first zero-width fixed
        # point, so fewer than two real <a> are refused — as always.
        tree = self.tree(2)
        validate(parse("<r><a>1</a><a>2</a></r>"), tree)
        for xml, near in (("<r/>", "(end)"), ("<r><a>1</a></r>", "a")):
            with pytest.raises(ValidationError) as raised:
                validate(parse(xml), tree)
            assert str(raised.value) == (
                f"content of /r does not match its model near child #1 "
                f"<{near}>")


# ----------------------------------------------------------------------
# (c) one child name declared twice in one region
# ----------------------------------------------------------------------
class TestNameDeclaredTwice:
    @pytest.fixture()
    def twice(self):
        b = TreeBuilder("twice")     # item := (a:string, b, a:integer?)
        root = b.tag("r", annotation="r")
        item = b.tag("item", b.rep(root), annotation="item")
        first = b.leaf("a", item)
        b.leaf("b", item)
        last = b.optional_leaf("a", item, BaseType.INTEGER)
        doc = parse("<r><item><a>x</a><b>y</b><a>7</a></item>"
                    "<item><a>x</a><b>y</b></item></r>")
        return b.build(root), item, first, last, doc

    def test_plan_keeps_both_ends(self, twice):
        tree, item, first, last, _ = twice
        plan = tree.plan(item)
        assert [e.node.name for e in plan.entries] == ["a", "b", "a"]
        assert plan.dispatch["a"].node is first
        assert plan.last_dispatch["a"].node is last
        assert plan.dispatch["b"] is plan.last_dispatch["b"]
        unambiguous = dblp_schema()
        root_plan = unambiguous.plan(unambiguous.root)
        assert root_plan.dispatch is root_plan.last_dispatch

    def test_validator_checks_children_against_the_first(self, twice):
        tree, *_, doc = twice
        validate(doc, tree)
        # The second <a> is declared an integer, but is checked as the
        # first declaration's string.
        validate(parse("<r><item><a>x</a><b>y</b><a>z</a></item></r>"), tree)

    def test_collector_counts_every_such_child_under_the_last(self, twice):
        tree, item, first, last, doc = twice
        stats = collect_statistics(tree, doc)
        assert stats.instances(first.node_id) == 0
        assert stats.instances(last.node_id) == 3
        option = tree.parent(last).node_id
        assert dict(stats.joint[item.node_id]) == {
            frozenset({("opt", option)}): 2}
        assert first.node_id not in stats.leaf_stats

    def test_shredder_refuses_the_region(self, twice):
        tree, *_, doc = twice
        schema = derive_schema(hybrid_inlining(tree))
        with pytest.raises(ShreddingError, match="ambiguous element name "
                                                 "<a> in one content region"):
            Shredder(schema).shred(doc)


# ----------------------------------------------------------------------
# (d) work is per schema, never per element
# ----------------------------------------------------------------------
class TestWorkIsPerSchema:
    @staticmethod
    def ingest(n, monkeypatch):
        """Compilations counted over validate + statistics + typed shred."""
        from repro.mapping import shredder as shredder_module
        from repro.xsd import tree as tree_module
        counts = {"plans": 0, "owners": 0, "regions": 0}

        def counting(cls, name, key):
            original = getattr(cls, name)

            def wrapper(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(cls, name, wrapper)

        counting(tree_module.ElementPlan, "__init__", "plans")
        counting(shredder_module._Owner, "__init__", "owners")
        counting(shredder_module.Shredder, "_region", "regions")
        tree = dblp_schema()
        doc = generate_dblp(n, seed=3)
        validate(doc, tree)
        collect_statistics(tree, doc)
        rows = shred_typed_rows(derive_schema(hybrid_inlining(tree)), doc)
        monkeypatch.undo()
        return counts, sum(map(len, rows.values()))

    def test_compilations_do_not_grow_with_the_document(self, monkeypatch):
        small, small_rows = self.ingest(100, monkeypatch)
        large, large_rows = self.ingest(400, monkeypatch)
        assert large_rows > 3 * small_rows
        assert small == large
        tags = len(dblp_schema().nodes_of_kind(NodeKind.TAG))
        assert 0 < small["plans"] <= tags
        assert 0 < small["owners"] <= tags
        assert 0 < small["regions"] <= tags

    def test_accessors_are_lookups_over_the_plan(self):
        tree = orders_schema()
        order = tree.find_tag_by_path(("orders", "order"))
        customer = tree.find_tag_by_path(("orders", "order", "customer"))
        assert tree.children(order) is tree.children(order.node_id)
        assert tree.plan(order) is tree.plan(order.node_id)
        assert [a.name for a in tree.attributes_of(order)] == ["id", "placed"]
        assert tree.attributes_of(tree.parent(order)) == ()
        assert tree.is_leaf_element(customer)
        assert not tree.is_leaf_element(order)
        assert not tree.is_leaf_element(tree.attributes_of(order)[0])
        assert tree.leaf_base_type(customer) == BaseType.STRING
        assert tree.leaf_base_type(tree.attributes_of(order)[0]) \
            == BaseType.INTEGER
        with pytest.raises(SchemaTreeError):
            tree.leaf_base_type(order)
        with pytest.raises(SchemaTreeError):
            tree.plan(tree.parent(order))      # a REPETITION has no plan
        with pytest.raises(SchemaTreeError):
            tree.children(len(tree))

    def test_plan_contents(self):
        tree = orders_schema()
        plan = tree.plan(tree.find_tag_by_path(("orders", "order")))
        assert not plan.is_leaf and plan.base_type is None
        assert [(a.name, a.base_type, a.required) for a in plan.attributes] \
            == [("id", BaseType.INTEGER, True), ("placed", BaseType.DATE,
                                                 False)]
        assert plan.required_attributes == ("id",)
        by_name = {name: tuple(e)[1:] for name, e in plan.dispatch.items()}
        shipping_option = tree.parent(tree.find_tag_by_path(
            ("orders", "order", "shipping"))).node_id
        line_rep, note_rep = plan.repetitions
        # (atoms, innermost option, innermost choice branch, repetition)
        assert by_name == {
            "customer": (frozenset(), None, None, None),
            "shipping": (frozenset({("opt", shipping_option)}),
                         shipping_option, None, None),
            "line": (frozenset(), None, None, line_rep),
            "note": (frozenset(), None, None, note_rep)}
        assert [getattr(m, "name", None) or m.node.name
                for m in plan.members] == [
            "id", "placed", "customer", "shipping", "line", "note"]
        assert plan.entries == plan.members[2:]
        assert all(plan.entry_of[e.node.node_id] is e is tree.entry(e.node)
                   for e in plan.entries)
        assert plan.choices == {}
        assert tuple(tree.entry(tree.root))[1:] == (frozenset(), None,
                                                    None, None)
        leaf = tree.plan(tree.find_tag_by_path(
            ("orders", "order", "shipping", "cost")))
        assert leaf.is_leaf and leaf.base_type == BaseType.DECIMAL
        assert leaf.lexical("1.5") and leaf.lexical("1e5") is None


class TestChoiceBranchIsAParticle:
    """A choice branch that is itself a repetition (or option) is one:
    the interpretive collector and shredder walked *into* such a branch
    and lost it — no cardinality histogram, the split never applied."""

    @pytest.fixture()
    def branchy(self):
        b = TreeBuilder("branchy")   # item := (k, (x | y*))
        root = b.tag("r", annotation="r")
        item = b.tag("item", b.rep(root), annotation="item")
        b.leaf("k", item)
        choice = b.choice(item)
        b.leaf("x", choice)
        rep = b.rep(choice)
        b.leaf("y", rep, annotation="y")
        doc = parse("<r><item><k>1</k><x>a</x></item><item><k>2</k>"
                    "<y>b</y><y>c</y></item><item><k>3</k></item></r>")
        return b.build(root), item, choice, rep, doc

    def test_statistics_see_the_repetition(self, branchy):
        tree, item, choice, rep, doc = branchy
        validate(doc, tree)
        stats = collect_statistics(tree, doc)
        assert dict(stats.cardinality[rep.node_id]) == {0: 2, 2: 1}
        assert dict(stats.joint[item.node_id]) == {
            frozenset({("choice", choice.node_id, 0)}): 1,
            frozenset({("choice", choice.node_id, 1)}): 1,
            frozenset(): 1}

    def test_split_applies_under_the_branch(self, branchy):
        tree, _, _, rep, doc = branchy
        schema = derive_schema(hybrid_inlining(tree).with_split(rep.node_id, 1))
        rows = Shredder(schema).shred(doc)
        assert rows["item"] == [(2, 1, "1", "a", None), (3, 1, "2", None, "b"),
                                (5, 1, "3", None, None)]
        assert rows["y"] == [(4, 3, "c")]


class TestTreeBuilderIsSingleUse:
    def test_adding_after_build_raises(self):
        b = TreeBuilder("once")
        root = b.tag("r", annotation="r")
        b.leaf("a", root)
        tree = b.build(root)
        with pytest.raises(SchemaTreeError, match="already built"):
            b.leaf("late", root)
        assert [c.name for c in tree.children(root)] == ["a"]


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(compute_digests(), indent=1) + "\n")
    print(f"recorded {DIGESTS}")
