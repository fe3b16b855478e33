"""Unit tests for the XML document model, parser, and writer."""

import copy
import gc
import os
import pickle
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest

from repro.backends import SQLiteBackend
from repro.datasets import (dblp_schema, generate_dblp, generate_movies,
                            movie_schema)
from repro.errors import InjectedFault, ValidationError, XMLParseError
from repro.mapping import collect_statistics, derive_schema, hybrid_inlining
from repro.resilience import NULL_PLAN, install_fault_plan
from repro.xmlkit import (Document, Element, collection_paused,
                          count_elements, element, parse, parse_file,
                          serialize)
from repro.xmlkit.doc import NO_ATTRIBUTES
from repro.xpath import evaluate, parse_xpath
from repro.xsd import parse_dtd, parse_xsd, validate
from tests.test_schema_plan import orders_document, orders_schema
from tests.test_xsd import MOVIE_XSD

# (input, message, line, column) as raised by the recursive-descent,
# character-at-a-time parser the token loop replaced; recorded from it
# before the rewrite. The token loop hands what its regex refuses back to
# the same character scanner, so each cause and location is unchanged.
MALFORMED = [
    ('<a><b></a>', 'mismatched end tag </a> for <b>', 1, 10),
    ('<a>', 'unterminated element <a>', 1, 4),
    ('<a x=1/>', 'attribute value must be quoted', 1, 6),
    ("<a x='1' x='2'/>", "duplicate attribute 'x'", 1, 13),
    ('<a>&nosuch;</a>', 'unknown entity &nosuch;', 1, 4),
    ('<a/><b/>', 'content after root element', 1, 5),
    ('just text', 'expected root element', 1, 1),
    ('<a></a>trailing<b/>', 'content after root element', 1, 8),
    ('<a>&#xZZ;</a>', 'bad character reference &#xZZ;', 1, 4),
    ('<a><!-- never closed</a>', 'unterminated comment', 1, 8),
    ('<a><![CDATA[never closed</a>', 'unterminated CDATA section', 1, 13),
    ('<a><?pi never closed</a>', 'unterminated processing instruction', 1, 6),
    ('<!DOCTYPE a [<!ELEMENT a (#PCDATA)><a/>', 'unterminated DOCTYPE', 1, 40),
    ("<a x='never closed/>", 'unterminated attribute value', 1, 7),
    ('<a x="never closed/>', 'unterminated attribute value', 1, 7),
    ('<1a/>', 'expected a name', 1, 2),
    ('<a><-b/></a>', 'expected a name', 1, 5),
    ("<a x '1'/>", "expected '='", 1, 6),
    ('<a>1 < 2</a>', 'expected a name', 1, 7),
    ('</a>', 'expected a name', 1, 2),
    ('text<a/>', 'expected root element', 1, 1),
    ('<a/>text', 'content after root element', 1, 5),
    ('<a>&amp</a>', 'unterminated entity reference', 1, 4),
    ("<a x='&nosuch;'/>", 'unknown entity &nosuch;', 1, 7),
    ("<a x='&#xZZ;'/>", 'bad character reference &#xZZ;', 1, 7),
    ("<a x='&amp'/>", 'unterminated entity reference', 1, 7),
    ('<a>\n<b>\n  text</c>\n</a>', 'mismatched end tag </c> for <b>', 3, 10),
    ('', 'expected root element', 1, 1),
    ('  \n ', 'expected root element', 2, 2),
    ("<?xml version='1.0'", "expected '?>'", 1, 20),
    ('<?xml version=1.0?><a/>', 'attribute value must be quoted', 1, 15),
    ("<?xml version='1.0'?>", 'expected root element', 1, 22),
    ('<a><b/', "expected '>'", 1, 6),
    ('<a></a', "expected '>'", 1, 7),
    ('<a></ a>', 'expected a name', 1, 6),
    ('<a><</a>', 'expected a name', 1, 5),
    ('<a b></a>', "expected '='", 1, 5),
    ('<a/ >', "expected '>'", 1, 3),
    ('<a>text', 'unterminated element <a>', 1, 4),
    ('<!-- top never closed', 'unterminated comment', 1, 5),
    ('<?pi top never closed', 'unterminated processing instruction', 1, 3),
    ('<a/><!-- after', 'unterminated comment', 1, 9),
    ('<a>&#;</a>', 'bad character reference &#;', 1, 4),
    ('<a>&;</a>', 'unknown entity &;', 1, 4),
    ('<a><b>x</c></a>', 'mismatched end tag </c> for <b>', 1, 11),
    ('<a><!DOCTYPE x></a>', 'expected a name', 1, 5),
    ("<a xml:lang='en' 1x='2'/>", 'expected a name', 1, 18),
    ("<a>\r\n<b x='1'\r\n y=2/></a>", 'attribute value must be quoted', 3, 4),
    ('<a><b></b></a></a>', 'content after root element', 1, 15),
    ('<a>&#x110000;</a>', 'bad character reference &#x110000;', 1, 4),
    ('<a>&#-1;</a>', 'bad character reference &#-1;', 1, 4),
    ('<a></b>', 'mismatched end tag </b> for <a>', 1, 7),
    ('<a>x</a x>', "expected '>'", 1, 9),
    ('<a></a\n', "expected '>'", 2, 1),
    ("<a x='1' ?>", "expected '>'", 1, 10),
    ("<a x='1'/ >", "expected '>'", 1, 9),
    ("<a><b x='1' x='2'>t</b></a>", "duplicate attribute 'x'", 1, 16),
    ("<a><b y='&bad;' y='2'/></a>", 'unknown entity &bad;', 1, 10),
    ("<a><b y='1' y='&bad;'/></a>", "duplicate attribute 'y'", 1, 16),
    ('<a>ok<b>&lt;&bogus;</b></a>', 'unknown entity &bogus;', 1, 13),
    ('<a><![CDATA[x]]><b></a>', 'mismatched end tag </a> for <b>', 1, 23),
    ('<a>\n\n   <b>\n</a>', 'mismatched end tag </a> for <b>', 4, 4),
    ("<a x = 'v' y = >", 'attribute value must be quoted', 1, 16),
    ('<a><b/><c></a>', 'mismatched end tag </a> for <c>', 1, 14),
    ('<a>é<é/></a>', 'expected a name', 1, 6),
    ("<a x='1'\xa0y='2'/>", 'expected a name', 1, 9),
    ('<a>x</a\xa0>', "expected '>'", 1, 8),
    ('<a', "expected '>'", 1, 3),
    ('<a ', "expected '>'", 1, 4),
    ('<', 'expected a name', 1, 2),
    ('<a><b>text</b ></a >x', 'content after root element', 1, 21),
    ('<a><!- x --></a>', 'expected a name', 1, 5),
    ('<a><![CDATA x]]></a>', 'expected a name', 1, 5),
    ('<a><!---></a>', 'unterminated comment', 1, 8),
    # A run of attribute-less leaves, attached whole after a start tag,
    # cut short by what only the token loop reads; recorded from the
    # token loop before runs were attached whole.
    ('<r><a>x</a><b>&bogus;</b><c>z</c></r>', 'unknown entity &bogus;', 1, 15),
    ('<r><a>x</a>&nosuch;<b>y</b></r>', 'unknown entity &nosuch;', 1, 12),
    ('<r><title>x</title  ><year>1</yea></r>',
     'mismatched end tag </yea> for <year>', 1, 34),
    ("<r><a>x</a><b k='1' k='2'>y</b><c>z</c></r>",
     "duplicate attribute 'k'", 1, 24),
    ('<r><a>x</a><!-- never closed<b>y</b></r>', 'unterminated comment', 1, 16),
    ('<r><a>x</a><![CDATA[y<b>z</b></r>', 'unterminated CDATA section', 1, 21),
    ('<r><a>x</a><n><b>y</b></r>', 'mismatched end tag </r> for <n>', 1, 26),
    ('<r><a>x</a><b>y</c><d>z</d></r>', 'mismatched end tag </c> for <b>', 1, 19),
    ('<r>\n  <a>x</a>\n  <b>y</b  \n>\n  <c>z</d>\n</r>',
     'mismatched end tag </d> for <c>', 5, 10),
    ('<r><a>x</a><b>y</b>', 'unterminated element <r>', 1, 20),
    ('<r><a>x</a><b>y</b><c>1 < 2</c></r>', 'expected a name', 1, 26),
    ('<r><a>x</a><b>y</b></r x>', "expected '>'", 1, 24),
    ('<r><a>x</a><b>y</b ></r><s/>', 'content after root element', 1, 25),
]


class TestElementModel:
    def test_append_sets_parent(self):
        parent = Element("a")
        child = parent.make_child("b")
        assert parent.children[-1] is child
        assert parent.children == (child,)
        # a tree, not a graph: nothing points back up
        assert not hasattr(child, "parent")

    def test_make_child_with_text(self):
        el = Element("a")
        child = el.make_child("title", "Titanic")
        assert child.text == "Titanic"

    def test_find_and_find_all(self):
        root = element("r", element("x", "1"), element("y"), element("x", "2"))
        assert root.find("x").text == "1"
        assert [e.text for e in root.find_all("x")] == ["1", "2"]
        assert root.find("missing") is None

    def test_iter_is_preorder(self):
        root = element("a", element("b", element("c")), element("d"))
        assert [e.tag for e in root.iter()] == ["a", "b", "c", "d"]

    def test_descendants_filters_by_tag(self):
        root = element("a", element("b", element("b")), element("c"))
        assert len(list(root.descendants("b"))) == 2
        assert len(list(root.descendants())) == 3

    def test_string_value_concatenates_descendant_text(self):
        root = element("a", "x", element("b", "y"), "z")
        assert root.string_value() == "xyz"

    def test_len_counts_children(self):
        root = element("a", element("b"), element("c"))
        assert len(root) == 2

    def test_count_elements(self):
        roots = [element("a", element("b")), element("c")]
        assert count_elements(roots) == 3


class TestNodeLayout:
    """A parsed document is a tree of lean nodes: no element points
    back up, so dropping one is reference counting, not a collection."""

    @pytest.fixture(scope="class")
    def dblp_text(self):
        return serialize(generate_dblp(2000, seed=7))

    def test_a_dropped_document_leaves_no_cyclic_garbage(self, dblp_text):
        gc.collect()
        doc = parse(dblp_text)
        assert count_elements([doc.root]) > 15000
        del doc
        assert gc.collect() == 0

    def test_a_leaf_is_one_tracked_object(self, dblp_text):
        gc.collect()
        before = len(gc.get_objects())
        doc = parse(dblp_text)
        tracked = len(gc.get_objects()) - before
        # the element, plus a child and a text list per inner element
        assert tracked / count_elements([doc.root]) <= 1.3

    @pytest.mark.parametrize("source", ["parsed", "generated", "streamed"])
    def test_an_element_without_attributes_holds_no_dict(self, dblp_text,
                                                         source):
        if source == "parsed":
            elements = list(parse(dblp_text).iter())
        elif source == "generated":
            elements = list(generate_dblp(2000, seed=7).iter())
        else:
            root = generate_dblp(2000, seed=7, stream=True).root
            elements = [root] + [el for child in root for el in child.iter()]
        assert len(elements) > 15000
        assert all(el.attribute_map is NO_ATTRIBUTES for el in elements)

    @pytest.mark.parametrize("source, bound", [("parsed", 225),
                                               ("generated", 145)])
    def test_retained_bytes_per_element(self, dblp_text, source, bound):
        # tracemalloc on CPython 3.11: 211 B parsed, 132 B generated; an
        # empty dict per element adds 64 B to each (275 and 196)
        gc.collect()
        tracemalloc.start()
        try:
            doc = (parse(dblp_text) if source == "parsed"
                   else generate_dblp(2000, seed=7))
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained / count_elements([doc.root]) <= bound

    def test_dropping_a_very_deep_document_keeps_the_c_stack(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        script = ("from repro.xmlkit import parse\n"
                  "doc = parse('<a>' * 100_000 + '</a>' * 100_000)\n"
                  "del doc\n"
                  "print('dropped')\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert (proc.returncode, proc.stdout) == (0, "dropped\n"), proc.stderr


def _dicts_without_attributes(root: Element) -> int:
    """Elements below ``root`` that have no attributes and hold a dict
    anyway."""
    return sum(1 for el in root.iter()
               if not el.attribute_map and el.attribute_map is not NO_ATTRIBUTES)


_ATTRIBUTE_QUERIES = {"dblp": "//@key", "movie": "//@id",
                      "orders": "//@lang"}


class TestReadersAllocateNothing:
    """Every reader on the ingest and serve paths reads attributes
    through ``attribute_map``, so no walk gives a bare element the dict
    it does not store; ``attributes`` still makes one to write into."""

    @pytest.fixture(scope="class", params=["dblp", "movie", "orders"])
    def dataset(self, request):
        if request.param == "dblp":
            tree, text = dblp_schema(), serialize(generate_dblp(200, seed=7))
        elif request.param == "movie":
            tree = movie_schema()
            text = serialize(generate_movies(200, seed=7))
        else:
            tree, text = orders_schema(), serialize(orders_document())
        return request.param, tree, text

    @pytest.mark.parametrize("reader", ["validate", "collect_statistics",
                                        "load", "serialize", "evaluate"])
    def test_a_reader_makes_no_dict(self, dataset, reader):
        name, tree, text = dataset
        doc = parse(text)
        if reader == "validate":
            validate(doc, tree)
        elif reader == "collect_statistics":
            collect_statistics(tree, doc)
        elif reader == "load":
            with SQLiteBackend(":memory:") as backend:
                backend.load(derive_schema(hybrid_inlining(tree)), doc)
        elif reader == "serialize":
            assert serialize(doc) == text
        else:
            evaluate(parse_xpath(_ATTRIBUTE_QUERIES[name]), doc)
        assert _dicts_without_attributes(doc.root) == 0

    def test_the_xsd_reader_makes_no_dict(self):
        doc = parse(MOVIE_XSD)
        parse_xsd(doc, name="movie")
        assert _dicts_without_attributes(doc.root) == 0

    def test_the_shared_map_refuses_writes_and_survives_a_copy(self):
        doc = orders_document(3)
        with pytest.raises(TypeError):
            doc.root.attribute_map["k"] = "v"
        for copied in (pickle.loads(pickle.dumps(doc)), copy.deepcopy(doc)):
            assert serialize(copied) == serialize(doc)
            assert copied.root.attribute_map is NO_ATTRIBUTES
            assert _dicts_without_attributes(copied.root) == 0

    @pytest.mark.parametrize("case", ["parsed leaf", "parsed root",
                                      "generated", "constructed"])
    def test_writing_through_attributes_round_trips(self, case):
        if case.startswith("parsed"):
            root = parse("<r><a>x</a><b/></r>").root
            target = root if case == "parsed root" else root.find("a")
        elif case == "generated":
            root = generate_dblp(3, seed=7).root
            target = root.children[0].children[0]
        else:
            root = element("r", element("a", "x"))
            target = root.children[0]
        assert target.attribute_map is NO_ATTRIBUTES
        target.attributes["k"] = 'v "1" & <2>'
        target.attributes["m"] = ""
        assert target.attribute_map == {"k": 'v "1" & <2>', "m": ""}
        again = parse(serialize(root)).root
        assert serialize(again) == serialize(root)
        written = [el.attributes for el in again.iter() if el.attribute_map]
        assert written == [{"k": 'v "1" & <2>', "m": ""}]


@pytest.fixture
def collection_state():
    """Put the collector back as it was, whatever the test left."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def enabled(request, collection_state):
    """Run the test with automatic collection on, then with it off."""
    (gc.enable if request.param else gc.disable)()
    return request.param


@pytest.mark.usefixtures("collection_state")
class TestCollectionPaused:
    """``collection_paused`` switches automatic collection off for its
    body and puts it back as it found it, however the body ends and
    however pauses overlap."""

    def test_it_restores_what_it_found(self, enabled):
        with collection_paused():
            assert not gc.isenabled()
        assert gc.isenabled() is enabled

    def test_it_nests(self):
        gc.enable()
        with collection_paused():
            with collection_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_it_resumes_after_an_exception(self, enabled):
        with pytest.raises(KeyError):
            with collection_paused():
                raise KeyError("body")
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("first_to_end", [0, 1])
    def test_overlapping_pauses_of_two_threads(self, first_to_end):
        gc.enable()
        entered = [threading.Event(), threading.Event()]
        release = [threading.Event(), threading.Event()]
        ended = [threading.Event(), threading.Event()]

        def pause(i):
            with collection_paused():
                entered[i].set()
                release[i].wait(10)
            ended[i].set()

        threads = [threading.Thread(target=pause, args=(i,))
                   for i in (0, 1)]
        for thread, event in zip(threads, entered):
            thread.start()
            assert event.wait(10)
        last_to_end = 1 - first_to_end
        release[first_to_end].set()
        assert ended[first_to_end].wait(10)
        assert not gc.isenabled()
        release[last_to_end].set()
        for thread in threads:
            thread.join(10)
        assert gc.isenabled()


class TestIngestStagesRestoreTheCollector:
    """Each stage that pauses collection leaves it as it found it, also
    when it raises."""

    @pytest.fixture(scope="class")
    def dblp(self):
        tree = dblp_schema()
        text = serialize(generate_dblp(60, seed=7))
        return tree, text, derive_schema(hybrid_inlining(tree))

    def test_every_stage_of_an_ingest(self, dblp, enabled):
        tree, text, schema = dblp
        doc = parse(text)
        assert gc.isenabled() is enabled
        validate(doc, tree)
        assert gc.isenabled() is enabled
        collect_statistics(tree, doc)
        assert gc.isenabled() is enabled
        with SQLiteBackend(":memory:") as backend:
            backend.load(schema, doc, batch_size=40)
        assert gc.isenabled() is enabled

    def test_a_malformed_document(self, enabled):
        with pytest.raises(XMLParseError):
            parse("<a><b></a>")
        assert gc.isenabled() is enabled

    def test_an_invalid_document(self, dblp, enabled):
        tree, _, _ = dblp
        with pytest.raises(ValidationError):
            validate(parse("<dblp><book><title>t</title></book></dblp>"),
                     tree)
        assert gc.isenabled() is enabled

    def test_a_load_that_fails_midway(self, dblp, enabled):
        _, text, schema = dblp
        doc = parse(text)
        install_fault_plan("backend.load.batch:1:fatal:0:2")
        try:
            with SQLiteBackend(":memory:") as backend:
                with pytest.raises(InjectedFault):
                    backend.load(schema, doc, batch_size=40)
        finally:
            install_fault_plan(NULL_PLAN)
        assert gc.isenabled() is enabled


def _cyclic_garbage_left(stage) -> int:
    """What ``gc.collect()`` finds after ``stage()`` ran with automatic
    collection off throughout."""
    gc.collect()
    with collection_paused():
        stage()
        return gc.collect()


@pytest.mark.usefixtures("collection_state")
class TestIngestLeavesNoGarbagePerRecord:
    """The pause rests on this: over a streamed document, whose records
    are generated and dropped one at a time, what a stage leaves to the
    collector is its set-up, not a cycle per record — the same at
    2 000 records as at 6 000."""

    @staticmethod
    def _left_behind(schema_of, generate, n) -> tuple[int, int, int]:
        tree = schema_of()
        doc = generate(n, stream=True)
        schema = derive_schema(hybrid_inlining(tree))
        with SQLiteBackend(":memory:") as backend:
            return (_cyclic_garbage_left(lambda: validate(doc, tree)),
                    _cyclic_garbage_left(
                        lambda: collect_statistics(tree, doc)),
                    _cyclic_garbage_left(lambda: backend.load(schema, doc)))

    @pytest.mark.parametrize("schema_of, generate", [
        (dblp_schema, generate_dblp), (movie_schema, generate_movies)],
        ids=["dblp", "movie"])
    def test_validate_statistics_and_load(self, schema_of, generate):
        small = self._left_behind(schema_of, generate, 2000)
        large = self._left_behind(schema_of, generate, 6000)
        assert small == large


class TestParser:
    def test_simple_document(self):
        doc = parse("<a><b>hello</b></a>")
        assert doc.root.tag == "a"
        assert doc.root.find("b").text == "hello"

    def test_declaration(self):
        doc = parse('<?xml version="1.1" encoding="latin-1"?><a/>')
        assert doc.version == "1.1"
        assert doc.encoding == "latin-1"

    def test_attributes(self):
        doc = parse("""<a x="1" y='two "quoted"'/>""")
        assert doc.root.attributes == {"x": "1", "y": 'two "quoted"'}

    def test_entities(self):
        doc = parse("<a>&lt;&gt;&amp;&apos;&quot;</a>")
        assert doc.root.text == "<>&'\""

    def test_numeric_character_references(self):
        doc = parse("<a>&#65;&#x42;</a>")
        assert doc.root.text == "AB"

    def test_self_closing(self):
        doc = parse("<a><b/><c/></a>")
        assert [c.tag for c in doc.root.children] == ["b", "c"]

    def test_comments_and_pis_skipped(self):
        doc = parse("<!-- top --><?pi data?><a><!-- in -->text<?x?></a>")
        assert doc.root.text == "text"

    def test_cdata(self):
        doc = parse("<a><![CDATA[<not>parsed&]]></a>")
        assert doc.root.text == "<not>parsed&"

    def test_doctype_skipped(self):
        doc = parse('<!DOCTYPE a [<!ELEMENT a (#PCDATA)>]><a>x</a>')
        assert doc.root.text == "x"

    def test_mixed_content_preserved(self):
        doc = parse("<a>one<b>two</b>three</a>")
        assert doc.root.text == "onethree"
        assert doc.root.string_value() == "onetwothree"

    def test_whitespace_in_end_tag(self):
        doc = parse("<a>x</a >")
        assert doc.root.text == "x"

    @pytest.mark.parametrize("bad", [
        "<a><b></a>",          # mismatched tags
        "<a>",                  # unterminated
        "<a x=1/>",            # unquoted attribute
        "<a x='1' x='2'/>",    # duplicate attribute
        "<a>&nosuch;</a>",     # unknown entity
        "<a/><b/>",            # two roots
        "just text",            # no element
        "<a></a>trailing<b/>", # content after root
        "<a>&#xZZ;</a>",       # bad char ref
    ])
    def test_malformed_raises(self, bad):
        with pytest.raises(XMLParseError):
            parse(bad)

    def test_error_carries_location(self):
        with pytest.raises(XMLParseError) as excinfo:
            parse("<a>\n  <b></c>\n</a>")
        assert excinfo.value.line == 2

    def test_malformed_inputs_keep_their_message_line_and_column(self):
        assert len(MALFORMED) >= 30
        differing = []
        for text, message, line, column in MALFORMED:
            with pytest.raises(XMLParseError) as excinfo:
                parse(text)
            found = (str(excinfo.value), excinfo.value.line,
                     excinfo.value.column)
            expected = (f"{message} at line {line}, column {column}",
                        line, column)
            if found != expected:
                differing.append((text, expected, found))
        assert not differing

    @pytest.mark.parametrize("text, column", [
        ("<a>&#99999999999;</a>", 4),
        ("<a x='&#99999999999;'/>", 7),
        ("<a>\n<b y=\"&#x99999999999;\">t</b></a>", 7),
    ])
    def test_character_reference_beyond_a_c_int_is_refused(self, text, column):
        # chr() raises OverflowError there, not ValueError
        with pytest.raises(XMLParseError,
                           match="bad character reference &#x?99999999999;"
                           ) as excinfo:
            parse(text)
        assert excinfo.value.column == column

    def test_nesting_deeper_than_the_interpreter_stack(self):
        depth = 5_000
        doc = parse("<a>" * depth + "</a>" * depth)
        levels, node, parent, grandparent = 1, doc.root, None, None
        while len(node):
            grandparent, parent = parent, node
            (node,) = node.children
            levels += 1
        # ``depth`` levels from the root down: the root is the outermost
        # <a>, with nothing of the parser's above it
        assert levels == depth and doc.root.tag == "a"
        assert grandparent.tag == "a" and grandparent.children == (parent,)
        assert parent.children == (node,)
        # no schema is recursive (tests/test_recursion_guards.py), so
        # none accepts it: the validator names the violation
        with pytest.raises(ValidationError, match="must be a leaf"):
            validate(doc, parse_dtd("<!ELEMENT a (#PCDATA)>", root="a"))
        with pytest.raises(ValidationError, match="does not match its model"):
            validate(doc, parse_dtd(
                "<!ELEMENT a (b?)><!ELEMENT b (#PCDATA)>", root="a"))

    def test_parse_file_skips_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "bom.xml"
        path.write_bytes(b"\xef\xbb\xbf<?xml version='1.0'?><a>\xc3\xa9</a>")
        assert parse_file(str(path)).root.text == "\u00e9"
        path.write_bytes(b"<a>plain</a>")
        assert parse_file(str(path)).root.text == "plain"

    def test_tag_name_is_read_whole_before_attributes(self):
        # attributes need no space between them, but a tag name does not
        # end where an attribute could begin
        assert parse("<a x='1'y='2'/>").root.attributes == {"x": "1", "y": "2"}
        with pytest.raises(XMLParseError, match="expected a name"):
            parse("<ab='1'/>")

    def test_only_the_scanners_whitespace_separates(self):
        # U+00A0 and form feed are white space to ``\\s``, not to XML
        for gap in ("\xa0", "\x0c", "\x1f"):
            with pytest.raises(XMLParseError):
                parse(f"<a{gap}x='1'/>")
            with pytest.raises(XMLParseError):
                parse(f"<a>t</a{gap}>")
        assert parse("<a\r\n\tx\n=\n'1'\n/>").root.attributes == {"x": "1"}

    @pytest.mark.parametrize("text, expected", [
        # an entity inside a run
        ("<r><a>x</a><b>&amp;</b><c>z</c></r>",
         element("r", element("a", "x"), element("b", "&"),
                 element("c", "z"))),
        # white space inside the end tag of a leaf of the run
        ("<r><title>x</title  ><year>1</year \n></r>",
         element("r", element("title", "x"), element("year", "1"))),
        # a leaf with attributes mid-run
        ("<r><a>x</a><b k='1'>y</b><c>z</c></r>",
         element("r", element("a", "x"),
                 element("b", "y", attributes={"k": "1"}),
                 element("c", "z"))),
        # a comment, then CDATA, between leaves
        ("<r><a>x</a><!-- c --><b>y</b><![CDATA[t]]><c>z</c></r>",
         element("r", element("a", "x"), element("b", "y"), "t",
                 element("c", "z"))),
        # a nested element after a run, and a run after it
        ("<r><a>x</a><n><b>y</b></n><c>z</c><d></d></r>",
         element("r", element("a", "x"), element("n", element("b", "y")),
                 element("c", "z"), element("d"))),
        # character data around and between the leaves, and a leaf with
        # a child that is itself a run
        ("<r>\n  <a>x</a>\n  <b>y > 1</b>t\n<c><d>z</d></c></r>",
         element("r", "\n  ", element("a", "x"), "\n  ",
                 element("b", "y > 1"), "t\n",
                 element("c", element("d", "z")))),
    ])
    def test_a_leaf_run_cut_short_gives_the_token_loops_tree(self, text,
                                                            expected):
        def shape(el):
            return (el.tag, el.attributes, el.text_segments,
                    [shape(child) for child in el.children])

        assert shape(parse(text).root) == shape(expected)

class TestWriter:
    def test_roundtrip_simple(self):
        text = '<a x="1"><b>hi &amp; bye</b><c/></a>'
        doc = parse(text)
        assert serialize(doc, declaration=False) == text

    def test_escapes_attribute_quotes(self):
        el = Element("a", {"x": 'say "hi" & <go>'})
        out = serialize(el)
        assert "&quot;" in out and "&amp;" in out and "&lt;" in out
        assert parse(out).root.attributes["x"] == 'say "hi" & <go>'

    def test_declaration_emitted(self):
        doc = Document(Element("a"))
        assert serialize(doc).startswith('<?xml version="1.0"')

    def test_pretty_print_indents(self):
        root = element("a", element("b", "x"), element("c"))
        out = serialize(root, indent=2)
        assert "\n  <b>" in out

    def test_roundtrip_mixed_content(self):
        text = "<a>one<b>two</b>three</a>"
        assert serialize(parse(text), declaration=False) == text
