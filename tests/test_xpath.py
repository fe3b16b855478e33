"""Unit tests for the XPath lexer, parser and reference evaluator."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datasets import dblp_schema
from repro.errors import TranslationError, XPathError
from repro.mapping import derive_schema, hybrid_inlining
from repro.serve import PlanCache
from repro.translate import Translator
from repro.xmlkit import element, parse
from repro.xpath import (Axis, CompareOp, Predicate, Step, XPathQuery,
                         evaluate, evaluate_values, lex, parse_tokens,
                         parse_xpath)
from repro.xpath.parser import _tokenise_template, tokenise


class TestParser:
    def test_simple_absolute_path(self):
        q = parse_xpath("/dblp/inproceedings/title")
        assert [s.name for s in q.steps] == ["dblp", "inproceedings", "title"]
        assert all(s.axis == Axis.CHILD for s in q.steps)
        assert q.projections == ()

    def test_descendant_axis(self):
        q = parse_xpath("//movie/year")
        assert q.steps[0].axis == Axis.DESCENDANT
        assert q.steps[1].axis == Axis.CHILD

    def test_paper_movie_query(self):
        q = parse_xpath('//movie[title = "Titanic"]/(aka_title | avg_rating)')
        assert q.steps == (Step(Axis.DESCENDANT, "movie"),)
        assert q.predicate.op == CompareOp.EQ
        assert q.predicate.value == "Titanic"
        assert q.predicate.path == (Step(Axis.CHILD, "title"),)
        assert q.projection_names == ("aka_title", "avg_rating")

    def test_relational_predicate(self):
        q = parse_xpath('//movie[year >= "1998"]/(title | box_office)')
        assert q.predicate.op == CompareOp.GE
        assert q.predicate.value == "1998"

    def test_existence_predicate(self):
        q = parse_xpath("//movie[avg_rating]/title")
        assert q.predicate.op is None
        assert q.predicate.path == (Step(Axis.CHILD, "avg_rating"),)

    def test_numeric_literal(self):
        q = parse_xpath("//movie[year = 1997]/title")
        assert q.predicate.value == "1997"

    def test_multi_step_predicate_path(self):
        q = parse_xpath('/a/b[c/d = "v"]/e')
        assert [s.name for s in q.predicate.path] == ["c", "d"]

    def test_predicate_on_middle_step(self):
        q = parse_xpath('/a/b[x = "1"]/c/d')
        assert q.predicate_step == 1
        assert [s.name for s in q.steps] == ["a", "b", "c", "d"]

    def test_big_projection_group(self):
        q = parse_xpath('/dblp/inproceedings[year="2000"]/(title | year | '
                        'cdrom | cite | author | editor | pages | booktitle | ee)')
        assert len(q.projections) == 9

    def test_str_roundtrip(self):
        text = '//movie[title = "Titanic"]/(aka_title | avg_rating)'
        q = parse_xpath(text)
        assert parse_xpath(str(q)) == q

    @pytest.mark.parametrize("bad", [
        "movie/title",       # no leading axis
        "/",                 # empty path
        "/a[x='1'][y='2']/b",  # two predicates on one step
        "/a[b='1']/c[d='2']",  # two predicates on different steps
        "/a/(b|c)/d",        # content after projection group
        "/a[b = ]",          # missing literal
        "/a[b 'v']",         # missing operator with literal
        "/a[b = 'v' 'w']",   # two literals
        "/a[b = 'v]",        # unterminated string
        "/a #/b",            # junk between tokens
        "/ /a",              # two child axes are not one descendant axis
        "/a[b ! = 1]",       # an operator is one token
        "/a/@",              # an attribute step needs its name
        # a relative path does not start with "/" (in a predicate it
        # would be an absolute path); read as "author" / "year", one
        # query had two shapes
        "//inproceedings[year >= 2000]/( / author)",
        "/dblp/book[/year = 1]",
        "",
    ])
    def test_malformed_rejected(self, bad):
        with pytest.raises(XPathError):
            parse_xpath(bad)

    def test_a_literal_is_quoted_with_the_quote_it_lacks(self):
        text = """/dblp/inproceedings[title = 'say "hi"']/year"""
        q = parse_xpath(text)
        assert q.predicate.value == 'say "hi"'
        assert str(q) == text
        assert str(parse_xpath('/a[b = "it\'s"]')) == '/a[b = "it\'s"]'
        with pytest.raises(XPathError, match="both quote characters"):
            Predicate((Step(Axis.CHILD, "b"),), CompareOp.EQ, """'"'""")

    def test_descendant_projection_path_keeps_its_axis(self):
        q = parse_xpath("/a/(//b | c//d)")
        assert q.projections[0][0].axis == Axis.DESCENDANT
        assert str(q) == "/a/(//b | c//d)"

    def test_template_is_the_query_without_its_value(self):
        text = '//movie[year >= 1998]/(title | box_office)'
        shape, values = lex(text)
        template = parse_tokens(shape, text)
        assert values == ("1998",)
        assert template.predicate.op == CompareOp.GE
        assert template.predicate.value is None
        assert str(template) == "//movie[year >= ?]/(title | box_office)"
        assert parse_tokens(shape, text, "1998") == parse_xpath(text)
        with pytest.raises(XPathError):   # a template is not a query
            parse_xpath(str(template))


# ----------------------------------------------------------------------
# Properties: canonical text round-trips; the plan cache's lexer-only
# hit path accepts exactly what the parser accepts
# ----------------------------------------------------------------------

_names = st.from_regex(r"@?[A-Za-z_][\w.\-]{0,5}", fullmatch=True)
_paths = st.lists(st.builds(Step, st.sampled_from(list(Axis)), _names),
                  min_size=1, max_size=3).map(tuple)
_values = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
    st.integers(-10_000, 10_000).map(str),
    st.decimals(-100, 100, places=2).map(str),
).filter(lambda v: '"' not in v or "'" not in v)
_predicates = st.one_of(
    st.builds(Predicate, _paths),
    st.builds(Predicate, _paths, st.sampled_from(list(CompareOp)), _values))


@st.composite
def _queries(draw):
    steps = draw(_paths)
    predicate = draw(st.none() | _predicates)
    at = draw(st.integers(0, len(steps) - 1)) if predicate else None
    return XPathQuery(steps, predicate, at,
                      tuple(draw(st.lists(_paths, max_size=3))))


@settings(max_examples=300, deadline=None)
@given(_queries())
def test_canonical_text_round_trips(query):
    assert parse_xpath(str(query)) == query


#: Valid DBLP queries of different shapes: what the cache is warmed with
#: and what the agreement property mutates.
_BASES = [
    '/dblp/inproceedings[title = "T"]/year',
    "//inproceedings[year >= 2000]/(title | author)",
    "/dblp/inproceedings[booktitle != 'X']/(title | year)",
    "/dblp/book[publisher]/title",
    "/dblp/book[year < -1.5]",
    "//author",
]
_PIECES = sorted({piece for base in _BASES for piece in
                  sum(map(list, zip(*lex(base)[0])), []) if piece} | {
    "=", "<=", ">", '"T"', "'X'", '""', "2000", "-1.5", "9a", "@key",
    "#", "!", '"', "'", "@", "-", ".", "?", "\u00e9", "\u0663"})
_GAPS = st.sampled_from(["", "", " ", "  ", "\t", "\n", "\u00a0"])


@st.composite
def _near_queries(draw):
    """A base query's tokens after a few insertions, deletions and
    replacements, joined by arbitrary (possibly no) whitespace — so
    neighbours merge (``/`` ``/`` into ``//``, ``a`` ``b`` into ``ab``)
    as often as junk appears."""
    shape, _ = lex(draw(st.sampled_from(_BASES)))
    pieces = [name or symbol or draw(st.sampled_from(
        ['"T"', "'X'", "2000", '""'])) for name, symbol in zip(*shape)]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(pieces)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        if edit != "insert" and at < len(pieces):
            del pieces[at]
        if edit != "delete":
            pieces.insert(at, draw(st.sampled_from(_PIECES)))
    return "".join(draw(_GAPS) + piece for piece in pieces) + draw(_GAPS)


#: Pieces that make quoting hard: a quote of either kind alone (with no
#: partner, or pairing with a later one), empty and adjacent literals,
#: a literal holding the other quote kind, numbers against names.
_QUOTE_PIECES = ['"', "'", '""', "''", '"a b"', "'w'", "'c\"d'", '"x\'y"',
                 "1", "12", "-1.5", "1.", "a", "a1", "x-1", "@x", ".", "-",
                 "[", "]", "=", ">", "<=", "/", "//", " ", "\n"]


@given(st.one_of(
    _near_queries(),
    st.lists(st.sampled_from(_QUOTE_PIECES), max_size=12).map("".join),
    st.text(st.sampled_from("\"'a1 -.@[]=/>"), max_size=16)))
@example(']"@x>@x\'w\'')
@example('\'c"d\'1."')
@example('"a""b"')
@example("x-1 = 12")
@example('""')
@example("")
def test_lex_equals_one_pass_of_the_token_regex(text):
    assert lex(text) == tokenise(text)


def test_a_new_quoted_literal_is_not_tokenised_again():
    assert lex('//article[title = "first"]/year')[1] == ("first",)
    misses = _tokenise_template.cache_info().misses
    shape, values = lex('//article[title = "second"]/year')
    assert values == ("second",)
    assert shape == lex('//article[title = "first"]/year')[0]
    assert _tokenise_template.cache_info().misses == misses


@pytest.fixture(scope="module")
def warm_cache():
    schema = derive_schema(hybrid_inlining(dblp_schema()))
    cache = PlanCache(schema, capacity=4096)
    for base in _BASES:
        cache.get_or_translate(base)
    return cache, Translator(schema)


@settings(max_examples=1500, deadline=None)
@given(_near_queries())
@example("//inproceedings[year >= 2000]/( / author)")
@example("/dblp/book[/year = 1]")
def test_the_cache_accepts_exactly_what_the_parser_accepts(warm_cache, text):
    cache, translator = warm_cache
    try:
        parsed = parse_xpath(text)
    except XPathError:
        parsed = None
    try:
        plan, _ = cache.get_or_translate(text)
    except XPathError:
        assert parsed is None, f"parser accepts {text!r}, cache refuses it"
        return
    except TranslationError:    # a query, but not of this schema
        assert parsed is not None
        return
    assert parsed is not None, f"cache serves {text!r}, parser refuses it"
    # The lifted (template, value) is that of the canonical text, so
    # every spelling of one query shares one entry and one plan_key.
    canonical, hit = cache.get_or_translate(str(parsed))
    assert hit
    assert (plan.key, plan.xpath, plan.values) == \
        (canonical.key, str(parsed), canonical.values)
    has_value = parsed.predicate is not None and parsed.predicate.op
    assert plan.values == ((parsed.predicate.value,) if has_value else ())
    assert plan.sql == translator.translate(parsed)


def test_spellings_share_one_entry_and_two_axes_do_not_collide(warm_cache):
    cache, _ = warm_cache
    entries = len(cache)
    keys = {cache.get_or_translate(text)[0].key for text in (
        "//inproceedings[year >= 2000]/(title | author)",
        "//inproceedings[year>='2000']/(title|author)",
        '  //inproceedings [ year >= "2000" ] / ( title | author )\n')}
    assert len(keys) == 1 and len(cache) == entries
    with pytest.raises(XPathError):     # "/ /author" is not "//author"
        cache.get_or_translate("/ /author")
    assert len(cache) == entries


@pytest.fixture
def movie_doc():
    return parse(
        "<movies>"
        "<movie><title>Titanic</title><year>1997</year>"
        "<aka_title>Le Titanic</aka_title><aka_title>Der Untergang</aka_title>"
        "<avg_rating>7.9</avg_rating><box_office>2000000</box_office></movie>"
        "<movie><title>Lost</title><year>2004</year>"
        "<seasons>6</seasons></movie>"
        "<movie><title>Up</title><year>2009</year>"
        "<avg_rating>8.3</avg_rating><box_office>735000</box_office></movie>"
        "</movies>")


class TestEvaluator:
    def test_child_path(self, movie_doc):
        values = evaluate_values(parse_xpath("/movies/movie/title"), movie_doc)
        assert values == ["Titanic", "Lost", "Up"]

    def test_descendant_path(self, movie_doc):
        values = evaluate_values(parse_xpath("//movie/year"), movie_doc)
        assert values == ["1997", "2004", "2009"]

    def test_equality_predicate(self, movie_doc):
        q = parse_xpath('//movie[title = "Titanic"]/(aka_title | avg_rating)')
        assert evaluate_values(q, movie_doc) == \
            ["Le Titanic", "Der Untergang", "7.9"]

    def test_numeric_comparison(self, movie_doc):
        q = parse_xpath('//movie[year >= "2004"]/title')
        assert evaluate_values(q, movie_doc) == ["Lost", "Up"]

    def test_existence_predicate(self, movie_doc):
        q = parse_xpath("//movie[avg_rating]/title")
        assert evaluate_values(q, movie_doc) == ["Titanic", "Up"]

    def test_choice_branch_access(self, movie_doc):
        q = parse_xpath("//movie/box_office")
        assert evaluate_values(q, movie_doc) == ["2000000", "735000"]

    def test_no_matches(self, movie_doc):
        q = parse_xpath('//movie[title = "Nonexistent"]/year')
        assert evaluate(q, movie_doc) == []

    def test_context_elements_returned_without_projection(self, movie_doc):
        q = parse_xpath('//movie[year = "1997"]')
        result = evaluate(q, movie_doc)
        assert len(result) == 1
        assert result[0].find("title").text == "Titanic"

    def test_descendant_matches_at_any_depth(self):
        doc = element("a", element("b", element("c", "x")),
                      element("c", "y"))
        assert evaluate_values(parse_xpath("//c"), doc) == ["x", "y"]

    def test_root_name_must_match_for_child_axis(self, movie_doc):
        q = parse_xpath("/wrong/movie/title")
        assert evaluate(q, movie_doc) == []

    def test_predicate_on_middle_step(self):
        doc = element(
            "r",
            element("g", element("k", "1"), element("v", "a")),
            element("g", element("k", "2"), element("v", "b")),
        )
        q = parse_xpath('/r/g[k = "2"]/v')
        assert evaluate_values(q, doc) == ["b"]

    def test_projection_order_groups_by_context(self, movie_doc):
        q = parse_xpath("//movie/(title | year)")
        assert evaluate_values(q, movie_doc) == \
            ["Titanic", "1997", "Lost", "2004", "Up", "2009"]
