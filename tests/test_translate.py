"""Unit tests for XPath-to-SQL translation."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.backends import SQLITE
from repro.datasets import dblp_schema, movie_schema
from repro.errors import TranslationError
from repro.mapping import (UnionDistribution, derive_schema, fully_split,
                           hybrid_inlining, shared_inlining)
from repro.sqlast import Exists, Or, parse_sql
from repro.translate import Translator, resolve_steps, translate_xpath
from repro.xpath import parse_xpath
from repro.xsd import NodeKind

from .test_select_shape import design_cases

RENDERED = Path(__file__).parent / "fixtures" / "rendered_sql_digests.json"


@pytest.fixture(scope="module")
def dblp():
    return dblp_schema()


@pytest.fixture(scope="module")
def movie():
    return movie_schema()


class TestResolveSteps:
    def test_absolute_child_path(self, dblp):
        q = parse_xpath("/dblp/inproceedings/title")
        nodes = resolve_steps(dblp, q.steps)
        assert len(nodes) == 1
        assert dblp.tag_path(nodes[0]) == ("dblp", "inproceedings", "title")

    def test_descendant_matches_both_titles(self, dblp):
        q = parse_xpath("//title")
        nodes = resolve_steps(dblp, q.steps)
        assert len(nodes) == 2

    def test_descendant_under_context(self, dblp):
        q = parse_xpath("//book/author")
        nodes = resolve_steps(dblp, q.steps)
        assert len(nodes) == 1
        assert dblp.tag_path(nodes[0]) == ("dblp", "book", "author")

    def test_no_match(self, dblp):
        q = parse_xpath("/dblp/nonexistent")
        assert resolve_steps(dblp, q.steps) == []


class TestHybridTranslation:
    def test_paper_mapping1_shape(self, dblp):
        schema = derive_schema(hybrid_inlining(dblp))
        q = translate_xpath(
            schema,
            '/dblp/inproceedings[booktitle = "SIGMOD CONFERENCE"]'
            '/(title | year | author)')
        assert len(q.selects) == 2
        assert q.order_by == (1,)
        # Branch widths: ID + title + year + author.
        assert q.width == 4
        assert q.referenced_tables == frozenset({"inproc", "author"})
        # Round-trips through the SQL parser.
        assert parse_sql(str(q)) == q

    def test_mapping2_repetition_split_shape(self, dblp):
        author = dblp.find_tag_by_path(("dblp", "inproceedings", "author"))
        rep = dblp.parent(author)
        schema = derive_schema(hybrid_inlining(dblp).with_split(rep.node_id, 5))
        q = translate_xpath(
            schema,
            '/dblp/inproceedings[booktitle = "SIGMOD CONFERENCE"]'
            '/(title | year | author)')
        # ID + title + year + author_1..5 + overflow.
        assert q.width == 9
        first = str(q.selects[0])
        assert "author_1" in first and "author_5" in first

    def test_selection_on_child_table_becomes_exists(self, dblp):
        schema = derive_schema(hybrid_inlining(dblp))
        q = translate_xpath(schema,
                            '/dblp/inproceedings[author = "X"]/title')
        where = q.selects[0].where
        assert isinstance(where, Exists)

    def test_selection_on_split_mixes_columns_and_exists(self, dblp):
        author = dblp.find_tag_by_path(("dblp", "inproceedings", "author"))
        rep = dblp.parent(author)
        schema = derive_schema(hybrid_inlining(dblp).with_split(rep.node_id, 2))
        q = translate_xpath(schema,
                            '/dblp/inproceedings[author = "X"]/title')
        where = q.selects[0].where
        assert isinstance(where, Or)
        kinds = [type(item).__name__ for item in where.items]
        assert kinds.count("Comparison") == 2
        assert kinds.count("Exists") == 1

    def test_existence_predicate(self, dblp):
        schema = derive_schema(hybrid_inlining(dblp))
        q = translate_xpath(schema, "/dblp/inproceedings[ee]/title")
        assert "ee IS NOT NULL" in str(q)

    def test_shared_type_context_unions_both(self, dblp):
        schema = derive_schema(hybrid_inlining(dblp))
        q = translate_xpath(schema, "//author")
        # author table shared: one branch suffices (self projection).
        assert q.referenced_tables == {"author"}

    def test_outlined_title_follows_join(self, dblp):
        schema = derive_schema(shared_inlining(dblp))
        q = translate_xpath(schema, "/dblp/book/(title | year)")
        assert "title1" in q.referenced_tables

    def test_leaf_context_returns_value(self, dblp):
        schema = derive_schema(hybrid_inlining(dblp))
        q = translate_xpath(schema, "/dblp/inproceedings/year")
        assert q.width == 2  # ID + year

    def test_predicate_on_middle_step_rejected(self, dblp):
        schema = derive_schema(hybrid_inlining(dblp))
        with pytest.raises(TranslationError):
            translate_xpath(schema, '/dblp[inproceedings = "x"]/book/title')

    def test_unknown_path_rejected(self, dblp):
        schema = derive_schema(hybrid_inlining(dblp))
        with pytest.raises(TranslationError):
            translate_xpath(schema, "/dblp/nonexistent/title")


class TestPartitionedTranslation:
    def choice_schema(self, movie):
        choice = movie.nodes_of_kind(NodeKind.CHOICE)[0]
        return derive_schema(hybrid_inlining(movie).with_distribution(
            UnionDistribution(choice_id=choice.node_id)))

    def test_branch_column_prunes_partitions(self, movie):
        schema = self.choice_schema(movie)
        q = translate_xpath(schema, "//movie/box_office")
        assert q.referenced_tables == {"movie_box_office"}

    def test_common_column_unions_partitions(self, movie):
        schema = self.choice_schema(movie)
        q = translate_xpath(schema, "//movie/title")
        assert q.referenced_tables == {"movie_box_office", "movie_seasons"}

    def test_predicate_on_branch_column_prunes(self, movie):
        schema = self.choice_schema(movie)
        q = translate_xpath(schema, '//movie[seasons = "3"]/title')
        assert q.referenced_tables == {"movie_seasons"}

    def test_implicit_union_prunes_absent_partition(self, movie):
        year_opt = movie.parent(
            movie.find_tag_by_path(("movies", "movie", "year")))
        schema = derive_schema(hybrid_inlining(movie).with_distribution(
            UnionDistribution(optional_ids=frozenset({year_opt.node_id}))))
        q = translate_xpath(schema, '//movie[year = "1997"]/title')
        assert q.referenced_tables == {"movie_has_year"}

    def test_merged_union_keeps_both_queries_single_partition(self, movie):
        year_opt = movie.parent(
            movie.find_tag_by_path(("movies", "movie", "year")))
        rating_opt = movie.parent(
            movie.find_tag_by_path(("movies", "movie", "avg_rating")))
        schema = derive_schema(hybrid_inlining(movie).with_distribution(
            UnionDistribution(optional_ids=frozenset(
                {year_opt.node_id, rating_opt.node_id}))))
        q1 = translate_xpath(schema, "//movie/year")
        q2 = translate_xpath(schema, "//movie/avg_rating")
        # Section 4.7's c3: both queries access only the has-partition.
        for q in (q1, q2):
            assert len(q.referenced_tables) == 1
            assert "has" in next(iter(q.referenced_tables))

    def test_fully_split_movie_query(self, movie):
        schema = derive_schema(fully_split(movie))
        q = translate_xpath(schema,
                            '//movie[title = "X"]/(aka_title | avg_rating)')
        # title, aka_title, avg_rating all live in their own tables.
        assert {"movie", "title", "aka_title", "avg_rating"} <= \
            q.referenced_tables


# ----------------------------------------------------------------------
# Templates: one statement per query shape, identical once bound
# ----------------------------------------------------------------------


def rendered_digests() -> dict[str, str]:
    """Per design case, a SHA-256 over the SQLite text of every query's
    translation. Recorded *from the parent commit* (``PYTHONPATH=<parent
    src> python -m tests.test_translate`` in this checkout; uses no
    name this PR added), so "byte-equal to the text rendered before
    plans were parameterised" is checked, not assumed."""
    return {name: hashlib.sha256("\n".join(
                SQLITE.render_query(Translator(schema).translate(query))
                for query in queries).encode()).hexdigest()
            for name, schema, queries, *_ in design_cases()}


CASE_NAMES = list(json.loads(RENDERED.read_text()))


class TestTemplateIdentity:
    @pytest.fixture(scope="class")
    def cases(self):
        return {name: (schema, queries)
                for name, schema, queries, *_ in design_cases()}

    def test_concrete_translations_render_as_before(self, cases):
        assert list(cases) == CASE_NAMES
        assert rendered_digests() == json.loads(RENDERED.read_text())

    @pytest.mark.parametrize("name", CASE_NAMES)
    def test_bound_template_is_the_concrete_translation(self, cases, name):
        from repro.sqlast import Parameter, bind
        from repro.xpath import lex, parse_tokens

        schema, queries = cases[name]
        translator = Translator(schema)
        shapes = {}
        for query in queries:
            text = str(query)
            shape, values = lex(text)
            template = parse_tokens(shape, text)
            plan = translator.translate(template)
            concrete = translator.translate(query)
            assert bind(plan, values) == concrete, text
            assert SQLITE.render_query(bind(plan, values)) == \
                SQLITE.render_query(concrete)
            # The statement depends on the shape alone.
            assert shapes.setdefault(shape, plan) == plan
            if values:
                assert str(Parameter(1)) in SQLITE.render_query(plan)
                assert plan != concrete
            else:   # existence predicate or none: nothing to bind
                assert str(template) == text
                assert plan == concrete == bind(plan, ())

    def test_a_template_never_reaches_the_engine_or_the_analyzer(self, dblp):
        from repro.check import analyze_query
        from repro.engine import Database
        from repro.errors import PlanError
        from repro.mapping import load_documents
        from repro.sqlast import bind
        from repro.xpath import lex, parse_tokens

        schema = derive_schema(hybrid_inlining(dblp))
        text = '/dblp/inproceedings[author = "A"]/title'   # EXISTS probe
        plan = Translator(schema).translate(parse_tokens(lex(text)[0], text))
        db = Database("unbound")
        load_documents(db, schema, [])
        for refuse in (db.execute, db.estimate, db.explain,
                       lambda q: analyze_query(q, db.catalog)):
            with pytest.raises(PlanError, match=r"unbound parameter \?1"):
                refuse(plan)
        with pytest.raises(PlanError, match=r"no value for parameter \?1"):
            bind(plan, ())
        assert db.execute(bind(plan, ("A",))).rows == []


if __name__ == "__main__":
    RENDERED.write_text(json.dumps(rendered_digests(), indent=1) + "\n")
    print(f"recorded {RENDERED}")
