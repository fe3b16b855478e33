"""Unit tests for the shredder and derived statistics."""

import pytest

from repro.datasets import (dblp_schema, generate_dblp, generate_movies,
                            movie_schema)
from repro.engine import Database
from repro.errors import ShreddingError
from repro.mapping import (Shredder, UnionDistribution, collect_statistics,
                           derive_schema, derive_table_stats, fully_split,
                           hybrid_inlining, load_documents)
from repro.xmlkit import parse
from repro.xsd import NodeKind, parse_dtd


@pytest.fixture(scope="module")
def dblp_doc():
    return generate_dblp(400, seed=3)


@pytest.fixture(scope="module")
def movie_doc():
    return generate_movies(400, seed=3)


def count_elements(doc, tag):
    return sum(1 for _ in doc.root.descendants(tag))


class TestShredder:
    def test_row_counts_match_document(self, dblp_doc):
        schema = derive_schema(hybrid_inlining(dblp_schema()))
        rows = Shredder(schema).shred(dblp_doc)
        assert len(rows["inproc"]) == count_elements(dblp_doc,
                                                     "inproceedings")
        assert len(rows["book"]) == count_elements(dblp_doc, "book")
        assert len(rows["author"]) == count_elements(dblp_doc, "author")
        assert len(rows["dblp"]) == 1

    def test_ids_globally_unique(self, dblp_doc):
        schema = derive_schema(hybrid_inlining(dblp_schema()))
        rows = Shredder(schema).shred(dblp_doc)
        ids = [row[0] for table_rows in rows.values() for row in table_rows]
        assert len(ids) == len(set(ids))

    def test_pid_references_parent(self, dblp_doc):
        schema = derive_schema(hybrid_inlining(dblp_schema()))
        rows = Shredder(schema).shred(dblp_doc)
        pub_ids = {row[0] for row in rows["inproc"]} | \
                  {row[0] for row in rows["book"]}
        assert all(row[1] in pub_ids for row in rows["author"])

    def test_optional_leaf_null_when_absent(self):
        tree = dblp_schema()
        schema = derive_schema(hybrid_inlining(tree))
        doc = parse(
            "<dblp><inproceedings><title>T</title><booktitle>V</booktitle>"
            "<year>2000</year><author>A</author><pages>1-2</pages>"
            "</inproceedings></dblp>")
        rows = Shredder(schema).shred(doc)
        inproc = schema.group("inproc").partitions[0]
        row = dict(zip(inproc.column_names, rows["inproc"][0]))
        assert row["ee"] is None
        assert row["title"] == "T"

    def test_repetition_split_overflow(self):
        tree = dblp_schema()
        author = tree.find_tag_by_path(("dblp", "inproceedings", "author"))
        rep = tree.parent(author)
        schema = derive_schema(hybrid_inlining(tree).with_split(rep.node_id, 2))
        doc = parse(
            "<dblp><inproceedings><title>T</title><booktitle>V</booktitle>"
            "<year>2000</year><author>A1</author><author>A2</author>"
            "<author>A3</author><author>A4</author><pages>1-2</pages>"
            "</inproceedings></dblp>")
        rows = Shredder(schema).shred(doc)
        inproc = schema.group("inproc").partitions[0]
        row = dict(zip(inproc.column_names, rows["inproc"][0]))
        assert row["author_1"] == "A1"
        assert row["author_2"] == "A2"
        overflow = [r[-1] for r in rows["author"]]
        assert overflow == ["A3", "A4"]

    def test_partition_routing(self, movie_doc):
        tree = movie_schema()
        choice = tree.nodes_of_kind(NodeKind.CHOICE)[0]
        schema = derive_schema(hybrid_inlining(tree).with_distribution(
            UnionDistribution(choice_id=choice.node_id)))
        rows = Shredder(schema).shred(movie_doc)
        n_tv = sum(1 for m in movie_doc.root.children
                   if m.find("seasons") is not None)
        assert len(rows["movie_seasons"]) == n_tv
        assert len(rows["movie_box_office"]) == \
            len(movie_doc.root.children) - n_tv

    def test_unexpected_element_rejected(self):
        schema = derive_schema(hybrid_inlining(dblp_schema()))
        doc = parse("<dblp><bogus/></dblp>")
        with pytest.raises(ShreddingError):
            Shredder(schema).shred(doc)

    def test_wrong_root_rejected(self):
        schema = derive_schema(hybrid_inlining(dblp_schema()))
        with pytest.raises(ShreddingError):
            Shredder(schema).shred(parse("<movies/>"))

    def test_repeated_unsplit_leaf_rejected(self):
        # Regression: an un-split leaf repeating inside one instance used
        # to silently overwrite the column (last-wins data loss).
        schema = derive_schema(hybrid_inlining(dblp_schema()))
        doc = parse(
            "<dblp><inproceedings><title>T1</title><title>T2</title>"
            "<booktitle>V</booktitle><year>2000</year><author>A</author>"
            "<pages>1-2</pages></inproceedings></dblp>")
        with pytest.raises(ShreddingError, match="more than once"):
            Shredder(schema).shred(doc)

    def test_reused_shredder_matches_fresh_instance(self, dblp_doc):
        # Regression: _next_id used to persist across shred() calls, so
        # a reused Shredder diverged from shred_typed_rows' fresh one.
        schema = derive_schema(hybrid_inlining(dblp_schema()))
        shredder = Shredder(schema)
        first = shredder.shred(dblp_doc)
        second = shredder.shred(dblp_doc)
        assert first == second
        assert second == Shredder(schema).shred(dblp_doc)

    def test_load_documents_types_values(self, dblp_doc):
        db = Database()
        schema = derive_schema(hybrid_inlining(dblp_schema()))
        load_documents(db, schema, dblp_doc)
        table = db.catalog.table("inproc")
        year_pos = table.column_position("year")
        assert all(isinstance(r[year_pos], int) for r in table.rows)


class TestCollectedStats:
    def test_instance_counts(self, dblp_doc):
        tree = dblp_schema()
        stats = collect_statistics(tree, dblp_doc)
        inproc = tree.find_tag_by_path(("dblp", "inproceedings"))
        assert stats.instances(inproc.node_id) == \
            count_elements(dblp_doc, "inproceedings")

    def test_cardinality_histogram(self, dblp_doc):
        tree = dblp_schema()
        stats = collect_statistics(tree, dblp_doc)
        author = tree.find_tag_by_path(("dblp", "inproceedings", "author"))
        rep = tree.parent(author)
        hist = stats.cardinality[rep.node_id]
        inproc_count = count_elements(dblp_doc, "inproceedings")
        assert sum(hist.values()) == inproc_count
        assert stats.total_occurrences(rep.node_id) == sum(
            len(p.find_all("author"))
            for p in dblp_doc.root.descendants("inproceedings"))

    def test_overflow_count(self, dblp_doc):
        tree = dblp_schema()
        stats = collect_statistics(tree, dblp_doc)
        author = tree.find_tag_by_path(("dblp", "inproceedings", "author"))
        rep = tree.parent(author)
        expected = sum(max(0, len(p.find_all("author")) - 5)
                       for p in dblp_doc.root.descendants("inproceedings"))
        assert stats.overflow_count(rep.node_id, 5) == expected

    def test_suggest_split_count_dblp_authors(self, dblp_doc):
        # Section 4.6: 99% of publications have <= 5 authors, so k = 5
        # (or smaller if coverage is reached earlier).
        tree = dblp_schema()
        stats = collect_statistics(tree, dblp_doc)
        author = tree.find_tag_by_path(("dblp", "inproceedings", "author"))
        rep = tree.parent(author)
        k = stats.suggest_split_count(rep.node_id, cmax=5, coverage=0.99)
        assert k == 5

    def test_suggest_split_none_for_uniform_large(self):
        from collections import Counter
        from repro.mapping.stats import CollectedStats
        stats = CollectedStats(
            cardinality={1: Counter({i: 10 for i in range(10, 30)})})
        assert stats.suggest_split_count(1, cmax=5, coverage=0.8) is None

    def test_a_declared_leaf_that_never_occurs_has_no_statistics(self):
        tree = parse_dtd(
            "<!ELEMENT shop (item*)><!ELEMENT item (name, note?, price)>"
            "<!ELEMENT name (#PCDATA)><!ELEMENT note (#PCDATA)>"
            "<!ELEMENT price (#PCDATA)>", root="shop")
        doc = parse("<shop><item><name>a</name><price>1</price></item>"
                    "<item><name>b</name><price>2</price></item></shop>")
        stats = collect_statistics(tree, doc)
        name, note, price = (tree.find_tag_by_path(("shop", "item", leaf))
                             for leaf in ("name", "note", "price"))
        # nothing for <note>: its values and counts start at its first one
        assert list(stats.leaf_stats) == [name.node_id, price.node_id]
        assert note.node_id not in stats.instance_counts
        assert stats.instances(name.node_id) == 2
        assert stats.total_elements == 7
        column = derive_table_stats(
            derive_schema(hybrid_inlining(tree)), stats)["item"].column("note")
        assert column.row_count == column.null_count == 2

    def test_joint_presence_signatures(self, movie_doc):
        tree = movie_schema()
        stats = collect_statistics(tree, movie_doc)
        movie = tree.find_tag_by_path(("movies", "movie"))
        joint = stats.joint[movie.node_id]
        assert sum(joint.values()) == len(movie_doc.root.children)


class TestDerivedStats:
    def test_rows_match_shredded_exactly(self, movie_doc):
        tree = movie_schema()
        choice = tree.nodes_of_kind(NodeKind.CHOICE)[0]
        year_opt = tree.parent(
            tree.find_tag_by_path(("movies", "movie", "year")))
        rating_opt = tree.parent(
            tree.find_tag_by_path(("movies", "movie", "avg_rating")))
        aka = tree.find_tag_by_path(("movies", "movie", "aka_title"))
        mapping = (hybrid_inlining(tree)
                   .with_split(tree.parent(aka).node_id, 2)
                   .with_distribution(UnionDistribution(choice_id=choice.node_id))
                   .with_distribution(UnionDistribution(optional_ids=frozenset(
                       {year_opt.node_id, rating_opt.node_id}))))
        schema = derive_schema(mapping)
        shredded = Shredder(schema).shred(movie_doc)
        stats = collect_statistics(tree, movie_doc)
        derived = derive_table_stats(schema, stats)
        for table_name, rows in shredded.items():
            assert derived[table_name].row_count == len(rows), table_name

    def test_null_counts_for_optional_column(self, movie_doc):
        tree = movie_schema()
        schema = derive_schema(hybrid_inlining(tree))
        stats = collect_statistics(tree, movie_doc)
        derived = derive_table_stats(schema, stats)
        movie_stats = derived["movie"]
        column = movie_stats.column("year")
        n_with_year = count_elements(movie_doc, "year")
        assert column.row_count - column.null_count == n_with_year

    def test_split_column_null_counts(self, dblp_doc):
        tree = dblp_schema()
        author = tree.find_tag_by_path(("dblp", "inproceedings", "author"))
        rep = tree.parent(author)
        schema = derive_schema(hybrid_inlining(tree).with_split(rep.node_id, 3))
        stats = collect_statistics(tree, dblp_doc)
        derived = derive_table_stats(schema, stats)
        inproc = derived["inproc"]
        pubs = list(dblp_doc.root.descendants("inproceedings"))
        for i in (1, 2, 3):
            expected = sum(1 for p in pubs if len(p.find_all("author")) >= i)
            column = inproc.column(f"author_{i}")
            assert column.row_count - column.null_count == expected

    def test_derived_matches_analyzed(self, dblp_doc):
        """Derived stats must closely track stats computed from loaded data."""
        tree = dblp_schema()
        schema = derive_schema(hybrid_inlining(tree))
        db = Database()
        load_documents(db, schema, dblp_doc)
        collected = collect_statistics(tree, dblp_doc)
        derived = derive_table_stats(schema, collected)
        for table_name in ("inproc", "author", "book"):
            analyzed = db.stats.table(table_name)
            assert derived[table_name].row_count == analyzed.row_count
