"""Unit tests for mappings, presets, the mapper, and transformations."""

import copy
import dataclasses
import pickle

import pytest

from repro.datasets import dblp_schema, movie_schema
from repro.errors import MappingError, TransformError
from repro.mapping import (Inline, Mapping, Outline, RepetitionMerge,
                           RepetitionSplit, TypeMerge, TypeSplit,
                           UnionDistribute, UnionDistribution,
                           UnionFactorize, count_transformations,
                           derive_schema, enumerate_transformations,
                           fully_split, hybrid_inlining, shared_inlining)
from repro.xsd import NodeKind


@pytest.fixture(scope="module")
def dblp():
    return dblp_schema()


@pytest.fixture(scope="module")
def movie():
    return movie_schema()


def author_rep(dblp):
    author = dblp.find_tag_by_path(("dblp", "inproceedings", "author"))
    return dblp.parent(author)


class TestPresets:
    def test_hybrid_inlining_tables(self, dblp):
        schema = derive_schema(hybrid_inlining(dblp))
        assert set(schema.groups) == {"dblp", "inproc", "book", "author",
                                      "cite"}
        inproc = schema.group("inproc")
        names = [c.name for c in inproc.columns]
        assert names == ["ID", "PID", "title", "booktitle", "year", "pages",
                         "ee", "cdrom", "editor"]

    def test_hybrid_shares_author_table(self, dblp):
        schema = derive_schema(hybrid_inlining(dblp))
        assert len(schema.group("author").owner_ids) == 2

    def test_shared_inlining_keeps_title1(self, dblp):
        schema = derive_schema(shared_inlining(dblp))
        assert "title1" in schema.groups
        book = schema.group("book")
        assert not any(c.name == "title" for c in book.columns)

    def test_fully_split_every_tag_annotated(self, movie):
        mapping = fully_split(movie)
        tags = [n for n in movie.iter_nodes() if n.kind == NodeKind.TAG]
        assert len(mapping.annotations) == len(tags)
        schema = derive_schema(mapping)
        # Each annotated leaf gets its own (ID, PID, value) table.
        assert set(schema.group("title").column(c).name
                   for c in ("ID", "PID", "title")) == {"ID", "PID", "title"}

    def test_optional_columns_nullable(self, dblp):
        schema = derive_schema(hybrid_inlining(dblp))
        inproc = schema.group("inproc")
        assert inproc.column("ee").nullable
        assert not inproc.column("title").nullable


class TestMappingValidation:
    def test_must_annotate_enforced(self, dblp):
        mapping = hybrid_inlining(dblp)
        inproc = dblp.find_tag_by_path(("dblp", "inproceedings"))
        broken = mapping.without_annotation(inproc.node_id)
        with pytest.raises(MappingError):
            broken.validate()

    def test_shared_annotation_requires_equivalence(self, dblp):
        mapping = hybrid_inlining(dblp)
        inproc = dblp.find_tag_by_path(("dblp", "inproceedings"))
        book = dblp.find_tag_by_path(("dblp", "book"))
        broken = mapping.with_annotation(inproc.node_id, "x") \
                        .with_annotation(book.node_id, "x")
        with pytest.raises(MappingError):
            broken.validate()

    def test_split_on_non_repetition_rejected(self, dblp):
        mapping = hybrid_inlining(dblp)
        title = dblp.find_tag_by_path(("dblp", "inproceedings", "title"))
        with pytest.raises(MappingError):
            mapping.with_split(title.node_id, 3).validate()

    def test_distribution_on_non_option_rejected(self, movie):
        mapping = hybrid_inlining(movie)
        title = movie.find_tag_by_path(("movies", "movie", "title"))
        with pytest.raises(MappingError):
            UnionDistribution(optional_ids=frozenset({title.node_id}))
            dist = UnionDistribution(
                optional_ids=frozenset({title.node_id}))
            mapping.with_distribution(dist).validate()

    def test_distribution_constructor_needs_target(self):
        with pytest.raises(MappingError):
            UnionDistribution()

    def test_mapping_hashable_and_signature(self, dblp):
        a = hybrid_inlining(dblp)
        b = hybrid_inlining(dblp)
        assert a.signature() == b.signature()
        rep = author_rep(dblp)
        c = a.with_split(rep.node_id, 5)
        assert c.signature() != a.signature()
        assert c.without_split(rep.node_id).signature() == a.signature()

    def test_views_are_built_once_and_stay_out_of_pickles(self, dblp):
        mapping = hybrid_inlining(dblp).with_split(author_rep(dblp).node_id, 2)
        fresh = pickle.dumps(mapping)
        assert mapping.annotation_map is mapping.annotation_map
        assert mapping.split_map is mapping.split_map
        assert mapping.annotation_map == dict(mapping.annotations)
        assert pickle.dumps(mapping) == fresh
        for clone in (pickle.loads(fresh), copy.copy(mapping),
                      dataclasses.replace(mapping)):
            assert not {"annotation_map", "split_map"} & set(vars(clone))
            assert clone == mapping and hash(clone) == hash(mapping)
            assert clone.signature() == mapping.signature()
            assert clone.split_map == mapping.split_map
        moved = mapping.without_split(author_rep(dblp).node_id)
        assert moved.split_map == {} and mapping.split_map != {}


class TestRepetitionSplitMapping:
    def test_split_adds_columns_and_overflow(self, dblp):
        mapping = hybrid_inlining(dblp).with_split(author_rep(dblp).node_id, 5)
        schema = derive_schema(mapping)
        inproc = schema.group("inproc")
        for i in range(1, 6):
            assert inproc.column(f"author_{i}").nullable
        # The overflow is the (shared) author table.
        assert "author" in schema.groups

    def test_leaf_storage_records_both(self, dblp):
        mapping = hybrid_inlining(dblp).with_split(author_rep(dblp).node_id, 3)
        schema = derive_schema(mapping)
        author = dblp.find_tag_by_path(("dblp", "inproceedings", "author"))
        storage = schema.storage_of(author.node_id)
        assert storage.split_columns == ("author_1", "author_2", "author_3")
        assert storage.own_annotation == "author"
        assert storage.value_column == "author"


class TestUnionDistributionMapping:
    def test_choice_partitions(self, movie):
        choice = movie.nodes_of_kind(NodeKind.CHOICE)[0]
        mapping = hybrid_inlining(movie).with_distribution(
            UnionDistribution(choice_id=choice.node_id))
        schema = derive_schema(mapping)
        names = schema.group("movie").table_names
        assert names == ["movie_box_office", "movie_seasons"]
        box = schema.group("movie").partitions[0]
        assert "box_office" in box.column_names
        assert "seasons" not in box.column_names

    def test_implicit_union_partitions(self, movie):
        year_opt = movie.parent(
            movie.find_tag_by_path(("movies", "movie", "year")))
        mapping = hybrid_inlining(movie).with_distribution(
            UnionDistribution(optional_ids=frozenset({year_opt.node_id})))
        schema = derive_schema(mapping)
        has, no = schema.group("movie").partitions
        assert "year" in has.column_names
        assert "year" not in no.column_names


class TestTransformations:
    def test_outline_then_inline_roundtrip(self, dblp):
        mapping = hybrid_inlining(dblp)
        title = dblp.find_tag_by_path(("dblp", "inproceedings", "title"))
        outlined = Outline(title.node_id, "ititle").validate_applied(mapping)
        assert outlined.annotation_of(title.node_id) == "ititle"
        back = Inline(title.node_id).validate_applied(outlined)
        assert back.signature() == mapping.signature()

    def test_inline_must_annotate_rejected(self, dblp):
        mapping = hybrid_inlining(dblp)
        inproc = dblp.find_tag_by_path(("dblp", "inproceedings"))
        with pytest.raises(TransformError):
            Inline(inproc.node_id).apply(mapping)

    def test_type_split_author(self, dblp):
        mapping = hybrid_inlining(dblp)
        authors = dblp.find_tags("author")
        split = TypeSplit(authors[0].node_id, "inproc_author")
        applied = split.validate_applied(mapping)
        schema = derive_schema(applied)
        assert "inproc_author" in schema.groups
        assert len(schema.group("author").owner_ids) == 1

    def test_type_merge_titles_requires_deep_merge(self, dblp):
        # Paper Section 3.3: the two titles merge only after inlining
        # title1; our TypeMerge implements the deep-merge combination.
        mapping = shared_inlining(dblp)
        titles = dblp.find_tags("title")
        merge = TypeMerge(tuple(t.node_id for t in titles), "title_shared")
        applied = merge.validate_applied(mapping)
        schema = derive_schema(applied)
        assert len(schema.group("title_shared").owner_ids) == 2

    def test_type_merge_non_equivalent_rejected(self, dblp):
        mapping = hybrid_inlining(dblp)
        title = dblp.find_tag_by_path(("dblp", "inproceedings", "title"))
        year = dblp.find_tag_by_path(("dblp", "inproceedings", "year"))
        with pytest.raises(TransformError):
            TypeMerge((title.node_id, year.node_id), "bad").apply(mapping)

    def test_union_distribute_factorize_roundtrip(self, movie):
        mapping = hybrid_inlining(movie)
        choice = movie.nodes_of_kind(NodeKind.CHOICE)[0]
        dist = UnionDistribution(choice_id=choice.node_id)
        applied = UnionDistribute(dist).validate_applied(mapping)
        back = UnionFactorize(dist).validate_applied(applied)
        assert back.signature() == mapping.signature()

    def test_repetition_split_merge_roundtrip(self, dblp):
        mapping = hybrid_inlining(dblp)
        rep = author_rep(dblp)
        applied = RepetitionSplit(rep.node_id, 5).validate_applied(mapping)
        back = RepetitionMerge(rep.node_id).validate_applied(applied)
        assert back.signature() == mapping.signature()

    def test_enumerate_counts(self, dblp, movie):
        for tree in (dblp, movie):
            mapping = hybrid_inlining(tree)
            total, non_subsumed = count_transformations(mapping)
            assert non_subsumed < total
            transformations = enumerate_transformations(mapping)
            assert len(transformations) == total
            # Every enumerated transformation is actually applicable.
            for transformation in transformations:
                transformation.validate_applied(mapping)

    def test_enumerate_excluding_subsumed(self, dblp):
        mapping = hybrid_inlining(dblp)
        only_core = enumerate_transformations(mapping,
                                              include_subsumed=False)
        assert all(not t.subsumed for t in only_core)
