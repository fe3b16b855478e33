"""The streaming data plane: lazy datasets, streaming shred, bulk load.

Pins the scaling contracts of docs/scaling.md:

* lazy (``stream=True``) documents contain exactly the eager content;
* ``shred_typed_batches`` produces rows
  byte-identical to the eager path, in bounded batches, and genuinely
  stream (rows are emitted before the document is fully generated);
* shredder error paths behave identically mid-stream;
* ``SQLiteBackend.load`` chunked, load-once semantics, per-table row
  counters, and WAL journaling on file-backed databases.
"""

import pytest

from repro.backends import SQLiteBackend
from repro.backends.sqlite import BackendError
from repro.datasets import (dblp_schema, generate_dblp, generate_movies,
                            iter_dblp_publications, movie_schema)
from repro.engine import Database
from repro.errors import ShreddingError
from repro.mapping import (Shredder, UnionDistribution, derive_schema,
                           hybrid_inlining, load_documents,
                           shred_typed_batches, shred_typed_rows)
from repro.xmlkit import Document, LazyElement
from repro.xsd import NodeKind

SCALE = 250


@pytest.fixture(scope="module")
def dblp_mapped():
    return derive_schema(hybrid_inlining(dblp_schema()))


@pytest.fixture(scope="module")
def movie_mapped():
    """A movie mapping exercising splits and union partitions."""
    tree = movie_schema()
    choice = tree.nodes_of_kind(NodeKind.CHOICE)[0]
    aka = tree.find_tag_by_path(("movies", "movie", "aka_title"))
    mapping = (hybrid_inlining(tree)
               .with_split(tree.parent(aka).node_id, 2)
               .with_distribution(UnionDistribution(choice_id=choice.node_id)))
    return derive_schema(mapping)


def drain(batches):
    out: dict[str, list] = {}
    for name, batch in batches:
        out.setdefault(name, []).extend(batch)
    return out


class TestLazyDatasets:
    def test_lazy_dblp_matches_eager(self, dblp_mapped):
        eager = generate_dblp(SCALE, seed=3)
        lazy = generate_dblp(SCALE, seed=3, stream=True)
        assert Shredder(dblp_mapped).shred(eager) == \
            Shredder(dblp_mapped).shred(lazy)

    def test_lazy_movie_matches_eager(self, movie_mapped):
        eager = generate_movies(SCALE, seed=5)
        lazy = generate_movies(SCALE, seed=5, stream=True)
        assert Shredder(movie_mapped).shred(eager) == \
            Shredder(movie_mapped).shred(lazy)

    def test_lazy_root_is_reiterable(self):
        doc = generate_dblp(40, seed=3, stream=True)
        first = [el.tag for el in doc.root]
        second = [el.tag for el in doc.root]
        assert first == second and len(first) == 40

    def test_lazy_root_rejects_mutation(self):
        doc = generate_dblp(5, seed=3, stream=True)
        with pytest.raises(TypeError):
            doc.root.make_child("inproceedings")

    def test_lazy_iter_streams_whole_tree(self):
        eager = generate_dblp(30, seed=3)
        lazy = generate_dblp(30, seed=3, stream=True)
        assert [el.tag for el in lazy.iter()] == \
            [el.tag for el in eager.iter()]


class TestStreamingShred:
    def test_batches_match_eager_dblp(self, dblp_mapped):
        doc = generate_dblp(SCALE, seed=3)
        eager = shred_typed_rows(dblp_mapped, doc)
        batched = drain(shred_typed_batches(dblp_mapped, doc, 37))
        assert batched == {k: v for k, v in eager.items() if v}

    def test_batches_match_eager_movie(self, movie_mapped):
        # Split overflow rows and partition routing through the
        # streaming path, on the lazy document form.
        eager_doc = generate_movies(SCALE, seed=5)
        lazy_doc = generate_movies(SCALE, seed=5, stream=True)
        eager = shred_typed_rows(movie_mapped, eager_doc)
        batched = drain(shred_typed_batches(movie_mapped, lazy_doc, 41))
        assert batched == {k: v for k, v in eager.items() if v}

    def test_batch_size_is_respected(self, dblp_mapped):
        doc = generate_dblp(SCALE, seed=3)
        for name, batch in shred_typed_batches(dblp_mapped, doc, 50):
            assert 1 <= len(batch) <= 50, name

    def test_invalid_batch_size(self, dblp_mapped):
        with pytest.raises(ValueError):
            list(shred_typed_batches(
                dblp_mapped, generate_dblp(5, seed=3), batch_size=0))

    def test_rows_emitted_before_generation_finishes(self, dblp_mapped):
        """The streaming proof: the first batch arrives while most of
        the document has not been generated yet."""
        generated = 0

        def counting_factory():
            nonlocal generated
            for pub in iter_dblp_publications(2000, seed=3):
                generated += 1
                yield pub

        doc = Document(LazyElement("dblp", counting_factory))
        batches = shred_typed_batches(dblp_mapped, doc, 100)
        next(batches)
        assert 0 < generated < 500
        batches.close()

    def test_typed_batches_match_typed_rows(self, dblp_mapped):
        doc = generate_dblp(SCALE, seed=3)
        eager = shred_typed_rows(dblp_mapped, doc)
        streamed = drain(shred_typed_batches(dblp_mapped, doc, 61))
        assert streamed == {k: v for k, v in eager.items() if v}

    def test_unexpected_element_raises_mid_stream(self, dblp_mapped):
        from repro.xmlkit import parse
        doc = parse("<dblp><bogus/></dblp>")
        with pytest.raises(ShreddingError, match="unexpected element"):
            list(shred_typed_batches(dblp_mapped, doc))

    def test_partition_routing_failure_mid_stream(self, movie_mapped):
        # A movie with neither choice branch matches no partition.
        from repro.xmlkit import parse
        doc = parse("<movies><movie><title>T</title></movie></movies>")
        with pytest.raises(ShreddingError, match="no partition"):
            list(shred_typed_batches(movie_mapped, doc))

    def test_split_leaf_overflow_rows_stream(self, movie_mapped):
        from repro.xmlkit import parse
        doc = parse(
            "<movies><movie><title>T</title>"
            "<aka_title>a</aka_title><aka_title>b</aka_title>"
            "<aka_title>c</aka_title><aka_title>d</aka_title>"
            "<box_office>5</box_office></movie></movies>")
        rows = drain(shred_typed_batches(movie_mapped, doc, 1))
        assert [r[-1] for r in rows["aka_title"]] == ["c", "d"]

    def test_load_documents_streams_and_materializes_empty_tables(
            self, dblp_mapped):
        db = Database()
        doc = generate_dblp(60, seed=3)
        load_documents(db, dblp_mapped, doc, batch_size=16)
        reference = Database()
        load_documents(reference, dblp_mapped, doc)
        for name in dblp_mapped.table_names:
            assert db.catalog.table(name).rows == \
                reference.catalog.table(name).rows
            # Even zero-row tables must be executable, not stats-only.
            assert db.catalog.table(name).rows is not None


class TestChunkedBackendLoad:
    def test_chunked_load_matches_eager_rows(self, dblp_mapped):
        doc = generate_dblp(SCALE, seed=3)
        typed = shred_typed_rows(dblp_mapped, doc)
        with SQLiteBackend() as backend:
            backend.load(dblp_mapped, generate_dblp(SCALE, seed=3,
                                                    stream=True),
                         batch_size=64, txn_rows=128)
            for name, rows in typed.items():
                stored = backend.execute_sql(
                    f'SELECT * FROM "{name}" ORDER BY "ID"')
                assert stored == sorted(rows, key=lambda r: r[0]), name

    def test_row_counts_track_every_table(self, dblp_mapped):
        doc = generate_dblp(SCALE, seed=3)
        typed = shred_typed_rows(dblp_mapped, doc)
        with SQLiteBackend() as backend:
            backend.load(dblp_mapped, doc, batch_size=32)
            assert backend.row_counts == {name: len(rows)
                                          for name, rows in typed.items()}

    def test_second_load_raises_backend_error(self, dblp_mapped):
        # Regression: used to die with sqlite's raw "table already
        # exists" after corrupting the bookkeeping.
        doc = generate_dblp(30, seed=3)
        with SQLiteBackend() as backend:
            backend.load(dblp_mapped, doc)
            with pytest.raises(BackendError, match="already exists"):
                backend.load(dblp_mapped, doc)

    def test_append_load_across_backend_instances(self, tmp_path,
                                                  dblp_mapped):
        path = str(tmp_path / "scale.db")
        first = SQLiteBackend(path)
        first.load(dblp_mapped, generate_dblp(50, seed=3))
        first.close()
        second = SQLiteBackend(path)
        # A second load from another instance: a clear error, not a raw
        # sqlite one.
        with pytest.raises(BackendError, match="already exists on this "
                           "backend; load.. is one-shot per database — "
                           "use a fresh backend/database$"):
            second.load(dblp_mapped, generate_dblp(20, seed=9))
        second.close()

    def test_file_backed_load_uses_wal(self, tmp_path, dblp_mapped):
        backend = SQLiteBackend(str(tmp_path / "wal.db"))
        mode = backend.connection.execute(
            "PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"
        backend.close()

    def test_in_memory_load_keeps_memory_journal(self, dblp_mapped):
        with SQLiteBackend() as backend:
            mode = backend.connection.execute(
                "PRAGMA journal_mode").fetchone()[0]
            assert mode == "memory"


class TestServeOverStreamedLoad:
    def test_file_backed_service_over_lazy_load(self, tmp_path):
        from repro.serve import QueryService
        schema = derive_schema(hybrid_inlining(dblp_schema()))
        lazy = generate_dblp(200, seed=7, stream=True)
        eager = generate_dblp(200, seed=7)
        with QueryService(schema, lazy, workers=2,
                          db_path=str(tmp_path / "serve.db"),
                          load_batch_size=64) as service:
            streamed = service.serve("//inproceedings/title")
        with QueryService(schema, eager, workers=2) as reference:
            expected = reference.serve("//inproceedings/title")
        assert sorted(streamed.rows) == sorted(expected.rows)


class TestScaleCLI:
    def test_shred_dataset_streaming_counts(self, capsys):
        from repro.cli import main
        assert main(["shred", "--dataset", "dblp", "--scale", "80",
                     "--stream", "--batch-size", "16"]) == 0
        output = capsys.readouterr().out
        schema = derive_schema(hybrid_inlining(dblp_schema()))
        rows = Shredder(schema).shred(generate_dblp(80, seed=7))
        for name, table_rows in rows.items():
            assert f"{name}: {len(table_rows)} rows" in output

    def test_shred_dataset_csv_dump(self, tmp_path, capsys):
        from repro.cli import main
        out_dir = tmp_path / "csv"
        assert main(["shred", "--dataset", "movie", "--scale", "40",
                     "--out", str(out_dir)]) == 0
        capsys.readouterr()
        schema = derive_schema(hybrid_inlining(movie_schema()))
        for name in schema.table_names:
            assert (out_dir / f"{name}.csv").exists()

    def test_shred_requires_source(self, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["shred"])
