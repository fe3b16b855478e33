"""``SelectShape``: one binding of each SELECT for planner and advisor.

Three parts:

(a) identity with the parent commit — plans, costs, object sets and
    advisor candidates of the DBLP and Movie standard suites under four
    designs, as SHA-256 digests recorded *from the parent*
    (``tests/fixtures/select_shape_digests.json``; ``python -m
    tests.test_select_shape`` re-records — an entry a change moves on
    purpose is re-recorded with that change, and named in CHANGES.md;
    since views are clustered the tuned plans are costed under each
    view's clustered index, which the parent lacks);
(b) the shape of every WHERE form the translator emits, and ``qualify``;
(c) a shape is computed once per ``Select`` object and never shows in
    ``==``, ``hash``, ``repr`` or a pickle.
"""

import copy
import functools
import hashlib
import json
import pickle
import sqlite3
from pathlib import Path

import pytest

import repro.sqlast as sqlast
from repro.datasets import DatasetBundle
from repro.engine import Column, Database, SQLType
from repro.errors import PlanError
from repro.mapping import (RepetitionSplit, UnionDistribute,
                           UnionDistribution, hybrid_inlining)
from repro.physdesign import CandidateGenerator
from repro.search import GreedySearch, MappingEvaluator, design_for
from repro.search.evaluator import build_stats_only_database
from repro.sqlast import ComparisonOp, Exists, Or, parse_sql
from repro.workload import Workload
from repro.xsd import NodeKind

DIGESTS = Path(__file__).parent / "fixtures" / "select_shape_digests.json"
DESIGNS = ("hybrid", "shared", "fully-split", "greedy")


@functools.lru_cache(maxsize=None)
def design_cases():
    """(name, schema, XPath queries, statistics, weighted SQL,
    configuration) per dataset x design, plus one hand-built mapping
    per dataset for the WHERE forms the searched designs do not reach
    at this scale (rep-split ``OR`` with an overflow ``EXISTS``;
    union-distributed partitions). Built once per test session:
    ``tests/test_translate.py`` reads the same cases."""
    out = []
    for dataset, extra, xpaths in (
            ("dblp", "rep-split", [
                '/dblp/inproceedings[author = "Author 17"]/(title | year)',
                '/dblp/book[author = "Author 3"]/(title | publisher)',
                '/dblp/inproceedings[year >= "1995"]/(title | author)']),
            ("movie", "union-distributed", [
                '//movie[year >= "1990"]/(title | box_office)',
                '//movie[title = "Movie 7"]/(year | seasons | aka_title)'])):
        bundle = DatasetBundle.named(dataset, scale=600, seed=7)
        workload = Workload("standard-suite")
        for part in bundle.workload_generator(3).standard_suite(4):
            workload.queries.extend(part.queries)
        for design in DESIGNS:
            result = design_for(design, bundle.tree, workload, bundle.stats,
                                bundle.storage_bound)
            out.append((f"{dataset}/{design}", result.schema,
                        [q.query for q in workload.queries], bundle.stats,
                        result.sql_queries, result.configuration))
        mapping = hybrid_inlining(bundle.tree)
        if dataset == "dblp":
            author = bundle.tree.find_tag_by_path(
                ("dblp", "inproceedings", "author"))
            mapping = RepetitionSplit(
                bundle.tree.parent(author).node_id, 3).apply(mapping)
        else:
            choice = bundle.tree.nodes_of_kind(NodeKind.CHOICE)[0]
            mapping = UnionDistribute(
                UnionDistribution(choice_id=choice.node_id)).apply(mapping)
        workload = Workload.from_strings(extra, xpaths)
        with MappingEvaluator(workload, bundle.stats,
                              bundle.storage_bound) as evaluator:
            evaluated = evaluator.evaluate(mapping)
        out.append((f"{dataset}/{extra}", evaluated.schema,
                    [q.query for q in workload.queries], bundle.stats,
                    evaluated.sql_queries, evaluated.tuning.configuration))
    return tuple(out)


def digest_cases():
    """(name, stats-only database, weighted SQL, configuration) of
    every design case."""
    for name, schema, _, stats, sql_queries, config in design_cases():
        yield (name, build_stats_only_database(schema, stats), sql_queries,
               config)


def _sha(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def plan_digest(db, sql_queries, config) -> str:
    """Every query's plan text, cost and object set, bare then tuned."""
    lines = []
    for query, _ in sql_queries:
        for planned in (db.estimate(query),
                        db.estimate(query, extra_indexes=config.indexes,
                                    extra_tables=config.views)):
            lines += [planned.explain(), repr(planned.est_cost),
                      repr(sorted(planned.objects_used()))]
    return _sha(lines)


def candidate_digest(db, sql_queries) -> str:
    """Index signatures and view definitions (with a clustered view's
    key), in generation order."""
    generator = CandidateGenerator(db)
    lines = []
    for query, _ in sql_queries:
        for candidate in generator.for_query(query):   # indexes, then views
            if not candidate.views:
                lines.append(repr(candidate.indexes[0].signature()))
                continue
            (view,) = candidate.views
            cluster = candidate.cluster_of(view)
            lines.append(repr(view.view_def)
                         + (f" CLUSTERED {cluster.key_columns}" if cluster
                            else ""))
    return _sha(lines)


def compute_digests() -> dict[str, dict[str, str]]:
    out: dict[str, dict[str, str]] = {"plans": {}, "candidates": {}}
    for name, db, sql_queries, config in digest_cases():
        out["plans"][name] = plan_digest(db, sql_queries, config)
        out["candidates"][name] = candidate_digest(db, sql_queries)
    return out


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text())


@pytest.fixture(scope="module")
def cases():
    return {name: rest for name, *rest in digest_cases()}


# Named from the fixture file so collecting this module runs no search;
# the first test checks the two lists agree.
CASE_NAMES = list(json.loads(DIGESTS.read_text())["plans"])


# ----------------------------------------------------------------------
# (a) identity with the parent's five classifiers
# ----------------------------------------------------------------------
class TestIdentityWithParent:
    def test_every_case_has_a_recorded_digest(self, recorded, cases):
        assert list(recorded["plans"]) == list(cases)
        assert list(recorded["candidates"]) == list(cases)

    @pytest.mark.parametrize("name", CASE_NAMES)
    def test_plans_costs_and_objects(self, name, cases, recorded):
        db, sql_queries, config = cases[name]
        assert plan_digest(db, sql_queries, config) == recorded["plans"][name]

    @pytest.mark.parametrize("name", CASE_NAMES)
    def test_advisor_candidates(self, name, cases, recorded):
        db, sql_queries, _ = cases[name]
        assert (candidate_digest(db, sql_queries)
                == recorded["candidates"][name])


# ----------------------------------------------------------------------
# (b) the shape of each WHERE form the translator emits
# ----------------------------------------------------------------------
class TestTranslatorForms:
    """Queries come from the two hand-built cases above, whose XPath is
    fixed in this file; each test first pins the SQL form it is about."""

    @staticmethod
    def selects(cases, name, index):
        query = cases[name][1][index][0]
        return query.selects

    def test_inline_predicate(self, cases):
        select, _ = self.selects(cases, "dblp/rep-split", 2)
        assert str(select.where) == "T.year >= '1995'"
        shape = sqlast.shape_of(select)
        assert shape.alias_tables == {"T": "inproc"}
        split = shape.filters["T"]
        assert split.all == (select.where,) and split.other == ()
        assert split.eq == {}
        assert split.ranges == {"year": (ComparisonOp.GE, "1995")}
        assert shape.key_eq == {"T": ()}
        assert shape.key_range == {"T": ("year",)}
        assert shape.required["T"] == {
            "ID", "title", "author_1", "author_2", "author_3", "year"}
        assert not (shape.joins or shape.multi or shape.exists)

    def test_rep_split_or_with_overflow_exists(self, cases):
        (select,) = self.selects(cases, "dblp/rep-split", 0)
        assert isinstance(select.where, Or)
        assert isinstance(select.where.items[-1], Exists)
        shape = sqlast.shape_of(select)
        # One conjunct, owned by T through its own columns and through
        # the subquery's outer reference; nothing in it is sargable.
        split = shape.filters["T"]
        assert split.all == split.other == (select.where,)
        assert split.eq == {} and split.ranges == {}
        assert shape.multi == () and shape.top_exists == ()
        # ... but the advisor keys candidates on the OR-ed columns.
        assert shape.key_eq["T"] == ("author_1", "author_2", "author_3")
        (exists,) = shape.exists
        assert exists is shape.exists_shape(select.where.items[-1])
        assert (exists.table, exists.alias) == ("author", "E1")
        assert exists.corr_column == "PID"
        assert str(exists.corr_outer) == "T.ID"
        assert exists.owner == "T"
        assert [str(p) for p in exists.local_parts] == [
            "E1.author = 'Author 17'"]
        assert exists.eq_parts == exists.local_parts
        # The subquery's columns are not the outer select's.
        assert shape.required["T"] == {
            "ID", "title", "year", "author_1", "author_2", "author_3"}

    def test_outlined_leaf_exists(self, cases):
        (select,) = self.selects(cases, "dblp/rep-split", 1)
        assert isinstance(select.where, Exists)
        shape = sqlast.shape_of(select)
        (exists,) = shape.top_exists
        assert shape.exists == (exists,)
        assert exists.owner == "T"
        assert shape.filters["T"].all == (select.where,)
        assert shape.key_eq == {"T": ()}
        assert shape.required["T"] == {"ID", "title", "publisher"}

    def test_join_chain(self, cases):
        _, select = self.selects(cases, "dblp/rep-split", 2)
        assert str(select.where) == "T.year >= '1995' AND C1.PID = T.ID"
        shape = sqlast.shape_of(select)
        assert shape.alias_tables == {"T": "inproc", "C1": "author"}
        assert shape.joins == (("C1", "PID", "T", "ID"),)
        assert [str(f) for f in shape.filters["T"].all] == ["T.year >= '1995'"]
        assert shape.filters["C1"].all == ()
        assert shape.required == {"T": {"ID", "year"},
                                  "C1": {"PID", "author"}}

    def test_three_table_chain_and_flattening(self):
        select = parse_sql(
            "SELECT C.ID FROM a A, b B, c C WHERE (A.ID = B.PID AND "
            "(B.ID = C.PID AND A.v = 1)) AND (B.x < 2 OR C.ID IS NULL)"
        ).selects[0]
        shape = sqlast.shape_of(select)
        assert shape.joins == (("A", "ID", "B", "PID"),
                               ("B", "ID", "C", "PID"))
        assert shape.filters["A"].eq == {"v": 1}
        assert [str(m) for m in shape.multi] == ["B.x < 2 OR C.ID IS NULL"]
        assert shape.key_range["B"] == ("x",)

    def test_union_distributed_partitions(self, cases):
        selects = self.selects(cases, "movie/union-distributed", 1)
        shapes = [sqlast.shape_of(s) for s in selects]
        assert [s.alias_tables for s in shapes] == [
            {"T": "movie_box_office"},
            {"T": "movie_box_office", "C1": "aka_title"},
            {"T": "movie_seasons"},
            {"T": "movie_seasons", "C2": "aka_title"}]
        assert all(s.filters["T"].eq == {"title": "Movie 7"} for s in shapes)
        assert shapes[2].required["T"] == {"ID", "year", "seasons", "title"}


# ----------------------------------------------------------------------
# qualify, and the two bugs the drifted classifiers had
# ----------------------------------------------------------------------
A_ROWS = [(1, 10), (2, 20)]
B_ROWS = [(1, 1, 0, 2), (2, 2, 0, 2), (3, 2, 1, 0)]
C_ROWS = [(1, 1)]


@pytest.fixture
def abc():
    """Tables a(ID,v), b(ID,PID,x,y), c(ID,PID) on the engine and on
    sqlite3 with the same rows."""
    db = Database()
    lite = sqlite3.connect(":memory:")
    for name, columns, rows in (("a", ("ID", "v"), A_ROWS),
                                ("b", ("ID", "PID", "x", "y"), B_ROWS),
                                ("c", ("ID", "PID"), C_ROWS)):
        db.create_table(name, [Column(c, SQLType.INTEGER, c != "ID")
                               for c in columns])
        db.insert_rows(name, rows)
        lite.execute(f"CREATE TABLE {name} ({', '.join(columns)})")
        lite.executemany(
            f"INSERT INTO {name} VALUES ({', '.join('?' * len(columns))})",
            rows)
    db.analyze()
    db.build_primary_key_indexes()
    yield db, lite
    lite.close()


def both(abc, sql):
    db, lite = abc
    return sorted(db.execute(sql).rows), sorted(lite.execute(sql).fetchall())


class TestQualify:
    @staticmethod
    def columns_of(abc):
        db, _ = abc
        return lambda table: db.catalog.table(table).column_names()

    def test_qualified_query_is_returned_as_is(self, abc):
        query = parse_sql(
            "SELECT A.ID FROM a A WHERE A.v = 10 OR EXISTS "
            "(SELECT C.ID FROM c C WHERE C.PID = A.ID) "
            "UNION ALL SELECT B.ID FROM b B WHERE B.x IS NULL ORDER BY 1")
        assert sqlast.qualify(query, self.columns_of(abc)) is query

    def test_bare_names_get_their_alias(self, abc):
        query = parse_sql(
            "SELECT v, B.ID FROM a A, b B WHERE A.ID = PID AND (x = 1 OR "
            "y IS NOT NULL) UNION ALL SELECT A.v, A.ID FROM a A ORDER BY 1")
        bound = sqlast.qualify(query, self.columns_of(abc))
        assert str(bound) == (
            "SELECT A.v, B.ID FROM a A, b B WHERE A.ID = B.PID AND "
            "(B.x = 1 OR B.y IS NOT NULL) UNION ALL "
            "SELECT A.v, A.ID FROM a A ORDER BY 1")
        # The branch with nothing to resolve is shared, not copied.
        assert bound.selects[1] is query.selects[1]

    def test_subquery_names_resolve_in_the_subquery(self, abc):
        # b is not in scope, so PID can only be c's.
        sql = ("SELECT A.ID FROM a A WHERE EXISTS "
               "(SELECT ID FROM c WHERE PID = A.ID)")
        bound = sqlast.qualify(parse_sql(sql), self.columns_of(abc))
        assert "(SELECT c.ID FROM c WHERE c.PID = A.ID)" in str(bound)
        engine, lite = both(abc, sql)
        assert engine == lite == [(1,)]

    @pytest.mark.parametrize("sql, column", [
        ("SELECT ID FROM a A, b B", "ID"),           # two owners
        ("SELECT A.ID FROM a A WHERE zzz = 1", "zzz"),   # none
        ("SELECT A.ID FROM a A WHERE x = 1", "x"),   # b.x is out of scope
    ])
    def test_ambiguous_and_unknown_names(self, abc, sql, column):
        db, _ = abc
        with pytest.raises(PlanError, match=f"column '{column}' is "
                                            f"ambiguous or unknown in"):
            db.estimate(sql)

    def test_unqualified_sql_executes_like_sqlite(self, abc):
        engine, lite = both(
            abc, "SELECT v, x FROM a, b WHERE a.ID = PID AND y = 2")
        assert engine == lite == [(10, 0), (20, 0)]

    def test_unknown_alias_is_a_plan_error(self, abc):
        db, _ = abc
        with pytest.raises(PlanError, match="cannot resolve Z.v: no alias 'Z'"):
            db.estimate("SELECT A.ID FROM a A WHERE Z.v = 1")
        with pytest.raises(PlanError, match="no alias 'Z' in FROM"):
            db.estimate("SELECT A.ID FROM a A WHERE EXISTS "
                        "(SELECT C.ID FROM c C WHERE C.PID = Z.ID)")


class TestDriftedClassifiers:
    DIRECT = ("SELECT A.ID, B.ID FROM a A, b B WHERE A.ID = B.PID AND "
              "(B.x = 1 OR EXISTS (SELECT C.ID FROM c C WHERE C.PID = A.ID))")
    NESTED = ("SELECT A.ID, B.ID FROM a A, b B WHERE A.ID = B.PID AND "
              "(B.x = 1 OR (B.y = 2 AND EXISTS "
              "(SELECT C.ID FROM c C WHERE C.PID = A.ID)))")

    def test_exists_under_and_inside_or_sees_its_outer_alias(self, abc):
        """The parent looked for EXISTS only among an OR's direct
        children, filed the NESTED conjunct under B alone, pushed it
        into B's scan and died with "no row bound for alias 'A'"."""
        for sql in (self.DIRECT, self.NESTED):
            shape = sqlast.shape_of(parse_sql(sql).selects[0])
            assert len(shape.multi) == 1 and shape.filters["B"].all == ()
            engine, lite = both(abc, sql)
            assert engine == lite == [(1, 1), (2, 3)]

    def test_non_equality_correlation_agrees_with_the_optimizer(self, abc):
        """The parent's advisor took any column-to-column comparison on
        the inner alias as the correlation and proposed a probe index
        the optimizer then refused to plan with."""
        db, _ = abc
        query = parse_sql("SELECT A.ID FROM a A WHERE EXISTS "
                          "(SELECT C.ID FROM c C WHERE C.PID < A.ID)")
        (exists,) = sqlast.shape_of(query.selects[0]).exists
        assert exists.corr_column is None and exists.owner == "A"
        indexes = [ix for candidate in CandidateGenerator(db).for_query(query)
                   for ix in candidate.indexes]
        assert [ix for ix in indexes if ix.table_name == "c"] == []
        with pytest.raises(PlanError, match="EXISTS subquery must have a "
                                            "correlation equality"):
            db.estimate(query)
        # The equality form still gets its probe index.
        indexes = [ix for candidate in CandidateGenerator(db).for_query(
            parse_sql("SELECT A.ID FROM a A WHERE EXISTS "
                      "(SELECT C.ID FROM c C WHERE C.PID = A.ID "
                      "AND C.ID = 1)"))
                   for ix in candidate.indexes]
        assert [ix.key_columns for ix in indexes
                if ix.table_name == "c"] == [("PID", "ID")]


class TestRefusedByTheCall:
    """A plan is built when it is read, a refusal is not deferred with
    it: whatever building would refuse, ``estimate`` / ``explain``
    refuse themselves — analyzers off, nothing built."""

    @pytest.mark.parametrize("sql, message", [
        ("SELECT A.ID FROM a A, b B WHERE B.PID = A.ID AND EXISTS "
         "(SELECT C.ID FROM c C WHERE C.PID = A.ID AND C.ID = B.ID)",
         "EXISTS must correlate with exactly one alias"),
        ("SELECT A.ID FROM a A WHERE EXISTS "
         "(SELECT C.ID FROM c C, b B WHERE C.PID = A.ID)",
         "EXISTS subqueries must reference one table"),
        ("SELECT A.ID FROM a A WHERE EXISTS "
         "(SELECT C.ID FROM c C WHERE C.PID < A.ID)",
         "EXISTS subquery must have a correlation equality"),
        ("SELECT A.ID FROM a A WHERE A.ID = 1 OR EXISTS "
         "(SELECT C.ID FROM c C, b B WHERE C.PID = A.ID AND B.PID = A.ID)",
         "EXISTS subqueries must reference one table"),
        # The two that only compiling a predicate used to find.
        ("SELECT A.ID FROM a A WHERE EXISTS "
         "(SELECT C.ID FROM c C WHERE C.PID = A.ID AND A.v < 20)",
         "unexpected outer reference A.v in EXISTS"),
        ("SELECT A.nope FROM a A", "cannot resolve column A.nope"),
        ("SELECT A.ID FROM a A, b B WHERE B.PID = A.ID AND B.nope = 1",
         "cannot resolve column B.nope"),
        ("SELECT A.ID FROM a A WHERE EXISTS "
         "(SELECT C.ID FROM c C WHERE C.PID = A.nope)",
         "cannot resolve column A.nope"),
        ("SELECT A.ID FROM a A WHERE EXISTS "
         "(SELECT C.ID FROM c C WHERE C.PID = A.ID AND EXISTS "
         "(SELECT B.ID FROM b B WHERE B.PID = C.ID))",
         "EXISTS must be planned as a semi-join"),
    ])
    def test_estimate_and_explain_refuse(self, abc, monkeypatch, sql,
                                         message):
        from repro.check.runtime import override_checks
        from repro.engine import optimizer

        def build_select(*args):
            raise AssertionError("a plan was built")

        monkeypatch.setattr(optimizer, "build_select", build_select)
        db, _ = abc
        with override_checks(False):
            db.estimate("SELECT A.ID FROM a A")     # (answers, unbuilt)
            for call in (db.estimate, db.explain):
                for _ in range(2):      # nothing half-done is remembered
                    with pytest.raises(PlanError, match=message):
                        call(sql)


# ----------------------------------------------------------------------
# (c) once per Select object, and invisible
# ----------------------------------------------------------------------
class TestBoundOnce:
    def test_greedy_search_binds_each_select_once(self, monkeypatch):
        """DBLP, scale 1200, 10 queries, seed 41, one GreedySearch,
        jobs=1, analyzers off as in every run but pytest's: PR 16's
        parent classified its 164 SELECTs 5 405 + 8 905 + 168 times;
        PR 21's parent costed 9 749 access paths and 8 905 seeks for
        them, each from scratch; PR 24's parent costed each of the
        5 405 plannings and built and compiled a plan for every one.
        Since join views are clustered on their seek key the search
        takes another path (2 122 optimizer calls before, 2 049 after;
        same ``est_cost``). Since the advisor's what-if cost cache went,
        every costing is an optimizer call (2 300), and the 4 SELECTs
        the cache used to answer for a later tune are planned too."""
        from repro.check.runtime import override_checks
        from repro.engine import expressions, optimizer
        from repro.engine.access_paths import AccessPaths
        from repro.engine.optimizer import Optimizer
        from repro.obs import Tracer
        from repro.sqlast import shape as shape_module

        bound, planned, views, requests, compiled = [], [], [], [], []
        # Keys as the table sees them; ``alive`` pins every object so
        # that no ``id()`` is handed out twice while the test counts.
        alive = []
        keys = {"scan": set(), "seek": set(), "select": set()}
        costed = {"scan": 0, "seek": 0, "select": 0}

        def counting(owner, name, before):
            inner = getattr(owner, name)

            def wrapper(*args, **kwargs):
                before(*args)
                return inner(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        def saw(kind):
            def record(*key):
                alive.append(key)
                keys[kind].add(tuple(
                    part if isinstance(part, (str, frozenset, int))
                    else id(part)
                    for part in key))
            return record

        def ran(kind):
            def record(*_):
                costed[kind] += 1
            return record

        counting(shape_module, "_bind_select", bound.append)
        counting(Optimizer, "_plan_select",
                 lambda self, select: planned.append(select))
        counting(Optimizer, "_access_path",
                 lambda *args: requests.append(None))
        counting(AccessPaths, "view_scan",
                 lambda self, select, view: views.append(select))
        counting(AccessPaths, "scan", saw("scan"))
        counting(AccessPaths, "seek", saw("seek"))
        counting(AccessPaths, "select",
                 lambda self, shape, key, indexes, cost: saw("select")(
                     self, shape, *key, *indexes))
        counting(AccessPaths, "_cost_scan", ran("scan"))
        counting(AccessPaths, "_cost_seek", ran("seek"))
        counting(Optimizer, "_cost_select", ran("select"))
        counting(expressions, "compile_scalar", compiled.append)
        monkeypatch.setattr(optimizer, "compile_scalar",
                            expressions.compile_scalar)
        bundle = DatasetBundle.dblp(scale=1200)
        with override_checks(False):
            result = GreedySearch(
                bundle.tree, bundle.workload_generator(41).generate(10),
                bundle.stats, storage_bound=bundle.storage_bound,
                tracer=Tracer(), jobs=1).run()
        assert result.counters.optimizer_calls == 2300
        # Once per SELECT, and once more per candidate view.
        assert len(planned) + len(views) == 5835
        assert len({id(s) for s in planned}) == 168
        assert len(bound) == len({id(s) for s in bound}) == 168
        assert {id(s) for s in planned} <= {id(s) for s in bound}
        # Costed once: every SELECT / scan / seek costing carried out
        # was for a key its database had not seen, and they are few.
        assert costed == {kind: len(seen) for kind, seen in keys.items()}
        assert 3 * costed["select"] <= len(planned)
        assert len(requests) == 2689     # one per alias per costing
        # (A clustered view candidate brings seeks of its own: 652 of
        # the 924 costings are seeks, 596 of 860 before views clustered.)
        assert 5 * (costed["scan"] + costed["seek"]) <= 2 * len(requests)
        # Nothing read a plan, so nothing was built.
        assert not compiled

    def test_a_planned_select_is_indistinguishable(self, abc):
        db, _ = abc
        planned = parse_sql(TestDriftedClassifiers.NESTED)
        fresh = parse_sql(TestDriftedClassifiers.NESTED)
        db.execute(planned)
        (select,) = planned.selects
        assert sqlast.shape_of(select) is sqlast.shape_of(select)
        assert "_shape" in vars(select)
        assert planned == fresh and hash(planned) == hash(fresh)
        assert repr(planned) == repr(fresh)
        assert pickle.dumps(planned) == pickle.dumps(fresh)
        for clone in (pickle.loads(pickle.dumps(planned)),
                      copy.deepcopy(planned), copy.copy(select)):
            assert "_shape" not in vars(getattr(clone, "selects", [clone])[0])
        assert pickle.loads(pickle.dumps(planned)) == fresh


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(compute_digests(), indent=1) + "\n")
    print(f"recorded {DIGESTS}")
