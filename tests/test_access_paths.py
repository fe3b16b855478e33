"""The per-database access-path table: computed once, never stale,
never pickled — and invisible in every plan.

(a) any interleaving of catalog / data / statistics changes with
    ``explain`` and what-if ``estimate`` plans exactly as a database
    that has never planned before — with the analyzers on (every plan
    is built by ``check_plan``) and off (cost and objects used are read
    off the remembered choice before anything is built);
(b) a reused entry carries numbers and choices, not closures: each plan
    registers its own EXISTS probes, and what the choice says was used
    is what the built tree uses;
(c) hypothetical indexes are told apart by identity, and an entry keeps
    its index alive so that an ``id()`` is never handed out twice;
(d) the table is absent from every pickle and refills on first use;
(e) "this SELECT, answered from that join view" is one function that
    returns a ``Select`` — the optimizer's view scan is read off it and
    a DBMS backend renders the same one.
(The census — costings executed == distinct keys seen — is pinned in
``tests/test_select_shape.py::TestBoundOnce``.)
"""

import gc
import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.runtime import override_checks
from repro.datasets import DatasetBundle
from repro.engine import (Column, Database, Index, JoinViewDefinition,
                          SQLType, TableStats, make_view_table,
                          select_over_view)
from repro.engine.access_paths import AccessPaths
from repro.engine.matview import derive_view_stats
from repro.engine.plans import IndexSeek
from repro.physdesign.config import make_view_candidate
from repro.search import GreedySearch, build_stats_only_database, design_for
from repro.search.evaluator import EvaluatedMapping
from repro.errors import PlanError
from repro.sqlast import (And, ColumnRef, Comparison, ComparisonOp,
                          Parameter, Query, Select, SelectItem, TableRef,
                          bind, parse_sql)

# Parsed once: what a search re-estimates is the same ``Query`` object,
# so these hit whatever the long-lived database remembered.
QUERIES = [parse_sql(sql) for sql in (
    "SELECT P.ID, P.v FROM p P WHERE P.k = 3",
    "SELECT P.v FROM p P WHERE P.k >= 2 AND P.v = 'v1'",
    "SELECT P.v, C.w FROM p P, c C WHERE C.PID = P.ID AND P.k = 3",
    "SELECT C.w FROM p P, c C WHERE C.PID = P.ID AND C.w < 4 "
    "UNION ALL SELECT P.k FROM p P WHERE P.v = 'v2' ORDER BY 1",
    "SELECT P.ID FROM p P WHERE P.k = 1 AND EXISTS "
    "(SELECT C.ID FROM c C WHERE C.PID = P.ID AND C.w = 5)",
)]
VIEW = JoinViewDefinition(
    parent_table="p", child_table="c", child_fk_column="PID",
    columns=(("ID", ("p", "ID")), ("k", ("p", "k")), ("v", ("p", "v")),
             ("c_ID", ("c", "ID")), ("PID", ("c", "PID")),
             ("w", ("c", "w"))))
# The last of each leads with a column no query filters, joins or
# correlates that table on; the view's are columns of VIEW.
INDEX_KEYS = {"p": (("k",), ("v",), ("k", "v"), ("v", "k"), ("v", "ID")),
              "c": (("PID",), ("w",), ("PID", "w"), ("w", "PID"),
                    ("ID", "w")),
              "view": (("k",), ("w",), ("k", "w"), ("v",), ("c_ID",))}


def p_rows(start, count):
    return [(i, i % 7, f"v{i % 5}") for i in range(start, start + count)]


def c_rows(start, count):
    return [(1000 + j, j % 40, j % 9) for j in range(start, start + count)]


def make_db(p_count=40, c_count=120) -> Database:
    db = Database()
    db.create_table("p", [Column("ID", SQLType.INTEGER, False),
                          Column("k", SQLType.INTEGER),
                          Column("v", SQLType.VARCHAR)])
    db.create_table("c", [Column("ID", SQLType.INTEGER, False),
                          Column("PID", SQLType.INTEGER),
                          Column("w", SQLType.INTEGER)])
    db.insert_rows("p", p_rows(0, p_count))
    db.insert_rows("c", c_rows(0, c_count))
    db.analyze()
    db.build_primary_key_indexes()
    return db


def fingerprint(planned):
    # What costing knew first: with the analyzers off nothing is built
    # until ``explain()`` reads the plan.
    cost, used = planned.est_cost, sorted(planned.objects_used())
    return planned.explain(), cost, used


# ----------------------------------------------------------------------
# (a) never stale
# ----------------------------------------------------------------------
STEPS = st.lists(st.one_of(
    st.tuples(st.just("create_index"), st.sampled_from(["p", "c"]),
              st.integers(0, 4), st.booleans()),
    st.tuples(st.just("drop_index"), st.integers(0, 7)),
    st.tuples(st.just("insert_rows"), st.sampled_from(["p", "c"]),
              st.integers(1, 60)),
    st.tuples(st.just("analyze"), st.sampled_from(["p", "c", None])),
    st.tuples(st.just("set_table_stats"), st.sampled_from(["p", "c"]),
              st.integers(1, 5000)),
    st.tuples(st.just("create_materialized_view")),
    st.tuples(st.just("what_if_index"), st.sampled_from(["p", "c"]),
              st.integers(0, 4), st.booleans()),
    st.tuples(st.just("reissue_what_if_index"), st.integers(0, 7)),
    st.tuples(st.just("what_if_view")),
    st.tuples(st.just("drop_what_if_view"), st.integers(0, 7)),
    st.tuples(st.just("view_index"), st.integers(0, 7), st.integers(0, 4),
              st.booleans()),
), min_size=1, max_size=10)


class Scenario:
    """One long-lived database and the hypothetical objects tried on it."""

    def __init__(self):
        self.db = make_db()
        self.names = iter(range(10_000))
        self.created: list[str] = []
        self.what_if_indexes: list[Index] = []
        self.what_if_views: list = []

    def apply(self, step) -> None:
        db, kind = self.db, step[0]
        if kind == "create_index":
            _, table, keys, covering = step
            keys = INDEX_KEYS[table][keys]
            included = [c for c in db.catalog.table(table).column_names()
                        if covering and c not in keys and c != "ID"]
            name = f"ix_{next(self.names)}"
            db.create_index(name, table, list(keys), included)
            self.created.append(name)
        elif kind == "drop_index":
            if self.created:
                db.catalog.drop_index(
                    self.created.pop(step[1] % len(self.created)))
        elif kind == "insert_rows":
            _, table, count = step
            rows = p_rows if table == "p" else c_rows
            db.insert_rows(table, rows(db.catalog.table(table).row_count,
                                       count))
        elif kind == "analyze":
            db.analyze(step[1])
        elif kind == "set_table_stats":
            _, table, row_count = step
            known = db.stats.table(table)
            db.set_table_stats(table, TableStats(
                row_count, {name: column.scaled(row_count)
                            for name, column in known.columns.items()}))
        elif kind == "create_materialized_view":
            db.create_materialized_view(f"mv_{next(self.names)}", VIEW)
        elif kind == "what_if_index":
            _, table, keys, covering = step
            keys = INDEX_KEYS[table][keys]
            included = tuple(c for c in db.catalog.table(table).column_names()
                             if covering and c not in keys and c != "ID")
            self.what_if_indexes.append(Index(
                f"hyp_{next(self.names)}", table, keys, included))
        elif kind == "reissue_what_if_index":
            # Another object with the signature (and name) of one that
            # is dropped: told apart, or indistinguishable in effect.
            if self.what_if_indexes:
                at = step[1] % len(self.what_if_indexes)
                self.what_if_indexes.append(
                    replace(self.what_if_indexes.pop(at)))
                gc.collect()
        elif kind == "what_if_view":
            self.what_if_views += make_view_candidate(
                f"hyp_view_{next(self.names)}", VIEW, db).views
        elif kind == "drop_what_if_view":
            if self.what_if_views:
                self.what_if_views.pop(step[1] % len(self.what_if_views))
        else:
            # An index on a join view's own table: a built view's goes
            # in the catalog, a hypothetical view's is hypothetical.
            _, which, keys, covering = step
            views = [(name, True) for name in sorted(db.catalog.tables)
                     if name.startswith("mv_")]
            views += [(view.name, False) for view in self.what_if_views]
            if views:
                name, built = views[which % len(views)]
                keys = INDEX_KEYS["view"][keys]
                included = [column for column, _ in VIEW.columns
                            if covering and column not in keys]
                if built:
                    db.create_index(f"ix_{next(self.names)}", name,
                                    list(keys), included)
                else:
                    self.what_if_indexes.append(Index(
                        f"hyp_{next(self.names)}", name, keys,
                        tuple(included)))

    def check(self) -> None:
        # A database that has never planned: same catalog, rows and
        # statistics, no access-path table (see TestNotPickled).
        fresh = pickle.loads(pickle.dumps(self.db))
        tables = self.what_if_views
        # (An index on a view that is not offered is on no table.)
        for query in QUERIES:
            assert fingerprint(self.db.explain(query)) == \
                fingerprint(fresh.explain(query))
            for indexes, views in (([], []),
                                   (self.what_if_indexes, tables),
                                   (self.what_if_indexes[-1:], tables[-1:])):
                assert fingerprint(self.db.estimate(query, indexes, views)) \
                    == fingerprint(fresh.estimate(query, indexes, views))


def interleave(steps):
    scenario = Scenario()
    scenario.check()
    for step in steps:
        scenario.apply(step)
        scenario.check()
    paths = scenario.db.access_paths
    assert 0 < paths.costed and paths.lookups > 0
    assert 0 < paths.selects_costed < paths.selects_planned


@given(STEPS)
@settings(deadline=None)
def test_interleaved_changes_plan_like_a_fresh_database(steps):
    interleave(steps)


@given(STEPS)
@settings(deadline=None)
def test_interleaved_changes_with_the_analyzers_off(steps):
    """pytest switches the analyzers on, and ``check_plan`` reads every
    plan; every other run answers a what-if call without building."""
    with override_checks(False):
        interleave(steps)


def test_each_listed_mutation_moves_the_plan_it_should():
    """The property's steps are not vacuous: each kind of change is
    seen by the very next plan of a database that has planned before."""
    db = make_db()
    query = QUERIES[0]
    hyp = Index("hyp_k", "p", ("k",))
    before = fingerprint(db.estimate(query, [hyp]))
    costed = db.access_paths.costed
    db.estimate(query, [hyp])
    assert db.access_paths.costed == costed
    # Rows alone move an index's height, not a scan: re-costed, and at
    # this size to the same numbers.
    db.insert_rows("p", p_rows(40, 400))
    assert fingerprint(db.estimate(query, [hyp])) == before
    assert db.access_paths.costed == 2 * costed
    db.analyze("p")
    assert fingerprint(db.estimate(query)) != before
    before = fingerprint(db.estimate(query))
    stats = db.stats.table("p")
    db.set_table_stats("p", TableStats(
        90_000, {n: c.scaled(90_000) for n, c in stats.columns.items()}))
    assert fingerprint(db.estimate(query)) != before
    before = fingerprint(db.explain(query))
    db.create_index("ix_k", "p", ["k"], ["v"])
    assert fingerprint(db.explain(query)) != before
    assert "ix_k" in db.explain(query).objects_used()
    db.catalog.drop_index("ix_k")
    assert fingerprint(db.explain(query)) == before


def test_an_index_no_access_path_can_enter_by_costs_nothing():
    """A SELECT is costed again only under an index it filters, joins
    or correlates on the leading column of; a UNION re-costs the
    branches a candidate touches."""
    db = make_db(p_count=5000)
    query = QUERIES[3]
    paths = db.access_paths
    with override_checks(False):
        bare = db.estimate(query)
        assert (paths.selects_planned, paths.selects_costed) == (2, 2)
        deaf = db.estimate(query, [Index("hyp_id", "c", ("ID", "w"))])
        assert (paths.selects_planned, paths.selects_costed) == (4, 2)
        assert deaf.choices == bare.choices
        # P.v is a filter of the second branch; the first joins on P.ID.
        one = db.estimate(query, [Index("hyp_v", "p", ("v",), ("k",))])
        assert (paths.selects_planned, paths.selects_costed) == (6, 3)
        assert one.choices[0] is bare.choices[0]
        assert one.objects_used() == {"p", "c", "hyp_v"}
        assert one.est_cost < bare.est_cost


# ----------------------------------------------------------------------
# (b) choices in the table, operators per plan
# ----------------------------------------------------------------------
def test_every_plan_registers_its_own_exists_probes():
    db = make_db()
    query = QUERIES[4]
    probe_index = Index("hyp_c_pid", "c", ("PID", "w"))
    for _ in range(2):
        bare = db.estimate(query)
        tuned = db.estimate(query, extra_indexes=[probe_index])
        assert len(bare.probes) == len(tuned.probes) == 1
        assert bare.objects_used() == {"p", "c"}
        assert tuned.objects_used() == {"p", "hyp_c_pid"}
    again = db.estimate(query)
    assert again.choices == bare.choices    # remembered ...
    assert again.explain() == bare.explain()
    assert again.probes[0] is not bare.probes[0]    # ... and built anew
    assert again.root is not bare.root


def test_nothing_is_built_until_a_plan_is_read(monkeypatch):
    from repro.engine import optimizer

    built = []
    build_select = optimizer.build_select
    monkeypatch.setattr(
        optimizer, "build_select",
        lambda *args: built.append(args) or build_select(*args))
    db = make_db()
    with override_checks(False):
        planned = [db.estimate(query) for query in QUERIES]
        assert sum(p.est_cost for p in planned) > 0
        assert all(p.objects_used() for p in planned)
        assert not built
        assert planned[3].root is planned[3].root
        assert len(built) == len(planned[3].branch_plans) == 2
    with override_checks(True):
        db.estimate(QUERIES[0])     # ``check_plan`` reads it
    assert len(built) == 3


def walked(planned) -> frozenset[str]:
    used = set(planned.root.objects_used())
    for probe in planned.probes:
        used |= probe.objects_used()
    return frozenset(used)


@pytest.mark.parametrize("dataset", ["dblp", "movie"])
def test_what_costing_says_was_used_is_what_the_built_plan_uses(dataset):
    """``objects_used()`` and ``est_cost`` come off the choice; the
    tree built from it must agree — bare, under the searched design and
    under the tuned hybrid one."""
    bundle = DatasetBundle.named(dataset, scale=400, seed=7)
    workload = bundle.workload_generator(41).generate(10)
    checked = indexed = viewed = 0
    for design in ("greedy", "hybrid"):
        result = design_for(design, bundle.tree, workload, bundle.stats,
                            bundle.storage_bound)
        config = result.configuration
        db = build_stats_only_database(result.schema, bundle.stats)
        db.build_primary_key_indexes()
        for view in config.views:
            db.stats.set_table(view.name, derive_view_stats(view, db.stats))
        with override_checks(False):
            for query, _ in result.sql_queries:
                for planned in (
                        db.explain(query), db.estimate(query),
                        db.estimate(query, config.indexes, config.views)):
                    used = planned.objects_used()
                    assert "root" not in vars(planned) \
                        and "_built" not in vars(planned)
                    assert used == walked(planned)
                    assert planned.est_cost == planned.root.est_cost
                    checked += 1
                    indexed += bool(used & {ix.name for ix in config.indexes
                                            if not ix.clustered})
                    viewed += bool(used & {v.name for v in config.views})
    # (Movie's designs at this scale hold views only.)
    assert checked == 60 and viewed and (indexed or dataset == "movie")


def test_the_table_holds_no_operator_and_no_closure():
    db = make_db()
    db.create_index("ix_k", "p", ["k"])
    for query in QUERIES:
        db.estimate(query)

    def leaves(value):
        if isinstance(value, dict):
            for key, item in value.items():
                yield from leaves(key)
                yield from leaves(item)
        elif isinstance(value, (tuple, list, frozenset)):
            for item in value:
                yield from leaves(item)
        else:
            yield value

    paths = db.access_paths
    held = []
    for owner in (*paths._selects.values(), *paths._tables.values()):
        for slot in owner.__slots__:
            held.extend(leaves(getattr(owner, slot)))
    assert len(paths._selects) == 6     # one entry per SELECT
    from repro.engine.access_paths import SelectChoice
    from repro.engine.optimizer import ExistsProbe
    from repro.engine.plans import PlanNode
    assert {SelectChoice} == {type(choice) for entries
                              in paths._selects.values()
                              for choice in entries.choices.values()}
    assert not [item for item in held
                if callable(item) or isinstance(item, (PlanNode, ExistsProbe))]
    pickle.dumps(held)      # nothing in it that cannot be pickled


def test_what_is_remembered_about_a_select_goes_with_it():
    db = make_db()
    db.create_materialized_view("mv", VIEW)
    with override_checks(False):    # (the analyzer keeps what it has seen)
        for _ in range(3):
            db.execute("SELECT P.v, C.w FROM p P, c C "
                       "WHERE C.PID = P.ID AND P.k = 3")
            gc.collect()
            assert len(db.access_paths._selects) == 0
        db.estimate(QUERIES[2])
        assert len(db.access_paths._selects) == 1


# ----------------------------------------------------------------------
# (c) identity, not id()
# ----------------------------------------------------------------------
def test_equal_signature_indexes_never_share_an_entry():
    db = make_db(p_count=5000)
    query = QUERIES[0]

    def seek_of(index):
        planned = db.estimate(query, extra_indexes=[index])
        node = planned.root
        while node.children():
            node = node.children()[0]
        assert isinstance(node, IndexSeek) and node.index is index
        return planned.est_cost

    seen = set()
    costs = []
    for round_ in range(50):
        index = Index(f"hyp_{round_}", "p", ("k",), ("v",))
        assert id(index) not in seen    # its entry keeps it alive
        seen.add(id(index))
        costs.append(seek_of(index))
        del index
        gc.collect()
    assert len(set(costs)) == 1
    assert db.access_paths.seeks_costed == 50
    # Same object again: one more lookup, no more costing.
    index = Index("hyp_again", "p", ("k",), ("v",))
    seek_of(index), seek_of(index)
    assert db.access_paths.seeks_costed == 51


def test_a_narrower_covering_index_is_not_mistaken_for_a_wider_one():
    db = make_db(p_count=5000)
    query = QUERIES[0]
    plain = Index("hyp", "p", ("k",))
    first = db.estimate(query, extra_indexes=[plain])
    del plain
    gc.collect()
    covering = Index("hyp", "p", ("k",), ("v",))
    second = db.estimate(query, extra_indexes=[covering])
    assert second.objects_used() == {"hyp"}
    assert second.est_cost < first.est_cost


# ----------------------------------------------------------------------
# (d) not pickled, refilled on first use
# ----------------------------------------------------------------------
class TestNotPickled:
    def test_database_state_leaves_the_table_behind(self):
        db = make_db()
        db.estimate(QUERIES[2])
        assert db.access_paths.costed > 0
        assert "access_paths" not in db.__getstate__()
        clone = pickle.loads(pickle.dumps(db))
        assert isinstance(clone.access_paths, AccessPaths)
        assert clone.access_paths.stats is clone.stats
        assert clone.access_paths.costed == clone.access_paths.lookups == 0
        assert fingerprint(clone.estimate(QUERIES[2])) == \
            fingerprint(db.estimate(QUERIES[2]))
        assert clone.access_paths.costed > 0

    def test_evaluated_mappings_of_a_real_search(self, tmp_path):
        """What pool workers and checkpoints carry: every mapping a
        search evaluated, as its checkpoint persisted it."""
        bundle = DatasetBundle.movie(scale=300)
        workload = bundle.workload_generator(5).generate(4)
        search = GreedySearch(bundle.tree, workload, bundle.stats,
                              storage_bound=bundle.storage_bound, jobs=1,
                              checkpoint=tmp_path)
        search.run()
        payload = search.checkpoint.path.read_bytes()
        assert b"access_paths" not in payload
        # Exact evaluations (memo key with nothing reused): every report
        # is an estimate of this very database (a partial one carries
        # costs derived elsewhere).
        memo = pickle.loads(payload)["evaluator"]["memo"]
        evaluated = [value for (_, reuse, _), value in memo.items()
                     if not reuse and isinstance(value, EvaluatedMapping)]
        assert len(evaluated) >= 3
        for mapping in evaluated:
            db = mapping.database
            config = mapping.tuning.configuration
            for (query, _), report in zip(mapping.sql_queries,
                                          mapping.tuning.reports):
                planned = db.estimate(query, config.indexes, config.views)
                assert planned.est_cost == report.cost
                assert planned.objects_used() == report.objects_used
                again = db.estimate(query, config.indexes, config.views)
                assert fingerprint(again) == fingerprint(planned)
            # A filled table adds nothing to the pickle.
            assert db.access_paths.costed > 0
            size = len(pickle.dumps(mapping))
            db.access_paths = AccessPaths(db.stats)
            assert len(pickle.dumps(mapping)) == size


# ----------------------------------------------------------------------
# (e) one view rewrite
# ----------------------------------------------------------------------
def view_table(definition=VIEW, name="jv"):
    db = make_db()
    return make_view_table(name, definition, db.catalog.table("p"),
                           db.catalog.table("c"))


def select(sql: str) -> Select:
    return parse_sql(sql).selects[0]


class TestSelectOverView:
    def test_a_covered_select_becomes_one_table_and_round_trips(self):
        rewritten = select_over_view(select(
            "SELECT P.ID AS ID, C.w FROM p P, c C "
            "WHERE P.k = 3 AND C.PID = P.ID AND C.w < 4"), view_table())
        assert str(rewritten) == (
            "SELECT jv.ID AS ID, jv.w FROM jv WHERE jv.k = 3 AND jv.w < 4")
        assert select(str(rewritten)) == rewritten
        assert rewritten.from_tables == (TableRef("jv", "jv"),)

    def test_the_join_columns_need_no_cover(self):
        narrow = JoinViewDefinition(
            "p", "c", "PID", (("v", ("p", "v")), ("w", ("c", "w"))))
        rewritten = select_over_view(
            select("SELECT P.v, C.w FROM p P, c C WHERE C.PID = P.ID"),
            view_table(narrow))
        assert str(rewritten) == "SELECT jv.v, jv.w FROM jv"

    @pytest.mark.parametrize("sql, reason", [
        ("SELECT P.v, C.w FROM p P, c C WHERE C.PID = P.ID AND P.k = 3",
         "does not cover column P.k"),
        ("SELECT P.k FROM p P, c C WHERE C.PID = P.ID", "cover column P.k"),
        ("SELECT P.v FROM p P, c C, c D WHERE C.PID = P.ID AND D.PID = P.ID",
         "does not join the tables"),
        ("SELECT P.v FROM p P", "does not join the tables"),
        ("SELECT P.v FROM p P, c C WHERE C.PID = P.ID AND EXISTS "
         "(SELECT D.ID FROM c D WHERE D.PID = P.ID)", "cannot push"),
        ("SELECT P.v FROM p P, c C WHERE C.w = P.ID", "cover this join"),
        ("SELECT P.v FROM p P, c C WHERE C.PID = P.ID AND C.w = P.ID",
         "cover this join"),
        ("SELECT P.v FROM p P, c C WHERE C.w < 4", "cover this join"),
    ])
    def test_what_the_view_cannot_answer_is_refused(self, sql, reason):
        narrow = JoinViewDefinition(
            "p", "c", "PID", (("v", ("p", "v")), ("w", ("c", "w"))))
        with pytest.raises(PlanError, match=reason):
            select_over_view(select(sql), view_table(narrow))

    def test_a_parameter_survives_so_a_template_is_one_statement(self):
        template = Select(
            (SelectItem(ColumnRef("C", "w")),),
            (TableRef("p", "P"), TableRef("c", "C")),
            And((Comparison(ColumnRef("C", "PID"), ComparisonOp.EQ,
                            ColumnRef("P", "ID")),
                 Comparison(ColumnRef("P", "k"), ComparisonOp.EQ,
                            Parameter(1)))))
        rewritten = select_over_view(template, view_table())
        assert str(rewritten) == "SELECT jv.w FROM jv WHERE jv.k = ?1"
        # Binding before or after the rewrite is the same statement.
        bound = bind(Query((template,)), (3,)).selects[0]
        assert select_over_view(bound, view_table()) == \
            bind(Query((rewritten,)), (3,)).selects[0]

    def test_the_optimizer_costs_and_builds_that_select(self):
        db = make_db()
        (view,) = make_view_candidate("jv", VIEW, db).views
        query = QUERIES[2]
        scan = db.access_paths.view_scan(query.selects[0], view)
        assert scan.select == select_over_view(query.selects[0], view)
        assert scan.filters.eq == {"k": 3} and not scan.filters.other
        planned = db.estimate(query, extra_tables=[view])
        # Plan text, cost and I(Q, M) as before the rewrite was shared.
        assert fingerprint(planned) == (
            "Project(2 cols)  (rows=17 cost=1.4)\n"
            "  SeqScan(jv AS @view)  (rows=17 cost=1.4)",
            1.3942857142857141, ["jv"])
        db.create_materialized_view("mv", VIEW)
        assert sorted(db.execute(query).rows) == sorted(
            (f"v{i % 5}", j % 9) for j in range(120)
            for i in [j % 40] if i % 7 == 3)
        assert db.explain(query).objects_used() == {"mv"}
