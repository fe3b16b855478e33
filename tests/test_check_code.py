"""Tests for repro.check.code — the source-code lint suite."""

import json
import textwrap
from pathlib import Path

from repro.check.code import (build_lock_order, check_concurrency,
                              check_determinism, check_lock_order,
                              check_resources, lint_source_tree, load_module)
from repro.check.code.callgraph import ModuleCallGraph
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures" / "code_lint"
REPRO_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"


def lint_module(tmp_path, source, name="mod_under_test.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return load_module(path, tmp_path)


def codes(findings):
    return [f.code for f in findings]


def run_cli(args):
    import contextlib
    import io
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(args)
    return code, out.getvalue()


# ----------------------------------------------------------------------
# DET0xx — determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_global_rng_flagged(self, tmp_path):
        module = lint_module(tmp_path, """
            import random
            def draw():
                return random.random() + random.randint(0, 3)
        """)
        assert codes(check_determinism(module)) == ["DET001", "DET001"]

    def test_unseeded_random_flagged_seeded_clean(self, tmp_path):
        module = lint_module(tmp_path, """
            import random
            bad = random.Random()
            good = random.Random(7)
            system = random.SystemRandom()
        """)
        found = check_determinism(module)
        assert codes(found) == ["DET001", "DET001"]
        assert "without a seed" in found.items[0].message

    def test_wall_clock_flagged_monotonic_clean(self, tmp_path):
        module = lint_module(tmp_path, """
            import time
            def stamp():
                return time.time()
            def duration():
                return time.perf_counter() - time.monotonic()
        """)
        assert codes(check_determinism(module)) == ["DET002"]

    def test_set_iteration_flagged_sorted_clean(self, tmp_path):
        module = lint_module(tmp_path, """
            def bad(xs):
                for x in {x.key for x in xs}:
                    yield x
            def good(xs):
                for x in sorted({x.key for x in xs}):
                    yield x
            def consumers(s):
                return list({1, 2}), ",".join({"a", "b"})
        """)
        assert codes(check_determinism(module)) == \
            ["DET003", "DET003", "DET003"]

    def test_directory_listing_flagged_sorted_clean(self, tmp_path):
        module = lint_module(tmp_path, """
            import os
            def bad(p):
                return os.listdir(p)
            def good(p):
                return sorted(os.listdir(p)), len(os.listdir(p))
        """)
        assert codes(check_determinism(module)) == ["DET004"]


# ----------------------------------------------------------------------
# CONC0xx — concurrency
# ----------------------------------------------------------------------
class TestConcurrency:
    def test_unlocked_shared_write_on_pool_path(self, tmp_path):
        module = lint_module(tmp_path, """
            from concurrent.futures import ThreadPoolExecutor
            class Service:
                def work(self):
                    self.counter += 1
                def run(self, pool):
                    pool.submit(self.work)
        """)
        found = check_concurrency(module)
        assert codes(found) == ["CONC001"]
        assert "self.counter" in found.items[0].message

    def test_subscript_write_through_self_attribute_flagged(self, tmp_path):
        # The MetricRegistry.incr bug shape: a dict read-modify-write
        # through a self attribute is shared-state mutation even though
        # the assignment target is a Subscript, not the attribute.
        module = lint_module(tmp_path, """
            class Registry:
                def incr(self, name):
                    self.counters[name] = self.counters.get(name, 0) + 1
                def run(self, pool):
                    pool.submit(self.incr, "requests")
        """)
        found = check_concurrency(module)
        assert codes(found) == ["CONC001"]
        assert "self.counters[...]" in found.items[0].message

    def test_locked_subscript_write_clean(self, tmp_path):
        module = lint_module(tmp_path, """
            class Registry:
                def incr(self, name):
                    with self._lock:
                        self.counters[name] = self.counters.get(name, 0) + 1
                def run(self, pool):
                    pool.submit(self.incr, "requests")
        """)
        assert codes(check_concurrency(module)) == []

    def test_locked_write_and_cold_path_clean(self, tmp_path):
        module = lint_module(tmp_path, """
            class Service:
                def work(self):
                    with self._lock:
                        self.counter += 1
                def cold(self):
                    self.counter += 1
                def run(self, pool):
                    pool.submit(self.work)
        """)
        assert codes(check_concurrency(module)) == []

    def test_thread_local_write_exempt(self, tmp_path):
        module = lint_module(tmp_path, """
            class Service:
                def work(self):
                    self._local.connection = self._open()
                def run(self, pool):
                    pool.submit(self.work)
        """)
        assert codes(check_concurrency(module)) == []

    def test_cross_thread_connection_flagged(self, tmp_path):
        module = lint_module(tmp_path, """
            import sqlite3
            class Service:
                def __init__(self):
                    self.conn = sqlite3.connect(":memory:")
                def work(self):
                    return self.conn.execute("SELECT 1")
                def run(self, pool):
                    pool.submit(self.work)
        """)
        found = check_concurrency(module)
        assert codes(found) == ["CONC002"]
        assert "self.conn" in found.items[0].message

    def test_reachability_is_transitive(self, tmp_path):
        module = lint_module(tmp_path, """
            import threading
            class Service:
                def outer(self):
                    self.inner()
                def inner(self):
                    self.count += 1
                def run(self):
                    threading.Thread(target=self.outer).start()
        """)
        graph = ModuleCallGraph(module)
        reached = graph.reachable_from_submit()
        assert set(reached) == {"Service.outer", "Service.inner"}
        assert codes(check_concurrency(module, graph)) == ["CONC001"]


# ----------------------------------------------------------------------
# CONC003 — lock ordering
# ----------------------------------------------------------------------
class TestLockOrder:
    def test_inverted_fixture_has_cycle(self):
        module = load_module(FIXTURES / "inverted_locks.py", FIXTURES)
        found = check_lock_order([module])
        assert codes(found) == ["CONC003"]
        assert "_order_lock_a" in found.items[0].message
        assert "_order_lock_b" in found.items[0].message

    def test_consistent_order_no_cycle(self, tmp_path):
        module = lint_module(tmp_path, """
            import threading
            _lock_a = threading.Lock()
            _lock_b = threading.Lock()
            def one():
                with _lock_a:
                    with _lock_b:
                        pass
            def two():
                with _lock_a:
                    with _lock_b:
                        pass
        """)
        assert codes(check_lock_order([module])) == []

    def test_sqlite_backend_ordering_known_safe(self):
        # time_query finishes its _thread_connection() call *before*
        # taking _timing_lock, so the graph must not order the timing
        # lock above the connection lock (and must stay acyclic).  The
        # locking now lives in the shared RelationalBackend base class
        # (backends/dbms.py) that SQLite and DuckDB both inherit.
        module = load_module(REPRO_ROOT / "backends" / "dbms.py",
                             REPRO_ROOT)
        call_graph = ModuleCallGraph(module)
        acquired = set().union(*call_graph.acquires.values())
        assert {"RelationalBackend._timing_lock",
                "RelationalBackend._conn_lock"} <= acquired
        order = build_lock_order([module])
        assert "RelationalBackend._conn_lock" not in \
            order.edges.get("RelationalBackend._timing_lock", set())
        assert order.cycles() == []

    def test_cross_module_inversion_detected(self, tmp_path):
        # A->B in one module, B->A in another: the merged graph cycles.
        first = lint_module(tmp_path, """
            class Service:
                def one(self):
                    with self._a_lock:
                        with self._b_lock:
                            pass
        """, name="first.py")
        second = lint_module(tmp_path, """
            class Service:
                def two(self):
                    with self._b_lock:
                        with self._a_lock:
                            pass
        """, name="second.py")
        assert codes(check_lock_order([first, second])) == ["CONC003"]


# ----------------------------------------------------------------------
# RES0xx — resources / exception hygiene
# ----------------------------------------------------------------------
class TestResources:
    def test_swallowed_broad_except_flagged(self, tmp_path):
        module = lint_module(tmp_path, """
            def swallow():
                try:
                    risky()
                except Exception:
                    return None
        """)
        assert codes(check_resources(module)) == ["RES001"]

    def test_reraise_note_suppressed_and_use_are_clean(self, tmp_path):
        module = lint_module(tmp_path, """
            def reraises():
                try:
                    risky()
                except Exception:
                    raise
            def routes(tracer):
                try:
                    risky()
                except Exception as exc:
                    note_suppressed(exc, "site", tracer)
            def uses(log):
                try:
                    risky()
                except Exception as exc:
                    log.warning("failed: %s", exc)
        """)
        assert codes(check_resources(module)) == []

    def test_unclosed_open_flagged(self, tmp_path):
        module = lint_module(tmp_path, """
            def leak(path):
                handle = open(path)
                return handle.read()
        """)
        found = check_resources(module)
        assert codes(found) == ["RES002"]
        assert "handle" in found.items[0].message

    def test_with_close_and_handoff_are_clean(self, tmp_path):
        module = lint_module(tmp_path, """
            import contextlib
            def managed(path):
                with open(path) as handle:
                    return handle.read()
            def closing(conn_factory):
                with contextlib.closing(conn_factory.connect()) as conn:
                    return conn
            def closes(path):
                handle = open(path)
                try:
                    return handle.read()
                finally:
                    handle.close()
            def transfers(path):
                return open(path)
            def escapes(self, path):
                self.handle = open(path)
            def stacked(paths):
                with contextlib.ExitStack() as stack:
                    return [stack.enter_context(open(path))
                            for path in paths]
        """)
        assert codes(check_resources(module)) == []

    def test_a_call_that_only_reads_the_handle_does_not_own_it(
            self, tmp_path):
        module = lint_module(tmp_path, """
            import json
            def inline(path):
                return json.load(open(path))
            def bound(path):
                handle = open(path)
                return json.load(handle)
        """)
        found = check_resources(module)
        assert codes(found) == ["RES002", "RES002"]
        assert sorted(item.location for item in found.items) == [
            "mod_under_test.py:4", "mod_under_test.py:6"]

    def test_a_call_named_for_ownership_takes_the_handle(self, tmp_path):
        module = lint_module(tmp_path, """
            import contextlib
            def entered(stack, path):
                return stack.enter_context(open(path))
            def closed(path):
                return contextlib.closing(open(path))
            def pooled(pool, factory):
                conn = factory.connect()
                pool.append(conn)
            def registered(registry, path):
                handle = open(path)
                registry.register(handle)
        """)
        assert codes(check_resources(module)) == []


# ----------------------------------------------------------------------
# Driver (an inline pragma is the one way to waive a finding)
# ----------------------------------------------------------------------
class TestBaselineAndDriver:
    def test_planted_fixture_reports_every_family(self):
        report = lint_source_tree(FIXTURES)
        found = set(codes(report.findings))
        assert found == {"DET001", "CONC001", "CONC002", "CONC003",
                         "RES001", "RES002"}

    def test_inline_pragma_suppresses_and_counts(self, tmp_path):
        lint_module(tmp_path, """
            import random
            def draw():
                return random.random()  # lint: allow(DET001)
        """)
        report = lint_source_tree(tmp_path)
        assert not len(report.findings)
        assert report.inline_suppressed == 1

    def test_repro_tree_is_clean(self):
        # The acceptance bar: the shipped tree lints clean, every waiver
        # an inline pragma at the line it waives.
        report = lint_source_tree(REPRO_ROOT)
        assert not len(report.findings), report.findings.render()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCodeLintCLI:
    def test_clean_tree_exits_zero(self):
        code, out = run_cli(["check", "--code", "--strict",
                             "--path", str(REPRO_ROOT)])
        assert code == 0
        assert "OK" in out

    def test_planted_fixtures_fail(self):
        code, out = run_cli(["check", "--code", "--path", str(FIXTURES)])
        assert code == 1
        assert "CONC003" in out

    def test_strict_fails_on_warnings_only(self, tmp_path):
        (tmp_path / "warn_only.py").write_text(
            "import random\nVALUE = random.random()\n")
        lax, _ = run_cli(["check", "--code", "--path", str(tmp_path)])
        strict, _ = run_cli(["check", "--code", "--strict",
                             "--path", str(tmp_path)])
        assert (lax, strict) == (0, 1)

    def test_json_output(self):
        code, out = run_cli(["check", "--code", "--json",
                             "--path", str(FIXTURES)])
        payload = json.loads(out)
        assert code == 1
        assert payload["ok"] is False
        assert payload["modules_checked"] == 2
        assert {f["code"] for f in payload["findings"]} >= {"DET001"}
