"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``validate``   check XML documents against an XSD/DTD schema
``shred``      shred XML into relational tables (optionally dump CSV)
``query``      run an XPath query through translate + execute
``advise``     run the design search on a workload file
``experiment`` run one of the paper's experiments at a chosen scale
``calibrate``  rank-correlate cost estimates with measured SQLite times
``compare``    cross-check two execution backends (schemas, rows, queries)
``serve``      long-lived query service (plan cache + worker pool)
``loadgen``    seeded closed/open-loop load harness against the service

Workload files for ``advise`` contain one entry per line::

    # comments and blank lines are skipped
    //inproceedings[booktitle = "VLDB"]/(title | author)
    3.5 | //inproceedings[year >= "1995"]/title      # weighted query
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import sys
from pathlib import Path

from .datasets import DATASETS, DEFAULT_STORAGE_BOUND, DatasetBundle
from .engine import Database
from .errors import ReproError, WorkloadError, XPathError
from .obs import NULL_TRACER, Tracer, render_tree, to_json
from .mapping import (DEFAULT_BATCH_SIZE, PRESETS, derive_schema,
                      load_documents, shred_typed_batches)
from .search import ALGORITHMS, build_stats_only_database, design_for
from .sqlast import render
from .translate import translate_xpath
from .workload import Workload
from .xmlkit import parse_file
from .xsd import SchemaTree, parse_dtd, parse_xsd_file, validate


def _load_schema(args) -> SchemaTree:
    if args.schema:
        return parse_xsd_file(args.schema)
    if args.dtd:
        if not args.root:
            raise SystemExit("--dtd requires --root <element>")
        with open(args.dtd, encoding="utf-8") as handle:
            return parse_dtd(handle.read(), root=args.root)
    raise SystemExit("provide --schema <file.xsd> or --dtd <file.dtd>")


def _inputs(args) -> DatasetBundle:
    """The command's inputs, assembled in one place.

    Either a bundled dataset (``--dataset``/``--scale``/``--seed``) or
    schema + XML files, parsed and validated. The bundle collects
    statistics when a command first reads them; its storage bound is
    ``--storage-bound-mb`` where the command has it, else
    ``DEFAULT_STORAGE_BOUND``.
    """
    megabytes = getattr(args, "storage_bound_mb", None)
    bound = (DEFAULT_STORAGE_BOUND if megabytes is None
             else megabytes * 1024 * 1024)
    if getattr(args, "dataset", None):
        return DatasetBundle.named(args.dataset, scale=args.scale,
                                   seed=args.seed, storage_bound=bound,
                                   stream=getattr(args, "stream", False))
    tree = _load_schema(args)
    if not args.xml:
        raise SystemExit("provide --xml <file...> or --dataset")
    docs = [parse_file(path) for path in args.xml]
    for doc in docs:
        validate(doc, tree)
    return DatasetBundle("files", tree, docs, storage_bound=bound)


def _workload(args, bundle: DatasetBundle) -> Workload | None:
    """Generated from ``--seed``/``--queries`` for a bundled dataset,
    else the ``--workload`` file (``None`` when there is none)."""
    if args.dataset:
        return bundle.workload_generator(seed=args.seed).generate(
            args.queries)
    return parse_workload_file(args.workload) if args.workload else None


def _file_arguments(parser, xml_required: bool) -> None:
    parser.add_argument("--schema", help="XSD schema file")
    parser.add_argument("--dtd", help="DTD file (requires --root)")
    parser.add_argument("--root", help="root element name for --dtd")
    parser.add_argument("--xml", required=xml_required, nargs="+",
                        help="XML document file(s)")


def _dataset_arguments(parser, default: str | None, scale: int) -> None:
    parser.add_argument("--dataset", choices=list(DATASETS), default=default,
                        help="bundled synthetic dataset"
                             + (" (default: %(default)s)" if default else
                                " instead of --schema/--xml files"))
    parser.add_argument("--scale", type=int, default=scale,
                        help="bundled dataset scale in records "
                             "(default: %(default)s)")
    parser.add_argument("--seed", type=int, default=7,
                        help="seed for the dataset generator and, unless "
                             "the command has its own flag for them, the "
                             "generated workload and the query mix "
                             "(default: 7)")


def _mapping_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mapping", choices=sorted(PRESETS),
                        default="hybrid",
                        help="logical mapping preset (default: hybrid)")


def _print_rows(rows, limit: int, out) -> None:
    limit = limit if limit > 0 else len(rows)
    for row in rows[:limit]:
        print("  " + "\t".join("NULL" if v is None else str(v)
                               for v in row), file=out)
    if len(rows) > limit:
        print(f"  ... {len(rows) - limit} more", file=out)


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------


def cmd_validate(args, out=None) -> int:
    out = out or sys.stdout
    tree = _load_schema(args)
    failures = 0
    for path in args.xml:
        try:
            validate(parse_file(path), tree)
            print(f"{path}: OK", file=out)
        except ReproError as exc:
            failures += 1
            print(f"{path}: INVALID — {exc}", file=out)
    return 1 if failures else 0


def cmd_shred(args, out=None) -> int:
    """Stream-shred the documents: per-table row counts (and optional
    CSV dumps) with memory bounded by the batch size."""
    out = out or sys.stdout
    bundle = _inputs(args)
    schema = derive_schema(PRESETS[args.mapping](bundle.tree))
    print("relational schema:", file=out)
    print(schema.describe(), file=out)
    print(file=out)
    counts = {name: 0 for name in schema.table_names}
    writers: dict[str, csv.writer] = {}
    with contextlib.ExitStack() as files:
        if args.out:
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            for table in schema.to_engine_tables():
                writer = csv.writer(files.enter_context(open(
                    out_dir / f"{table.name}.csv", "w", newline="",
                    encoding="utf-8")))
                writer.writerow(table.column_names())
                writers[table.name] = writer
        for name, batch in shred_typed_batches(schema, bundle.docs,
                                               args.batch_size):
            counts[name] += len(batch)
            if writers:
                writers[name].writerows(batch)
    for name in sorted(counts):
        print(f"{name}: {counts[name]} rows", file=out)
    if args.out:
        print(f"\nwrote CSV files to {args.out}/", file=out)
    return 0


def cmd_query(args, out=None) -> int:
    out = out or sys.stdout
    bundle = _inputs(args)
    schema = derive_schema(PRESETS[args.mapping](bundle.tree))
    db = Database()
    load_documents(db, schema, bundle.docs)
    sql = translate_xpath(schema, args.xpath)
    print("SQL:", file=out)
    print(render(sql, indent="  "), file=out)
    if args.explain:
        print("\nplan:", file=out)
        print(db.explain(sql).explain(), file=out)
    result = db.execute(sql)
    print(f"\n{len(result.rows)} rows (cost {result.cost:.2f}):", file=out)
    _print_rows(result.rows, args.limit, out)
    return 0


def _strip_comment(line: str) -> str:
    """``line`` up to the first ``#`` outside a quoted XPath literal
    (literals have no escapes: one runs to the next same quote)."""
    quote = None
    for index, char in enumerate(line):
        if quote:
            if char == quote:
                quote = None
        elif char in "\"'":
            quote = char
        elif char == "#":
            return line[:index]
    return line


def parse_workload_file(path: str, name: str = "workload") -> Workload:
    """Parse the advise command's workload file format; an entry that
    is not a query is refused as ``{path}:{lineno}: …``."""
    workload = Workload(name)
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = _strip_comment(raw).strip()
            if not line:
                continue
            weight = 1.0
            if "|" in line:
                head, rest = line.split("|", 1)
                try:
                    weight = float(head.strip())
                    line = rest.strip()
                except ValueError:
                    pass  # the '|' belongs to a projection group
            try:
                workload.add(line, weight)
            except (XPathError, WorkloadError) as exc:
                raise type(exc)(f"{path}:{lineno}: {exc}") from exc
    if not workload.queries:
        raise SystemExit(f"workload file {path!r} contains no queries")
    return workload


def cmd_advise(args, out=None) -> int:
    out = out or sys.stdout
    if args.resume and not args.checkpoint_dir:
        raise SystemExit("--resume requires --checkpoint-dir")
    bundle = _inputs(args)
    workload = parse_workload_file(args.workload)
    tracing = args.trace or args.trace_json
    tracer = Tracer() if tracing else NULL_TRACER
    kwargs = {"jobs": args.jobs}
    if args.checkpoint_dir:
        if args.algorithm == "two-step":
            # Two-step's logical step re-enumerates from scratch each
            # round with no costly per-round state worth snapshotting.
            print("note: --checkpoint-dir is ignored for two-step",
                  file=out)
        else:
            from .resilience import CheckpointStore
            kwargs["checkpoint"] = CheckpointStore(args.checkpoint_dir,
                                                   tracer=tracer)
            kwargs["checkpoint_every"] = args.checkpoint_every
            kwargs["resume"] = args.resume
    result = design_for(args.algorithm, bundle.tree, workload, bundle.stats,
                        bundle.storage_bound, tracer, **kwargs)
    print(result.describe(), file=out)
    db = build_stats_only_database(result.schema, bundle.stats)
    data = db.catalog.total_data_bytes()
    structures = result.configuration.size_bytes(db)
    print(f"storage bound: {bundle.storage_bound} cost-model bytes; design "
          f"size: {data + structures} cost-model bytes (data {data} + "
          f"structures {structures})", file=out)
    counters = result.counters
    print(f"\nsearch: {counters.transformations_searched} transformations, "
          f"{counters.tuner_calls} tuner calls, "
          f"{counters.cache_hits} cache hits "
          f"({counters.cache_hits_infeasible} infeasible), "
          f"{counters.wall_time:.1f}s", file=out)
    if (counters.fault_retries or counters.faulted_evaluations or
            counters.timeouts or counters.pool_degradations or
            counters.checkpoints_written):
        print(f"resilience: {counters.fault_retries} retries, "
              f"{counters.faulted_evaluations} faulted evaluations "
              f"({counters.timeouts} timeouts), "
              f"{counters.pool_degradations} pool degradations, "
              f"{counters.checkpoints_written} checkpoints written",
              file=out)
    if args.trace:
        print("\ntrace:", file=out)
        print(render_tree(tracer), file=out)
    if args.trace_json:
        Path(args.trace_json).write_text(to_json(tracer),
                                         encoding="utf-8")
        print(f"\nwrote trace JSON to {args.trace_json}", file=out)
    if args.measure:
        from .experiments import measure_design
        measured = measure_design(result, bundle)
        print(f"measured workload cost on loaded data: {measured:.1f}",
              file=out)
    return 0


def _emit_findings(report, counts: dict, args, out) -> int:
    """Print a lint report (text or ``--json``) and pick the exit code."""
    import json

    if args.json:
        print(json.dumps({"ok": report.ok, **counts,
                          "findings": report.findings.to_dicts()},
                         indent=2), file=out)
    else:
        if report.findings:
            print(report.findings.render(), file=out)
        print(report.summary(), file=out)
    if report.findings.errors:
        return 1
    if args.strict and report.findings.warnings:
        return 1
    return 0


def _cmd_check_code(args, out) -> int:
    from .check.code import lint_source_tree

    report = lint_source_tree(Path(args.path) if args.path else None)
    return _emit_findings(report, {
        "modules_checked": report.modules_checked,
        "inline_suppressed": report.inline_suppressed}, args, out)


def cmd_check(args, out=None) -> int:
    from .check import lint_bundle

    out = out or sys.stdout
    if args.code:
        return _cmd_check_code(args, out)
    bundle = _inputs(args)
    workload = _workload(args, bundle) or Workload("empty")
    report = lint_bundle(PRESETS[args.mapping](bundle.tree), workload,
                         bundle.stats)
    return _emit_findings(report, {
        "tables_checked": report.tables_checked,
        "queries_checked": report.queries_checked,
        "queries_failed": report.queries_failed}, args, out)


def cmd_experiment(args, out=None) -> int:
    out = out or sys.stdout
    from .experiments import (TABLE1_HEADERS, characterize, format_table,
                              run_motivating_example)
    backend = getattr(args, "backend", "engine")
    if args.name == "all":
        for name in ("table1", "e0", "split-count", "comparison"):
            sub = argparse.Namespace(name=name, scale=args.scale,
                                     backend=backend)
            cmd_experiment(sub, out)
            print(file=out)
        return 0
    if args.name == "split-count":
        from .experiments import run_split_count_sweep
        sweep = run_split_count_sweep(DatasetBundle.dblp(scale=args.scale))
        print(format_table(
            "Section 4.6 — repetition-split count sweep (DBLP)",
            ["k", "measured cost", "data size", ""], sweep.rows(),
            note=f"{sweep.split}; best k = {sweep.best_k()}"), file=out)
        return 0
    if args.name == "comparison":
        from .experiments import FIG4_VARIANTS, compare_algorithms
        bundle = DatasetBundle.dblp(scale=args.scale)
        workloads = [bundle.workload_generator(seed=41).generate(8),
                     bundle.workload_generator(seed=42).generate(
                         8, selectivity=(0.5, 1.0), projections=(5, 20))]
        variants = {label: FIG4_VARIANTS[label]
                    for label in ("greedy", "two-step")}
        comparison = compare_algorithms(bundle, workloads, variants,
                                        backend=backend)
        if backend != "engine":
            print(f"(costs measured on the {backend} backend)", file=out)
        print(comparison.fig4(), file=out)
        print(comparison.fig5(), file=out)
        return 0
    if args.name == "e0":
        result = run_motivating_example(scale=args.scale)
        print(format_table(
            "E0 (Section 1.1) — SIGMOD query under both mappings",
            ["mapping", "untuned", "tuned"], result.rows(),
            note=f"tuned speed-up {result.tuned_speedup:.1f}x; untuned "
                 f"ordering reverses: {result.ordering_reverses_untuned}; "
                 f"{result.split}"),
            file=out)
    elif args.name == "table1":
        rows = [characterize(DatasetBundle.named(name, scale=args.scale))
                for name in DATASETS]
        print(format_table("Table 1 — data set characteristics",
                           TABLE1_HEADERS, [r.row() for r in rows]),
              file=out)
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown experiment {args.name!r}")
    return 0


def _serve_inputs(args, out):
    """``(bundle, workload, schema, configuration)`` for serve/loadgen.

    One ``--seed`` drives the dataset, the workload generator and
    (through the caller) the mix sampler — the reproducibility contract
    of the load harness. ``--tune`` asks :func:`design_for` to tune the
    chosen mapping (translation + what-if calls, no data touched);
    without it the service runs the bare logical design.
    """
    from .physdesign import Configuration
    bundle = _inputs(args)
    workload = _workload(args, bundle)
    if workload is None:
        raise SystemExit("file mode requires --workload")
    if not args.tune:
        schema = derive_schema(PRESETS[args.mapping](bundle.tree))
        return bundle, workload, schema, Configuration()
    design = design_for(args.mapping, bundle.tree, workload, bundle.stats,
                        bundle.storage_bound)
    if math.isinf(design.estimated_cost):
        print("note: workload is infeasible under this mapping; "
              "serving untuned", file=out)
    return bundle, workload, design.schema, design.configuration


def _make_service(args, schema, configuration, docs):
    from .serve import QueryService
    max_queue = getattr(args, "max_queue", None)
    kwargs = {}
    if max_queue is not None:
        # -1 on the command line = unbounded; otherwise the bound.
        kwargs["max_queue"] = None if max_queue < 0 else max_queue
    return QueryService(schema, docs, configuration=configuration,
                        workers=args.workers,
                        plan_cache_size=args.plan_cache,
                        db_path=args.db,
                        load_batch_size=getattr(args, "load_batch", None),
                        deadline=getattr(args, "deadline", None),
                        backend=getattr(args, "backend", "sqlite"),
                        **kwargs)


def _install_cli_faults(args):
    """Install ``--faults`` (where the command has it) and return a
    restore callable; :func:`main` brackets every command with it.

    The CLI runs in-process in tests, so the previously active plan is
    restored afterwards instead of leaking into the next command.
    """
    from .resilience import active_fault_plan, install_fault_plan
    previous = active_fault_plan()
    if getattr(args, "faults", None):
        install_fault_plan(args.faults)
    return lambda: install_fault_plan(previous)


def cmd_serve(args, out=None) -> int:
    out = out or sys.stdout
    bundle, _, schema, configuration = _serve_inputs(args, out)
    service = _make_service(args, schema, configuration, bundle.docs)
    try:
        print(f"serving {len(schema.table_names)} tables "
              f"({len(configuration) - len(configuration.views)} indexes, "
              f"{len(configuration.views)} views) on {args.workers} "
              f"workers; plan cache {args.plan_cache}", file=out)
        if args.xpath:
            queries = args.xpath
        else:
            print("enter one XPath query per line (EOF to stop):",
                  file=out)
            queries = (line.strip() for line in sys.stdin)
        for text in queries:
            if not text:
                continue
            try:
                result = service.serve(text)
            except ReproError as exc:
                print(f"error: {exc}", file=out)
                continue
            print(f"{result.xpath}: {len(result.rows)} rows in "
                  f"{result.seconds * 1e3:.3f}ms "
                  f"({'cached' if result.cached_plan else 'translated'} "
                  f"plan {result.plan_key})", file=out)
            _print_rows(result.rows, args.limit, out)
        print(service.stats().describe(), file=out)
    finally:
        service.close()
    return 0


def cmd_loadgen(args, out=None) -> int:
    import json

    if args.requests is None and args.duration is None:
        raise SystemExit("loadgen needs a stop bound: give --requests, "
                         "--duration, or both")
    out = out or sys.stdout
    from .serve import LoadGenerator
    from .workload import zipf_mix
    bundle, workload, schema, configuration = _serve_inputs(args, out)
    mix = zipf_mix(workload, skew=args.zipf)
    service = _make_service(args, schema, configuration, bundle.docs)
    try:
        generator = LoadGenerator(service, mix, seed=args.seed,
                                  mode=args.mode, clients=args.clients,
                                  rate=args.rate)
        report = generator.run(requests=args.requests,
                               duration=args.duration)
        # Snapshot counters now: verify adds its own requests to the
        # live service, which must not leak into the run's numbers.
        service_stats = service.stats()
        print(report.describe(), file=out)
        print(service_stats.describe(), file=out)
        failures = []
        if args.verify:
            # The oracle check must see the service fault-free: a
            # deterministic plan would otherwise fail verify queries on
            # purpose and report phantom divergence.
            from .resilience import (NULL_PLAN, active_fault_plan,
                                     install_fault_plan)
            chaos = active_fault_plan()
            install_fault_plan(NULL_PLAN)
            try:
                mismatches = _verify_against_engine(service, schema,
                                                    bundle.docs, mix, out)
            finally:
                install_fault_plan(chaos)
            if mismatches:
                failures.append(f"{mismatches} queries diverge from the "
                                f"engine oracle")
        if args.json:
            payload = report.to_dict()
            payload["plan_cache"] = service_stats.plan_cache
            payload["resilience"] = {
                "shed": service_stats.shed,
                "retries": service_stats.retries,
                "timeouts": service_stats.timeouts,
                "breaker": service_stats.breaker,
            }
            Path(args.json).write_text(json.dumps(payload, indent=2),
                                       encoding="utf-8")
            print(f"wrote JSON summary to {args.json}", file=out)
        if args.smoke:
            if report.qps <= 0:
                failures.append("QPS is zero")
            if report.errors:
                failures.append(f"{report.errors} errored requests")
            if service_stats.plan_cache["hits"] <= 0:
                failures.append("plan cache never hit")
        total = max(len(report.records), 1)
        if args.max_shed_rate is not None and \
                report.shed / total > args.max_shed_rate:
            failures.append(
                f"shed rate {report.shed / total:.1%} exceeds "
                f"--max-shed-rate {args.max_shed_rate:.1%}")
        if args.max_error_rate is not None and \
                report.errors / total > args.max_error_rate:
            failures.append(
                f"error rate {report.errors / total:.1%} exceeds "
                f"--max-error-rate {args.max_error_rate:.1%}")
        if args.slo_p95 is not None and report.latency(95) > args.slo_p95:
            failures.append(
                f"p95 latency {report.latency(95):.3f}s exceeds "
                f"--slo-p95 {args.slo_p95:.3f}s")
        if failures:
            for failure in failures:
                print(f"SMOKE FAIL: {failure}", file=out)
            return 1
        if args.smoke:
            print("smoke OK: nonzero QPS, zero errors, plan cache hit",
                  file=out)
    finally:
        service.close()
    return 0


def _verify_against_engine(service, schema, docs, mix, out) -> int:
    """Differential check: served rows vs the engine oracle, per distinct
    mix query. Returns the number of diverging queries."""
    from .backends import EngineBackend, multiset_diff
    engine = EngineBackend()
    engine.load(schema, docs)
    mismatches = 0
    for query in mix.queries:
        served = service.serve(query)
        plan, _ = service.plan_cache.get_or_translate(query)
        missing, extra = multiset_diff(engine.execute(plan.sql),
                                       served.rows)
        if missing or extra:
            mismatches += 1
            print(f"VERIFY MISMATCH {query}: {len(missing)} missing, "
                  f"{len(extra)} extra rows", file=out)
    if not mismatches:
        print(f"verify OK: {len(mix.queries)} distinct queries match "
              f"the engine oracle", file=out)
    return mismatches


def cmd_calibrate(args, out=None) -> int:
    out = out or sys.stdout
    from .backends import run_calibration
    bundle = _inputs(args)
    report = run_calibration(bundle, _workload(args, bundle),
                             algorithms=tuple(args.algorithms),
                             repeat=args.repeat, warmup=args.warmup)
    print(report.describe(), file=out)
    if args.min_correlation is not None:
        if report.design_rank_correlation < args.min_correlation:
            print(f"FAIL: design rank correlation "
                  f"{report.design_rank_correlation:+.3f} below required "
                  f"{args.min_correlation:+.3f}", file=out)
            return 1
        print(f"OK: design rank correlation "
              f"{report.design_rank_correlation:+.3f} >= "
              f"{args.min_correlation:+.3f}", file=out)
    return 0


def cmd_compare(args, out=None) -> int:
    import json

    out = out or sys.stdout
    from .backends import compare_datasets, duckdb_available
    from .backends.compare import MISMATCH
    needs_duckdb = "duckdb" in (args.backend_a, args.backend_b)
    if needs_duckdb and not duckdb_available():
        print("duckdb is not installed; skipping the backend comparison "
              "(pip install duckdb to enable it)", file=out)
        return 1 if args.strict else 0
    reports = []
    failed = False
    for design in args.design or [*sorted(PRESETS), "greedy"]:
        report = compare_datasets(
            args.dataset, design, args.backend_a, args.backend_b,
            scale=args.scale, seed=args.seed,
            workload_size=args.queries,
            workload_seed=args.workload_seed,
            include_timings=args.timings)
        print(report.describe(), file=out)
        reports.append(report.to_json())
        failed = failed or report.status == MISMATCH
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(reports, handle, indent=2, sort_keys=True,
                      default=str)
        print(f"wrote {args.json}", file=out)
    return 1 if failed else 0


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def _at_least_one(flag: str, hint: str):
    """An argparse ``type`` for an int flag: an explicit value below 1
    is a loud error, which ``hint`` says how to avoid."""
    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}")
        if value < 1:
            raise argparse.ArgumentTypeError(
                f"{flag} must be >= 1 (got {value}); {hint}")
        return value
    return parse


def _positive(flag: str):
    """An argparse ``type`` for a float flag that must be above 0."""
    def parse(raw: str) -> float:
        try:
            value = float(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid float value: {raw!r}")
        if not value > 0:
            raise argparse.ArgumentTypeError(
                f"{flag} must be > 0 (got {raw})")
        return value
    return parse


_jobs_argument = _at_least_one(
    "--jobs", "use --jobs 1 for a serial run, or omit the flag to follow "
    "REPRO_PARALLEL")
_megabytes_argument = _at_least_one(
    "--storage-bound-mb", "omit the flag for the default bound")
_queries_argument = _at_least_one(
    "--queries", "omit the flag for a workload of 6 queries")
_STORAGE_BOUND_HELP = (
    "the storage bound of Definition 1 in MB, counted in the cost "
    "model's bytes (data, indexes and views), not the database's: "
    "SQLite stores a design in about 0.55 x as many (docs/cost_model.md)")


def build_parser() -> argparse.ArgumentParser:
    from .backends import known_backends
    parser = argparse.ArgumentParser(
        prog="repro",
        description="XML-to-relational shredding advisor "
                    "(Chaudhuri et al., ICDE 2004)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate",
                                help="validate XML against a schema")
    _file_arguments(p_validate, xml_required=True)
    p_validate.set_defaults(func=cmd_validate)

    p_shred = sub.add_parser("shred", help="shred XML into tables")
    _file_arguments(p_shred, xml_required=False)
    _mapping_argument(p_shred)
    dataset = p_shred.add_argument_group("bundled dataset")
    _dataset_arguments(dataset, None, scale=2000)
    dataset.add_argument("--stream", action="store_true",
                         help="generate and shred lazily: peak memory "
                              "bounded by --batch-size, not --scale "
                              "(supports --scale 10^6+)")
    p_shred.add_argument("--batch-size", default=DEFAULT_BATCH_SIZE,
                         type=_at_least_one("--batch-size",
                                            "omit the flag for the "
                                            "default"),
                         help="rows per streamed batch (default: "
                              f"{DEFAULT_BATCH_SIZE})")
    p_shred.add_argument("--out", help="directory for CSV dumps")
    p_shred.set_defaults(func=cmd_shred)

    p_query = sub.add_parser("query", help="run an XPath query")
    _file_arguments(p_query, xml_required=True)
    _mapping_argument(p_query)
    p_query.add_argument("--xpath", required=True)
    p_query.add_argument("--explain", action="store_true",
                         help="print the physical plan")
    p_query.add_argument("--limit", type=int, default=20,
                         help="max rows to print (0 = all)")
    p_query.set_defaults(func=cmd_query)

    p_advise = sub.add_parser("advise",
                              help="search for the best joint design")
    _file_arguments(p_advise, xml_required=True)
    p_advise.add_argument("--workload", required=True,
                          help="workload file (one XPath per line)")
    p_advise.add_argument("--algorithm", choices=sorted(ALGORITHMS),
                          default="greedy")
    p_advise.add_argument("--storage-bound-mb",
                           type=_megabytes_argument, default=None,
                           help=_STORAGE_BOUND_HELP)
    p_advise.add_argument("--measure", action="store_true",
                          help="also load the data and measure the design")
    p_advise.add_argument("--trace", action="store_true",
                          help="print a per-phase span trace of the search")
    p_advise.add_argument("--trace-json", metavar="FILE", default=None,
                          help="write the span trace as JSON to FILE")
    p_advise.add_argument("--jobs", type=_jobs_argument, default=None,
                          help="parallel evaluation workers, >= 1. "
                               "Default: the REPRO_PARALLEL environment "
                               "variable (0/unset = serial, 1/auto = one "
                               "worker per CPU, N = exactly N). "
                               "Workers are processes; a broken pool "
                               "finishes the work in-process")
    p_advise.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                          help="snapshot search state under DIR at every "
                               "round boundary (atomic; survives kills)")
    p_advise.add_argument("--checkpoint-every", default=1, metavar="N",
                          type=_at_least_one("--checkpoint-every",
                                             "omit the flag to checkpoint "
                                             "every round"),
                          help="checkpoint every N rounds (default: 1)")
    p_advise.add_argument("--resume", action="store_true",
                          help="resume from the checkpoint in "
                               "--checkpoint-dir instead of starting over")
    p_advise.add_argument("--faults", metavar="SPEC", default=None,
                          help="inject deterministic faults, e.g. "
                               "'seed=42;evaluate:0.2:transient' "
                               "(also via REPRO_FAULTS; see "
                               "docs/resilience.md)")
    p_advise.set_defaults(func=cmd_advise)

    p_check = sub.add_parser(
        "check", help="statically lint a schema+mapping+workload bundle")
    _file_arguments(p_check, xml_required=False)
    _mapping_argument(p_check)
    p_check.add_argument("--workload", default=None,
                         help="workload file (one XPath per line)")
    _dataset_arguments(p_check, None, scale=300)
    p_check.add_argument("--queries", type=_queries_argument, default=6,
                         help="generated workload size for --dataset")
    p_check.add_argument("--json", action="store_true",
                         help="emit findings as JSON")
    p_check.add_argument("--strict", action="store_true",
                         help="exit non-zero on warnings too")
    p_check.add_argument("--code", action="store_true",
                         help="lint the repro source code itself "
                              "(DET/CONC/RES) instead of a bundle")
    p_check.add_argument("--path", default=None,
                         help="source root for --code (default: the "
                              "installed repro package)")
    p_check.set_defaults(func=cmd_check)

    p_exp = sub.add_parser("experiment", help="run a paper experiment")
    p_exp.add_argument("name", choices=["e0", "table1", "split-count",
                                        "comparison", "all"])
    p_exp.add_argument("--scale", type=int, default=1500)
    p_exp.add_argument("--backend", choices=["engine", "sqlite"],
                       default="engine",
                       help="measure design costs on the deterministic "
                            "engine (default) or on real SQLite "
                            "wall-clock time (comparison experiment)")
    p_exp.set_defaults(func=cmd_experiment)

    p_cal = sub.add_parser(
        "calibrate",
        help="rank-correlate cost estimates with measured SQLite times")
    _dataset_arguments(p_cal, "dblp", scale=300)
    p_cal.add_argument("--queries", type=_queries_argument, default=6,
                       help="generated workload size (default: 6)")
    p_cal.add_argument("--repeat", default=3,
                       type=_at_least_one("--repeat",
                                          "omit the flag for 3 timed runs"),
                       help="timed runs per query (median; default: 3)")
    p_cal.add_argument("--warmup", type=int, default=1,
                       help="untimed warmup runs per query (default: 1)")
    p_cal.add_argument("--algorithms", nargs="+",
                       choices=["greedy", "two-step"],
                       default=["greedy", "two-step"],
                       help="design searches to calibrate (the "
                            "logical-only baseline always runs)")
    p_cal.add_argument("--storage-bound-mb", type=_megabytes_argument,
                       default=None, help=_STORAGE_BOUND_HELP)
    p_cal.add_argument("--min-correlation", type=float, default=None,
                       metavar="R",
                       help="exit non-zero unless the design rank "
                            "correlation reaches R (CI gate)")
    p_cal.set_defaults(func=cmd_calibrate)

    p_cmp = sub.add_parser(
        "compare",
        help="cross-check two execution backends on one dataset: "
             "schemas, row multisets, workload results, indexes")
    _dataset_arguments(p_cmp, "dblp", scale=60)
    p_cmp.add_argument("--design", action="append",
                       choices=[*PRESETS, "greedy"],
                       default=None, metavar="DESIGN",
                       help="mapping preset or 'greedy' (repeatable; "
                            "default: all of them)")
    p_cmp.add_argument("--backend-a", default="sqlite",
                       choices=known_backends(),
                       help="reference backend (default: sqlite)")
    p_cmp.add_argument("--backend-b", default="duckdb",
                       choices=known_backends(),
                       help="candidate backend (default: duckdb)")
    p_cmp.add_argument("--queries", type=_queries_argument, default=6,
                       help="generated workload size (default: 6)")
    p_cmp.add_argument("--workload-seed", type=int, default=3,
                       help="workload generator seed (default: 3)")
    p_cmp.add_argument("--timings", action="store_true",
                       help="also measure per-query wall-clock on both "
                            "backends (advisory, never fails; makes the "
                            "report nondeterministic)")
    p_cmp.add_argument("--strict", action="store_true",
                       help="fail when an optional backend is "
                            "missing")
    p_cmp.add_argument("--json", metavar="FILE", default=None,
                       help="write all reports to FILE as JSON")
    p_cmp.set_defaults(func=cmd_compare)

    def serve_shared(p: argparse.ArgumentParser) -> None:
        source = p.add_argument_group("data source")
        _dataset_arguments(source, None, scale=300)
        source.add_argument("--stream", action="store_true",
                            help="generate the bundled dataset lazily and "
                                 "stream the bulk load (use with large "
                                 "--scale and --db)")
        source.add_argument("--queries", type=_queries_argument, default=6,
                            help="generated workload size for --dataset "
                                 "(default: 6)")
        _file_arguments(source, xml_required=False)
        source.add_argument("--workload", default=None,
                            help="workload file (required in file mode)")
        design = p.add_argument_group("design")
        _mapping_argument(design)
        design.add_argument("--tune", action="store_true",
                            help="run the physical-design advisor and "
                                 "serve its recommended configuration")
        svc = p.add_argument_group("service")
        svc.add_argument("--workers", default=4,
                         type=_at_least_one("--workers",
                                            "omit the flag for 4 threads"),
                         help="pool threads behind asynchronous "
                              "(open-loop) requests, and with "
                              "--max-queue the admission bound; "
                              "blocking requests run on the client's "
                              "own thread (default: 4)")
        svc.add_argument("--plan-cache", default=128,
                         type=_at_least_one("--plan-cache",
                                            "omit the flag for 128 shapes"),
                         help="plan cache capacity, in query shapes "
                              "(default: 128)")
        svc.add_argument("--backend", choices=["sqlite", "duckdb"],
                         default="sqlite",
                         help="execution backend to serve from "
                              "(duckdb needs the optional package; "
                              "default: sqlite)")
        svc.add_argument("--db", default=None, metavar="FILE",
                         help="serve from this database file (workers "
                              "reopen it read-only; default: shared "
                              "in-memory database)")
        svc.add_argument("--load-batch", type=int, default=None,
                         metavar="ROWS",
                         help="rows per streamed bulk-load chunk "
                              "(default: backend default)")
        resil = p.add_argument_group("resilience")
        resil.add_argument("--faults", metavar="SPEC", default=None,
                           help="inject deterministic faults, e.g. "
                                "'seed=1;backend.execute:0.05:transient;"
                                "serve.request:0.01:hang:0.2' "
                                "(see docs/resilience.md)")
        resil.add_argument("--deadline", type=_positive("--deadline"),
                           default=None, metavar="SECONDS",
                           help="per-request deadline from admission, "
                                "queue wait included (default: none)")
        resil.add_argument("--max-queue", type=int, default=None,
                           metavar="N",
                           help="queued requests admitted past the "
                                "workers before shedding; -1 = unbounded "
                                "(default: 1024)")

    p_serve = sub.add_parser(
        "serve",
        help="serve XPath queries from a long-lived query service")
    serve_shared(p_serve)
    p_serve.add_argument("--xpath", action="append", metavar="QUERY",
                         help="serve this query and exit (repeatable); "
                              "without it, read queries from stdin")
    p_serve.add_argument("--limit", type=int, default=10,
                         help="rows printed per query, 0 = all "
                              "(default: 10)")
    p_serve.set_defaults(func=cmd_serve)

    p_load = sub.add_parser(
        "loadgen",
        help="drive the query service with a seeded load harness")
    serve_shared(p_load)
    p_load.add_argument("--mode", choices=["closed", "open"],
                        default="closed",
                        help="closed loop (clients back-to-back) or "
                             "open loop (Poisson arrivals)")
    p_load.add_argument("--clients", default=4,
                        type=_at_least_one("--clients",
                                           "omit the flag for 4 clients"),
                        help="closed-loop client threads (default: 4)")
    p_load.add_argument("--rate", type=_positive("--rate"), default=200.0,
                        help="open-loop arrival rate in req/s "
                             "(default: 200)")
    p_load.add_argument("--requests", default=None,
                        type=_at_least_one("--requests",
                                           "use --duration alone to stop "
                                           "on time only"),
                        help="stop after this many requests")
    p_load.add_argument("--duration", type=_positive("--duration"),
                        default=None,
                        help="stop after this many seconds")
    p_load.add_argument("--zipf", type=float, default=1.0,
                        help="Zipf skew of the query mix (default: 1.0)")
    p_load.add_argument("--json", metavar="FILE", default=None,
                        help="write a JSON run summary to FILE")
    p_load.add_argument("--verify", action="store_true",
                        help="differentially check served rows against "
                             "the deterministic engine oracle")
    p_load.add_argument("--smoke", action="store_true",
                        help="exit non-zero unless QPS > 0, zero "
                             "errors, and the plan cache hit")
    gates = p_load.add_argument_group("chaos gates (degraded SLO)")
    gates.add_argument("--max-shed-rate", type=float, default=None,
                       metavar="FRACTION",
                       help="fail if more than this fraction of requests "
                            "was shed (admission control + breaker)")
    gates.add_argument("--max-error-rate", type=float, default=None,
                       metavar="FRACTION",
                       help="fail if more than this fraction of requests "
                            "errored (shed included)")
    gates.add_argument("--slo-p95", type=float, default=None,
                       metavar="SECONDS",
                       help="fail if p95 latency of completed requests "
                            "exceeds this")
    p_load.set_defaults(func=cmd_loadgen)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    restore_faults = _install_cli_faults(args)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        restore_faults()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
