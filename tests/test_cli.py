"""Tests for the command-line interface."""

import io
import re

import pytest

from repro.cli import main, parse_workload_file

DTD = """
<!ELEMENT shop (item*)>
<!ELEMENT item (name, kind, price, label*)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT kind (#PCDATA)>
<!ELEMENT price (#PCDATA)>
<!ELEMENT label (#PCDATA)>
"""

XML = """
<shop>
  <item><name>a</name><kind>x</kind><price>10</price>
        <label>l1</label><label>l2</label></item>
  <item><name>b</name><kind>y</kind><price>20</price></item>
  <item><name>c</name><kind>x</kind><price>30</price><label>l3</label></item>
</shop>
"""

BAD_XML = "<shop><item><name>a</name></item></shop>"


@pytest.fixture
def files(tmp_path):
    dtd = tmp_path / "shop.dtd"
    dtd.write_text(DTD)
    xml = tmp_path / "shop.xml"
    xml.write_text(XML)
    bad = tmp_path / "bad.xml"
    bad.write_text(BAD_XML)
    workload = tmp_path / "workload.txt"
    workload.write_text(
        "# shop workload\n"
        '//item[kind = "x"]/(name | price)\n'
        "2.0 | //item/label\n")
    return tmp_path, dtd, xml, bad, workload


def run_cli(args) -> tuple[int, str]:
    import contextlib
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(args)
    return code, out.getvalue()


class TestValidate:
    def test_valid_document(self, files):
        _, dtd, xml, _, _ = files
        code, out = run_cli(["validate", "--dtd", str(dtd), "--root", "shop",
                             "--xml", str(xml)])
        assert code == 0
        assert "OK" in out

    def test_invalid_document(self, files):
        _, dtd, _, bad, _ = files
        code, out = run_cli(["validate", "--dtd", str(dtd), "--root", "shop",
                             "--xml", str(bad)])
        assert code == 1
        assert "INVALID" in out

    def test_dtd_requires_root(self, files):
        _, dtd, xml, _, _ = files
        with pytest.raises(SystemExit):
            run_cli(["validate", "--dtd", str(dtd), "--xml", str(xml)])


class TestShred:
    def test_prints_schema_and_counts(self, files):
        _, dtd, xml, _, _ = files
        code, out = run_cli(["shred", "--dtd", str(dtd), "--root", "shop",
                             "--xml", str(xml)])
        assert code == 0
        assert "item(ID, PID, name, kind, price)" in out
        assert "item: 3 rows" in out
        assert "label: 3 rows" in out

    def test_csv_dump(self, files):
        tmp_path, dtd, xml, _, _ = files
        out_dir = tmp_path / "csv"
        code, _ = run_cli(["shred", "--dtd", str(dtd), "--root", "shop",
                           "--xml", str(xml), "--out", str(out_dir)])
        assert code == 0
        content = (out_dir / "item.csv").read_text()
        assert content.splitlines()[0] == "ID,PID,name,kind,price"
        assert len(content.splitlines()) == 4

    def test_file_mode_streams_in_batches(self, files):
        """File mode streams like dataset mode: ``--batch-size`` is
        honoured and does not change what is written."""
        tmp_path, dtd, xml, _, _ = files
        dumps = {}
        for batch_size in (None, "1"):
            out_dir = tmp_path / f"csv-{batch_size}"
            argv = ["shred", "--dtd", str(dtd), "--root", "shop",
                    "--xml", str(xml), "--mapping", "fully-split",
                    "--out", str(out_dir)]
            code, _ = run_cli(argv + (["--batch-size", batch_size]
                                      if batch_size else []))
            assert code == 0
            dumps[batch_size] = {p.name: p.read_bytes()
                                 for p in sorted(out_dir.iterdir())}
        assert dumps["1"] == dumps[None]
        assert len(dumps[None]["label.csv"].splitlines()) == 4

    def test_mapping_choice(self, files):
        _, dtd, xml, _, _ = files
        code, out = run_cli(["shred", "--dtd", str(dtd), "--root", "shop",
                             "--xml", str(xml), "--mapping", "fully-split"])
        assert code == 0
        assert "name(ID, PID, name)" in out


class TestQuery:
    def test_query_executes(self, files):
        _, dtd, xml, _, _ = files
        code, out = run_cli([
            "query", "--dtd", str(dtd), "--root", "shop",
            "--xml", str(xml),
            "--xpath", '//item[kind = "x"]/(name | price)'])
        assert code == 0
        assert "SELECT" in out
        assert "a" in out and "30" in out

    def test_explain_flag(self, files):
        _, dtd, xml, _, _ = files
        code, out = run_cli([
            "query", "--dtd", str(dtd), "--root", "shop",
            "--xml", str(xml), "--xpath", "//item/name", "--explain"])
        assert code == 0
        assert "SeqScan" in out or "IndexSeek" in out

    def test_limit(self, files):
        _, dtd, xml, _, _ = files
        code, out = run_cli([
            "query", "--dtd", str(dtd), "--root", "shop",
            "--xml", str(xml), "--xpath", "//item/name", "--limit", "1"])
        assert "more" in out


class TestWorkloadFile:
    def test_parse(self, files):
        _, _, _, _, workload = files
        parsed = parse_workload_file(str(workload))
        assert len(parsed.queries) == 2
        assert parsed.queries[1].weight == 2.0

    def test_hash_inside_a_quoted_literal_is_not_a_comment(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text(
            '//inproceedings[booktitle = "C#"]/title\n'
            "//article[journal = 'F# Weekly']/title   # trailing comment\n"
            '2.5 | //book[publisher = "#1 Press"]/(title | year) # why\n'
            "   # a comment line with a \"quote\n")
        workload = parse_workload_file(str(path))
        assert [str(q.query) for q in workload.queries] == [
            '//inproceedings[booktitle = "C#"]/title',
            '//article[journal = "F# Weekly"]/title',
            '//book[publisher = "#1 Press"]/(title | year)']
        assert [q.weight for q in workload.queries] == [1.0, 1.0, 2.5]

    @pytest.mark.parametrize("entry, lineno", [
        ("insert 0.5 | //item", 3),     # no insert load: not a query
        ("-1 | //item/name", 2),        # a weight must be positive
    ])
    def test_a_bad_entry_is_refused_by_file_and_line(self, files, entry,
                                                     lineno, capsys):
        tmp, dtd, xml, _, _ = files
        path = tmp / "bad_workload.txt"
        lines = ["//item/name", "# comment", "2.0 | //item/label"]
        lines.insert(lineno - 1, entry)
        path.write_text("\n".join(lines) + "\n")
        code, out = run_cli([
            "advise", "--dtd", str(dtd), "--root", "shop",
            "--xml", str(xml), "--workload", str(path)])
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith(
            f"error: {path}:{lineno}: ")

    def test_empty_rejected(self, tmp_path):
        empty = tmp_path / "w.txt"
        empty.write_text("# nothing\n")
        with pytest.raises(SystemExit):
            parse_workload_file(str(empty))


class TestAdvise:
    def test_advise_greedy(self, files):
        _, dtd, xml, _, workload = files
        code, out = run_cli([
            "advise", "--dtd", str(dtd), "--root", "shop",
            "--xml", str(xml), "--workload", str(workload)])
        assert code == 0
        assert "algorithm: greedy" in out
        assert "relational schema" in out
        assert re.search(r"^storage bound: 536870912 cost-model bytes; "
                         r"design size: \d+ "
                         r"cost-model bytes \(data \d+ \+ structures \d+\)$",
                         out, re.MULTILINE)

    def test_advise_measured(self, files):
        _, dtd, xml, _, workload = files
        code, out = run_cli([
            "advise", "--dtd", str(dtd), "--root", "shop",
            "--xml", str(xml), "--workload", str(workload),
            "--algorithm", "two-step", "--measure"])
        assert code == 0
        assert "measured workload cost" in out

    def test_advise_trace_prints_span_tree(self, files):
        _, dtd, xml, _, workload = files
        code, out = run_cli([
            "advise", "--dtd", str(dtd), "--root", "shop",
            "--xml", str(xml), "--workload", str(workload), "--trace"])
        assert code == 0
        assert "trace:" in out
        assert "- greedy" in out
        assert "advisor.tune" in out

    def test_advise_trace_json_writes_file(self, files):
        import json
        tmp_path, dtd, xml, _, workload = files
        trace_file = tmp_path / "trace.json"
        code, out = run_cli([
            "advise", "--dtd", str(dtd), "--root", "shop",
            "--xml", str(xml), "--workload", str(workload),
            "--trace-json", str(trace_file)])
        assert code == 0
        assert f"wrote trace JSON to {trace_file}" in out
        document = json.loads(trace_file.read_text(encoding="utf-8"))
        assert document["spans"]
        assert document["spans"][0]["name"] == "greedy"
        assert document["metrics"]["database"]["estimate_calls"] > 0

    @pytest.mark.parametrize("megabytes", ["0", "-5"])
    def test_advise_refuses_a_bound_that_is_not_positive(self, files,
                                                          megabytes, capsys):
        _, dtd, xml, _, workload = files
        with pytest.raises(SystemExit):
            run_cli(["advise", "--dtd", str(dtd), "--root", "shop",
                     "--xml", str(xml), "--workload", str(workload),
                     "--storage-bound-mb", megabytes])
        assert "--storage-bound-mb must be >= 1" in capsys.readouterr().err

    def test_advise_without_trace_stays_quiet(self, files):
        _, dtd, xml, _, workload = files
        code, out = run_cli([
            "advise", "--dtd", str(dtd), "--root", "shop",
            "--xml", str(xml), "--workload", str(workload)])
        assert code == 0
        assert "trace:" not in out

    def test_advise_jobs_matches_serial(self, files):
        _, dtd, xml, _, workload = files
        base_args = ["advise", "--dtd", str(dtd), "--root", "shop",
                     "--xml", str(xml), "--workload", str(workload)]
        code_serial, out_serial = run_cli(base_args)
        code_parallel, out_parallel = run_cli(base_args + ["--jobs", "2"])
        assert code_serial == code_parallel == 0

        def design_lines(out: str) -> list[str]:
            # Counter lines differ legitimately (retry counts depend on
            # worker scheduling under injected faults); the design must not.
            return [line for line in out.splitlines()
                    if not line.startswith(("search:", "resilience:"))]

        assert design_lines(out_serial) == design_lines(out_parallel)

    def test_advise_faults_keep_design_and_print_resilience(self, files):
        from repro.resilience import active_fault_plan

        _, dtd, xml, _, workload = files
        base_args = ["advise", "--dtd", str(dtd), "--root", "shop",
                     "--xml", str(xml), "--workload", str(workload),
                     "--jobs", "1"]
        before = active_fault_plan()
        code, clean = run_cli(base_args)
        assert code == 0
        # seed=0 at rate 0.5 faults the very first evaluation and
        # recovers on the retry — guaranteed resilience activity
        # even on this tiny problem, with an unchanged design.
        code, faulted = run_cli(base_args + [
            "--faults", "seed=0;evaluate:0.5:transient"])
        assert code == 0
        assert "resilience:" in faulted
        # --faults lasts for the command only: the plan that was
        # active before is active again (it used to leak).
        assert active_fault_plan() is before

        def design_lines(out: str) -> list[str]:
            return [line for line in out.splitlines()
                    if not line.startswith(("search:", "resilience:"))]

        assert design_lines(faulted) == design_lines(clean)

    def test_advise_checkpoint_dir_and_resume(self, files):
        tmp_path, dtd, xml, _, workload = files
        args = ["advise", "--dtd", str(dtd), "--root", "shop",
                "--xml", str(xml), "--workload", str(workload),
                "--checkpoint-dir", str(tmp_path / "ckpt")]
        code, first = run_cli(args)
        assert code == 0
        assert "checkpoints written" in first
        code, resumed = run_cli(args + ["--resume"])
        assert code == 0

        def design_lines(out: str) -> list[str]:
            return [line for line in out.splitlines()
                    if not line.startswith(("search:", "resilience:"))]

        assert design_lines(resumed) == design_lines(first)

    def test_advise_resume_requires_checkpoint_dir(self, files):
        _, dtd, xml, _, workload = files
        with pytest.raises(SystemExit, match="requires --checkpoint-dir"):
            run_cli(["advise", "--dtd", str(dtd), "--root", "shop",
                     "--xml", str(xml), "--workload", str(workload),
                     "--resume"])

    def test_advise_checkpoint_dir_ignored_for_two_step(self, files):
        tmp_path, dtd, xml, _, workload = files
        code, out = run_cli([
            "advise", "--dtd", str(dtd), "--root", "shop",
            "--xml", str(xml), "--workload", str(workload),
            "--algorithm", "two-step",
            "--checkpoint-dir", str(tmp_path / "ckpt")])
        assert code == 0
        assert "note: --checkpoint-dir is ignored for two-step" in out
        assert not (tmp_path / "ckpt").exists()


class TestExperiment:
    def test_e0(self):
        code, out = run_cli(["experiment", "e0", "--scale", "250"])
        assert code == 0
        assert "Mapping 2" in out

    def test_table1(self):
        code, out = run_cli(["experiment", "table1", "--scale", "200"])
        assert code == 0
        assert "DBLP" in out and "Movie" in out

    def test_split_count(self):
        code, out = run_cli(["experiment", "split-count", "--scale", "200"])
        assert code == 0
        # At this scale the statistics suggest no k; the row and the
        # note say that k = 5 is the fallback, not a suggestion.
        assert "fallback k = 5 (the statistics suggest none)" in out
        assert "<- fallback" in out and "<- suggested" not in out

    def test_comparison_on_sqlite(self):
        code, out = run_cli(["experiment", "comparison", "--scale", "150",
                             "--backend", "sqlite"])
        assert code == 0
        assert "(costs measured on the sqlite backend)" in out
        assert "Fig. 4 (DBLP)" in out and "Fig. 5 (DBLP)" in out


class TestCountsBelowOne:
    """A count flag below 1 is refused by the argument parser, naming the
    flag, before any data loads. Each used to run: ``--queries 0`` gave
    a gate with nothing to check that passed (``compare --strict``,
    ``calibrate --min-correlation``), ``calibrate --repeat 0`` still
    timed one run, and ``--checkpoint-every 0`` was clamped to 1."""

    @pytest.fixture
    def no_load(self, monkeypatch):
        """Fails the test if the command gets as far as loading data."""
        import repro.backends
        import repro.cli

        def must_not_load(*args, **kwargs):
            raise AssertionError("loaded data for a refused command")

        monkeypatch.setattr(repro.cli, "_inputs", must_not_load)
        monkeypatch.setattr(repro.backends, "compare_datasets",
                            must_not_load)

    @pytest.mark.parametrize("argv, flag", [
        (["advise", "--dtd", "shop.dtd", "--root", "shop", "--xml",
          "shop.xml", "--workload", "workload.txt", "--checkpoint-dir",
          "ckpt", "--checkpoint-every", "0"], "--checkpoint-every"),
        (["check", "--dataset", "dblp", "--queries", "0"], "--queries"),
        (["calibrate", "--queries", "0", "--min-correlation", "0.0"],
         "--queries"),
        (["calibrate", "--repeat", "0"], "--repeat"),
        (["shred", "--dataset", "dblp", "--batch-size", "0"],
         "--batch-size"),
        (["compare", "--backend-b", "sqlite", "--strict", "--queries",
          "0"], "--queries"),
        (["serve", "--dataset", "dblp", "--queries", "0", "--xpath",
          "//title"], "--queries"),
        (["loadgen", "--dataset", "dblp", "--queries", "-1",
          "--requests", "5"], "--queries"),
        (["serve", "--dataset", "dblp", "--load-batch", "-5", "--xpath",
          "//title"], "--load-batch"),
        (["loadgen", "--dataset", "dblp", "--load-batch", "0",
          "--requests", "5"], "--load-batch"),
    ], ids=["advise-checkpoint-every", "check-queries", "calibrate-queries",
            "calibrate-repeat", "shred-batch-size", "compare-queries", "serve-queries",
            "loadgen-queries", "serve-load-batch", "loadgen-load-batch"])
    def test_refused_before_loading(self, argv, flag, no_load, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli(argv)
        assert exit_info.value.code == 2
        assert f"{flag} must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["serve", "loadgen"])
    def test_a_queue_bound_below_minus_one_is_refused(self, command,
                                                      no_load, capsys):
        # -1 alone means unbounded; -3 used to mean it too
        with pytest.raises(SystemExit) as exit_info:
            run_cli([command, "--dataset", "dblp", "--max-queue", "-3"])
        assert exit_info.value.code == 2
        assert "--max-queue must be >= -1" in capsys.readouterr().err


class TestCheck:
    def test_file_mode_clean(self, files):
        _, dtd, xml, _, workload = files
        code, out = run_cli(["check", "--dtd", str(dtd), "--root", "shop",
                             "--xml", str(xml),
                             "--workload", str(workload)])
        assert code == 0
        assert "OK" in out
        assert "0 error(s)" in out

    def test_file_mode_requires_xml(self, files):
        _, dtd, _, _, _ = files
        with pytest.raises(SystemExit):
            run_cli(["check", "--dtd", str(dtd), "--root", "shop"])

    def test_dataset_mode(self):
        code, out = run_cli(["check", "--dataset", "dblp", "--scale", "150",
                             "--queries", "4"])
        assert code == 0
        assert "OK" in out

    def test_dataset_mode_all_mappings(self):
        for mapping in ("hybrid", "shared", "fully-split"):
            code, out = run_cli(["check", "--dataset", "movie",
                                 "--scale", "120", "--queries", "3",
                                 "--mapping", mapping])
            assert code == 0, out

    def test_json_output(self, files):
        import json

        _, dtd, xml, _, workload = files
        code, out = run_cli(["check", "--dtd", str(dtd), "--root", "shop",
                             "--xml", str(xml),
                             "--workload", str(workload), "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["findings"] == []
        assert payload["queries_checked"] >= 1

    def test_errors_exit_nonzero(self, files, monkeypatch):
        import repro.check.bundle as bundle_mod

        real_derive = bundle_mod.derive_schema

        def lossy_derive(mapping):
            schema = real_derive(mapping)
            victim = next(iter(schema.leaf_storage))
            del schema.leaf_storage[victim]
            return schema

        monkeypatch.setattr(bundle_mod, "derive_schema", lossy_derive)
        _, dtd, xml, _, workload = files
        code, out = run_cli(["check", "--dtd", str(dtd), "--root", "shop",
                             "--xml", str(xml),
                             "--workload", str(workload)])
        assert code == 1
        assert "MAP002" in out
