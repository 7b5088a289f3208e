"""Tests for the reproduce CLI."""

import json
import re

import pytest

from repro.tools.reproduce import EXPERIMENTS, main, overall_status


class TestReproduceCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "available experiments" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["figZ"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["audit", "--requests", "-1"],
        ["audit", "--requests", "0"],
        ["sec65", "--requests", "0"],
        ["fig2", "--runs", "0"],
        ["serve", "--tenants", "0"],
        ["serve", "--epochs", "0"],
        ["serve", "--workers", "0"],
        ["fleet-audit", "--nodes", "0"],
        ["fleet", "--jobs", "0"],
        ["profile", "--requests", "0"],
        ["slo", "p99_verdict_ms=400", "--windows", "0"],
        ["slo", "p99_verdict_ms=400", "--windows", "-2"],
    ])
    def test_invalid_count_exits_usage(self, capsys, argv):
        # Exit 1 is reserved for "flagged": a bad count is a usage error,
        # rejected by argparse before any experiment runs.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "must be a positive integer" in err
        assert "Traceback" not in err

    def test_negative_severities_exit_usage(self, capsys):
        # 0 stays valid (the transfer-only sweep, exit 0); -1 would run
        # an empty fault sweep.
        with pytest.raises(SystemExit) as exc:
            main(["chaos", "--requests", "4", "--severities", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "must be a non-negative integer" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,message", [
        (["report", "--latest", "-1"], "must be a non-negative integer"),
        (["trace", "--trace-out", "{missing}/t.json"], "does not exist"),
        (["fleet-audit", "--trace-out", "{missing}/t.json"],
         "does not exist"),
        (["report", "--latest", "1", "--out", "{missing}/r.html"],
         "does not exist"),
        (["profile", "--flame", "{missing}/f.svg"], "does not exist"),
        (["profile", "--folded", "{missing}/dir/f.txt"], "does not exist"),
    ])
    def test_invalid_argument_exits_usage(self, capsys, tmp_path, argv,
                                          message):
        # A bad value is rejected before anything runs: no experiment
        # output, one error line, no traceback.
        missing = str(tmp_path / "missing")
        with pytest.raises(SystemExit) as exc:
            main([arg.format(missing=missing) for arg in argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["audit", "--covert", "nope", "--requests", "2"],
        ["serve", "--covert", "nope", "--tenants", "2", "--epochs", "1",
         "--requests", "2"],
        ["fleet-audit", "--covert", "nope", "--nodes", "2", "--tenants",
         "2", "--epochs", "1", "--requests", "2"],
    ])
    def test_unknown_covert_channel_exits_usage(self, capsys, argv):
        # Exit 1 is reserved for "flagged": an unknown channel is a
        # usage error, rejected before anything runs, with one line
        # naming the known channels.
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "unknown covert channel 'nope'" in captured.err
        assert "ipctc" in captured.err
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_runs_small_experiment(self, capsys):
        assert main(["sec65", "--requests", "8"]) == 0
        out = capsys.readouterr().out
        assert "log size" in out
        assert "B/request" in out

    def test_fig2_quick(self, capsys):
        assert main(["fig2", "--runs", "3"]) == 0
        out = capsys.readouterr().out
        assert "user-noisy" in out and "kernel-quiet" in out

    def test_experiment_registry_complete(self):
        assert set(EXPERIMENTS) == {"fig2", "fig3", "table2", "fig6",
                                    "fig7", "sec65", "fig8", "chaos",
                                    "trace", "fleet", "audit", "serve",
                                    "fleet-audit", "exec"}

    def test_exec_clean(self, capsys):
        assert main(["exec", "--scenario", "pipeline"]) == 0
        out = capsys.readouterr().out
        assert "accounting exact" in out
        assert "consistent (no timing deviation)" in out

    def test_exec_covert_flagged(self, capsys):
        assert main(["exec", "--scenario", "sched",
                     "--covert", "sched"]) == 1
        out = capsys.readouterr().out
        assert "FLAGGED" in out

    def test_exec_usage_errors(self, capsys):
        assert main(["exec", "--scenario", "nope"]) == 2
        assert main(["exec", "--covert", "ipctc"]) == 2
        assert main(["exec", "--slo", "frobs=1"]) == 2

    def test_chaos_quick(self, capsys):
        # Severity 1 injects tamper/corruption faults, so the exit-code
        # contract requires a non-zero status alongside the matrix.
        assert main(["chaos", "--requests", "4", "--severities", "1",
                     "--chaos-seed", "7"]) == 1
        out = capsys.readouterr().out
        assert "Chaos matrix" in out
        assert "tamper-detected" in out
        assert "transfer drop=0.9" in out

    @pytest.mark.parametrize("experiment,needle", [
        ("fig3", "naive replay"),
        ("table2", "SciMark"),
        ("fig6", "timing stability"),
        ("fig7", "replay accuracy"),
        ("fig8", "AUC"),
    ])
    def test_each_experiment_smokes(self, capsys, experiment, needle):
        assert main([experiment, "--runs", "2", "--requests", "3"]) == 0
        assert needle in capsys.readouterr().out

    def test_trace_quick(self, capsys, tmp_path):
        out_file = tmp_path / "trace.json"
        assert main(["trace", "--requests", "3",
                     "--trace-out", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "accounting exact" in out
        assert "Table 1: fully mitigated" in out
        assert "sampled opcode profile" in out
        assert out_file.exists()
        import json
        trace = json.loads(out_file.read_text())
        events = trace["traceEvents"]
        assert isinstance(events, list) and events
        phases = {e["ph"] for e in events}
        assert {"B", "E"} <= phases       # balanced spans present
        assert all("ts" in e or e["ph"] == "M" for e in events)


class TestServiceJobs:
    """``--jobs`` is serial outside ``fleet`` unless given: ``serve``
    and ``fleet-audit`` hand ``run_fleet`` ``jobs=1`` by default."""

    @pytest.mark.parametrize("jobs", (None, 3), ids=("default", "jobs-3"))
    @pytest.mark.parametrize("argv", [
        ["serve", "--tenants", "2", "--epochs", "1", "--requests", "2"],
        ["fleet-audit", "--nodes", "2", "--tenants", "2", "--epochs", "1",
         "--requests", "2"],
    ], ids=("serve", "fleet-audit"))
    def test_run_fleet_gets_the_requested_jobs(self, monkeypatch, capsys,
                                               argv, jobs):
        from repro.analysis.parallel import run_fleet
        from repro.service import daemon, scheduler

        received = []

        def recording(tasks, jobs=None, **kwargs):
            received.append(jobs)
            # Serial either way: jobs changes only wall-clock time.
            return run_fleet(tasks, jobs=1, **kwargs)

        monkeypatch.setattr(daemon, "run_fleet", recording)
        monkeypatch.setattr(scheduler, "run_fleet", recording)
        main(argv + ([] if jobs is None else ["--jobs", str(jobs)]))
        capsys.readouterr()
        assert received and set(received) == {jobs or 1}


class TestExitCodeContract:
    """Every verdict-bearing subcommand: zero iff nothing was flagged."""

    def test_audit_clean_exits_zero(self, capsys):
        assert main(["audit", "--requests", "4"]) == 0
        out = capsys.readouterr().out
        assert "classification: clean" in out
        assert "verdict: clean" in out

    def test_audit_covert_exits_nonzero(self, capsys):
        assert main(["audit", "--requests", "4",
                     "--covert", "ipctc"]) == 1
        out = capsys.readouterr().out
        assert "covert channel 'ipctc' active" in out
        assert "FLAGGED -> non-zero exit" in out

    def test_audit_tamper_exits_nonzero(self, capsys):
        assert main(["audit", "--requests", "4", "--tamper"]) == 1
        out = capsys.readouterr().out
        assert "log tampered in transit" in out
        assert "classification: tamper-detected" in out

    def test_flag_outranks_a_degraded_fleet(self, capsys):
        # The fleet half crashes both nodes and returns 3; the tampered
        # audit's flag must still decide the exit.
        assert main(["audit", "fleet-audit", "--tamper", "--nodes", "2",
                     "--tenants", "1", "--epochs", "2", "--requests", "4",
                     "--chaos", "crash:0@100,crash:1@120"]) == 1
        out = capsys.readouterr().out
        assert "verdict: FLAGGED" in out
        assert "degraded coverage (no flag) -> exit 3" in out

    def test_flag_outranks_an_slo_breach(self, capsys):
        assert main(["audit", "fleet-audit", "--tamper", "--tenants", "1",
                     "--nodes", "2", "--epochs", "1", "--requests", "4",
                     "--slo", "p99_verdict_ms=0.001"]) == 1
        out = capsys.readouterr().out
        assert "verdict: FLAGGED" in out
        assert "SLO breach (p99_verdict_ms) -> exit 4" in out

    def test_overall_status_ranks_every_pair(self):
        def expected(a, b):
            for code in (1, 2, 4, 3):
                if code in (a, b):
                    return code
            return 0

        codes = (0, 1, 2, 3, 4)
        for a in codes:
            for b in codes:
                assert overall_status(a, b) == expected(a, b), (a, b)
        assert overall_status() == 0

    def test_chaos_severity_zero_exits_zero(self, capsys):
        assert main(["chaos", "--requests", "4", "--severities", "0",
                     "--chaos-seed", "7"]) == 0
        assert "0/" in capsys.readouterr().out

    def test_serve_flags_the_covert_tenant(self, capsys):
        assert main(["serve", "--tenants", "3", "--epochs", "2",
                     "--requests", "4"]) == 1
        out = capsys.readouterr().out
        assert "FLAGGED covert-timing" in out
        assert "tenant-01" in out
        assert "flagged tenants -> non-zero exit" in out

    def test_serve_all_clean_exits_zero(self, capsys):
        # A single-tenant roster has no covert slot.
        assert main(["serve", "--tenants", "1", "--epochs", "1",
                     "--requests", "4"]) == 0
        assert "flagged: none" in capsys.readouterr().out

    def test_serve_store_persists_a_service_run(self, tmp_path, capsys):
        assert main(["serve", "--tenants", "3", "--epochs", "1",
                     "--requests", "4", "--store", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        match = re.search(r"\[stored (\S+) in ", out)
        assert match, out
        assert main(["runs", "list", "--store", str(tmp_path)]) == 0
        listing = capsys.readouterr().out
        assert match.group(1) in listing
        assert "fleet-audit" in listing

    def test_stored_serve_run_re_renders_its_tables(self, tmp_path, capsys):
        """``report`` prints a stored fleet run's node and tenant tables
        as the run printed them, not its verdicts as one dict line."""
        def tables(out):
            lines = out.splitlines()
            start = next(i for i, line in enumerate(lines)
                         if line.startswith("  node "))
            end = next(i for i, line in enumerate(lines)
                       if line.startswith("  flagged: "))
            return lines[start:end + 1]

        assert main(["serve", "--tenants", "3", "--epochs", "2",
                     "--store", str(tmp_path)]) == 1
        printed = tables(capsys.readouterr().out)
        assert main(["report", "--latest", "1", "--store", str(tmp_path),
                     "--out", str(tmp_path / "x.html")]) == 0
        out = capsys.readouterr().out
        assert tables(out) == printed
        assert any(line.startswith("  tenant-01 ") for line in printed)
        assert max(len(line) for line in out.splitlines()) <= 200

    def test_serve_is_the_one_node_fleet_audit(self, capsys):
        flags = ["--tenants", "3", "--epochs", "2", "--requests", "4",
                 "--workers", "3"]

        def tenant_table(argv):
            status = main(argv)
            lines = capsys.readouterr().out.splitlines()
            start = next(i for i, line in enumerate(lines)
                         if line.startswith("  tenant "))
            end = next(i for i, line in enumerate(lines)
                       if line.startswith("  flagged: "))
            return status, lines[start:end + 1]

        serve = tenant_table(["serve", *flags])
        assert serve == tenant_table(["fleet-audit", "--nodes", "1",
                                      *flags])
        assert serve[0] == 1 and "tenant-01" in serve[1][-1]

    @pytest.mark.parametrize("experiment", ("serve", "fleet-audit"))
    def test_segments_out_of_order_degrade_not_crash(self, capsys,
                                                     experiment):
        # At this seed a lossy-link retry lands tenant-02's epoch-1
        # segment 1 before its segment 0: the gap discipline quarantines
        # both instead of splicing a log that runs backwards.
        assert main([experiment, "--tenants", "3", "--epochs", "2",
                     "--requests", "4", "--serve-seed", "10"]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert re.search(r"tenant-02 +clean \(degraded link\)",
                         captured.out)
        assert "flagged: tenant-01" in captured.out


class TestRunStoreCli:
    """--store persistence plus the runs/report subcommands.

    The acceptance bar: a persisted run, re-rendered through ``runs
    show`` or ``report``, reproduces the exact numbers the experiment
    printed at run time — same format strings, same values, verbatim.
    """

    def _fig6(self, tmp_path, capsys):
        assert main(["fig6", "--runs", "2", "--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        match = re.search(r"\[stored (\S+) in ", out)
        assert match, out
        return out, match.group(1)

    @staticmethod
    def _fig6_table(out):
        return [line for line in out.splitlines()
                if re.match(r"^  (kernel|SOR|SMM|MC|LU|FFT)\b", line)]

    def test_store_flag_persists_and_lists(self, tmp_path, capsys):
        _, run_id = self._fig6(tmp_path, capsys)
        assert (tmp_path / run_id / "manifest.json").exists()
        assert main(["runs", "list", "--store", str(tmp_path)]) == 0
        listing = capsys.readouterr().out
        assert run_id in listing
        assert "fig6" in listing

    def test_show_reproduces_runtime_fig6_numbers(self, tmp_path, capsys):
        out, run_id = self._fig6(tmp_path, capsys)
        table = self._fig6_table(out)
        assert len(table) == 6                  # header + five kernels
        assert main(["runs", "show", run_id,
                     "--store", str(tmp_path)]) == 0
        shown = capsys.readouterr().out
        for line in table:
            assert line in shown

    def test_show_reproduces_trace_attribution_tables(self, tmp_path,
                                                      capsys):
        assert main(["trace", "--requests", "3",
                     "--store", str(tmp_path),
                     "--trace-out", str(tmp_path / "t.json")]) == 0
        out = capsys.readouterr().out
        run_id = re.search(r"\[stored (\S+) in ", out).group(1)
        tables = re.findall(
            r"(?m)^\w[^\n]*\([^\n]*cycles\):\n(?:^  [^\n]*\n)*?"
            r"^  \(accounting [^\n]*\)$", out)
        assert len(tables) == 3          # play, replay, clean-room play
        assert main(["runs", "show", run_id,
                     "--store", str(tmp_path)]) == 0
        shown = capsys.readouterr().out
        for table in tables:
            assert table in shown

    def test_report_reprints_numbers_and_writes_html(self, tmp_path,
                                                     capsys):
        out, run_id = self._fig6(tmp_path, capsys)
        html_path = tmp_path / "report.html"
        assert main(["report", run_id, "--store", str(tmp_path),
                     "--out", str(html_path)]) == 0
        report_out = capsys.readouterr().out
        for line in self._fig6_table(out):
            assert line in report_out
        assert f"wrote {html_path}" in report_out
        document = html_path.read_text()
        for value in re.findall(r"\d+\.\d{3}(?=%)", out):
            assert f"{value}%" in document

    def test_report_latest_dedups_explicit_ref(self, tmp_path, capsys):
        _, run_id = self._fig6(tmp_path, capsys)
        html_path = tmp_path / "report.html"
        assert main(["report", run_id, "--latest", "3",
                     "--store", str(tmp_path),
                     "--out", str(html_path)]) == 0
        assert "1 run(s)" in capsys.readouterr().out

    def test_runs_prune_via_cli(self, tmp_path, capsys):
        from repro.obs.runstore import RunRecord, RunStore

        store = RunStore(tmp_path)
        for i in range(3):
            store.save(RunRecord(kind="unit", label=f"run {i}"))
        assert main(["runs", "prune", "--keep", "1",
                     "--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "pruned 2 run(s), kept 1" in out
        assert len(store) == 1

    def test_runs_show_unknown_ref(self, tmp_path, capsys):
        assert main(["runs", "show", "nope-404",
                     "--store", str(tmp_path)]) == 2
        assert "no run" in capsys.readouterr().err

    def test_report_without_refs(self, tmp_path, capsys):
        assert main(["report", "--store", str(tmp_path)]) == 2
        assert "needs run ids" in capsys.readouterr().err
