"""Tests for the command-line interface."""

import pytest

from repro.cli import main

VULNERABLE = """
class Main {
    static method main() {
        pw = new String;
        chars = pw.toCharArray();
        spec = new PBEKeySpec;
        spec.init(chars);
        var narrow : String;
        o = new Object;
        narrow = (String) o;
        sync o;
    }
}
"""

CLEAN = """
class Main {
    static method main() {
        a = new Object;
        b = a;
    }
}
"""


@pytest.fixture()
def vulnerable_file(tmp_path):
    path = tmp_path / "vuln.mj"
    path.write_text(VULNERABLE)
    return str(path)


@pytest.fixture()
def clean_file(tmp_path):
    path = tmp_path / "clean.mj"
    path.write_text(CLEAN)
    return str(path)


class TestStats:
    def test_stats_output(self, clean_file, capsys):
        assert main(["stats", clean_file, "--no-library"]) == 0
        out = capsys.readouterr().out
        assert "methods:" in out
        assert "call paths:" in out


class TestAnalyze:
    def test_ci_analyze(self, clean_file, capsys):
        assert main(["analyze", clean_file, "--no-library"]) == 0
        out = capsys.readouterr().out
        assert "context-insensitive points-to" in out

    def test_cs_analyze_with_var(self, clean_file, capsys):
        code = main(
            [
                "analyze",
                clean_file,
                "--no-library",
                "--context-sensitive",
                "--var",
                "Main.main:a",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "context-sensitive points-to" in out
        assert "new Object" in out

    def test_bad_var_spec(self, clean_file, capsys):
        assert main(["analyze", clean_file, "--no-library", "--var", "oops"]) == 2

    def test_dump_dir(self, clean_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(
            ["analyze", clean_file, "--no-library", "--dump-dir", str(out_dir)]
        )
        assert code == 0
        assert (out_dir / "vP.tuples").exists()


class TestQueries:
    def test_escape_query(self, clean_file, capsys):
        # Exit 3 (EXIT_SOLVE_FALLBACK): answered, but via a full solve
        # because no --db was given.
        assert main(["query", clean_file, "--no-library", "--kind", "escape"]) == 3
        out = capsys.readouterr().out
        assert "escaped 1" in out  # just the global

    def test_vuln_query_flags_bad_program(self, vulnerable_file, capsys):
        assert main(["query", vulnerable_file, "--kind", "vuln"]) == 1
        assert "VULNERABLE" in capsys.readouterr().out

    def test_vuln_query_passes_clean_program(self, clean_file, capsys):
        assert main(["query", clean_file, "--kind", "vuln"]) == 3
        assert "clean" in capsys.readouterr().out

    def test_casts_query(self, vulnerable_file, capsys):
        assert main(["query", vulnerable_file, "--kind", "casts"]) == 3
        out = capsys.readouterr().out
        assert "may fail" in out  # (String) o is not provably safe

    def test_devirt_query(self, vulnerable_file, capsys):
        assert main(["query", vulnerable_file, "--kind", "devirt"]) == 3
        out = capsys.readouterr().out
        assert "monomorphic" in out

    def test_refinement_query(self, clean_file, capsys):
        assert main(["query", clean_file, "--no-library", "--kind", "refinement"]) == 3
        out = capsys.readouterr().out
        assert "multi-typed" in out
        assert "context-sensitive (full)" in out


DATALOG_TC = """\
.domains
N 8
.relations
edge(a : N0, b : N1) input
path(a : N0, b : N1) output
.rules
path(a, b) :- edge(a, b).
path(a, c) :- path(a, b), edge(b, c).
"""


@pytest.fixture()
def datalog_setup(tmp_path):
    dl = tmp_path / "tc.dl"
    dl.write_text(DATALOG_TC)
    facts = tmp_path / "facts"
    facts.mkdir()
    (facts / "edge.tuples").write_text("0 1\n1 2\n2 3\n")
    return dl, facts


class TestErrorReporting:
    """Malformed input gives a one-line diagnostic and a distinct exit
    code — never a raw traceback."""

    def test_missing_program_file_exit_66(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope.mj")]) == 66
        err = capsys.readouterr().err
        assert "input not found" in err
        assert "Traceback" not in err

    def test_malformed_source_exit_65(self, tmp_path, capsys):
        bad = tmp_path / "bad.mj"
        bad.write_text("class Main { static method main() { a = ; } }")
        assert main(["analyze", str(bad), "--no-library"]) == 65
        err = capsys.readouterr().err
        assert "line 1" in err
        assert "Traceback" not in err

    def test_usage_error_exit_2(self, clean_file):
        with pytest.raises(SystemExit) as exc:
            main(["query", clean_file, "--kind", "nonsense"])
        assert exc.value.code == 2

    def test_malformed_datalog_exit_65(self, tmp_path, capsys):
        bad = tmp_path / "bad.dl"
        bad.write_text(".domains\nN 8\n.relations\npath(a : N0, b : N1 output\n")
        assert main(["datalog", str(bad)]) == 65
        err = capsys.readouterr().err
        assert "bad.dl" in err and "line 4" in err
        assert "Traceback" not in err

    def test_malformed_fact_file_exit_65(self, tmp_path, datalog_setup, capsys):
        dl, facts = datalog_setup
        (facts / "edge.tuples").write_text("0 1\nbroken line\n")
        assert main(["datalog", str(dl), "--facts", str(facts)]) == 65
        err = capsys.readouterr().err
        assert "edge.tuples:2" in err
        assert "Traceback" not in err

    def test_missing_fact_dir_exit_66(self, tmp_path, datalog_setup, capsys):
        dl, _ = datalog_setup
        assert main(["datalog", str(dl), "--facts", str(tmp_path / "no")]) == 66
        assert "input not found" in capsys.readouterr().err

    UNKNOWN_BACKEND = (
        "unknown BDD backend 'arena' (available: packed, reference)"
    )

    def test_unknown_backend_flag_exit_65(self, clean_file, capsys):
        argv = ["analyze", clean_file, "--no-library", "--backend", "arena"]
        assert main(argv) == 65
        err = capsys.readouterr().err
        assert self.UNKNOWN_BACKEND in err
        assert "Traceback" not in err

    def test_unknown_backend_env_exit_65(self, clean_file, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BDD_BACKEND", "arena")
        assert main(["analyze", clean_file, "--no-library"]) == 65
        err = capsys.readouterr().err
        assert self.UNKNOWN_BACKEND in err
        assert "Traceback" not in err


class TestDatalogSubcommand:
    def test_solve_and_dump(self, tmp_path, datalog_setup, capsys):
        dl, facts = datalog_setup
        out = tmp_path / "out"
        code = main(
            ["datalog", str(dl), "--facts", str(facts), "--out", str(out)]
        )
        assert code == 0
        assert "path: 6 tuples" in capsys.readouterr().out
        rows = {
            tuple(map(int, line.split()))
            for line in (out / "path.tuples").read_text().splitlines()
            if line and not line.startswith("#")
        }
        assert (0, 3) in rows and len(rows) == 6

    def test_domain_override(self, datalog_setup, capsys):
        dl, facts = datalog_setup
        assert main(["datalog", str(dl), "--facts", str(facts),
                     "--domain", "N=16"]) == 0

    def test_bad_domain_override(self, datalog_setup, capsys):
        dl, _ = datalog_setup
        assert main(["datalog", str(dl), "--domain", "N=banana"]) == 2


class TestPlanFlags:
    def test_explain_plan(self, datalog_setup, capsys):
        dl, facts = datalog_setup
        code = main(
            ["datalog", str(dl), "--facts", str(facts), "--explain-plan"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "optimizer passes:" in out
        assert "stratum" in out
        assert "CopyInto" in out
        assert "[x" in out  # per-op execution-cost annotations

    def test_no_opt(self, datalog_setup, capsys):
        dl, facts = datalog_setup
        code = main(
            ["datalog", str(dl), "--facts", str(facts), "--no-opt",
             "--explain-plan"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "unoptimized" in out
        assert "path: 6 tuples" in out

    def test_profile_table(self, datalog_setup, capsys):
        dl, facts = datalog_setup
        code = main(
            ["datalog", str(dl), "--facts", str(facts), "--profile"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "applies" in out
        assert "path(" in out

    def test_profile_json(self, datalog_setup, capsys):
        import json

        dl, facts = datalog_setup
        code = main(
            ["datalog", str(dl), "--facts", str(facts), "--profile-json"]
        )
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("["):])
        assert payload and {"rule", "applications", "seconds",
                            "tuples_produced"} <= set(payload[0])

    def test_analyze_profile_and_no_opt(self, clean_file, capsys):
        code = main(
            ["analyze", clean_file, "--no-library", "--no-opt", "--profile"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "context-insensitive points-to" in out
        assert "applies" in out

    def test_same_answer_opt_and_noopt(self, datalog_setup, tmp_path, capsys):
        dl, facts = datalog_setup
        out_opt = tmp_path / "o1"
        out_noopt = tmp_path / "o2"
        assert main(["datalog", str(dl), "--facts", str(facts),
                     "--out", str(out_opt)]) == 0
        assert main(["datalog", str(dl), "--facts", str(facts), "--no-opt",
                     "--out", str(out_noopt)]) == 0
        assert (out_opt / "path.tuples").read_text() == (
            out_noopt / "path.tuples"
        ).read_text()


class TestBudgetFlags:
    def test_generous_budget_runs_normally(self, clean_file, capsys):
        code = main(
            ["analyze", clean_file, "--no-library", "--timeout", "120",
             "--node-budget", "10000000"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "context-insensitive points-to" in captured.out
        assert "degraded" not in captured.err

    def test_no_degrade_budget_exhaustion_exit_75(self, clean_file, capsys):
        code = main(
            ["analyze", clean_file, "--no-library", "--context-sensitive",
             "--node-budget", "40", "--no-degrade"]
        )
        assert code == 75
        err = capsys.readouterr().err
        assert "budget exhausted" in err
        assert "Traceback" not in err

    def test_degraded_run_flags_result(self, clean_file, capsys):
        code = main(
            ["analyze", clean_file, "--no-library", "--context-sensitive",
             "--timeout", "120", "--node-budget", "40"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "degraded:" in captured.err
        assert "final=context_insensitive" in captured.err

    def test_checkpoint_dir_flag(self, clean_file, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        code = main(
            ["analyze", clean_file, "--no-library", "--context-sensitive",
             "--timeout", "120", "--node-budget", "40",
             "--checkpoint-dir", str(ckpt)]
        )
        assert code == 0
        assert (ckpt / "context_sensitive.ckpt").exists()

    def test_iteration_cap_exit_75(self, datalog_setup, capsys):
        dl, facts = datalog_setup
        code = main(
            ["datalog", str(dl), "--facts", str(facts),
             "--max-iterations", "1"]
        )
        assert code == 75
        assert "budget exhausted" in capsys.readouterr().err


class TestIsolate:
    """``--isolate``: supervised worker processes behind the CLI."""

    def test_isolated_analyze_matches_in_process(self, clean_file, capsys):
        assert main(["analyze", clean_file, "--no-library",
                     "--context-sensitive"]) == 0
        in_process = capsys.readouterr().out
        assert main(["analyze", clean_file, "--no-library",
                     "--context-sensitive", "--isolate"]) == 0
        isolated = capsys.readouterr().out
        # Same tuple count and call paths, give or take timing text.
        assert "3 tuples" in isolated
        assert "1 call paths" in isolated
        assert "3 (context, variable, heap) tuples" in in_process

    def test_multi_program_parallel(self, clean_file, vulnerable_file, capsys):
        code = main(["analyze", clean_file, vulnerable_file,
                     "--context-sensitive", "--isolate", "--jobs", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("points-to") == 2
        # Order matches the command line, not completion order.
        assert out.index(clean_file) < out.index(vulnerable_file)

    def test_crashed_worker_exit_70(self, clean_file, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT", "abort@solver.stratum")
        code = main(["analyze", clean_file, "--no-library",
                     "--context-sensitive", "--isolate", "--no-degrade",
                     "--retries", "0"])
        assert code == 70
        err = capsys.readouterr().err
        assert "worker failed (abort)" in err
        assert "Traceback" not in err

    def test_crash_steps_down_ladder(self, clean_file, capsys, monkeypatch):
        # Faults scoped to attempt 0 kill the full rung; the supervisor
        # steps down and the fallback answers.
        monkeypatch.setenv("REPRO_FAULT", "abort@solver.stratum#25~1")
        code = main(["analyze", clean_file, "--no-library",
                     "--context-sensitive", "--isolate", "--retries", "0"])
        assert code == 0
        captured = capsys.readouterr()
        assert "degraded to mode=" in captured.err

    def test_poisoned_program_does_not_stop_others(
        self, clean_file, vulnerable_file, tmp_path, capsys
    ):
        missing = str(tmp_path / "gone.mj")
        code = main(["analyze", clean_file, missing, vulnerable_file,
                     "--context-sensitive", "--isolate", "--jobs", "2",
                     "--no-degrade", "--retries", "0"])
        assert code == 70
        captured = capsys.readouterr()
        assert captured.out.count("points-to") == 2
        assert "worker failed" in captured.err

    def test_dump_dir_rejected_with_multiple_programs(
        self, clean_file, vulnerable_file, tmp_path, capsys
    ):
        code = main(["analyze", clean_file, vulnerable_file,
                     "--dump-dir", str(tmp_path / "out")])
        assert code == 2

    def test_memory_limit_flag_accepted(self, clean_file, capsys):
        code = main(["analyze", clean_file, "--no-library", "--isolate",
                     "--memory-limit", "1024"])
        assert code == 0
        assert "points-to" in capsys.readouterr().out


class TestCompileDb:
    def test_compile_and_query_db(self, clean_file, tmp_path, capsys):
        db = str(tmp_path / "clean.ptdb")
        assert main(["compile-db", clean_file, "--no-library",
                     "--out", db]) == 0
        out = capsys.readouterr().out
        assert "compiled" in out
        assert "relations:" in out

        assert main(["query", "--kind", "points-to", "--db", db,
                     "--var", "Main.main:a"]) == 0
        out = capsys.readouterr().out
        assert "new Object" in out

    def test_default_out_path(self, clean_file, capsys):
        assert main(["compile-db", clean_file, "--no-library"]) == 0
        import pathlib

        expected = pathlib.Path(clean_file).with_suffix(".ptdb")
        assert expected.exists()

    def test_query_db_all_kinds(self, clean_file, tmp_path, capsys):
        db = str(tmp_path / "clean.ptdb")
        assert main(["compile-db", clean_file, "--no-library",
                     "--out", db]) == 0
        capsys.readouterr()
        assert main(["query", "--kind", "aliases", "--db", db,
                     "--var", "Main.main:a", "--var2", "Main.main:b"]) == 0
        assert "may alias" in capsys.readouterr().out
        assert main(["query", "--kind", "callers", "--db", db,
                     "--method", "Main.main"]) == 0
        assert "call sites" in capsys.readouterr().out
        assert main(["query", "--kind", "mod-ref", "--db", db,
                     "--method", "Main.main"]) == 0
        assert "mod" in capsys.readouterr().out
        assert main(["query", "--kind", "escape", "--db", db,
                     "--heap", "<global>"]) == 0
        assert "escaped" in capsys.readouterr().out

    def test_query_db_unknown_name_is_dataerr(self, clean_file, tmp_path,
                                              capsys):
        db = str(tmp_path / "clean.ptdb")
        assert main(["compile-db", clean_file, "--no-library",
                     "--out", db]) == 0
        code = main(["query", "--kind", "points-to", "--db", db,
                     "--var", "No.such:var"])
        assert code == 65
        assert "unknown variable" in capsys.readouterr().err

    def test_solve_kind_rejected_with_db(self, clean_file, tmp_path, capsys):
        db = str(tmp_path / "clean.ptdb")
        assert main(["compile-db", clean_file, "--no-library",
                     "--out", db]) == 0
        code = main(["query", "--kind", "vuln", "--db", db])
        assert code == 2
        assert "fresh solve" in capsys.readouterr().err


class TestQueryNotice:
    def test_solve_query_prints_compile_db_hint(self, clean_file, capsys):
        # Distinct exit code: answered, but only by a whole-program solve.
        assert main(["query", "--kind", "escape", clean_file,
                     "--no-library"]) == 3
        err = capsys.readouterr().err
        assert "solved the whole program" in err
        assert "compile-db" in err
        assert "--demand" in err

    def test_demand_kind_without_db_is_usage_error(self, capsys):
        code = main(["query", "--kind", "points-to"])
        assert code == 2
        assert "--db" in capsys.readouterr().err

    def test_query_without_db_or_program_is_usage_error(self, capsys):
        code = main(["query", "--kind", "escape"])
        assert code == 2
        assert "program" in capsys.readouterr().err


class TestDefaultJobs:
    def test_default_jobs_is_clamped_cpu_count(self):
        import os

        from repro.runtime.worker import MAX_POOL_WORKERS, default_jobs

        jobs = default_jobs()
        assert 1 <= jobs <= MAX_POOL_WORKERS
        assert jobs == max(1, min(MAX_POOL_WORKERS, os.cpu_count() or 1))

    def test_pool_clamps_oversized_request(self):
        from repro.runtime.worker import MAX_POOL_WORKERS, WorkerPool

        pool = WorkerPool(supervisor=None, jobs=10_000)
        assert pool.jobs == MAX_POOL_WORKERS
