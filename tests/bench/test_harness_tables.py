"""Fast unit tests for table formatting and the claim checks (synthetic
rows — no analyses are executed), plus backend selection on a one-row
scaling sweep."""

import pytest

import repro.datalog.solver as solver_module
from repro.bench.harness import (
    BenchmarkRun,
    _sci,
    fig3_table,
    fig4_table,
    fig5_table,
    fig6_table,
    scaling_table,
)
from repro.bench.report import (
    TABLE_CHECKS,
    ablation_checks,
    build_report,
    kcfa_checks,
    precision_checks,
    qualitative_checks,
    scaling_checks,
)


def make_run(name="synthetic", paths=10**12, threads=True):
    refinement = {
        "ci_nofilter": (20.0, 15.0),
        "ci_filter": (17.0, 15.0),
        "cs_pointer_proj": (0.3, 19.0),
        "cs_type_proj": (2.0, 19.0),
        "cs_pointer_full": (0.0, 19.0),
        "cs_type_full": (1.9, 19.0),
    }
    return BenchmarkRun(
        name=name,
        stats={"classes": 20, "methods": 80, "statements": 700, "allocs": 130},
        num_vars=650,
        paths=paths,
        alg1=(0.2, 60_000),
        alg2=(0.25, 70_000),
        alg3=(0.5, 90_000),
        alg3_iterations=30,
        alg5=(1.5, 230_000),
        alg6=(0.8, 150_000),
        alg7=(0.3, 90_000),
        escape_summary={
            "captured": 100,
            "escaped": 4 if threads else 1,
            "sync_unneeded": 2,
            "sync_needed": 3 if threads else 0,
        },
        refinement=refinement,
    )


class TestSciFormat:
    def test_small_numbers_verbatim(self):
        assert _sci(0) == "0"
        assert _sci(999) == "999"

    def test_large_numbers_scientific(self):
        assert _sci(1_000_000) == "1e6"
        assert _sci(5 * 10**23) == "5e23"

    def test_rounding(self):
        assert _sci(9_400_000) == "9e6"


class TestTables:
    def test_fig3_columns(self):
        text, rows = fig3_table([make_run()])
        assert "synthetic" in text
        assert "1e12" in text
        assert rows[0]["paths"] == 10**12

    def test_fig4_columns(self):
        text, rows = fig4_table([make_run()])
        assert "synthetic" in text
        assert rows[0]["alg3_iterations"] == 30
        # Memory shown in MB at 16 B/node.
        assert f"{230_000 * 16 / 1e6:.1f}" in text

    def test_fig5_columns(self):
        text, rows = fig5_table([make_run()])
        assert rows[0]["captured"] == 100

    def test_fig6_columns(self):
        text, rows = fig6_table([make_run()])
        assert "full CS ptr" in text
        assert rows[0]["cs_pointer_full"] == (0.0, 19.0)

    def test_multiple_rows(self):
        runs = [make_run("a"), make_run("b", paths=510)]
        for fn in (fig3_table, fig4_table, fig5_table, fig6_table):
            text, rows = fn(runs)
            assert len(rows) == 2
            assert "a" in text and "b" in text


class TestReportOnSyntheticData:
    def test_checks_on_good_data(self):
        # Use a real corpus name so the threadedness lookup works.
        runs = [make_run("jetty")]
        checks = qualitative_checks(runs)
        assert all(c.passed for c in checks)

    def test_checks_flag_bad_escape(self):
        run = make_run("freetts", threads=True)  # freetts is single-threaded
        checks = qualitative_checks([run])
        escape_check = next(c for c in checks if "Single-threaded" in c.claim)
        assert not escape_check.passed

    def test_report_renders(self):
        text = build_report([make_run("jetty")])
        assert "Claim checklist" in text


ABLATION_ROWS = [
    {"ablation": "seminaive", "naive_apps": 200, "seminaive_apps": 195,
     "naive_kernel_ops": 335_306, "seminaive_kernel_ops": 359_433},
    {"ablation": "order", "good_nodes": 220_000, "bad_nodes": 880_000},
    {"ablation": "typefilter", "on_tuples": 17529, "off_tuples": 18471},
    {"ablation": "planopt", "on_replace": 137, "off_replace": 245,
     "on_kernel_ops": 335_306, "off_kernel_ops": 336_049},
    {"ablation": "numbering", "contiguous_nodes": 50_000,
     "shuffled_nodes": 370_000},
]
KCFA_ROWS = [
    {"analysis": "ci", "pairs": 17695},
    {"analysis": "1cfa", "pairs": 9903, "contexts": 46, "outside_coarser": 0},
    {"analysis": "full", "pairs": 9901, "contexts": 268435452,
     "outside_coarser": 0},
]
PRECISION_ROWS = [
    {"analysis": "CI, no filter", "average": 20.56, "singleton_ratio": 0.331},
    {"analysis": "CI, filtered", "average": 19.31, "singleton_ratio": 0.331},
    {"analysis": "1-CFA", "average": 11.81, "singleton_ratio": 0.589},
    {"analysis": "full cloning", "average": 11.80, "singleton_ratio": 0.589,
     "improved": 145, "regressed": 0},
]
SCALING_ROWS = [{"layers": 8, "paths": 765}, {"layers": 44, "paths": 5 * 10**13}]


TABLE_ROWS = {
    "scaling": SCALING_ROWS,
    "ablation": ABLATION_ROWS,
    "kcfa": KCFA_ROWS,
    "precision": PRECISION_ROWS,
}


class TestTableChecks:
    @pytest.mark.parametrize("table", sorted(TABLE_ROWS))
    def test_checks_pass_on_good_rows(self, table):
        checks = TABLE_CHECKS[table](TABLE_ROWS[table])
        assert checks and all(c.passed for c in checks)

    @pytest.mark.parametrize(
        "check_fn, rows, index, key, value",
        [
            (scaling_checks, SCALING_ROWS, 1, "paths", 765),
            (ablation_checks, ABLATION_ROWS, 1, "good_nodes", 10**6),
            (kcfa_checks, KCFA_ROWS, 2, "outside_coarser", 1),
            (precision_checks, PRECISION_ROWS, 3, "regressed", 2),
        ],
    )
    def test_violation_flagged(self, check_fn, rows, index, key, value):
        rows = [dict(r) for r in rows]
        rows[index][key] = value
        assert not all(c.passed for c in check_fn(rows))

    def test_extra_checks_rendered(self):
        text = build_report(
            [make_run("jetty")], extra_checks=kcfa_checks(KCFA_ROWS)
        )
        assert "- [x] 1-CFA uses fewer contexts than full cloning" in text


class TestBackendSelection:
    def test_scaling_table_runs_on_requested_backend(self, monkeypatch):
        made = []
        create_kernel = solver_module.create_kernel

        def recording_create_kernel(*args, **kwargs):
            kernel = create_kernel(*args, **kwargs)
            made.append(kernel.backend_name)
            return kernel

        monkeypatch.setenv("REPRO_BDD_BACKEND", "packed")
        monkeypatch.setattr(
            solver_module, "create_kernel", recording_create_kernel
        )
        _, rows = scaling_table(layer_counts=(8,), backend="reference")
        assert len(rows) == 1
        assert made and set(made) == {"reference"}
