"""The plan-count fence: more kernel ops or more peak nodes than the
baseline is a regression."""

from repro.bench.plan_bench import _compare_counts


def compare(kernel, want_kernel):
    return _compare_counts(
        "entry", {"replace": 3, "rel_prod": 5}, {"load": 2}, kernel,
        {"replace": 3, "rel_prod": 5}, {"load": 2}, want_kernel,
    )


def test_kernel_ops_above_the_baseline_regress():
    assert compare(
        {"op_count": 101, "peak_nodes": 7}, {"op_count": 100, "peak_nodes": 7}
    ) == ["entry: kernel op_count regressed 100 -> 101"]


def test_peak_nodes_above_the_baseline_regress():
    assert compare(
        {"op_count": 90, "peak_nodes": 8}, {"op_count": 100, "peak_nodes": 7}
    ) == ["entry: kernel peak_nodes regressed 7 -> 8"]


def test_kernel_work_at_or_below_the_baseline_passes():
    for op_count, peak in ((100, 7), (99, 6)):
        assert compare(
            {"op_count": op_count, "peak_nodes": peak},
            {"op_count": 100, "peak_nodes": 7},
        ) == []
