"""tools/ab_bench.py's summary of paired benchmark runs, on canned results."""
import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "ab_bench.py")
_spec = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)

METRICS = [{"name": "throughput_norm", "unit": "items/ref", "better": "higher"},
           {"name": "latency_p50_norm", "unit": "ref", "better": "lower"}]


def run(throughput, latency):
    return {"correct": True, "attempted": 10, "failed": 0, "metrics": {
        "throughput_norm": {"value": throughput, "unit": "items/ref"},
        "latency_p50_norm": {"value": latency, "unit": "ref"}}}


def test_gain_needs_nine_wins_in_ten_and_a_gap_beyond_the_base_spread():
    base = [run(7.0 + 0.01 * i, 0.140 + 0.001 * i) for i in range(10)]
    # throughput: 10 wins, medians 7.045 vs 7.545, base IQR 0.045
    # latency: 9 wins (the last pair ties), but the gap 0.0005 < IQR 0.0045
    change = [run(7.5 + 0.01 * i, 0.1395 + 0.001 * i) for i in range(10)]
    change[9] = run(7.59, base[9]["metrics"]["latency_p50_norm"]["value"])
    rows = {row["name"]: row for row in ab_bench.summarize(METRICS, base, change)}
    thr, lat = rows["throughput_norm"], rows["latency_p50_norm"]
    assert thr["base"] == pytest.approx((7.0225, 7.045, 7.0675))
    assert thr["change"][1] == pytest.approx(7.545)
    assert (thr["wins"], thr["pairs"], thr["gain"]) == (10, 10, True)
    assert (lat["wins"], lat["gain"]) == (9, False)


def test_eight_wins_in_ten_is_no_gain():
    base = [run(7.0, 0.14) for _ in range(10)]
    change = [run(8.0, 0.14) for _ in range(8)] + [run(6.0, 0.14)] * 2
    row = ab_bench.summarize(METRICS[:1], base, change)[0]
    assert (row["wins"], row["gain"]) == (8, False)


def test_missing_metric_is_skipped_and_rows_format():
    base = [run(7.0, 0.14), run(7.1, 0.15)]
    change = [run(7.2, 0.13), run(7.3, 0.12)]
    for r in base + change:
        del r["metrics"]["latency_p50_norm"]
    rows = ab_bench.summarize(METRICS, base, change)
    assert [row["name"] for row in rows] == ["throughput_norm"]
    lines = ab_bench.format_rows("cli_small_requests", rows)
    assert lines[0] == "## cli_small_requests"
    assert lines[2].split()[-2:] == ["2/2", "yes"]


def test_a_missing_result_line_is_none(tmp_path):
    # a tree without bench/run.py prints nothing on standard output
    assert ab_bench.run_bench(str(tmp_path), "sweep_dense", 1, 1) is None
