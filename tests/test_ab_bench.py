"""tools/ab_bench.py's summary of paired benchmark runs, on canned results."""
import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "ab_bench.py")
_spec = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)

METRICS = [{"name": "throughput_norm", "unit": "items/ref", "better": "higher", "bound": 0.15},
           {"name": "latency_p50_norm", "unit": "ref", "better": "lower", "bound": 0.15}]


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
    assert lines[2].split()[-3:] == ["2/2", "yes", "no"]


def test_regressed_past_the_bound_of_the_base_median():
    # latency median 0.14 -> 0.1625: 16 % worse, past the 15 % bound;
    # throughput median 7.0 -> 6.0: 14 % worse, inside it, base spread 0
    base = [run(7.0, 0.14) for _ in range(10)]
    change = [run(6.0, 0.1625) for _ in range(10)]
    rows = {row["name"]: row for row in ab_bench.summarize(METRICS, base, change)}
    assert rows["latency_p50_norm"]["regressed"] == "yes"
    assert rows["throughput_norm"]["regressed"] == "no"


def test_a_base_spread_wider_than_the_bound_is_unresolved():
    # base throughput runs 5, 7 and 9: quartiles 5.5 and 8.5, a spread of 3
    # beyond 15 % of the median 7; the change median 7 is no worse
    base = [run(v, 0.14) for v in [5.0, 7.0, 9.0] * 3 + [7.0]]
    change = [run(7.0, 0.14) for _ in range(10)]
    row = ab_bench.summarize(METRICS[:1], base, change)[0]
    assert row["regressed"] == "unresolved"
    # unless every change run beats every base run
    change = [run(9.5, 0.14) for _ in range(10)]
    assert ab_bench.summarize(METRICS[:1], base, change)[0]["regressed"] == "no"


def test_a_missing_result_line_is_none(tmp_path):
    # a tree without bench/run.py prints nothing on standard output
    assert ab_bench.run_bench(str(tmp_path), "sweep_dense", 1, 1) is None
