"""tools/ab_bench.py's summary of paired benchmark runs, on canned results."""
import importlib.util
import json
import os
import platform

import numpy as np
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


def canned_main(monkeypatch, failing, *argv):
    """ab_bench.main(["HEAD", *argv]) with no export and canned runs: the
    base throughput 7.0 + seed / 100, the change 0.5 higher; the runs named
    in failing, (workload, seed, side), print no result line."""
    monkeypatch.setattr(ab_bench, "export", lambda revision, directory, paths=(): None)

    def run_bench(tree, workload, seed, seconds):
        side = "change" if tree == ab_bench.ROOT else "base"
        if (workload, seed, side) in failing:
            return None
        return run(7.0 + seed / 100 + (0.5 if side == "change" else 0.0), 0.14)

    monkeypatch.setattr(ab_bench, "run_bench", run_bench)
    monkeypatch.setattr(ab_bench, "git", lambda *args: {
        ("rev-parse", "HEAD^{commit}"): "b" * 40, ("rev-parse", "HEAD"): "c" * 40,
        ("status", "--porcelain"): " M src/pumpslab/cli.py"}[args])
    return ab_bench.main(["HEAD", *argv])


def test_a_workload_with_one_complete_pair_is_reported_and_the_rest_go_on(monkeypatch,
                                                                         capsys):
    code = canned_main(monkeypatch, {("sweep_dense", 2, "base")}, "--pairs", "2",
                       "--workload", "sweep_dense", "--workload", "cli_small_requests")
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert out[:3] == ["# sweep_dense seed 2 base: no result line", "## sweep_dense",
                       "fewer than 2 complete pairs"]
    assert out[3] == "## cli_small_requests"
    rows = {line.split()[0]: line.split()[-3:] for line in out[5:]}
    assert rows["throughput_norm"] == ["2/2", "yes", "no"]


def test_record_holds_the_tables_commits_arguments_and_host(monkeypatch, tmp_path):
    path = tmp_path / "BENCH.json"
    code = canned_main(monkeypatch, {("sweep_dense", 1, "change")},
                       "--pairs", "2", "--seconds", "5", "--seed", "1",
                       "--workload", "sweep_dense", "--workload", "cli_small_requests",
                       "--record", str(path))
    assert code == 1
    text = path.read_text(encoding="utf-8")
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=1, sort_keys=True) + "\n"
    assert doc["base"] == {"revision": "HEAD", "sha": "b" * 40}
    assert doc["change"] == {"sha": "c" * 40, "dirty": True}
    assert (doc["pairs"], doc["seconds"], doc["seed"]) == (2, 5, 1)
    assert doc["host"]["cpu_count"] == os.cpu_count()
    assert doc["host"]["python"] == platform.python_version()
    assert doc["host"]["numpy"] == np.__version__
    assert doc["workloads"]["sweep_dense"] == ab_bench.FEW_PAIRS
    throughput = doc["workloads"]["cli_small_requests"]["throughput_norm"]
    assert throughput["base"] == pytest.approx([7.0125, 7.015, 7.0175])
    assert throughput["change"] == pytest.approx([7.5125, 7.515, 7.5175])
    assert {key: throughput[key] for key in ("wins", "pairs", "gain", "regressed", "unit")} == {
        "wins": 2, "pairs": 2, "gain": True, "regressed": "no", "unit": "items/ref"}
