"""tools/ab_layers.py's summary of interleaved layer timings, on canned timings."""
import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "ab_layers.py")
_spec = importlib.util.spec_from_file_location("ab_layers", _PATH)
ab_layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_layers)


def test_ratio_wins_and_base_spread_per_layer():
    base = [10e-6, 11e-6, 12e-6, 13e-6, 14e-6]
    change = [9e-6, 11e-6, 13.2e-6, 11.7e-6, 14e-6]  # ratios 0.9, 1, 1.1, 0.9, 1
    faults = [0.0] * 5
    row = ab_layers.summarize({"grid": {"base": base, "change": change,
                                        "base_faults": faults, "change_faults": faults}})[0]
    assert row["name"] == "grid" and not row["absent"]
    assert row["base_us"] == pytest.approx(12.0)
    assert row["ratio"] == pytest.approx((0.9, 1.0, 1.0))
    assert (row["wins"], row["rounds"]) == (2, 5)  # equal rounds are no win
    assert row["spread"] == pytest.approx((11.0 / 12.0, 13.0 / 12.0))


def test_a_layer_absent_at_base_is_reported():
    timings = {"gone": None, "kept": {"base": [2e-6, 2e-6], "change": [1e-6, 3e-6],
                                      "base_faults": [0.0, 0.0], "change_faults": [0.0, 0.0]}}
    rows = ab_layers.summarize(timings)
    assert [(row["name"], row["absent"]) for row in rows] == [("gone", True),
                                                             ("kept", False)]
    lines = ab_layers.format_rows(rows)
    assert lines[1].split()[-3:] == ["absent", "at", "BASE"]
    assert lines[2].split() == ["kept", "2.0", "0.750", "/", "1.000", "/", "1.250", "1/2",
                                "1.000", "/", "1.000", "0.0", "/", "0.0"]


def test_minor_faults_per_call_are_the_median_of_each_side():
    # a change that maps a buffer afresh on every call faults where its base does not
    timings = {"chunk": {"base": [1e-3] * 4, "change": [1e-3] * 4,
                         "base_faults": [0.0, 0.5, 0.0, 0.25],
                         "change_faults": [1208.0, 1190.5, 1212.0, 1201.0]}}
    (row,) = ab_layers.summarize(timings)
    assert row["faults"] == pytest.approx((0.125, 1204.5))
    header, line = ab_layers.format_rows([row])
    assert header.split()[-4:] == ["faults", "base", "/", "change"]
    assert line.split()[-3:] == ["0.1", "/", "1204.5"]


def test_a_base_that_raises_anything_is_reported_absent(capsys):
    def build(package):
        assert package == "pumpslab_base"
        raise ValueError("another API at BASE")

    assert ab_layers.at_base("layer", build) is None
    assert capsys.readouterr().out == ("# layer: absent at BASE "
                                       "(ValueError: another API at BASE)\n")
    calls = []
    call = ab_layers.at_base("layer", lambda package: lambda: calls.append(package))
    assert calls == ["pumpslab_base"]  # run once
    call()
    assert calls == ["pumpslab_base"] * 2


def test_every_layer_builds_on_the_working_tree(tmp_path):
    # a private signature a layer calls may change; the tool must follow it
    for build in ab_layers.layers(str(tmp_path / "out")).values():
        build("pumpslab")()
