"""tools/check_pools.py: the resonance grids and the oracle margins of the benchmark pools."""
import importlib.util
import os
import re
import types

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "check_pools.py")
_spec = importlib.util.spec_from_file_location("check_pools", _PATH)
check_pools = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_pools)

# the sweep_dense pool's grids as the earlier kernel, Newton steps in
# q = p^2 from the bracket end, solved them; the closed-form start keeps
# every bit
SWEEP_DENSE_GRID_BITS = "e81def565db18bb12e5b3595702f9653f1d262d0f81ee9632be769aba51f1544"


def test_grid_bits_of_the_sweep_pool(capsys):
    assert check_pools.main(["--grid-bits", "sweep_dense"]) == 0
    line = capsys.readouterr().out
    match = re.fullmatch(r"sweep_dense: grid bits ([0-9a-f]{64}) over (\d+) grids; "
                         r"polish steps per solved root \{1: (\d+)\}\n", line)
    assert match, line  # every solved root took one polish step
    assert match[1] == SWEEP_DENSE_GRID_BITS
    assert int(match[2]) == 320 and int(match[3]) > 70000


def test_margins_keep_the_row_nearest_each_tol():
    nan = float("nan")
    table = [["quantity", "status", "rel_err", "tol"],  # a CSV output's header row
             ["a", "ok", 0.125, 0.5], ["a", "ok", 0.25, 0.5], ["a", "ok", 0.25, 1.0],
             ["a", "breach", 2.0, 0.5], ["a", "breach", 1.0, 0.5], ["a", "breach", nan, 0.5],
             ["b", "not_applicable", None, 0.5], ["b", "ok", 0.0, 0.5],
             ["channel_report", "guard_band", None, None]]
    outcome = types.SimpleNamespace(columns=tuple(table[0]), table=table)
    assert check_pools.margins(outcome) == {
        ("a", "ok"): (0.5, 0.25), ("a", "breach"): (2.0, 1.0), ("b", "ok"): (0.0, 0.0)}
    sweep = types.SimpleNamespace(columns=("omega", "status"), table=[[0.5, "ok"]])
    assert check_pools.margins(sweep) == {}
