"""tools/check_pools.py --grid-bits: the resonance grids of a benchmark pool."""
import importlib.util
import os
import re

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
