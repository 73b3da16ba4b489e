"""tools/reference_error.py's table of the exact oracle against its 40-digit reference."""
import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "reference_error.py")
_spec = importlib.util.spec_from_file_location("reference_error", _PATH)
reference_error = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference_error)


def test_one_small_case():
    row = reference_error.error_row("puc", 1e-4, 100.0, 0.4, 2)
    header, line = reference_error.format_rows([row])
    assert header.split()[:5] == ["kind", "g", "l", "omega", "kappa_1"]
    kind, g, l, omega, kappa_1, t1_err, excess, excess_err = line.split()
    assert (kind, float(g), float(l), float(omega)) == ("puc", 1e-4, 100.0, 0.4)
    assert 1.0 < float(kappa_1) < 100.0
    # a puc deficit of about gamma / (1 + r10), resolved far below its size
    assert float(excess) == pytest.approx(-1.0e-5, rel=0.05)
    assert float(t1_err) < 1e-10 and float(excess_err) < 1e-5
