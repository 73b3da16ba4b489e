"""sha256 digests of the default CSV and JSON-lines outputs.

A change to any number, its formatting or the row order changes a digest;
a refactor that keeps these outputs byte-identical keeps every test here
passing.  The CLI digests run pumpslab.cli.main end to end (flags, an INI
file, an --output file), so they also pin how the command line resolves
its settings and writes its output.  The exact rows of compare_oracle
come from companion-matrix eigenvalues (coupled._quartic_roots, bit for
bit np.roots) and stacked LAPACK inverses of the 4x4 mode-amplitude
systems (oracle._reduced_solution), so their last digits depend on the
numpy build: the digests below were taken with numpy 2.4 and its bundled
OpenBLAS.  The quartic rows come from Newton steps on the factored quartic
from each root's anchor (coupled._anchored_roots), elementwise float
arithmetic.  oracle-csv, oracle-jsonl, oracle-puc-csv, oracle-puc-pdc-csv,
oracle-exact-csv and cli-compare-oracle-no-exact were retaken when those
rows moved from the sorted eigenvalues to the anchored roots: in every
quartic_* row the oracle, abs_err and rel_err cells moved (quartic_pair_roots,
whose oracle is 0, only its errors), and nothing else, status included;
quartic_eps3's largest rel_err fell from 6.6e-6 to 3.2e-9 and quartic_eps4's
from 3.0e-5 to 2.2e-9.  oracle-exact-csv was retaken when
the exact oracle moved from the 8x8 systems to their 4x4 core: its
exact_excess cells moved in the 12th significant digit (about 3e-12
relative on an excess near 8e-5; the amplitudes moved by at most 1e-15).
It was retaken again when that core read the amplitudes from V S^-1: the
oracle, abs_err and rel_err cells of one exact_excess row (pdc, omega 0.5)
moved, the oracle by 2.4e-12 relative (at most 3.6e-12 over 41 samples of
the same band).  The kernel bit digests at the end pin the resonance and
shift arrays to the last bit.
"""
import contextlib
import hashlib
import io
import math
from dataclasses import replace

import numpy as np
import pytest

from pumpslab import (
    CrystalScenario,
    DispersionModel,
    SweepRequest,
    calibrate_degenerate_angle,
    compare_oracle,
    degenerate_rows,
    epsilon_roots,
    pdc_resonance,
    puc_resonance,
    run_sweep,
)
from pumpslab.cli import main
from pumpslab.coupled import _Pairs, _shifts, _tabulate
from pumpslab.kinematics import OK, _resonance_grid
from pumpslab.sweep import ORACLE_COLUMNS, SWEEP_COLUMNS, rows_to_text

DIGESTS = {
    "sweep-csv-0.0": "df0d198b3715a380784a35caa89442a708e269e8d3b9e2ab6cbb1118ee4856e2",
    "sweep-jsonl-0.0": "63f67202cb7852190549e585986acd5cee93a7a042b8e731f12565a369dc51c9",
    "sweep-csv-0.001": "519fedff8e4a36fe21238ca646d6e66e4000f42c6ae7ea14339637352330b185",
    "sweep-jsonl-0.001": "3eebcdac365cb384b0faecae9d6fb516447b62aa691e8148c0763e07dd2e1d3b",
    "degenerate-csv": "68eaf4f297b317cdbf22ca683f859d69641fa3a6d56d0e413a2563c35b5e6076",
    "degenerate-jsonl": "bfe5bf5cd7911e180e2266dd0b01f0f342d0f0d090b503e95c17d1071dc3b88e",
    "oracle-csv": "00190a5859df3169776abf5fd16871fb013b4957b17c084922c05378166c1278",
    "oracle-jsonl": "eb1eb9aff906a47debc063dc704b558f05e30bf193d173a71551c3b766a21c0b",
    "oracle-puc-csv": "c5a180b236d06755ad9a989e65cb27d7ebdd33b7e32b511aebf8236b30c9729f",
    "oracle-puc-pdc-csv": "66512b9d7d623a81b47608f15414ec61859ac2bff9099ef826182973bcba0343",
    "oracle-exact-csv": "adf459e2e52ed16072513ac4c029da2683e2f73a559e33574331a4a86b748398",
    "collinear-sweep-csv": "c673d954aa611aaf719bf43e045418fdc3d0b26b49802767a74bc927d90d468e",
    "collinear-degenerate-csv": "7eda051b3288b2165d7b86c60d87810256f3801b60eb1253c3874728f56a5625",
}


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def outputs(scenario):
    """Every output the digests cover, keyed as DIGESTS, for one scenario."""
    texts = {}
    for detuning in (0.0, 1e-3):
        request = SweepRequest(scenario=scenario, band=(0.05, 1.95), samples=201,
                               kinds=("pdc", "puc"), detuning=detuning)
        rows = run_sweep(request)
        for fmt in ("csv", "jsonl"):
            texts[f"sweep-{fmt}-{detuning}"] = rows_to_text(rows, SWEEP_COLUMNS, fmt)
    rows = degenerate_rows(scenario, kinds=("pdc", "puc"))
    for fmt in ("csv", "jsonl"):
        texts[f"degenerate-{fmt}"] = rows_to_text(rows, SWEEP_COLUMNS, fmt)
    request = SweepRequest(scenario=scenario, band=(0.3, 0.7), samples=9,
                           kinds=("pdc", "puc"))
    rows, _ = compare_oracle(request, include_exact=False)
    for fmt in ("csv", "jsonl"):
        texts[f"oracle-{fmt}"] = rows_to_text(rows, ORACLE_COLUMNS, fmt)
    for kinds in (("puc",), ("puc", "pdc")):
        rows, _ = compare_oracle(replace(request, kinds=kinds), include_exact=False)
        texts[f"oracle-{'-'.join(kinds)}-csv"] = rows_to_text(rows, ORACLE_COLUMNS)
    return texts


def exact_oracle_text(scenario):
    """compare_oracle with exact rows, in the thick-slab weak-coupling regime."""
    request = SweepRequest(scenario=replace(scenario, g=1e-5, l=2800.0),
                           band=(0.3, 0.7), samples=5, kinds=("pdc", "puc"))
    rows, _ = compare_oracle(request, include_exact=True)
    return rows_to_text(rows, ORACLE_COLUMNS)


def collinear_texts():
    """A constant index: collinear resonances, every puc row undefined_ratio."""
    model = DispersionModel.constant(1.5, band=(0.01, 3.0))
    scenario = CrystalScenario(omega0=1.0, g=1e-4, l=100.0, dispersion=model)
    request = SweepRequest(scenario=scenario, band=(0.05, 1.95), samples=41,
                           kinds=("pdc", "puc"))
    return {
        "collinear-sweep-csv": rows_to_text(run_sweep(request), SWEEP_COLUMNS),
        "collinear-degenerate-csv": rows_to_text(
            degenerate_rows(scenario, kinds=("pdc", "puc")), SWEEP_COLUMNS),
    }


@pytest.fixture(scope="module")
def texts():
    """The outputs of the reference scenario (10 degrees, mu2 = 1.51), its
    exact-oracle table and the collinear constant-index outputs."""
    model = calibrate_degenerate_angle(math.radians(10.0), 1.51)
    scenario = CrystalScenario(omega0=1.0, g=1e-4, l=100.0, dispersion=model)
    texts = outputs(scenario)
    texts["oracle-exact-csv"] = exact_oracle_text(scenario)
    texts.update(collinear_texts())
    return texts


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_output_digest(texts, key):
    assert digest(texts[key]) == DIGESTS[key]


CLI_DIGESTS = {
    "cli-sweep-csv": "853db47d8294f8a761e3e609a5fd11999e7f111c3ec2a4144ac4900935933d7c",
    "cli-sweep-jsonl": "e1d8a13994a389eab3948847b687f0debf9a015caacfaece9523a12cc9303aa9",
    "cli-sweep-config": "d513f36ed21dc515c8b69cfada2457653498c141f8a5264cb204883b3e97eca1",
    "cli-degenerate-both": "68eaf4f297b317cdbf22ca683f859d69641fa3a6d56d0e413a2563c35b5e6076",
    "cli-compare-oracle-no-exact": "00190a5859df3169776abf5fd16871fb013b4957b17c084922c05378166c1278",
    "cli-calibrate": "6835c569914200cf49a6c64c2edf00d4fe21d89c62d4430af1755365b95eccdc",
}

PHYSICS = ["--theta-d-deg", "10", "--mu2", "1.51"]
CLI_CONFIG = (
    "[scenario]\nomega0 = 1.0\ng = 2e-4\nl = 150.0\nguard_width = 0.03\n"
    "theta_d_deg = 9.5\nmu2 = 1.505\n"
    "[sweep]\nomega_lo = 0.05\nomega_hi = 1.95\nsamples = 41\nkind = both\n"
    "detuning = 0.001\n"
    "[output]\nformat = jsonl\n"
)


def cli_text(argv, output=None):
    """What pumpslab.cli.main writes for argv: its stdout, or the output file."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    if output is None:
        return buf.getvalue()
    assert buf.getvalue() == ""
    return output.read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def cli_texts(tmp_path_factory):
    """main() output for each verb: flags, an INI file and an --output file."""
    tmp = tmp_path_factory.mktemp("cli")
    config = tmp / "run.cfg"
    config.write_text(CLI_CONFIG, encoding="utf-8")
    out = tmp / "rows.csv"
    sweep = ["sweep", *PHYSICS, "--band", "0.05", "1.95", "--samples", "41",
             "--kind", "both"]
    return {
        "cli-sweep-csv": cli_text(sweep),
        "cli-sweep-jsonl": cli_text([*sweep, "--format", "jsonl"]),
        "cli-sweep-config": cli_text(["sweep", "--config", str(config)]),
        "cli-degenerate-both": cli_text(
            ["degenerate", *PHYSICS, "--kind", "both", "--output", str(out)], out),
        "cli-compare-oracle-no-exact": cli_text(
            ["compare-oracle", *PHYSICS, "--band", "0.3", "0.7", "--samples", "9",
             "--kind", "both", "--no-exact"]),
        "cli-calibrate": cli_text(
            ["calibrate", *PHYSICS, "--omega0", "1.0", "--band", "0.1", "2.4"]),
    }


@pytest.mark.parametrize("key", sorted(CLI_DIGESTS))
def test_cli_digest(cli_texts, key):
    assert digest(cli_texts[key]) == CLI_DIGESTS[key]


# sha256 of the float.hex bits of the kernels' arrays, signed zeros
# included: the resonance grid (p, status, residual; its polish step
# counts apart, under the "-iterations" keys) and the shift
# table (status, eps1, eps2, xi) of the reference and collinear scenarios
# above, of a three-sample reference grid (the "unguided" keys) whose six
# roots, fewer than ARRAY_MIN, are solved one by one on floats, and of
# one-element epsilon_roots calls.  A
# negative detuning puts the collinear p below 0 (geometry), where the
# shifts are still computed from a detuning sum of -0.0.
BIT_DIGESTS = {
    "epsilon-collinear--0.001": "b5e4ef82b41d3b076caf03bfca6e215055f57f5b064d66bd6257461cf2b0e156",
    "epsilon-collinear-0.0": "9b33c0c9209f152cd65ddcc12ae0926c070ac7a0e673f058ee285f0b7ea3d2af",
    "epsilon-collinear-0.001": "9b33c0c9209f152cd65ddcc12ae0926c070ac7a0e673f058ee285f0b7ea3d2af",
    "epsilon-reference--0.001": "2dff8b4fb0499634885767ed301ec6252669dc2fbf58fdc3714e7fc8b7302994",
    "epsilon-reference-0.0": "97cd6bb4d17d4906f938158c142f2768b69c3cdd6619c1cd602c0af54a10a351",
    "epsilon-reference-0.001": "12906af2989c24e96e83fc3124cdeb290ff318c613799669b07f1bc56e80da65",
    "epsilon-reference-unguided--0.001": "2ce4f2d2881d979547b5d58ae7eb8bbc651333f993bd91b1f87f85e473239748",
    "epsilon-reference-unguided-0.0": "c5de9e49885c22792d5e6a4fa174b3a11c4b952ba3b5f5eab7939bbbcc402120",
    "epsilon-reference-unguided-0.001": "cea89688799fec94f9eef1d156c40fcb2f6ae032f94393c2eadcb53441af6139",
    "epsilon-roots-reference": "42510733bd9d6c143017fa5aa1549d2addcfa11bba2c1264ddcbd52924408cff",
    "grid-collinear": "b7ea87d0a9b545d8ecff270a93aeebf98d86e501e56a6dc0a0d04c269c9f17db",
    "grid-collinear-iterations": "079bb43352cb3bc3beae920c52697c092341827757d18564872402b07b43befd",
    "grid-reference": "7f1eeb0361798d79f10813137028b07ba63047dc6461f136b1d412d9731c5a6a",
    "grid-reference-iterations": "ba7eedd790a0c41363c428c81879447e9a3d93487fb321c95ef63945e34c10fa",
    "grid-reference-unguided": "829fa0559a8815b78dd1f4a4b158f30d84689ef4ad3755a48878f31d3bcc3e52",
    "grid-reference-unguided-iterations": "74c0b5a89bccecdcc4aabda815ce303d9889be91903a3dc5c82eef64c429f6ff",
}


def bits(*columns):
    """sha256 over the float.hex of every element, a complex as its real
    and imaginary parts."""
    h = hashlib.sha256()
    for column in columns:
        values = np.asarray(column)
        if values.dtype.kind == "c":
            values = np.stack((values.real, values.imag), axis=-1)
        h.update(" ".join(float(x).hex() for x in values.ravel().tolist()).encode())
        h.update(b"\n")
    return h.hexdigest()


def kernel_outputs():
    """bits() of each BIT_DIGESTS key."""
    model = calibrate_degenerate_angle(math.radians(10.0), 1.51)
    reference = CrystalScenario(omega0=1.0, g=1e-4, l=100.0, dispersion=model)
    collinear = CrystalScenario(omega0=1.0, g=1e-4, l=100.0,
                                dispersion=DispersionModel.constant(1.5, band=(0.01, 3.0)))
    grids = {
        "reference": (reference, np.linspace(0.05, 1.95, 201)),
        "reference-unguided": (reference, np.linspace(0.3, 0.7, 3)),
        "collinear": (collinear, np.linspace(0.05, 1.95, 41)),
    }
    out = {}
    for name, (scenario, omegas) in grids.items():
        grid = _resonance_grid(scenario, omegas, ("pdc", "puc"))
        out[f"grid-{name}"] = bits(grid.p, grid.status, grid.residual)
        out[f"grid-{name}-iterations"] = bits(grid.iterations)
        # the shifts of every resonance, and the grid's status with theirs over it
        resonances = np.flatnonzero(grid.status == OK)
        pairs = _Pairs.of_grid(grid, resonances)
        for detuning in (0.0, 1e-3, -1e-3):
            codes, columns = _tabulate(_shifts, scenario, pairs,
                                       pairs.p0 + detuning * pairs.omega)
            status = grid.status.copy()
            status.ravel()[resonances] = codes
            out[f"epsilon-{name}-{detuning}"] = bits(
                status, *(columns[c] for c in ("eps1", "eps2", "xi")))
    # one-element calls: each ResonancePoint's shifts, as Python numbers
    roots = [epsilon_roots(reference, res, res.p + detuning * res.omega)
             for omega in (0.3, 0.5, 0.7) for res in (pdc_resonance(reference, omega),
                                                       puc_resonance(reference, omega))
             for detuning in (0.0, 1e-3, -1e-3)]
    assert {type(r.eps1) for r in roots} == {type(r.xi) for r in roots} == {complex}
    out["epsilon-roots-reference"] = bits(*([r.eps1, r.eps2, r.xi] for r in roots))
    return out


@pytest.fixture(scope="module")
def kernel_bits():
    return kernel_outputs()


@pytest.mark.parametrize("key", sorted(BIT_DIGESTS))
def test_kernel_bits(kernel_bits, key):
    assert kernel_bits[key] == BIT_DIGESTS[key]
