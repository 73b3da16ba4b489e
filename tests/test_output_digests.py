"""sha256 digests of the default CSV and JSON-lines outputs.

A change to any number, its formatting or the row order changes a digest;
a refactor that keeps these outputs byte-identical keeps every test here
passing.  The CLI digests run pumpslab.cli.main end to end (flags, an INI
file, an --output file), so they also pin how the command line resolves
its settings and writes its output.  The quartic rows of compare_oracle
come from np.roots and its exact rows from stacked LAPACK solves, so
their last digits depend on the numpy build: the digests below were
taken with numpy 2.4 and its bundled OpenBLAS.
"""
import contextlib
import hashlib
import io
import math
from dataclasses import replace

import pytest

from pumpslab import (
    CrystalScenario,
    DispersionModel,
    SweepRequest,
    calibrate_degenerate_angle,
    compare_oracle,
    degenerate_rows,
    run_sweep,
)
from pumpslab.cli import main
from pumpslab.sweep import ORACLE_COLUMNS, SWEEP_COLUMNS, rows_to_text

DIGESTS = {
    "sweep-csv-0.0": "8fefd9a57e2bc23deac0ce8b6b75e132f2fb0ad6d16d7dede7668930b37e9fbf",
    "sweep-jsonl-0.0": "40b535a6f1e0107d825807d71a87d2b747297de3b952fbf70c25e2d812aa485d",
    "sweep-csv-0.001": "65b7e8f4e9910a004a58fb45541189f5f35e20441ba55a602527b0466d42f094",
    "sweep-jsonl-0.001": "50e929321ed0cef3847c4cf6d2a7f4c338fbe83ce7401e34be33e9258bd11442",
    "degenerate-csv": "68eaf4f297b317cdbf22ca683f859d69641fa3a6d56d0e413a2563c35b5e6076",
    "degenerate-jsonl": "bfe5bf5cd7911e180e2266dd0b01f0f342d0f0d090b503e95c17d1071dc3b88e",
    "oracle-csv": "8bdc511342c7df849cce253e66fcea01deccca7b491db002d47b25f81fff9848",
    "oracle-jsonl": "f4df50132f6e74f4364162019c3cd4ea2aeec4f5748f34dd28b5ecc9eb8add7b",
    "oracle-puc-csv": "56c329f6ed12303b1528b3a417b57adaa2ca27ee9c2b9079e498446ca163d05f",
    "oracle-puc-pdc-csv": "47395502996ede835893b7ffe72800de432307bb4d05e573294b9eed9eed6229",
    "oracle-exact-csv": "764fb889d346ff40867934cc10847e55d6332ccca97a03611dc659b0dfd0be07",
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
    "cli-compare-oracle-no-exact": "8bdc511342c7df849cce253e66fcea01deccca7b491db002d47b25f81fff9848",
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
