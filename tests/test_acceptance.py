"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 1-8 run through the shared check registry at their stated
tolerances; criterion 9 additionally pins the frozen preset CSVs byte for
byte against regeneration through the CLI.
"""

import math
from pathlib import Path

import pytest

from optobath import validate
from optobath.cli import main

GOLDEN = Path(__file__).parent / "golden"


def report(number, result):
    line = f"ACCEPTANCE {number} [{result['name']}]: {result['status'].upper()}"
    if result.get("detail"):
        line += f" ({result['detail']})"
    print(line)
    assert result["status"] == "pass", result


def test_criterion_1_temperature_reduction():
    report(1, validate.check_temperature_reduction())


def test_criterion_2_threshold_identity():
    report(2, validate.check_threshold_identity())


def test_criterion_3_flat_temperature_detuning():
    report(3, validate.check_flat_detuning())


def test_criterion_4_detailed_balance_identity():
    report(4, validate.check_detailed_balance())


def test_criterion_5_stability_oracle_equivalence():
    report(5, validate.check_stability_oracle(seed=20240801))


def test_criterion_6_representation_equivalence():
    report(6, validate.check_representation_equivalence())


def test_criterion_7_variance_consistency():
    report(7, validate.check_variance_consistency(seed=7))


def test_criterion_8_reduction_chain():
    report(8, validate.check_reduction_chain())


@pytest.mark.parametrize(
    "name,argv",
    [
        ("fig1_cooled_spectrum.csv", ["spectrum", "--preset", "fig1-cooled"]),
        ("fig1_bare_spectrum.csv", ["spectrum", "--preset", "fig1-bare"]),
        ("fig1_cooled_rates.csv", ["rates", "--preset", "fig1-cooled"]),
        ("fig1_bare_rates.csv", ["rates", "--preset", "fig1-bare"]),
        ("fig3_spectrum.csv", ["spectrum", "--preset", "fig3"]),
    ],
)
def test_criterion_9_golden_fixtures(tmp_path, name, argv):
    out = tmp_path / name
    assert main(argv + ["-o", str(out)]) == 0
    frozen = (GOLDEN / name).read_bytes()
    regenerated = out.read_bytes()
    match = regenerated == frozen
    print(f"ACCEPTANCE 9 [golden-{name}]: {'PASS' if match else 'FAIL'}")
    assert match, f"{name} no longer regenerates byte-identically"


def test_criterion_9_broadband_support():
    report(9, validate.check_lowfreq_bandwidth())
