"""Checked-in witness fixtures must re-verify exactly on every run."""

from pathlib import Path

import pytest

from ptf_lab.adversarial import count_restricted_inferences, verify_witness

from util import witness_from_json

FIXTURE_DIR = Path(__file__).parent / "fixtures"
FIXTURES = sorted(FIXTURE_DIR.glob("*.json"))


def test_fixtures_present():
    names = {p.name for p in FIXTURES}
    assert "interval_n20.json" in names
    assert "missing_derivative_d3_n4.json" in names
    assert "linear_d2.json" in names


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_fixture_reverifies(path):
    witness = witness_from_json(path.read_text())
    verify_witness(witness)
    assert count_restricted_inferences(witness) == 0


def test_linear_fixture_records_epsilon():
    witness = witness_from_json((FIXTURE_DIR / "linear_d2.json").read_text())
    assert witness.meta["epsilon"] == "1/3"
