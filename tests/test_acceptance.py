"""Acceptance battery: one test per shipped criterion, full tolerances.

Each test prints the standard one-line pass/fail summary of its criterion so
`pytest -v -s tests/test_acceptance.py` doubles as the acceptance report.
"""

import pytest

from microlocal import acceptance
from microlocal.acceptance import CRITERIA, run_criterion
from microlocal.cli import run_subcommand


@pytest.mark.parametrize("cid", list(CRITERIA))
def test_criterion(cid, capsys):
    res = run_criterion(cid, fast=False)
    with capsys.disabled():
        print("\n" + res.line())
    assert res.passed, f"{cid} failed: {res.details}"


def test_statphase_negative_hook():
    # the certificate criterion must fail, and be reported as failing, when
    # the bound is scaled below the corpus' measured slack
    res = run_criterion("C7", fast=True, bound_scale=1e-5)
    assert not res.passed


def test_cli_and_criteria_share_tolerances(tmp_path, monkeypatch):
    # one table decides both the CLI pass flag and the criterion: tightening
    # the fit tolerance below the measured value must fail both
    monkeypatch.setitem(acceptance.TOLERANCES, "fit_quality", 1e-6)
    assert run_subcommand("mn-asym", {"n": "2"}, tmp_path) is False
    assert run_criterion("C1", fast=True).passed is False
