"""A check passes only on finite numbers, a certificate only on at least one
check, and report.txt is replaced whole or not at all."""

import math
import os

import pytest

from nsdamp import certificate
from nsdamp.certificate import Certificate, Check, write_report


@pytest.mark.parametrize("value, bound", [
    (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0), (0.5, math.nan), (0.5, math.inf),
])
def test_a_check_that_held_on_a_number_that_is_not_finite_fails(value, bound):
    check = Check("bound", value, bound, True)
    assert not check.passed
    cert = Certificate([Check("other", 0.5, 1.0, True), check], ["body"])
    assert not cert.passed
    assert cert.lines() == ["body", f"FAIL bound: {value:.6g} against bound {bound:.6g}",
                            "verdict: FAIL"]


def test_a_certificate_passes_only_on_checks_that_all_pass():
    held = Check("held", 0.5, 1.0, True)
    assert Certificate([held], ["body"]).lines() == ["body", "verdict: pass"]
    assert not Certificate([held, Check("broken", 2.0, 1.0, False)], []).passed
    assert not Certificate([], ["nothing was checked"]).passed


@pytest.mark.parametrize("failure", ["write", "replace"])
def test_a_report_write_that_fails_leaves_the_old_report_and_no_temporary_file(
        tmp_path, monkeypatch, failure):
    write_report(str(tmp_path), ["old report"])
    lines = ["first", "second", "third"]
    if failure == "write":
        lines[1] = "\ud800"  # a lone surrogate: utf-8 cannot encode it, after the first line
    else:
        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(certificate.os, "replace", refuse)
    with pytest.raises((UnicodeEncodeError, OSError)):
        write_report(str(tmp_path), lines)
    assert os.listdir(tmp_path) == ["report.txt"]
    assert (tmp_path / "report.txt").read_text(encoding="utf-8") == "old report\n"
    monkeypatch.undo()
    write_report(str(tmp_path), ["new report"])
    assert (tmp_path / "report.txt").read_text(encoding="utf-8") == "new report\n"
