"""A check passes only on finite numbers, a certificate only on at least one
check, a certificate prints one line per check, and every output file is
replaced whole or not at all."""

import math
import os

import numpy as np
import pytest

from nsdamp import certificate
from nsdamp.certificate import Certificate, Check, write_report
from nsdamp.checkpoint import read_checkpoint, write_checkpoint
from nsdamp.dynamics import StepperConfig, run
from nsdamp.initial_conditions import taylor_green
from nsdamp.ledger import SeriesRecorder, write_series_csv
from nsdamp.spectral import PhysParams, make_grid


@pytest.mark.parametrize("value, bound", [
    (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0), (0.5, math.nan), (0.5, math.inf),
])
def test_a_check_that_held_on_a_number_that_is_not_finite_fails(value, bound):
    check = Check("bound", value, bound, True)
    assert not check.passed
    cert = Certificate([Check("other", 0.5, 1.0, True), check], ["body"])
    assert not cert.passed
    assert cert.lines() == ["body", "pass other: 0.5 against bound 1",
                            f"FAIL bound: {value:.6g} against bound {bound:.6g}", "verdict: FAIL"]


def test_a_certificate_passes_only_on_checks_that_all_pass():
    held = Check("held", 0.5, 1.0, True)
    assert Certificate([held], ["body"]).lines() == ["body", "pass held: 0.5 against bound 1",
                                                     "verdict: pass"]
    assert not Certificate([held, Check("broken", 2.0, 1.0, False)], []).passed
    assert not Certificate([], ["nothing was checked"]).passed
    assert Certificate([], ["nothing was checked"]).lines() == ["nothing was checked", "verdict: FAIL"]


def test_every_check_prints_once_in_check_order():
    checks = [Check("b", 3e-7, 1e-6, True), Check("a", 2.0, 1.0, False), Check("b", 0.0, 0.0, True)]
    assert Certificate(checks, ["x", ""]).lines() == [
        "x", "", "pass b: 3e-07 against bound 1e-06", "FAIL a: 2 against bound 1",
        "pass b: 0 against bound 0", "verdict: FAIL"]


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


class _FullDisk:
    """A file whose first write lands and whose next one fails, as on a disk that fills up."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def __enter__(self):
        self.fh.__enter__()
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)

    def write(self, data):
        self.writes += 1
        if self.writes > 1:
            raise OSError(28, "No space left on device")
        return self.fh.write(data)


@pytest.fixture(scope="module")
def two_runs():
    """The snapshots and series of two short N = 8 runs that end in different states."""
    grid, params = make_grid(8, 2.0 * math.pi), PhysParams(nu=1.0, alpha=1.0, beta=4.0)
    runs = []
    for t_end in (0.004, 0.008):
        recorder = SeriesRecorder()
        snapshots = run(taylor_green(grid), params, StepperConfig(dt=1e-3), t_end,
                        output_every=1e-3, hooks=(recorder,))
        runs.append((snapshots, recorder))
    return runs


def _write_series(path, snapshots, recorder):
    write_series_csv(path, recorder.energy, recorder.decay)


def _write_checkpoint(path, snapshots, recorder):
    write_checkpoint(snapshots[-1], path)


@pytest.mark.parametrize("failure", ["write", "replace"])
@pytest.mark.parametrize("writer, name", [(_write_series, "series.csv"),
                                          (_write_checkpoint, "final.ckpt")],
                         ids=["series.csv", "final.ckpt"])
def test_an_output_write_that_fails_leaves_the_old_file_and_no_temporary_file(
        tmp_path, monkeypatch, two_runs, writer, name, failure):
    path = tmp_path / name
    writer(path, *two_runs[0])
    old = path.read_bytes()
    if failure == "write":  # the first write lands in the temporary file, the second fails
        monkeypatch.setattr(certificate, "open", lambda *a, **k: _FullDisk(open(*a, **k)),
                            raising=False)
    else:
        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(certificate.os, "replace", refuse)
    with pytest.raises(OSError):
        writer(path, *two_runs[1])
    assert os.listdir(tmp_path) == [name]
    assert path.read_bytes() == old
    monkeypatch.undo()
    writer(path, *two_runs[1])
    assert path.read_bytes() != old
    if name == "final.ckpt":
        assert np.array_equal(read_checkpoint(path).vector, two_runs[1][0][-1].vector)
