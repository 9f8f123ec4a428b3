"""Certificates: every verdict is a list of finite checks.

A ``Check`` is one acceptance criterion, a measured value against its stated
bound. It passes only when its comparison held and both numbers are finite,
so no NaN or inf can make a bound hold vacuously. A ``Certificate`` passes
when it has at least one check and every check passes; it alone renders the
``verdict:`` line. ``write_report`` is the one writer of ``report.txt``.
"""

from __future__ import annotations

import math
import os
from contextlib import suppress
from dataclasses import dataclass
from typing import Sequence

__all__ = ["Check", "Certificate", "verdict_word", "write_report"]


@dataclass(frozen=True)
class Check:
    """value against bound; ok is the comparison that the check states."""

    name: str
    value: float
    bound: float
    ok: bool

    @property
    def passed(self) -> bool:
        return math.isfinite(self.value) and math.isfinite(self.bound) and bool(self.ok)


def verdict_word(passed: bool) -> str:
    return "pass" if passed else "FAIL"


@dataclass(frozen=True)
class Certificate:
    """A report's checks and the body lines it prints above them."""

    checks: Sequence[Check]
    body: Sequence[str]

    @property
    def passed(self) -> bool:
        return bool(self.checks) and all(c.passed for c in self.checks)

    @property
    def verdict(self) -> str:
        return f"verdict: {verdict_word(self.passed)}"

    def lines(self) -> list[str]:
        """The body, one line naming each check that did not pass, and the verdict."""
        failed = [f"FAIL {c.name}: {c.value:.6g} against bound {c.bound:.6g}"
                  for c in self.checks if not c.passed]
        return [*self.body, *failed, self.verdict]


class Certified:
    """A report that carries a certificate: its passed and lines() are the certificate's."""

    certificate: Certificate

    @property
    def passed(self) -> bool:
        return self.certificate.passed

    def lines(self) -> list[str]:
        return self.certificate.lines()


def write_report(out_dir: str, lines: Sequence[str]) -> None:
    """Write lines to out_dir/report.txt through a temporary file there and os.replace.

    A write that fails partway leaves the previous report and no temporary file.
    """
    path = os.path.join(out_dir, "report.txt")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(f"{line}\n" for line in lines)
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
