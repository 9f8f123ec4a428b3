"""Certificates: every verdict is a list of finite checks.

A ``Check`` is one acceptance criterion, a measured value against its stated
bound. It passes only when its comparison held and both numbers are finite,
so no NaN or inf can make a bound hold vacuously. A ``Certificate`` passes
when it has at least one check and every check passes; it alone renders a
check's outcome: one line per check, then the ``verdict:`` line.
``_write_atomic`` is the one writer of an output file, ``write_report`` the
one of ``report.txt``.
"""

from __future__ import annotations

import math
import os
from contextlib import suppress
from dataclasses import dataclass
from typing import IO, Callable, Sequence

__all__ = ["Check", "Certificate", "write_report"]


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


def _verdict_word(passed: bool) -> str:
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
        return f"verdict: {_verdict_word(self.passed)}"

    def lines(self) -> list[str]:
        """The body, one line per check in check order, and the verdict."""
        return [*self.body,
                *(f"{_verdict_word(c.passed)} {c.name}: {c.value:.6g} against bound {c.bound:.6g}"
                  for c in self.checks),
                self.verdict]


class Certified:
    """A report that carries a certificate: its passed and lines() are the certificate's."""

    certificate: Certificate

    @property
    def passed(self) -> bool:
        return self.certificate.passed

    def lines(self) -> list[str]:
        return self.certificate.lines()


def _write_atomic(path, mode: str, write: Callable[[IO], None], encoding: str | None = None) -> None:
    """Write path through a temporary file beside it and os.replace: write(fh) fills the open file.

    A write that fails partway, or a refused replace, leaves the previous
    file and no temporary file.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, encoding=encoding) as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_report(out_dir: str, lines: Sequence[str]) -> None:
    """Write lines to out_dir/report.txt, atomically."""
    _write_atomic(os.path.join(out_dir, "report.txt"), "w",
                  lambda fh: fh.writelines(f"{line}\n" for line in lines), "utf-8")
