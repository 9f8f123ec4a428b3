"""Command-line harness.

Subcommands mirror the experiment drivers one-to-one::

    nsdamp run <config>
    nsdamp verify [--fast] [--seed N]
    nsdamp twin <config> --delta <d>
    nsdamp continuity <config> --t0 <t> --eps <list>
    nsdamp decay <config>
    nsdamp refine <config> --levels <list>

Exit codes: 0 when every check passes, 1 on any failed check (a check
passes only on finite numbers, see nsdamp.certificate) or a run that fails
mid-flight, 2 on malformed input (config file, flags,
checkpoint), 3 on an internal error: any other exception, reported on one
stderr line, so that a bug never reads as a violated bound.  Every
subcommand prints its report the same way: a body of data, one line per
check and the verdict line (nsdamp.certificate).  Outputs land in
<output.directory>/<subcommand>/ unless --out overrides: every subcommand
but verify writes its report to report.txt there and names the directory;
run adds series.csv and final.ckpt, decay series.csv.  The directory comes
with its first file, so a refused input or a failed run creates none.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial

from .certificate import Certificate, _refuse_unusable_directory, write_report
from .checkpoint import CheckpointError
from .config import load_config
from .dynamics import BlowupError, CFLError
from .experiments import (
    continuity_experiment,
    decay_experiment,
    refinement_experiment,
    run_experiment,
    twin_experiment,
)
from .inequalities import verify_suite

__all__ = ["main"]


def _comma_list(convert, noun: str, text: str) -> list:
    """Parse comma-separated values with convert; bound with partial as an argparse type."""
    try:
        values = [convert(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated {noun}, got {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


_floats = partial(_comma_list, float, "reals")
_ints = partial(_comma_list, int, "integers")


def _joined(argv: list[str]) -> list[str]:
    """argv with each value-taking flag joined to its next token, so argparse takes "-1e-3" as its value."""
    out, tokens = [], iter(argv)
    for token in tokens:
        value = next(tokens, None) if token in "--out --seed --delta --t0 --eps --levels".split() else None
        out.append(token if value is None else f"{token}={value}")
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsdamp",
        description="spectral solver and verification harness for damped incompressible flow",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _with_config(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
        p.add_argument("config", help="path to a key = value config file")
        p.add_argument("--out", default=None, help="output directory (default: from config)")
        return p

    _with_config(sub.add_parser("run", help="integrate and certify the energy budget"))

    p_verify = sub.add_parser("verify", help="run the inequality oracle suite")
    p_verify.add_argument("--fast", action="store_true", help="smaller sample counts")
    p_verify.add_argument("--seed", type=int, default=0)

    p_twin = _with_config(sub.add_parser("twin", help="two-run separation bound"))
    p_twin.add_argument("--delta", type=float, required=True, help="perturbation size")

    p_cont = _with_config(sub.add_parser("continuity", help="time-shift modulus at t0"))
    p_cont.add_argument("--t0", type=float, required=True)
    p_cont.add_argument("--eps", type=_floats, required=True, help="comma-separated shifts")

    _with_config(sub.add_parser("decay", help="long-horizon decay diagnostics"))

    p_ref = _with_config(sub.add_parser("refine", help="grid refinement and temporal order"))
    p_ref.add_argument("--levels", type=_ints, required=True, help="comma-separated mode counts")

    return parser


def _verify_report(seed: int, fast: bool) -> Certificate:
    """The oracle suites' table, one row per suite with its note if it has one, over their checks."""
    rows = verify_suite(seed=seed, fast=fast)
    name_w = max(len(r.name) for r in rows)
    table = [f"{'oracle':<{name_w}}  {'samples':>8}"] + [
        f"{r.name:<{name_w}}  {r.samples:>8d}" + (f"  ({r.note})" if r.note else "") for r in rows
    ]
    return Certificate([r.check for r in rows], table)


def _dispatch(args) -> int:
    out = None
    if args.command == "verify":
        report = _verify_report(args.seed, args.fast)
    else:
        cfg = load_config(args.config)
        out = args.out if args.out is not None else os.path.join(cfg.output_directory, args.command)
        try:  # before integrating: an unusable directory is malformed input
            _refuse_unusable_directory(out)
        except OSError as exc:
            print(f"error: cannot use output directory {out!r}: {exc}", file=sys.stderr)
            return 2
        if args.command == "run":
            report = run_experiment(cfg, out_dir=out)
        elif args.command == "twin":
            report = twin_experiment(cfg, args.delta)
        elif args.command == "continuity":
            report = continuity_experiment(cfg, args.eps, args.t0)
        elif args.command == "decay":
            report = decay_experiment(cfg, out_dir=out)
        else:
            report = refinement_experiment(cfg, args.levels)

    lines = report.lines()
    print("\n".join(lines))
    if out is not None:
        write_report(out, lines)
        print(f"outputs in {out}")
    return 0 if report.passed else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_joined(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    # malformed input; ConfigError is a ValueError
    except (ValueError, CheckpointError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CFLError, BlowupError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
