"""Command-line harness.

Subcommands mirror the experiment drivers one-to-one::

    nsdamp run <config>
    nsdamp verify [--fast] [--seed N]
    nsdamp twin <config> --delta <d>
    nsdamp continuity <config> --t0 <t> --eps <list>
    nsdamp decay <config>
    nsdamp refine <config> --levels <list>

Exit codes: 0 when every assertion passes, 1 on any violated bound or a
run that fails mid-flight, 2 on malformed input (config file, flags,
checkpoint), 3 on an internal error: any other exception, reported on one
stderr line, so that a bug never reads as a violated bound.  Outputs land
in <output.directory>/<subcommand>/ unless --out overrides; runs leave
series.csv, report.txt and final.ckpt.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial

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


def _emit(lines: list[str], out_dir: str) -> None:
    text = "\n".join(lines)
    print(text)
    with open(os.path.join(out_dir, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _cmd_verify(args) -> int:
    rows = verify_suite(seed=args.seed, fast=args.fast)
    name_w = max(len(r.name) for r in rows)
    print(f"{'oracle':<{name_w}}  {'samples':>8}  {'worst':>12}  {'threshold':>10}  verdict")
    for r in rows:
        print(
            f"{r.name:<{name_w}}  {r.samples:>8d}  {r.worst:>12.3e}  "
            f"{r.threshold:>10.1e}  {'pass' if r.passed else 'FAIL'}  ({r.note})"
        )
    return 0 if all(r.passed for r in rows) else 1


def _dispatch(args) -> int:
    if args.command == "verify":
        return _cmd_verify(args)

    cfg = load_config(args.config)
    out = args.out if args.out is not None else os.path.join(cfg.output_directory, args.command)
    try:  # before integrating: an unusable directory is malformed input
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot use output directory {out!r}: {exc}", file=sys.stderr)
        return 2

    if args.command == "run":
        result = run_experiment(cfg, out_dir=out)
        print("\n".join(result.lines()))
        print(f"outputs in {out}")
        return 0 if result.passed else 1
    if args.command == "twin":
        report = twin_experiment(cfg, args.delta)
    elif args.command == "continuity":
        report = continuity_experiment(cfg, args.eps, args.t0)
    elif args.command == "decay":
        report = decay_experiment(cfg, out_dir=out)
        print("\n".join(report.lines()))
        print(f"outputs in {out}")
        return 0 if report.passed else 1
    else:
        report = refinement_experiment(cfg, args.levels)
    _emit(report.lines(), out)
    return 0 if report.passed else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
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
