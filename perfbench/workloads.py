"""The benchmark's workloads: each turns a seed into one public driver call.

The package sees only the config (and, for ``oracles``, the seed) built
here.  Horizons are short so a repetition, a fresh interpreter included,
fits several times into one measured run; they are fixed, so every seed
does the same amount of work and only the field values change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    driver: str  # "run" | "oracles"
    why: str
    config: dict | None = None  # dotted config keys, without ic.seed


def _config(n_modes: int, box_length: float, alpha: float, beta: float, dt: float,
            steps: int, every: int, ic_kind: str) -> dict:
    return {
        "grid.n_modes": n_modes,
        "grid.box_length": box_length,
        "phys.nu": 1.0,
        "phys.alpha": alpha,
        "phys.beta": beta,
        "time.dt": dt,
        "time.t_end": steps * dt,
        "time.output_every": every * dt,
        "ic.kind": ic_kind,
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "run-n64",
            "run",
            "FFT-bound stepping on ~40 MB working sets at N=64; hooks and snapshot memory "
            "nearly idle, so half-spectrum or ball-only state shows here first",
            _config(64, 2.0 * math.pi, 1.0, 4.0, 1e-3, 4, 2, "random-solenoidal"),
        ),
        Workload(
            "dense-n32",
            "run",
            "decay regime at N=32 with a snapshot every step: the ledger hook, the Duhamel "
            "drift check and retained snapshot copies are paid per step",
            _config(32, 8.0 * math.pi, 1.0, 10.0 / 3.0, 0.02, 50, 1, "random-solenoidal"),
        ),
        Workload(
            "oracles",
            "oracles",
            "the inequality oracle suites with no time stepping: solver changes should "
            "leave it unchanged, and it is the only one that measures inequalities",
        ),
    )
}


def ic_seed(seed: int) -> int:
    """Workload seed -> the package's nonnegative ic.seed / oracle seed."""
    return seed % 2**31


def config_values(workload: Workload, seed: int) -> dict:
    return {**workload.config, "ic.seed": ic_seed(seed)}
