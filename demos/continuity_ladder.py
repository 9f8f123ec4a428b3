"""Shift modulus at a fixed time: |u(t0 +/- eps) - u(t0)| over a halving
ladder of eps, against the computable right-continuity bound."""

import numpy as np

from nsdamp import config_from_mapping, continuity_experiment


def main():
    cfg = config_from_mapping({
        "grid.n_modes": 16,
        "grid.box_length": 2.0 * np.pi,
        "phys.nu": 1.0,
        "phys.alpha": 1.0,
        "phys.beta": 4.0,
        "time.dt": 2.5e-3,
        "time.t_end": 1.0,
        "ic.kind": "taylor-green",
    })
    rep = continuity_experiment(cfg, epsilons=[0.2, 0.1, 0.05, 0.025], t0=0.5)

    # the ladder's table, then one line per check and the verdict
    print("\n".join(rep.lines()))
    return 0 if rep.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
