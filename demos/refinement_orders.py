"""
Convergence orders
==================

Two independent refinement studies: the temporal order of the integrating
factor scheme against a manufactured solution with a known time law, and
spatial self-convergence of a viscous Taylor-Green run across doubled
grids. Fourth order in time and faster-than-algebraic decay of the
inter-level differences are the expected outcomes.
"""

import numpy as np

from nsdamp import config_from_mapping, refinement_experiment


def main():
    cfg = config_from_mapping({
        "grid.n_modes": 16,
        "grid.box_length": 2.0 * np.pi,
        "phys.nu": 0.02,   # mild viscosity keeps fine-grid content alive at T
        "phys.alpha": 0.5,
        "phys.beta": 4.0,
        "time.dt": 5e-3,
        "time.t_end": 0.25,
        "ic.kind": "taylor-green",
    })
    rep = refinement_experiment(cfg, levels=[8, 16, 32])
    # the spatial study's differences and shrink factors, the temporal study's
    # errors and orders, then one line per check and the verdict
    print("\n".join(rep.lines()))
    return 0 if rep.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
