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

    print("temporal study (manufactured solution):")
    for dt, err in zip(rep.dt_ladder, rep.errors):
        print(f"  dt = {dt:8.1e}  error = {err:.6e}")
    print(f"  observed order {rep.observed_order:.3f} "
          f"({'ok' if rep.temporal_ok else 'FAIL'}, want >= 3.7)")

    print("spatial study (self-convergence):")
    for n, d in zip(rep.levels[:-1], rep.diffs):
        print(f"  |u_{n}(T) - u_{2 * n}(T)| = {d:.6e}")
    ratios = ", ".join(f"{r:.1f}x" for r in rep.ratios)
    print(f"  shrink per doubling: {ratios} ({'ok' if rep.spatial_ok else 'FAIL'}, want >= 4x)")
    print(rep.certificate.verdict)
    return 0 if rep.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
