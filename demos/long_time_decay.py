"""
Large-time decay on a big box
=============================

On the 8 pi box the lowest active frequency sits below 1, so plain heat
decay is slow there and the polynomial damping has to do real work. This
runs a unit-energy random field to t = 20 and prints the decay checklist:
monotone energy, the 5% crossing time, tail-monotone low-regularity norm,
and the plateau and taper of the space-time damping accumulators.

Takes half a minute or so on one core.
"""

import numpy as np

from nsdamp import config_from_mapping, decay_experiment

cfg = config_from_mapping({
    "grid.n_modes": 32,
    "grid.box_length": 8.0 * np.pi,
    "phys.nu": 1.0,
    "phys.alpha": 1.0,
    "phys.beta": 10.0 / 3.0,
    "time.dt": 0.025,
    "time.t_end": 20.0,
    "time.output_every": 0.5,
    "ic.kind": "random-solenoidal",
    "ic.seed": 7,
})

rep = decay_experiment(cfg)

e = rep.recorder.energy
print(f"{'t':>5} {'energy':>12} {'H^-2':>12}")
for r, d in list(zip(e, rep.recorder.decay))[::5]:
    print(f"{r.t:5.1f} {r.l2_sq:12.6e} {d.hminus2:12.6e}")
print()
print("\n".join(rep.lines()))
raise SystemExit(0 if rep.passed else 1)
