"""
Twin runs and the separation bound
==================================

Integrates the same initial condition twice, once unperturbed and once with
a small solenoidal perturbation of size delta, and checks that the squared
separation plus its accumulated gradient cost stays under the exponential
envelope with growth rate 2C, where C depends only on the damping strength
and exponent. With delta = 0 the runs must agree to the last bit.
"""

import numpy as np

from nsdamp import Certificate, config_from_mapping, gronwall_constant, twin_experiment

cfg = config_from_mapping({
    "grid.n_modes": 16,
    "grid.box_length": 2.0 * np.pi,
    "phys.nu": 1.0,
    "phys.alpha": 1.0,
    "phys.beta": 4.0,
    "time.dt": 2e-3,
    "time.t_end": 1.0,
    "time.output_every": 0.05,
    "ic.kind": "taylor-green",
})

print(f"growth constant C(alpha=1, beta=4) = {gronwall_constant(1.0, 4.0)}")

rep = twin_experiment(cfg, delta=1e-3)
print(f"\ndelta = {rep.delta:g}, {rep.times.size} samples")
print(f"{'t':>6} {'|w|':>12} {'lhs/rhs':>10}")
for i in range(0, rep.times.size, 4):
    print(f"{rep.times[i]:6.2f} {np.sqrt(rep.lhs[i]):12.6e} {rep.lhs[i] / rep.rhs[i]:10.4f}")
print(f"worst norm ratio {rep.ratio_max:.4f}")
print("\n".join(Certificate(rep.certificate.checks, []).lines()))  # its check lines and verdict

rep0 = twin_experiment(cfg, delta=0.0)
print("\ndelta = 0: the same start integrated twice")
print("\n".join(Certificate(rep0.certificate.checks, []).lines()))
raise SystemExit(0 if rep.passed and rep0.passed else 1)
