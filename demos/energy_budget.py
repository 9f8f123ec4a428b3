"""Run a damped Taylor-Green vortex, audit its energy ledger, then prove a
checkpoint restart is indistinguishable from the continuous run."""

import os
import tempfile

from nsdamp import (
    Certificate,
    PhysParams,
    SeriesRecorder,
    StepperConfig,
    check_energy_inequality,
    l2_norm,
    make_grid,
    read_checkpoint,
    run,
    taylor_green,
    write_checkpoint,
    write_series_csv,
)


def main():
    grid = make_grid(16, 2.0 * 3.141592653589793)
    params = PhysParams(nu=0.5, alpha=1.0, beta=4.0)
    cfg = StepperConfig(dt=2e-3)
    u0 = taylor_green(grid)

    rec = SeriesRecorder()
    snaps = run(u0, params, cfg, 1.0, output_every=0.05, hooks=(rec,))

    # Every snapshot must satisfy
    #   |u(t)|^2 + 2 nu int |grad u|^2 + 2 alpha int int |u|^(beta+1) = |u0|^2
    # up to the stepper's quadrature error.
    report = check_energy_inequality(rec.energy, tol=1e-6)
    budget = Certificate([report.check], [f"worst energy residual at t = {report.worst_t:g}"])
    print("\n".join(budget.lines()))
    print(f"{'t':>6} {'energy':>12} {'viscous':>12} {'damped':>12} {'residual':>10}")
    for r in rec.energy[::4]:
        print(f"{r.t:6.2f} {r.l2_sq:12.6f} {r.cum_visc:12.6f} {r.cum_damp:12.6f} {r.residual:10.2e}")

    out = os.path.join(tempfile.mkdtemp(prefix="nsdamp-demo-"), "series.csv")
    write_series_csv(out, rec.energy, rec.decay)
    print(f"full series written to {out}")

    # Restart: checkpoint the halfway state and integrate the remaining half.
    mid = snaps[len(snaps) // 2]
    ckpt = os.path.join(os.path.dirname(out), "mid.ckpt")
    write_checkpoint(mid, ckpt)
    resumed = read_checkpoint(ckpt)
    tail = run(resumed.u, resumed.params, cfg, 1.0, t_start=resumed.t, output_every=0.05)
    drift = l2_norm(tail[-1].u - snaps[-1].u) / l2_norm(snaps[-1].u)
    print(f"restart at t = {mid.t:g}: relative drift at t = 1 is {drift:.3e}")
    return 0 if budget.passed and drift <= 1e-12 else 1


if __name__ == "__main__":
    raise SystemExit(main())
