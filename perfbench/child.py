"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --out DIR [--setup-only] [--trace]

Imports nsdamp from the checkout's ``src/``, builds the workload's config and
initial field (the set-up), calls the workload's public driver once, checks
its outputs and writes ``DIR/result.json``.  ``--setup-only`` stops after the
set-up.  ``--trace`` first replaces the module attributes the drivers look
up with span-recording wrappers, and after the driver returns it times the
public operators on a mid-run state of the workload; without it the
package runs unmodified.
"""

import argparse
import hashlib
import inspect
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from spans import SpanRecorder, self_times
from workloads import WORKLOADS, config_values, ic_seed

ROOT = Path(__file__).resolve().parent.parent

#: energy_digits of a workload that keeps no energy ledger: the float64
#: resolution, i.e. nothing lost.
FLOAT64_DIGITS = 52 * math.log10(2.0)

#: grid size of the reference kernel for a workload without a grid
REFERENCE_MODES = 32

SUITES = ("monotonicity_suite", "young_suite", "gronwall_suite",
          "interpolation_suite", "product_law_suite")
HOOKS = ("ledger.record_energy", "ledger.decay_snapshot")
#: what probe_kernels reports; 0 on a workload with no solver state
PROBES = ("dynamics.tendency_ms", "dynamics.advection_ms", "dynamics.damping_ms",
          "spectral.to_physical_ms", "spectral.to_spectral_ms", "spectral.leray_project_ms",
          "spectral.fft_flops", "spectral.fft_bytes", "spectral.useful_coeff_frac")


def setup(workload, seed):
    """Import nsdamp, build the config and the initial field; time each part."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import nsdamp

    t_import = time.perf_counter()
    if Path(nsdamp.__file__).resolve().parent != (src / "nsdamp").resolve():
        raise RuntimeError(f"imported nsdamp from {nsdamp.__file__}, not from {src}")
    cfg = None
    if workload.config is not None:
        cfg = nsdamp.config_from_mapping(config_values(workload, seed))
    t_config = time.perf_counter()
    if cfg is not None:
        nsdamp.build_initial(cfg)
    t_ready = time.perf_counter()
    timings = {
        "ready": t_ready,
        "nsdamp.import_s": t_import - t0,
        "config.build_s": t_config - t_import,
        "initial_conditions.build_s": t_ready - t_config,
    }
    return cfg, timings


def install_wrappers(tracer, mid_states):
    """Wrap the public functions the drivers call; keep each run's mid-run state."""
    from nsdamp import experiments, inequalities, ledger

    run_signature = inspect.signature(experiments.run)

    def describe_run(args, kwargs, snapshots):
        call = run_signature.bind(*args, **kwargs)
        call.apply_defaults()
        a = call.arguments
        mid_states.append(snapshots[len(snapshots) // 2])
        return {
            "steps": round((a["t_end"] - a["t_start"]) / a["cfg"].dt),
            "snapshots": len(snapshots),
            "snapshot_bytes": snapshots[-1].u.coeffs.nbytes,
        }

    tracer.wrap(experiments, "run", "dynamics", describe_run)
    tracer.wrap(experiments, "write_checkpoint", "checkpoint")
    tracer.wrap(experiments, "write_series_csv", "ledger")
    tracer.wrap(ledger, "decay_snapshot", "ledger")
    tracer.wrap(ledger, "record_energy", "ledger")
    for suite in SUITES:
        tracer.wrap(inequalities, suite, "inequalities", lambda a, k, row: {"samples": row.samples})


def call_driver(workload, seed, cfg, out_dir, tracer):
    from nsdamp import experiments, inequalities

    if workload.driver == "run":
        name, fn, args = "experiments.run_experiment", experiments.run_experiment, (cfg, str(out_dir))
    else:
        name, fn, args = "inequalities.verify_suite", inequalities.verify_suite, (ic_seed(seed), False)
    t0 = time.perf_counter()
    if tracer is None:
        result = fn(*args)
    else:
        _, result = tracer.call(name, fn, *args)
    return result, time.perf_counter() - t0


def check_outputs(workload, result, out_dir):
    """(verdict and checks pass, output digest, extra measurements)."""
    extra = {"energy_digits": FLOAT64_DIGITS}
    if workload.driver == "run":
        from nsdamp import read_checkpoint

        final = result.snapshots[-1]
        ckpt = out_dir / "final.ckpt"
        t0 = time.perf_counter()
        state = read_checkpoint(ckpt)
        extra["checkpoint.read_s"] = time.perf_counter() - t0
        extra["checkpoint.bytes"] = ckpt.stat().st_size
        csv = (out_dir / "series.csv").read_bytes()
        extra["ledger.csv_bytes"] = len(csv)
        ckpt.unlink()
        coeffs = final.u.coeffs.tobytes()
        same = state.t == final.t and state.u.coeffs.tobytes() == coeffs
        energy = result.recorder.energy
        worst = max(abs(r.residual) for r in energy) / (abs(energy[0].baseline) or 1.0)
        extra["energy_digits"] = -math.log10(max(worst, 2.0**-52))
        return result.passed and same, hashlib.sha256(coeffs + csv).hexdigest(), extra
    rows = json.dumps([(r.name, r.samples, r.worst.hex(), r.passed) for r in result])
    return all(r.passed for r in result), hashlib.sha256(rows.encode()).hexdigest(), extra


def reference_s(n_modes, min_rounds=3, min_seconds=0.15):
    """Median time of a fixed NumPy/SciPy kernel: the machine's current speed.

    The machine this benchmark was tuned on runs the same code up to 40%
    slower for minutes at a time; a kernel timed next to the driver call
    slows with it, so their ratio is steadier than the raw time.  The
    kernel transforms a (3, N, N, N) array at the workload's grid size, so
    its working set meets the same caches, and it uses no nsdamp code, so no
    change to the package can move it.
    """
    import numpy as np
    import scipy.fft as fft

    rng = np.random.default_rng(0)
    field = rng.standard_normal((3, n_modes, n_modes, n_modes))
    values = rng.random(100_000)
    times = []
    t_begin = time.perf_counter()
    while len(times) < min_rounds or time.perf_counter() - t_begin < min_seconds:
        t0 = time.perf_counter()
        fft.ifftn(fft.fftn(field, axes=(1, 2, 3)), axes=(1, 2, 3))
        np.sort(np.exp(values) ** 1.5)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _median_call_ms(fn, min_calls=3, min_seconds=0.25):
    fn()  # warm: first call pays allocation and transform set-up
    times = []
    t_begin = time.perf_counter()
    while len(times) < min_calls or time.perf_counter() - t_begin < min_seconds:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def probe_kernels(state):
    """Time the public operators on one state; add computed FFT work per step."""
    from nsdamp import (advection, damping, leray_project, tendency, to_physical,
                        to_spectral)

    u, p, grid = state.u, state.params, state.grid
    samples = to_physical(u)
    out = {
        "dynamics.tendency_ms": _median_call_ms(lambda: tendency(state)),
        "dynamics.advection_ms": _median_call_ms(lambda: advection(u)),
        "dynamics.damping_ms": _median_call_ms(lambda: damping(u, p.alpha, p.beta)),
        "spectral.to_physical_ms": _median_call_ms(lambda: to_physical(u)),
        "spectral.to_spectral_ms": _median_call_ms(lambda: to_spectral(samples, grid)),
        "spectral.leray_project_ms": _median_call_ms(lambda: leray_project(u)),
    }
    # One IF-RK4 step = 4 right-hand sides; each inverse-transforms the 3
    # velocity components and forward-transforms 6 stress blocks (+3 damping
    # blocks when alpha > 0), every one a complex N^3 transform.  Nominal
    # 5 n log2 n flops per transform; bytes are one read and one write of
    # the complex128 array, i.e. computed, not measured.
    cube = grid.n_modes**3
    transforms = 4 * (3 + 6 + (3 if p.alpha > 0.0 else 0))
    out["spectral.fft_flops"] = transforms * 5.0 * cube * math.log2(cube)
    out["spectral.fft_bytes"] = transforms * 2 * 16 * cube
    out["spectral.useful_coeff_frac"] = float(grid.ball_mask.sum()) / grid.ball_mask.size
    return out


def _nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(spans):
    """Per-layer numbers of one traced repetition, from its spans.

    Also returns the accounting gap of self_times: nonzero when a span does
    not nest in its parent, so the layer self times would not add up to the
    driver span.
    """
    selfs, gap = self_times(spans)
    driver_s = spans[0].duration

    def named(name):
        return [s for s in spans if s.name == name]

    def total(*names):
        return sum(s.duration for n in names for s in named(n))

    def median_ms(name):
        durations = [s.duration for s in named(name)]
        return 1e3 * statistics.median(durations) if durations else 0.0

    runs = [i for i, s in enumerate(spans) if s.name == "dynamics.run"]
    steps = sum(spans[i].meta["steps"] for i in runs)
    run_self = sum(selfs[i] for i in runs)
    gaps = []
    for i in runs:
        # one hook call = record_energy (after the first snapshot) then decay_snapshot
        calls, current = [], None
        for h in sorted((s for s in spans if s.parent == i and s.name in HOOKS), key=lambda s: s.start):
            current = [h.start, h.end] if current is None else [current[0], h.end]
            if h.name == "ledger.decay_snapshot":
                calls.append(current)
                current = None
        gaps += [b[0] - a[1] for a, b in zip(calls, calls[1:])]

    suite_s = total(*(f"inequalities.{s}" for s in SUITES))
    samples = sum(s.meta["samples"] for n in SUITES for s in named(f"inequalities.{n}"))
    out = {
        "trace.driver_s": driver_s,
        "dynamics.run_self_s": run_self,
        "dynamics.steps": steps,
        "dynamics.step_ms": 1e3 * run_self / steps if steps else 0.0,
        "dynamics.step_gap_p50_ms": 1e3 * statistics.median(gaps) if gaps else 0.0,
        "dynamics.step_gap_p90_ms": 1e3 * _nearest_rank(gaps, 0.9) if gaps else 0.0,
        "dynamics.snapshots": sum(spans[i].meta["snapshots"] for i in runs),
        "dynamics.snapshot_mb": sum(
            spans[i].meta["snapshots"] * spans[i].meta["snapshot_bytes"] for i in runs
        ) / 2**20,
        "ledger.hook_calls": len(named("ledger.decay_snapshot")),
        "ledger.decay_snapshot_ms": median_ms("ledger.decay_snapshot"),
        "ledger.record_energy_ms": median_ms("ledger.record_energy"),
        "ledger.hook_share": total(*HOOKS) / driver_s,
        "ledger.write_series_csv_s": total("ledger.write_series_csv"),
        "checkpoint.write_s": total("checkpoint.write_checkpoint"),
        "experiments.self_s": sum(sf for s, sf in zip(spans, selfs) if s.layer == "experiments"),
        "inequalities.samples_per_s": samples / suite_s if suite_s else 0.0,
    }
    for suite in SUITES:
        out[f"inequalities.{suite}_s"] = total(f"inequalities.{suite}")
    return out, gap


def repetition(args):
    workload = WORKLOADS[args.workload]
    out_dir = Path(args.out)
    cfg, timings = setup(workload, args.seed)
    result = {"ok": True, "setup": timings}
    if args.setup_only:
        return result

    tracer, mid_states = None, []
    if args.trace:
        tracer = SpanRecorder()
        install_wrappers(tracer, mid_states)
    n_modes = cfg.n_modes if cfg is not None else REFERENCE_MODES
    before = reference_s(n_modes)
    driver_result, wall = call_driver(workload, args.seed, cfg, out_dir, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reference = 0.5 * (before + reference_s(n_modes))
    result.update(wall_s=wall, reference_s=reference, wall_rel=wall / reference,
                  peak_rss_mb=peak_rss_mb)
    ok, digest, extra = check_outputs(workload, driver_result, out_dir)
    result.update(ok=ok, digest=digest, energy_digits=extra.pop("energy_digits"))
    if not ok:
        result["error"] = "driver verdict or checkpoint round trip failed"
    if tracer is not None:
        del driver_result  # release the snapshot lists before probing
        tracer.dump(out_dir / "spans.json")
        layers, gap = layer_metrics(tracer.spans)
        if abs(gap) > 1e-9 * layers["trace.driver_s"]:
            result.update(ok=False, error=f"layer self times miss the driver span by {gap:.3e} s")
        layers.update({"checkpoint.read_s": 0.0, "checkpoint.bytes": 0, "ledger.csv_bytes": 0,
                       **extra})
        layers.update(probe_kernels(mid_states[0]) if mid_states else dict.fromkeys(PROBES, 0.0))
        result["layers"] = layers
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    try:
        result = repetition(args)
    except Exception:  # report the repetition as failed, with its traceback
        result = {"ok": False, "error": traceback.format_exc()}
    with open(Path(args.out) / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
