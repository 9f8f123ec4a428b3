"""nsdamp benchmark: time to certificate, set-up time, memory and per-layer spans.

    python3 perfbench/run.py --workload run-n64 --seed 1 --seconds 42 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 42

Load shape: a closed loop with one client.  Repetitions run one after
another, each in a fresh child interpreter (perfbench/child.py), because
every command-line call of nsdamp pays its imports, cold transform set-up
and its own memory peak.  No workload uses the package's thread pool.

--trace 0 measures the end-to-end metrics with the package unmodified.
The gated time is wall_rel, the driver's wall time divided by a fixed
reference kernel timed in the same child just before and after it; the
raw wall_s is printed beside it.
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones, plus trace.overhead_s, the traced
driver span minus the untraced driver time (medians).  --workload all runs
both passes on every workload and prints every table.

The metric names and units come from BENCHMARK.json.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Exit code 2, and no result, when the checkout holds no nsdamp sources.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

#: a run makes at least this many driver repetitions, even past --seconds
MIN_REPS = 3
#: the traced pass makes at least this many (untraced, traced) pairs
MIN_TRACED_PAIRS = 2
#: extra set-up-only children per untraced run, so setup_s is a median of several
SETUP_PROBES = 3
#: a child that takes longer than this is killed and counted as failed
CHILD_TIMEOUT_S = 150

#: per-layer numbers measured at set-up, in every repetition
SETUP_LAYERS = ("nsdamp.import_s", "config.build_s", "initial_conditions.build_s")
#: printed with the end-to-end metrics but not gated: the raw driver time
#: and the reference kernel time whose ratio is wall_rel
UNGATED = {"wall_s": "s", "reference_s": "s"}


def environment() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}-{kind}"] = size
    revision = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        if proc.returncode == 0:
            revision = proc.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_caches": caches,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "git_revision": revision,
        "NSD_THREADS": os.environ.get("NSD_THREADS", "unset"),
    }


class Runner:
    """Spawns the children of one pass and checks their outputs agree."""

    def __init__(self, workload: str, seed: int, work_dir: Path):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.digest = None
        self.errors: list[str] = []

    def spawn(self, *flags: str, counted: bool = True) -> dict:
        """One child; returns its result with setup_s added, or ok=False."""
        out = self.work_dir / f"child{self.count:03d}"
        self.count += 1
        out.mkdir(parents=True)
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--out", str(out), *flags]
        t_spawn = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            status = proc.returncode
            stderr = proc.stderr
        except subprocess.TimeoutExpired:
            status, stderr = None, f"killed after {CHILD_TIMEOUT_S} s"
        result_path = out / "result.json"
        if status == 0 and result_path.exists():
            result = json.loads(result_path.read_text())
        else:
            result = {"ok": False, "error": f"exit status {status}: {stderr[-2000:]}"}
        result["elapsed_s"] = time.perf_counter() - t_spawn
        if result["ok"]:
            result["setup_s"] = result["setup"]["ready"] - t_spawn
            digest = result.get("digest")
            if digest is not None:
                if self.digest is None:
                    self.digest = digest
                elif digest != self.digest:
                    result["ok"] = False
                    result["error"] = "outputs differ bitwise from the first repetition"
        if counted:
            self.attempted += 1
            if not result["ok"]:
                self.failed += 1
                self.errors.append(result["error"].strip().splitlines()[-1])
        return result


def _median(values):
    return statistics.median(values) if values else 0.0


def run_pass(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One measured run: returns attempted/failed counts and metric samples."""
    work_dir = WORK / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work_dir, ignore_errors=True)
    runner = Runner(workload, seed, work_dir)
    t_begin = time.perf_counter()
    runner.spawn("--setup-only", counted=False)  # warm the page cache and bytecode

    samples: dict[str, list[float]] = {}

    def add(name, value):
        samples.setdefault(name, []).append(value)

    def add_setup(result):
        add("setup_s", result["setup_s"])
        for name in SETUP_LAYERS:
            add(name, result["setup"][name])

    if not trace:
        for _ in range(SETUP_PROBES):
            result = runner.spawn("--setup-only")
            if result["ok"]:
                add_setup(result)
    durations = []
    untraced_walls, traced_walls = [], []
    while True:
        traced = trace and len(durations) % 2 == 1
        result = runner.spawn(*(["--trace"] if traced else []))
        durations.append(result["elapsed_s"])
        if result["ok"]:
            add_setup(result)
            if traced:
                layers = result["layers"]
                traced_walls.append(layers.pop("trace.driver_s"))
                for name, value in layers.items():
                    add(name, value)
            else:
                untraced_walls.append(result["wall_s"])
                for name in ("wall_rel", "wall_s", "reference_s", "peak_rss_mb", "energy_digits"):
                    add(name, result[name])
        n_min = 2 * MIN_TRACED_PAIRS if trace else MIN_REPS
        elapsed = time.perf_counter() - t_begin
        if len(durations) >= n_min and elapsed + _median(durations) > seconds:
            break
    if trace:
        add("trace.overhead_s", _median(traced_walls) - _median(untraced_walls))
    return {
        "workload": workload,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "errors": runner.errors,
        "samples": samples,
    }


def summarize(run: dict, names: dict[str, str]) -> dict:
    """Median of every metric in names, in the contract's result format."""
    metrics = {}
    for name, unit in names.items():
        values = run["samples"].get(name, [])
        metrics[name] = {"value": _median(values), "unit": unit}
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }


def print_table(run: dict, names: dict[str, str]) -> None:
    print(f"# {run['workload']}: {run['attempted']} attempted, {run['failed']} failed, "
          f"fail_frac = {run['failed'] / max(run['attempted'], 1):.3f}")
    print(f"{'metric':34} {'median':>14} {'unit':8} {'n':>3} {'min':>14} {'max':>14}")
    for name, unit in names.items():
        values = run["samples"].get(name, [])
        if values:
            print(f"{name:34} {_median(values):14.6g} {unit:8} {len(values):3d} "
                  f"{min(values):14.6g} {max(values):14.6g}")
        else:
            print(f"{name:34} {'-':>14} {unit:8} {0:3d}")
    for error in run["errors"]:
        print(f"  failure: {error}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "nsdamp" / "__init__.py").is_file():
        print(f"no nsdamp sources under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    print("environment " + json.dumps(environment()))
    if args.workload == "all":
        passes = [(name, trace) for name in WORKLOADS for trace in (False, True)]
    else:
        passes = [(args.workload, bool(args.trace))]
    results = {}
    for name, trace in passes:
        names = per_layer if trace else end_to_end
        run = run_pass(name, args.seed, args.seconds, trace)
        print_table(run, names if trace else {**names, **UNGATED})
        missing = [metric for metric in names if not run["samples"].get(metric)]
        if missing and run["failed"] == 0:
            print(f"BENCHMARK.json names metrics the children did not report: {missing}",
                  file=sys.stderr)
            return 1
        results[f"{name}/trace{int(trace)}"] = summarize(run, names)
    print(json.dumps(results if args.workload == "all" else results.popitem()[1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
