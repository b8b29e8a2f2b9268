"""nlslab benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload spectral --seed 0 --seconds 60 --trace 0

Run from the root of a checkout that holds ``src/nlslab``.  Each iteration
is a fresh interpreter (``worker.py``) that imports nlslab, writes the
workload's inputs and runs its CLI commands through ``cli_dispatch``;
iterations repeat while another one fits in ``--seconds``.  The outputs
of every iteration are checked (``checks.py``).

``--trace 0`` reports the end-to-end metrics: medians over iterations of
``wall_s``, ``setup_s`` and ``peak_rss_mb``; set-up is also sampled by
extra interpreters that stop after set-up.  ``--trace 1`` alternates
untraced and traced iterations and reports the per-layer metrics of the
traced ones, plus the tracing overhead.  The last line of standard output
is the JSON result; the line before it holds the run metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans as spanlib  # noqa: E402
import workloads  # noqa: E402

WORK_ROOT = ROOT / ".perfbench_work"
OUT_ROOT = ROOT / ".perfbench_out"
SECONDS = 60.0  # run_seconds of BENCHMARK.json
SETUP_PROBES = 3
RUN_LIMIT_S = 170.0  # every run must end within 180 s

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def blas_threads() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def child_env() -> dict:
    """The run process's environment: BLAS threads pinned, no NLSLAB_* keys."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("NLSLAB_")}
    threads = str(blas_threads())
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = threads
    return env


def run_worker(workload: str, seed: int, work_dir: Path, mode: str,
               deadline: float) -> dict | None:
    """One fresh interpreter; its result, or None if it failed or timed out."""
    work_dir.mkdir(parents=True)
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--dir", str(work_dir), "--mode", mode]
    log = work_dir / "worker.log"
    started = time.monotonic()
    try:
        with open(log, "wb") as fh:
            proc = subprocess.run(argv, env=child_env(), stdout=fh, stderr=fh,
                                  timeout=max(deadline - started, 1.0))
    except subprocess.TimeoutExpired:
        print(f"# {mode} iteration timed out", file=sys.stderr)
        return None
    result_file = work_dir / "result.json"
    if proc.returncode != 0 or not result_file.exists():
        tail = log.read_text(errors="replace")[-2000:]
        print(f"# {mode} iteration failed (exit {proc.returncode}):\n{tail}",
              file=sys.stderr)
        return None
    result = json.loads(result_file.read_text())
    result["setup_s"] = result["setup_done"] - started
    result["elapsed_s"] = time.monotonic() - started
    if "first_start" in result:
        result["wall_s"] = result["last_end"] - result["first_start"]
    return result


def require_sources() -> bool:
    """True when the checkout holds the nlslab sources; else says so."""
    if (ROOT / "src" / "nlslab" / "__init__.py").is_file():
        return True
    print(f"error: no nlslab sources under {ROOT / 'src'}; run from a "
          "checkout of the repository", file=sys.stderr)
    return False


def src_lines() -> int:
    return sum(len(f.read_text(encoding="utf-8").splitlines())
               for f in sorted((ROOT / "src" / "nlslab").glob("*.py")))


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class Run:
    """Iterations of one workload at one seed, with their checks."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed = workload, seed
        self.seconds, self.trace = seconds, trace
        self.reference = checks.load_reference()
        self.dir = WORK_ROOT / f"{workload}-{seed}-{os.getpid()}"
        self.started = time.monotonic()
        self.deadline = self.started + RUN_LIMIT_S
        self.count = 0
        self.setups: list[float] = []
        self.iterations: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.metadata: dict = {}

    def _next_dir(self) -> Path:
        self.count += 1
        return self.dir / f"it{self.count:03d}"

    def record(self, results: list) -> None:
        for name, ok in results:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.failures.append(name)

    def probe_setup(self) -> None:
        for _ in range(SETUP_PROBES):
            work = self._next_dir()
            res = run_worker(self.workload, self.seed, work, "probe", self.deadline)
            self.record([("probe:ok", res is not None)])
            if res is not None:
                self.setups.append(res["setup_s"])
                self.metadata = res["metadata"]
            shutil.rmtree(work)

    def iterate(self, mode: str) -> dict | None:
        work = self._next_dir()
        res = run_worker(self.workload, self.seed, work, mode, self.deadline)
        ran = res["exit_codes"] if res is not None else []
        self.record(checks.check_iteration(self.workload, self.seed, work, ran,
                                            self.reference))
        if res is not None:
            res["mode"] = mode
            self.setups.append(res["setup_s"])
            if mode == "trace" and all(rc == 0 for rc in ran):
                res["spans"] = json.loads((work / "spans.json").read_text())
                res["csv_identical"] = checks.csv_identical(
                    self.workload, self.seed, work, self.reference)
                res["outputs_mb"] = sum(
                    f.stat().st_size for f in (work / "out").rglob("*")
                    if f.is_file()) / 1e6
            self.iterations.append(res)
        shutil.rmtree(work)
        return res

    def fits(self) -> bool:
        """Another iteration fits in the measured seconds; a run without
        tracing makes at least two, so that its median has two samples."""
        done = [r["elapsed_s"] for r in self.iterations]
        if not self.trace and len(done) < 2:
            return True
        return time.monotonic() - self.started + statistics.median(done) <= self.seconds

    def measure(self) -> None:
        try:
            self.probe_setup()
            modes = ("run", "trace") if self.trace else ("run",)
            while True:
                for mode in modes:
                    if self.iterate(mode) is None:
                        return
                if not self.fits():
                    return
        finally:
            shutil.rmtree(self.dir, ignore_errors=True)
            try:
                WORK_ROOT.rmdir()
            except OSError:
                pass

    def of_mode(self, mode: str) -> list[dict]:
        return [r for r in self.iterations if r["mode"] == mode]


def end_to_end_metrics(run: Run) -> dict:
    its = run.of_mode("run")
    values = {"wall_s": [r["wall_s"] for r in its], "setup_s": run.setups,
              "peak_rss_mb": [r["peak_rss_mb"] for r in its]}
    return {name: {"value": statistics.median(values[name]), "unit": unit,
                   "samples": values[name]}
            for name, unit in END_TO_END.items() if values[name]}


def per_layer_metrics(run: Run) -> dict:
    """Times are medians over traced iterations; counts, which must repeat
    exactly, come from the first."""
    traced = [r for r in run.of_mode("trace") if "spans" in r]
    untraced = run.of_mode("run")
    if not traced or not untraced:
        return {}
    layers = [spanlib.layer_metrics(r["spans"]) for r in traced]
    units = per_layer_units()
    metrics = {}
    for key, unit in units.items():
        if key in layers[0]:
            value = (statistics.median(m[key] for m in layers) if unit == "s"
                     else layers[0][key])
            metrics[key] = {"value": value, "unit": unit}
    if len(layers) > 1:
        run.record([(f"counts_repeat:{name}",
                     all(m[name] == layers[0][name] for m in layers))
                    for name in spanlib.COUNTS
                    + tuple(f"{n}.calls" for n in spanlib.LAYER_NAMES)])
    stepped = layers[0]["evolve.step_values.nodes"]
    us_per_node = [m["evolve.step_values.s"] * 1e6 / stepped if stepped else 0.0
                   for m in layers]
    extra = {
        "evolve.step_values.us_per_node": statistics.median(us_per_node),
        "cli.outputs.mb": statistics.median(r["outputs_mb"] for r in traced),
        "process.cpu_s": statistics.median(r["cpu_s"] for r in traced),
        "process.blas_threads": blas_threads(),
        "src.lines": src_lines(),
        "csv.identical": traced[0]["csv_identical"],
        "trace.overhead_s": statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in untraced),
    }
    for key, value in extra.items():
        metrics[key] = {"value": value, "unit": units[key]}
    return metrics


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in BENCHMARK.json order."""
    units = {}
    for name in spanlib.LAYER_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update({
        "ground.solve_ground.nodes": "count",
        "evolve.step_values.us_per_node": "us",
        "evolve.samples": "count",
        "evolve.dt_halvings": "count",
        "grid.write_field_csv.mb": "MB",
        "grid.read_field_csv.mb": "MB",
        "cli.outputs.mb": "MB",
        "process.cpu_s": "s",
        "process.blas_threads": "count",
        "src.lines": "count",
        "csv.identical": "count",
        "trace.overhead_s": "s",
    })
    return units


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (result line, metadata, metrics)."""
    run = Run(workload, seed, seconds, trace)
    run.measure()
    metrics = per_layer_metrics(run) if trace else end_to_end_metrics(run)
    wanted = per_layer_units() if trace else END_TO_END
    if set(metrics) != set(wanted):
        run.record([("metrics_complete", False)])
    metadata = dict(run.metadata, workload=workload, seed=seed,
                    blas_threads=blas_threads(),
                    nproc=len(os.sched_getaffinity(0)), git_commit=git_commit(),
                    src_lines=src_lines(),
                    iterations=len(run.iterations), setup_samples=len(run.setups),
                    fail_ratio=run.failed / run.attempted,
                    failures=run.failures[:20])
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                          for k, v in metrics.items()}}
    return result, metadata, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SystemExit inside subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not require_sources():
        return 2
    result, metadata, metrics = measure(args.workload, args.seed, args.seconds,
                                        bool(args.trace))
    OUT_ROOT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_ROOT / f"{tag}.json").write_text(
        json.dumps({"metadata": metadata, "metrics": metrics}, indent=1))
    for name, m in metrics.items():
        samples = f"  n={len(m['samples'])}" if "samples" in m else ""
        print(f"# {name} = {m['value']:.6g} {m['unit']}{samples}")
    print(json.dumps({"metadata": metadata}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
