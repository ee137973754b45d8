"""bisloop benchmark: one workload, one seed, one line of JSON results.

    python3 perfbench/run.py --workload sweep|simulate|open_loop --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; bisloop is imported from its src/.  With
--trace 0 the workload's requests run back to back for S seconds, each output
is checked, and the end-to-end metrics of BENCHMARK.json are reported.  With
--trace 1 a fixed request set runs alternately traced and untraced for S
seconds and the per-layer metrics are reported.  The last line of stdout is
{"correct", "attempted", "failed", "metrics"}; the line before it holds the
run's provenance.  Spans and the full result go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import workloads
from tracer import Tracer

OUT = workloads.HERE / "out"
SETUP_RUNS = 15
LAYERS = {
    "patient": ("step_rk4", "hill_bis", "builtin_cohort"),
    "control": ("controller_step", "inverse_hill", "lp2_step"),
    "engine": ("run_closed_loop", "run_open_loop", "noise_sample", "disturbance_at"),
    "metrics": ("iae", "summarize", "tune_tf2"),
    "scenario_io": ("parse_scenario", "write_trajectory_csv"),
}
SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import bisloop, bisloop.cli
bisloop.builtin_cohort()
print(time.perf_counter() - t0)
"""


class Tally:
    """Attempted and failed requests; failures are reported, never re-drawn."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def request(self, wl, run, inputs):
        """Run one request; return (result, seconds) or None when it failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = run(inputs)
        except Exception:  # a failed request is counted, and the run goes on
            self._fail(traceback.format_exc())
            return None
        seconds = time.perf_counter() - t0
        problems = wl.problems(inputs, result)
        if problems:
            self._fail("; ".join(problems))
            return None
        return result, seconds

    def _fail(self, message: str):
        self.failed += 1
        if self.failed <= 3:
            print(f"perfbench: request {self.attempted} failed: {message}", file=sys.stderr)


def setup_seconds() -> float:
    """Seconds from import bisloop until builtin_cohort() returns, in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-E", "-c", SETUP_CODE, str(workloads.ROOT / "src")],
                          check=True, capture_output=True, text=True, timeout=120)
    return float(done.stdout)


def timed_run(wl, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Requests back to back for the given seconds, set-up samples spread among them.

    Spreading the set-up samples over the run makes their median see the
    same machine as the requests, not one moment of it.
    """
    setup_seconds()  # warm-up: the first interpreter may still write bytecode caches
    setup = []
    wl.set_up()
    latencies, steps = [], 0
    stream = wl.requests()
    start = time.perf_counter()
    while tally.attempted == 0 or time.perf_counter() - start < seconds:
        if len(setup) < SETUP_RUNS and time.perf_counter() - start >= len(setup) * seconds / SETUP_RUNS:
            setup.append(setup_seconds())
            continue
        inputs = next(stream)
        done = tally.request(wl, wl.run, inputs)
        if done is not None:
            latencies.append(done[1])
            steps += wl.steps(inputs)
    while len(setup) < SETUP_RUNS:
        setup.append(setup_seconds())
    ms = np.array(latencies or [0.0]) * 1e3  # all failed: correct is false anyway
    p90 = float(np.percentile(ms, 90))
    metrics = {
        "setup_s": statistics.median(setup),
        "steps_per_s": steps / sum(latencies) if latencies else 0.0,
        "request_ms_p50": float(np.median(ms)),
        "request_ms_p90": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {"latency_samples": len(latencies), "samples_beyond_p90": int((ms > p90).sum()),
              "setup_samples": len(setup), "steps": steps}
    return metrics, detail


def traced_run(wl, workload: str, seconds: float, tally: Tally) -> tuple[dict, dict, bool]:
    """Alternate traced and untraced passes over one fixed request set."""
    stream = wl.requests()
    request_set = [next(stream) for _ in range(wl.TRACED_REQUESTS)]
    tracer = Tracer()
    wrapper_cost = tracer.wrapper_cost()
    steps = sum(wl.steps(r) for r in request_set)

    def one_pass(traced: bool):
        t0 = time.perf_counter()
        csv_bytes = 0
        if traced:
            with tracer.installed("bisloop", LAYERS):
                run = tracer.wrap(wl.run, "request")
                tracer.set_request(-1)
                wl.set_up()
                for i, inputs in enumerate(request_set):
                    tracer.set_request(i)
                    done = tally.request(wl, run, inputs)
                    csv_bytes += wl.csv_bytes(done[0]) if done else 0
        else:
            wl.set_up()
            for inputs in request_set:
                tally.request(wl, wl.run, inputs)
        return time.perf_counter() - t0, csv_bytes

    traced_walls, plain_walls, totals, csv_sizes = [], [], [], []
    start = time.perf_counter()
    while len(traced_walls) < 2 or not plain_walls or time.perf_counter() - start < seconds:
        if len(plain_walls) < len(traced_walls):
            plain_walls.append(one_pass(False)[0])
            continue
        tracer.reset()
        wall, csv_bytes = one_pass(True)
        traced_walls.append(wall)
        csv_sizes.append(csv_bytes)
        totals.append(tracer.layer_totals())
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{workload}.npz")  # the last traced pass

    counts_repeat = (all(_calls(t_) == _calls(totals[0]) for t_ in totals)
                     and len(set(csv_sizes)) == 1)
    metrics = {}
    for module, functions in LAYERS.items():
        for fn in functions:
            stem = f"{module}.{fn}"
            metrics[f"{stem}.calls"] = totals[0].get(stem, (0, 0.0))[0]
            metrics[f"{stem}.self_s"] = statistics.median(t_.get(stem, (0, 0.0))[1] for t_ in totals)
    rk4_per_step = metrics["patient.step_rk4.calls"] / steps
    open_loop = wl.RK4_PER_STEP == 1  # no controller, so no model steps
    identities = (rk4_per_step == wl.RK4_PER_STEP
                  and (not open_loop or metrics["control.controller_step.calls"] == 0))
    metrics.update({
        "engine.steps": steps,
        "scenario_io.csv_bytes": csv_sizes[0],
        "trace.overhead_ratio": statistics.median(traced_walls) / statistics.median(plain_walls),
        "trace.wrapper_cost_us": wrapper_cost * 1e6,
        "trace.rk4_calls_per_step": rk4_per_step,
        "trace.identities_hold": int(identities),
    })
    detail = {"traced_passes": len(traced_walls), "untraced_passes": len(plain_walls),
              "requests_per_pass": len(request_set), "calls_repeat_exactly": counts_repeat,
              "absent_layers": tracer.absent, "spans_per_pass": sum(c for c, _ in totals[0].values())}
    return metrics, detail, counts_repeat


def _calls(totals: dict) -> dict:
    return {name: calls for name, (calls, _) in totals.items()}


def provenance(bl, args, detail: dict, tally: Tally) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None
    if (workloads.ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(workloads.ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((workloads.ROOT / "src" / "bisloop").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "workers": 1, "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "bisloop": bl.__version__, "git_commit": commit, "src_sha256": digest.hexdigest(),
            "attempted": tally.attempted, "failed": tally.failed,
            "error_rate": tally.failed / max(tally.attempted, 1), **detail}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)

    bl = workloads.import_bisloop()
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    wl = workloads.make(args.workload, bl, args.seed)
    tally = Tally()
    if args.trace:
        values, detail, correct = traced_run(wl, args.workload, args.seconds, tally)
    else:
        values, detail = timed_run(wl, args.seconds, tally)
        correct = True
    if set(values) != {m["name"] for m in wanted}:
        raise SystemExit(f"perfbench: metrics {sorted(values)} do not match BENCHMARK.json")
    result = {"correct": correct and tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    prov = provenance(bl, args, detail, tally)
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"provenance": prov, **result}, indent=1) + "\n")
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
