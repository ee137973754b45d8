"""Workload inputs, requests and output checks for the bisloop benchmark.

Each workload turns a seed into an endless, deterministic stream of request
inputs, runs one request through bisloop's public functions, and checks the
outputs.  Calls go through module attributes (``bl.engine.run_closed_loop``,
not a name bound at import), so the tracer's wrappers see them.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# The trajectory header pinned by README.md, kept here so that a change to
# the program's own constant cannot make the check pass by itself.
TRAJECTORY_CSV_HEADER = ("t_min,bis_true,bis_measured,bis_filtered,u_mg_min,"
                         "c1,c2,c3,ce_true,ce_model,i_t,ce_ref")
U_MAX = 200.0                 # controller default pump limit, mg/min
H_MIN = 1.0 / 60.0            # default step, min
IAE_REL_TOL = 1e-4            # see map.json "checks.reference"
OPEN_LOOP_REL_TOL = 1e-4
D_ABS_TOL = 2e-4
MONOTONE_TOL = 1e-6           # criterion 7


def import_bisloop():
    """Import bisloop from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "bisloop" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no bisloop sources under {src}")
    sys.path.insert(0, str(src))
    import bisloop
    import bisloop.cli  # noqa: F401  (loads every module the CLI uses)
    if Path(bisloop.__file__).resolve().parent != src / "bisloop":
        raise SystemExit(f"perfbench: imported bisloop from {bisloop.__file__}, not {src}")
    return bisloop


def n_steps(duration: float, h: float = H_MIN) -> int:
    """Steps of a run, as the engine counts them: a final partial step is dropped."""
    return int(duration / h + 1e-9)


def load_json(name: str):
    return json.loads((HERE / name).read_text())


def _close(value: float, ref: float, rel: float) -> bool:
    return abs(value - ref) <= rel * abs(ref)


def _in_range(values, lo: float, hi: float) -> bool:
    return all(lo <= v <= hi for v in values)  # False on NaN


def _csv_problems(csv: str, steps: int) -> list[str]:
    out = []
    if not csv.startswith(TRAJECTORY_CSV_HEADER + "\n"):
        out.append(f"CSV header is {csv.split(chr(10), 1)[0]!r}")
    rows = csv.count("\n") - 1
    if rows != steps:
        out.append(f"CSV has {rows} rows for {steps} steps")
    return out


class _Workload:
    """A seed, the bisloop package, and the cohort set up before timing.

    TRACED_REQUESTS is the size of the fixed request set of a traced run;
    RK4_PER_STEP is how many step_rk4 calls one simulated step makes at the
    commit that defined the benchmark (plant, plus the controller's model).
    """

    TRACED_REQUESTS = 8
    RK4_PER_STEP = 2

    def __init__(self, bl, seed: int):
        self.bl = bl
        self.seed = seed
        self.patients = {}

    def set_up(self):
        """Untimed set-up before the requests: the built-in cohort by id."""
        self.patients = {p.id: p for p in self.bl.patient.builtin_cohort()}


class Sweep(_Workload):
    """tune_tf2 over tf2 = 0 plus k seed-chosen criterion-7 grid points."""

    TRACED_REQUESTS = 1

    def __init__(self, bl, seed: int, gen: dict, reference: dict):
        super().__init__(bl, seed)
        self.gen = gen
        self.d_ref = dict(zip(reference["grid"], reference["d"]))

    def requests(self):
        rng = random.Random(self.seed)
        g = self.gen
        while True:
            points = sorted(rng.sample(range(1, g["n_points"] + 1), g["k"]))
            yield [0.0] + [round(g["step_min"] * i, 10) for i in points]

    def run(self, grid):
        return self.bl.metrics.tune_tf2(grid, threshold=self.gen["threshold"], workers=1)

    def steps(self, grid) -> int:
        g = self.gen
        runs = (len(grid) + 1) * g["cohort_size"]   # baseline pass plus one per point
        return runs * n_steps(g["tuning_duration_min"], g["h_min"])

    def csv_bytes(self, result) -> int:
        return 0

    def problems(self, grid, result) -> list[str]:
        d = list(result.d_values)
        if len(d) != len(grid):
            return [f"{len(d)} d-values for {len(grid)} grid points"]
        out = []
        if d[0] != 0.0:
            out.append(f"d(0) = {d[0]!r}, not exactly 0")
        if any(b - a < -MONOTONE_TOL for a, b in zip(d, d[1:])):
            out.append(f"d is not non-decreasing: {d}")
        for tf2, value in zip(grid, d):
            ref = 0.0 if tf2 == 0.0 else self.d_ref[tf2]
            if not abs(value - ref) <= D_ABS_TOL:
                out.append(f"d({tf2}) = {value!r}, reference {ref!r}")
        chosen = max(t for t, v in zip(grid, d) if v <= self.gen["threshold"])
        if result.selected_tf2 != chosen:
            out.append(f"selected_tf2 = {result.selected_tf2}, expected {chosen}")
        return out


class _Pooled(_Workload):
    """Requests drawn with replacement, in seed order, from a recorded pool.

    The pool is cut into STRATA bands of step count, and each round of
    STRATA requests takes one request from every band, in seeded order.  Every
    run then sees nearly the same mix of short and long requests, so its
    latency percentiles differ between seeds by the machine, not by the draw.
    """

    STRATA = 20

    def __init__(self, bl, seed: int, pool: list[dict]):
        super().__init__(bl, seed)
        self.pool = pool

    def requests(self):
        rng = random.Random(self.seed)
        by_steps = sorted(self.pool, key=lambda entry: entry["steps"])
        n, k = len(by_steps), self.STRATA
        strata = [by_steps[i * n // k:(i + 1) * n // k] for i in range(k)]
        while True:
            for stratum in rng.sample(strata, k):
                yield rng.choice(stratum)

    def steps(self, entry) -> int:
        return entry["steps"]

    def csv_bytes(self, result) -> int:
        return len(result[-1])


class Simulate(_Pooled):
    """parse_scenario -> run_closed_loop -> summarize -> write_trajectory_csv."""

    def __init__(self, bl, seed: int, pool: list[dict]):
        for entry in pool:
            entry["text"] = json.dumps(entry["scenario"])
            entry["steps"] = n_steps(entry["scenario"]["duration_min"])
        super().__init__(bl, seed, pool)

    def run(self, entry):
        bl = self.bl
        scenario = bl.scenario_io.parse_scenario(entry["text"])
        traj = bl.engine.run_closed_loop(scenario)
        report = bl.metrics.summarize(traj, entry["scenario"]["controller"]["target_bis"])
        return traj, report, bl.scenario_io.write_trajectory_csv(traj)

    def problems(self, entry, result) -> list[str]:
        traj, report, csv = result
        out = _csv_problems(csv, entry["steps"])
        if not _in_range(traj.bis_measured, 0.0, 100.0):
            out.append("measured BIS left [0, 100]")
        if not _in_range(traj.u, 0.0, U_MAX):
            out.append(f"u left [0, {U_MAX}]")
        if not _close(report.iae, entry["iae"], IAE_REL_TOL):
            out.append(f"IAE {report.iae!r}, reference {entry['iae']!r}")
        return out


class OpenLoop(_Pooled):
    """run_open_loop -> write_trajectory_csv, patients from builtin_cohort()."""

    RK4_PER_STEP = 1

    def __init__(self, bl, seed: int, pool: list[dict]):
        for entry in pool:
            entry["profile"] = tuple(tuple(p) for p in entry["profile"])
            entry["steps"] = n_steps(entry["duration_min"])
        super().__init__(bl, seed, pool)

    def run(self, entry):
        bl = self.bl
        traj = bl.engine.run_open_loop(self.patients[entry["patient_id"]],
                                       entry["profile"], entry["duration_min"])
        return traj, bl.scenario_io.write_trajectory_csv(traj)

    def problems(self, entry, result) -> list[str]:
        traj, csv = result
        out = _csv_problems(csv, entry["steps"])
        if not _in_range(traj.bis_measured, 0.0, 100.0):
            out.append("measured BIS left [0, 100]")
        u_max = max(rate for _, rate in entry["profile"])
        if not _in_range(traj.u, 0.0, u_max):
            out.append(f"u left [0, {u_max}]")
        if not _close(traj.bis_true[-1], entry["bis_end"], OPEN_LOOP_REL_TOL):
            out.append(f"final BIS {traj.bis_true[-1]!r}, reference {entry['bis_end']!r}")
        if not _close(max(traj.ce_true), entry["ce_max"], OPEN_LOOP_REL_TOL):
            out.append(f"peak ce {max(traj.ce_true)!r}, reference {entry['ce_max']!r}")
        return out


NAMES = ("sweep", "simulate", "open_loop")


def make(name: str, bl, seed: int):
    """The named workload, its inputs drawn from seed."""
    reference = load_json("reference.json")
    if name == "sweep":
        gen = load_json("map.json")["workloads"]["sweep"]["generator"]
        return Sweep(bl, seed, gen, reference["sweep"])
    if name == "simulate":
        return Simulate(bl, seed, reference["simulate"])
    if name == "open_loop":
        return OpenLoop(bl, seed, reference["open_loop"])
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
