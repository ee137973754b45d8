"""Record perfbench/reference.json: request pools and their reference outputs.

    python3 perfbench/record_reference.py

Draws the simulate and open_loop request pools from the generator ranges in
map.json with a fixed pool seed, runs every request and the full criterion-7
tuning sweep once, and stores the outputs the benchmark checks against.
Rerun it only with a change that is meant to alter simulated values; it takes
about two minutes on one core.
"""

from __future__ import annotations

import json
import random

import workloads

POOL_SEED = 20211227


def draw_simulate(rng: random.Random, g: dict) -> dict:
    duration = rng.uniform(*g["duration_min"])
    if rng.random() < g["noise_none_share"]:
        noise = {"kind": "none"}
    else:
        noise = {"kind": "gaussian", "sigma_bis": rng.uniform(*g["sigma_bis"])}
    pulses = []
    for _ in range(rng.randint(*g["pulses"])):
        length = rng.uniform(*g["pulse_duration_min"])
        pulses.append({"start_min": rng.uniform(0.0, duration - length),
                       "duration_min": length,
                       "amplitude_bis": rng.choice((-1.0, 1.0))
                       * rng.uniform(*g["pulse_amplitude_abs_bis"])})
    return {"patient_id": rng.randint(*g["patient_id"]),
            "duration_min": duration,
            "controller": {"target_bis": rng.uniform(*g["target_bis"])},
            "noise": noise,
            "disturbance": pulses,
            "seed": rng.randint(*g["noise_seed"])}


def draw_open_loop(rng: random.Random, g: dict) -> dict:
    duration = rng.uniform(*g["duration_min"])
    bolus_end = rng.uniform(*g["bolus_duration_min"])
    changes = sorted(rng.uniform(bolus_end, duration)
                     for _ in range(rng.randint(*g["maintenance_rates"]) - 1))
    profile = [[0.0, rng.uniform(*g["bolus_rate_mg_min"])]]
    profile += [[start, rng.uniform(*g["maintenance_rate_mg_min"])]
                for start in [bolus_end] + changes]
    return {"patient_id": rng.randint(*g["patient_id"]),
            "duration_min": duration, "profile": profile}


def main():
    bl = workloads.import_bisloop()
    gens = {name: spec["generator"]
            for name, spec in workloads.load_json("map.json")["workloads"].items()}
    rng = random.Random(POOL_SEED)

    g = gens["sweep"]
    grid = [round(g["step_min"] * i, 10) for i in range(1, g["n_points"] + 1)]
    result = bl.metrics.tune_tf2([0.0] + grid, threshold=g["threshold"], workers=1)
    sweep = {"grid": grid, "d": list(result.d_values[1:])}

    simulate = []
    for _ in range(gens["simulate"]["pool_size"]):
        scenario = draw_simulate(rng, gens["simulate"])
        traj = bl.engine.run_closed_loop(bl.scenario_io.parse_scenario(json.dumps(scenario)))
        report = bl.metrics.summarize(traj, scenario["controller"]["target_bis"])
        simulate.append({"scenario": scenario, "iae": report.iae})

    patients = {p.id: p for p in bl.patient.builtin_cohort()}
    open_loop = []
    for _ in range(gens["open_loop"]["pool_size"]):
        entry = draw_open_loop(rng, gens["open_loop"])
        traj = bl.engine.run_open_loop(patients[entry["patient_id"]],
                                       [tuple(p) for p in entry["profile"]],
                                       entry["duration_min"])
        open_loop.append(dict(entry, bis_end=traj.bis_true[-1], ce_max=max(traj.ce_true)))

    out = {"pool_seed": POOL_SEED, "bisloop_version": bl.__version__,
           "sweep": sweep, "simulate": simulate, "open_loop": open_loop}
    (workloads.HERE / "reference.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
