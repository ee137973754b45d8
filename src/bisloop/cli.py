"""Command-line interface.

Exit codes: 0 success, 2 scenario/parse errors, 3 model errors,
4 controller errors, 1 anything else.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from .engine import MAX_STEPS, Scenario, run_closed_loop, run_many, run_open_loop
from .errors import ControllerError, ModelError, ScenarioError
from .metrics import (TuningError, ce_bis_curve, summarize, tune_tf2)
from .patient import PkPreset, builtin_cohort, cohort_member
from .scenario_io import (cohort_csv, metrics_csv, parse_scenario, sweep_csv,
                          write_trajectory_csv)
from .svgplot import render_svg_plot

EXIT_OK = 0
EXIT_GENERIC = 1
EXIT_PARSE = 2
EXIT_MODEL = 3
EXIT_CONTROLLER = 4

# Each error type's exit code; the first type the error is an instance of wins.
_EXIT_CODES = ((ScenarioError, EXIT_PARSE), (ModelError, EXIT_MODEL),
               (ControllerError, EXIT_CONTROLLER), (TuningError, EXIT_GENERIC),
               (ValueError, EXIT_GENERIC))


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _read_scenario(path: str) -> Scenario:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ScenarioError(f"cannot read scenario file {path}: {e}") from e
    return parse_scenario(text)


def _bis_plot(traj) -> str:
    series = [
        ("BIS true", traj.t, traj.bis_true),
        ("BIS measured", traj.t, traj.bis_measured),
        ("BIS filtered", traj.t, traj.bis_filtered),
    ]
    return render_svg_plot(series, x_label="time [min]", y_label="BIS",
                           y_range=(0.0, 100.0))


def cmd_list_patients(args) -> int:
    _emit(cohort_csv(), args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    scenario = _read_scenario(args.scenario)
    traj = run_closed_loop(scenario)
    _emit(write_trajectory_csv(traj), args.out)
    if args.plot:
        Path(args.plot).write_text(_bis_plot(traj))
    return EXIT_OK


def cmd_open_loop(args) -> int:
    patient = cohort_member(args.patient, PkPreset(args.preset))
    traj = run_open_loop(patient, args.rate, args.duration, h=args.h)
    _emit(write_trajectory_csv(traj), args.out)
    return EXIT_OK


def cmd_cohort(args) -> int:
    scenario = _read_scenario(args.scenario)
    cohort = builtin_cohort(scenario.patient.pk_preset)
    runs = [replace(scenario, patient=p) for p in cohort]
    trajectories = run_many(runs)
    reports = []
    for p, traj in zip(cohort, trajectories):
        reports.append((p.id, summarize(traj, scenario.controller.target_bis)))
    _emit(metrics_csv(reports), args.out)
    return EXIT_OK


def _parse_grid(spec: str) -> list[float]:
    try:
        lo, hi, step = (float(x) for x in spec.split(":"))
    except ValueError:
        raise ScenarioError(f"--grid expects A:B:STEP, got {spec!r}") from None
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ScenarioError(f"--grid expects finite A, B and STEP, got {spec!r}")
    if step <= 0 or hi < lo or lo < 0:
        raise ScenarioError(f"--grid expects 0 <= A <= B and STEP > 0, got {spec!r}")
    count = (hi - lo) / step
    if not math.isfinite(count):
        raise ScenarioError(f"--grid expects a finite point count (B - A) / STEP, got {spec!r}")
    n = int(count + 1e-9) + 1
    if n > MAX_STEPS:  # the package's one size budget, as for curve's samples
        raise ScenarioError(f"--grid {spec} makes {n} points, above MAX_STEPS={MAX_STEPS}")
    return [lo + i * step for i in range(n)]


def cmd_tune_tf2(args) -> int:
    template = _read_scenario(args.scenario) if args.scenario else None
    result = tune_tf2(_parse_grid(args.grid), threshold=args.threshold,
                      template=template)
    _emit(sweep_csv(result), args.out)
    if args.plot:
        svg = render_svg_plot(
            [("worst-case degradation", result.grid, result.d_values)],
            x_label="innovation filter time constant [min]",
            y_label="degradation ratio")
        Path(args.plot).write_text(svg)
    print(f"selected tf2 = {result.selected_tf2:.6g} min "
          f"(threshold {result.threshold:.6g})", file=sys.stderr)
    return EXIT_OK


def cmd_curve(args) -> int:
    if args.points < 2:
        raise ScenarioError(f"--points expects at least 2, got {args.points}")
    if args.patient == "all":
        patients = builtin_cohort()
    else:
        try:
            patient_id = int(args.patient)
        except ValueError:
            raise ScenarioError(
                f"--patient expects an id or 'all', got {args.patient!r}") from None
        patients = [cohort_member(patient_id)]
    # The package's one size budget: a curve holds as many samples as a run steps.
    if args.points * len(patients) > MAX_STEPS:
        raise ScenarioError(f"--points {args.points} for {len(patients)} patients makes "
                            f"{args.points * len(patients)} samples, above MAX_STEPS={MAX_STEPS}")
    lines = ["patient_id,ce_mg_l,bis"]
    series = []
    for p in patients:
        pts = ce_bis_curve(p, args.ce_max, args.points)
        series.append((f"patient {p.id}", [c for c, _ in pts], [b for _, b in pts]))
        lines.extend(f"{p.id},{c:.6g},{b:.6g}" for c, b in pts)
    _emit("\n".join(lines) + "\n", args.out)
    if args.plot:
        svg = render_svg_plot(series, x_label="effect-site concentration [mg/L]",
                              y_label="BIS", y_range=(0.0, 100.0))
        Path(args.plot).write_text(svg)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bisloop",
        description="Closed-loop propofol infusion simulation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list-patients", help="print the built-in cohort as CSV")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_list_patients)

    p = sub.add_parser("simulate", help="run a closed-loop scenario file")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", default=None, help="trajectory CSV path (default stdout)")
    p.add_argument("--plot", default=None, help="write a BIS SVG plot")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("open-loop", help="run a constant prescribed infusion")
    p.add_argument("--patient", type=int, required=True)
    p.add_argument("--rate", type=float, required=True, help="mg/min")
    p.add_argument("--duration", type=float, required=True, help="min")
    p.add_argument("--h", type=float, default=Scenario.h)
    p.add_argument("--preset", default=PkPreset.SCHNIDER_CORRECTED.value,
                   choices=[x.value for x in PkPreset])
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_open_loop)

    p = sub.add_parser("cohort", help="run a scenario for all 13 patients")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_cohort)

    p = sub.add_parser("tune-tf2", help="sweep the innovation filter time constant")
    p.add_argument("--grid", required=True, help="A:B:STEP in minutes")
    p.add_argument("--threshold", type=float, default=0.30)
    p.add_argument("--scenario", default=None, help="optional scenario template")
    p.add_argument("--out", default=None)
    p.add_argument("--plot", default=None)
    p.set_defaults(func=cmd_tune_tf2)

    p = sub.add_parser("curve", help="concentration-to-BIS curve per patient")
    p.add_argument("--patient", required=True, help="patient id or 'all'")
    p.add_argument("--ce-max", type=float, default=15.0)
    p.add_argument("--points", type=int, default=301)
    p.add_argument("--out", default=None)
    p.add_argument("--plot", default=None)
    p.set_defaults(func=cmd_curve)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(error for error, _ in _EXIT_CODES) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for error, code in _EXIT_CODES if isinstance(e, error))


if __name__ == "__main__":
    sys.exit(main())
