"""Scenario JSON parsing and CSV export.

A scenario file is a JSON object mirroring Scenario and its sub-objects.
Unknown keys are rejected; defaults are applied only for absent keys, and
every validation failure names the offending key.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from itertools import repeat
from typing import Any

from .control import ControllerConfig
from .engine import TRAJECTORY_FIELDS, DisturbancePulse, Scenario, Trajectory
from .errors import ModelError, ScenarioError
from .metrics import MetricsReport, SweepResult
from .patient import (Demographics, HillParams, PkPreset, Sex, VirtualPatient,
                      builtin_cohort, cohort_member)

TRAJECTORY_CSV_HEADER = ("t_min,bis_true,bis_measured,bis_filtered,u_mg_min,"
                         "c1,c2,c3,ce_true,ce_model,i_t,ce_ref")

_SEX_ALIASES = {"f": Sex.FEMALE, "female": Sex.FEMALE, "m": Sex.MALE, "male": Sex.MALE}


def _require_mapping(obj: Any, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where}: expected an object, got {type(obj).__name__}")
    return obj


def _check_keys(obj: dict, allowed: set[str], where: str):
    unknown = set(obj) - allowed
    if unknown:
        raise ScenarioError(f"{where}: unknown key(s) {sorted(unknown)}; "
                            f"allowed: {sorted(allowed)}")


def _number(obj: dict, key: str, where: str, default: float | None = None,
            positive: bool = False, non_negative: bool = False) -> float:
    if key not in obj:
        if default is None:
            raise ScenarioError(f"{where}.{key}: required")
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ScenarioError(f"{where}.{key}: expected a number, got {v!r}")
    try:
        v = float(v)
    except OverflowError:  # an integer beyond the float range
        v = math.inf
    if not math.isfinite(v):
        raise ScenarioError(f"{where}.{key}: must be finite, got {v}")
    if positive and v <= 0:
        raise ScenarioError(f"{where}.{key}: must be > 0, got {v}")
    if non_negative and v < 0:
        raise ScenarioError(f"{where}.{key}: must be >= 0, got {v}")
    return v


def _integer(obj: dict, key: str, where: str, default: int | None = None) -> int:
    if key not in obj:
        if default is None:
            raise ScenarioError(f"{where}.{key}: required")
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ScenarioError(f"{where}.{key}: expected an integer, got {v!r}")
    return v


def _parse_controller(obj: Any) -> ControllerConfig:
    obj = _require_mapping(obj, "controller")
    _check_keys(obj, {"target_bis", "tf1_min", "tf2_min", "kp", "ki",
                      "u_max_mg_min", "nominal_e0"}, "controller")
    defaults = ControllerConfig()
    cfg = ControllerConfig(
        target_bis=_number(obj, "target_bis", "controller", defaults.target_bis, positive=True),
        tf1=_number(obj, "tf1_min", "controller", defaults.tf1, non_negative=True),
        tf2=_number(obj, "tf2_min", "controller", defaults.tf2, non_negative=True),
        kp=_number(obj, "kp", "controller", defaults.kp, non_negative=True),
        ki=_number(obj, "ki", "controller", defaults.ki, non_negative=True),
        u_max=_number(obj, "u_max_mg_min", "controller", defaults.u_max, positive=True),
    )
    if "nominal_e0" not in obj:
        return cfg
    try:
        return replace(cfg, nominal_e0=_number(obj, "nominal_e0", "controller"))
    except ModelError as e:  # the nominal curve rejects its e0
        raise ScenarioError(f"controller.nominal_e0: {e}") from e


def _parse_noise(obj: Any) -> float:
    """The noise sigma; kind "none" is sigma 0, though its sigma_bis is
    still checked."""
    obj = _require_mapping(obj, "noise")
    _check_keys(obj, {"kind", "sigma_bis"}, "noise")
    kind_raw = obj.get("kind", "none")
    kind = str(kind_raw).lower()
    if kind not in ("none", "gaussian"):
        raise ScenarioError(f"noise.kind: expected 'none' or 'gaussian', got {kind_raw!r}")
    sigma = _number(obj, "sigma_bis", "noise", 2.0, non_negative=True)
    return sigma if kind == "gaussian" else 0.0


def _parse_disturbance(obj: Any) -> tuple[DisturbancePulse, ...]:
    if not isinstance(obj, list):
        raise ScenarioError("disturbance: expected a list of pulses")
    pulses = []
    for i, item in enumerate(obj):
        where = f"disturbance[{i}]"
        item = _require_mapping(item, where)
        _check_keys(item, {"start_min", "duration_min", "amplitude_bis"}, where)
        pulses.append(DisturbancePulse(
            start=_number(item, "start_min", where, non_negative=True),
            duration=_number(item, "duration_min", where, positive=True),
            amplitude=_number(item, "amplitude_bis", where),
        ))
    return tuple(pulses)


def _parse_patient(obj: Any, preset: PkPreset) -> VirtualPatient:
    obj = _require_mapping(obj, "patient")
    _check_keys(obj, {"id", "age", "height_cm", "weight_kg", "sex",
                      "ce50", "gamma", "e0", "emax"}, "patient")
    sex_raw = str(obj.get("sex", "")).lower()
    if sex_raw not in _SEX_ALIASES:
        raise ScenarioError(f"patient.sex: expected F/M, got {obj.get('sex')!r}")
    try:
        demo = Demographics(age=_integer(obj, "age", "patient"),
                            height_cm=_number(obj, "height_cm", "patient", positive=True),
                            weight_kg=_number(obj, "weight_kg", "patient", positive=True),
                            sex=_SEX_ALIASES[sex_raw])
        hill = HillParams(e0=_number(obj, "e0", "patient"),
                          emax=_number(obj, "emax", "patient"),
                          ce50=_number(obj, "ce50", "patient"),
                          gamma=_number(obj, "gamma", "patient"))
    except ModelError as e:
        raise ScenarioError(f"patient: {e}") from e
    return VirtualPatient(_integer(obj, "id", "patient", 0), demo, hill, preset)


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario JSON document."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioError(f"malformed JSON: {e}") from e
    raw = _require_mapping(raw, "scenario")
    _check_keys(raw, {"patient_id", "patient", "pk_preset", "controller",
                      "duration_min", "h_min", "noise", "disturbance", "seed"},
                "scenario")

    preset_raw = raw.get("pk_preset", PkPreset.SCHNIDER_CORRECTED.value)
    try:
        preset = PkPreset(str(preset_raw))
    except ValueError:
        raise ScenarioError(
            f"pk_preset: expected one of {[p.value for p in PkPreset]}, got {preset_raw!r}")

    # The patient is built as it is read, under the file's preset, so the
    # scenario holds the patient that runs.
    if "patient" in raw and "patient_id" in raw:
        raise ScenarioError("give either patient_id or patient, not both")
    if "patient" in raw:
        patient = _parse_patient(raw["patient"], preset)
    else:
        patient_id = _integer(raw, "patient_id", "scenario", 13)
        if not 1 <= patient_id <= 13:
            raise ScenarioError(f"patient_id: unknown patient id {patient_id} "
                                "(cohort has 1-13)")
        patient = cohort_member(patient_id, preset)

    controller = _parse_controller(raw["controller"]) if "controller" in raw \
        else ControllerConfig()
    noise = _parse_noise(raw["noise"]) if "noise" in raw else 0.0
    disturbance = _parse_disturbance(raw["disturbance"]) if "disturbance" in raw else ()
    seed = _integer(raw, "seed", "scenario", 0)
    if seed < 0:
        raise ScenarioError(f"scenario.seed: must be >= 0, got {seed}")

    return Scenario(
        patient=patient,
        controller=controller,
        duration=_number(raw, "duration_min", "scenario", 60.0, positive=True),
        h=_number(raw, "h_min", "scenario", 1.0 / 60.0, positive=True),
        noise=noise,
        disturbance=disturbance,
        seed=seed,
    )


def scenario_to_dict(scenario: Scenario) -> dict:
    """Scenario back to its JSON-document form (defaults written explicitly).

    The patient is always written as an explicit object with its own preset,
    so parse_scenario of the JSON text gives back an equal scenario.  Every
    number but id, age and seed is written as a float, so equal scenarios
    give one JSON text however their numbers were spelled.
    """
    p, cfg = scenario.patient, scenario.controller
    out: dict[str, Any] = {}
    out["patient"] = {
        "id": p.id, "age": p.demographics.age,
        "height_cm": float(p.demographics.height_cm),
        "weight_kg": float(p.demographics.weight_kg),
        "sex": p.demographics.sex.value,
        "ce50": float(p.hill.ce50), "gamma": float(p.hill.gamma),
        "e0": float(p.hill.e0), "emax": float(p.hill.emax),
    }
    out["pk_preset"] = p.pk_preset.value
    out["controller"] = {
        "target_bis": float(cfg.target_bis), "tf1_min": float(cfg.tf1),
        "tf2_min": float(cfg.tf2), "kp": float(cfg.kp), "ki": float(cfg.ki),
        "u_max_mg_min": float(cfg.u_max),
    }
    if cfg.nominal_e0 is not None:
        out["controller"]["nominal_e0"] = float(cfg.nominal_e0)
    out["duration_min"] = float(scenario.duration)
    out["h_min"] = float(scenario.h)
    sigma = float(scenario.noise) or 0.0   # a sigma of -0.0 is noise-free too
    out["noise"] = {"kind": "gaussian" if sigma else "none", "sigma_bis": sigma}
    out["disturbance"] = [
        {"start_min": float(p.start), "duration_min": float(p.duration),
         "amplitude_bis": float(p.amplitude)}
        for p in scenario.disturbance
    ]
    out["seed"] = scenario.seed
    return out


def _fmt(value: float | None) -> str:
    return "" if value is None else format(value, ".6g")


def write_trajectory_csv(traj: Trajectory) -> str:
    """Trajectory as CSV text, floats at 6 significant digits (printf %.6g,
    the same text as format(v, ".6g")), None as an empty field.

    Open-loop runs emit empty fields for the controller columns.  Every row
    is one printf format: a numeric column is %.6g, a column of None is the
    empty field itself, and a column mixing both is written through _fmt.
    """
    fields, kept = [], []
    for name in TRAJECTORY_FIELDS:
        column = getattr(traj, name)
        if None not in column:
            fields.append("%.6g")
            kept.append(column)
        elif column.count(None) < len(column):
            fields.append("%s")
            kept.append(list(map(_fmt, column)))
        else:
            fields.append("")
    rows = zip(*kept) if kept else repeat((), len(traj))
    lines = [TRAJECTORY_CSV_HEADER]
    lines += map(",".join(fields).__mod__, rows)
    return "\n".join(lines) + "\n"


COHORT_CSV_HEADER = "id,age,height_cm,weight_kg,sex,ce50,gamma,e0,emax"


def cohort_csv() -> str:
    """Built-in cohort as CSV, formatted at the source table's precision."""
    lines = [COHORT_CSV_HEADER]
    for p in builtin_cohort():
        d = p.demographics
        lines.append(f"{p.id},{d.age},{d.height_cm:.0f},{d.weight_kg:.0f},"
                     f"{d.sex.value},{p.hill.ce50:.2f},{p.hill.gamma:.2f},"
                     f"{p.hill.e0:.1f},{p.hill.emax:.2f}")
    return "\n".join(lines) + "\n"


METRICS_CSV_HEADER = ("patient_id,iae_bis_min,induction_time_min,"
                      "min_bis_post_crossing,steady_state_error_bis,max_u_mg_min")


def metrics_csv(reports: list[tuple[int, MetricsReport]]) -> str:
    lines = [METRICS_CSV_HEADER]
    for pid, r in reports:
        lines.append(",".join((
            str(pid), _fmt(r.iae), _fmt(r.induction_time),
            _fmt(r.min_bis_post_crossing), _fmt(r.steady_state_error), _fmt(r.max_u),
        )))
    return "\n".join(lines) + "\n"


SWEEP_CSV_HEADER = "tf2_min,degradation_ratio"


def sweep_csv(result: SweepResult) -> str:
    lines = [SWEEP_CSV_HEADER]
    for tf2, d in zip(result.grid, result.d_values):
        lines.append(f"{_fmt(tf2)},{_fmt(d)}")
    lines.append(f"# selected_tf2_min={_fmt(result.selected_tf2)} "
                 f"threshold={_fmt(result.threshold)}")
    return "\n".join(lines) + "\n"
