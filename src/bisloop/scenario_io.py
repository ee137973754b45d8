"""Scenario JSON parsing and CSV export.

A scenario file is a JSON object mirroring Scenario and its sub-objects.
Unknown keys are rejected; defaults are applied only for absent keys, and
every validation failure names the offending key.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import replace
from itertools import repeat
from typing import Any

from .control import ControllerConfig
from .engine import TRAJECTORY_FIELDS, DisturbancePulse, Scenario, Trajectory
from .errors import ModelError, ScenarioError, is_integer, number_error
from .metrics import MetricsReport, SweepResult
from .patient import (Demographics, HillParams, PkPreset, Sex, VirtualPatient,
                      builtin_cohort, cohort_member)

TRAJECTORY_CSV_HEADER = ("t_min,bis_true,bis_measured,bis_filtered,u_mg_min,"
                         "c1,c2,c3,ce_true,ce_model,i_t,ce_ref")

_SEX_ALIASES = {"f": Sex.FEMALE, "female": Sex.FEMALE, "m": Sex.MALE, "male": Sex.MALE}

# Each object's plain-number keys as (JSON key, attribute, rule) rows, rule
# None, "positive" or "non_negative": _check_keys admits them, _numbers reads
# them and _dump writes them, in row order.  Other keys are handled by name.
_CONTROLLER_KEYS = (("target_bis", "target_bis", "positive"), ("tf1_min", "tf1", "non_negative"),
                    ("tf2_min", "tf2", "non_negative"), ("kp", "kp", "non_negative"),
                    ("ki", "ki", "non_negative"), ("u_max_mg_min", "u_max", "positive"))
_DEMOGRAPHICS_KEYS = (("height_cm", "height_cm", "positive"),
                      ("weight_kg", "weight_kg", "positive"))
# In the cohort table's column order; the parser reads e0 and emax first.
_HILL_KEYS = (("ce50", "ce50", None), ("gamma", "gamma", None),
              ("e0", "e0", None), ("emax", "emax", None))
_PULSE_KEYS = (("start_min", "start", "non_negative"),
               ("duration_min", "duration", "positive"), ("amplitude_bis", "amplitude", None))
_RUN_KEYS = (("duration_min", "duration", "positive"), ("h_min", "h", "positive"))


def _require_mapping(obj: Any, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where}: expected an object, got {type(obj).__name__}")
    return obj


def _check_keys(obj: dict, rows: tuple, other_keys: str, where: str):
    allowed = {key for key, _, _ in rows}.union(other_keys.split())
    unknown = set(obj) - allowed
    if unknown:
        raise ScenarioError(f"{where}: unknown key(s) {sorted(unknown)}; "
                            f"allowed: {sorted(allowed)}")


def _number(obj: dict, key: str, where: str, default: float | None = None,
            rule: str | None = None) -> float:
    if key not in obj:
        if default is None:
            raise ScenarioError(f"{where}.{key}: required")
        return default
    v = obj[key]
    if want := number_error(v, rule):
        raise ScenarioError(f"{where}.{key}: must be {want}, got {v!r}")
    return float(v)


def _numbers(obj: dict, rows: tuple, where: str, defaults: Any = None) -> dict[str, float]:
    """The rows' values by attribute; an absent key takes the attribute of
    defaults, or is required when defaults is None."""
    return {attr: _number(obj, key, where, defaults and getattr(defaults, attr), rule)
            for key, attr, rule in rows}


def _dump(obj: Any, rows: tuple) -> dict[str, float]:
    """obj's row attributes by JSON key, each as a float."""
    return {key: float(getattr(obj, attr)) for key, attr, _ in rows}


def _integer(obj: dict, key: str, where: str, default: int | None = None) -> int:
    if key not in obj:
        if default is None:
            raise ScenarioError(f"{where}.{key}: required")
        return default
    v = obj[key]
    if not is_integer(v):
        raise ScenarioError(f"{where}.{key}: expected an integer, got {v!r}")
    return v


def _parse_controller(obj: Any) -> ControllerConfig:
    obj = _require_mapping(obj, "controller")
    _check_keys(obj, _CONTROLLER_KEYS, "nominal_e0", "controller")
    cfg = ControllerConfig(**_numbers(obj, _CONTROLLER_KEYS, "controller", ControllerConfig))
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
    _check_keys(obj, (), "kind sigma_bis", "noise")
    kind_raw = obj.get("kind", "none")
    kind = str(kind_raw).lower()
    if kind not in ("none", "gaussian"):
        raise ScenarioError(f"noise.kind: expected 'none' or 'gaussian', got {kind_raw!r}")
    sigma = _number(obj, "sigma_bis", "noise", 2.0, "non_negative")
    return sigma if kind == "gaussian" else 0.0


def _parse_disturbance(obj: Any) -> tuple[DisturbancePulse, ...]:
    if not isinstance(obj, list):
        raise ScenarioError("disturbance: expected a list of pulses")
    pulses = []
    for i, item in enumerate(obj):
        where = f"disturbance[{i}]"
        item = _require_mapping(item, where)
        _check_keys(item, _PULSE_KEYS, "", where)
        pulses.append(DisturbancePulse(**_numbers(item, _PULSE_KEYS, where)))
    return tuple(pulses)


def _parse_patient(obj: Any, preset: PkPreset) -> VirtualPatient:
    obj = _require_mapping(obj, "patient")
    _check_keys(obj, _DEMOGRAPHICS_KEYS + _HILL_KEYS, "id age sex", "patient")
    sex_raw = str(obj.get("sex", "")).lower()
    if sex_raw not in _SEX_ALIASES:
        raise ScenarioError(f"patient.sex: expected F/M, got {obj.get('sex')!r}")
    try:
        demo = Demographics(age=_integer(obj, "age", "patient"),
                            **_numbers(obj, _DEMOGRAPHICS_KEYS, "patient"),
                            sex=_SEX_ALIASES[sex_raw])
        hill = HillParams(**_numbers(obj, _HILL_KEYS[2:] + _HILL_KEYS[:2], "patient"))
    except ModelError as e:
        raise ScenarioError(f"patient: {e}") from e
    return VirtualPatient(_integer(obj, "id", "patient", 0), demo, hill, preset)


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario JSON document."""
    try:
        raw = json.loads(text)
    except ValueError as e:  # a JSONDecodeError, or an integer of too many digits
        raise ScenarioError(f"malformed JSON: {e}") from e
    raw = _require_mapping(raw, "scenario")
    _check_keys(raw, _RUN_KEYS, "patient_id patient pk_preset controller noise disturbance seed",
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
        patient_id = _integer(raw, "patient_id", "scenario", Scenario.patient)
        if not 1 <= patient_id <= 13:
            raise ScenarioError(f"patient_id: unknown patient id {patient_id} "
                                "(cohort has 1-13)")
        patient = cohort_member(patient_id, preset)

    controller = _parse_controller(raw["controller"]) if "controller" in raw \
        else ControllerConfig()
    noise = _parse_noise(raw["noise"]) if "noise" in raw else 0.0
    disturbance = _parse_disturbance(raw["disturbance"]) if "disturbance" in raw else ()
    seed = _integer(raw, "seed", "scenario", Scenario.seed)

    return Scenario(
        patient=patient,
        controller=controller,
        **_numbers(raw, _RUN_KEYS, "scenario", Scenario),
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
    p, d, cfg = scenario.patient, scenario.patient.demographics, scenario.controller
    controller = _dump(cfg, _CONTROLLER_KEYS)
    if cfg.nominal_e0 is not None:
        controller["nominal_e0"] = float(cfg.nominal_e0)
    sigma = float(scenario.noise) or 0.0   # a sigma of -0.0 is noise-free too
    return {
        "patient": {"id": p.id, "age": d.age, **_dump(d, _DEMOGRAPHICS_KEYS),
                    "sex": d.sex.value, **_dump(p.hill, _HILL_KEYS)},
        "pk_preset": p.pk_preset.value,
        "controller": controller,
        **_dump(scenario, _RUN_KEYS),
        "noise": {"kind": "gaussian" if sigma else "none", "sigma_bis": sigma},
        "disturbance": [_dump(pulse, _PULSE_KEYS) for pulse in scenario.disturbance],
        "seed": scenario.seed,
    }


def _fmt(value: float | None) -> str:
    return "" if value is None else format(value, ".6g")


# Rows write_trajectory_csv formats into one string at a time.
_CSV_BLOCK_ROWS = 1024


def write_trajectory_csv(traj: Trajectory) -> str:
    """Trajectory as CSV text, floats at 6 significant digits (printf %.6g,
    the same text as format(v, ".6g")), None as an empty field.

    Open-loop runs emit empty fields for the controller columns.  Every row
    is one printf format: a numeric column is %.6g, a column of None is the
    empty field itself, and a column mixing both is written through _fmt.
    An array column is numeric by its type; scanning it for None would box
    every value.  Rows are formatted in blocks, so the text is built from
    one string per block, not one per row.
    """
    fields, kept = [], []
    for name in TRAJECTORY_FIELDS:
        column = getattr(traj, name)
        if isinstance(column, array) or None not in column:
            fields.append("%.6g")
            kept.append(column)
        elif column.count(None) < len(column):
            fields.append("%s")
            kept.append(list(map(_fmt, column)))
        else:
            fields.append("")
    row = (",".join(fields) + "\n").__mod__
    n, blocks = len(traj), [TRAJECTORY_CSV_HEADER + "\n"]
    for start in range(0, n, _CSV_BLOCK_ROWS):
        stop = start + _CSV_BLOCK_ROWS
        rows = zip(*(column[start:stop] for column in kept)) if kept \
            else repeat((), min(stop, n) - start)
        blocks.append("".join(map(row, rows)))
    return "".join(blocks)


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
