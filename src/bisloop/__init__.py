"""Closed-loop propofol infusion simulation toolkit.

Virtual patients (three-compartment PK plus effect site, Hill PD curve,
built-in 13-member cohort), a model-based BIS controller with an innovation
signal, a deterministic fixed-step simulation engine, run metrics, and the
innovation-filter tuning sweep.
"""

from .control import (ControllerConfig, ControllerState, DEFAULT_TF2_MIN, Lp2State,
                      controller_step, inverse_hill, lp2_step)
from .engine import (DisturbancePulse, Scenario, Trajectory, disturbance_at, noise_stream,
                     run_closed_loop, run_many, run_open_loop)
from .errors import (BisloopError, ControllerError, ModelError,
                     NonPhysicalParameterError, ScenarioError)
from .metrics import (MetricsReport, SweepResult, TuningError, ce_bis_curve,
                      degradation_ratio, iae, induction_time, summarize, tune_tf2)
from .patient import (Demographics, DiscretePk, HillParams, PatientState, PkParams,
                      PkPreset, Sex, VirtualPatient, builtin_cohort, cohort_member,
                      derive_pk_params, hill_bis, lean_body_mass, pk_derivatives)
from .scenario_io import (cohort_csv, metrics_csv, parse_scenario, scenario_to_dict,
                          sweep_csv, write_trajectory_csv)
from .svgplot import render_svg_plot

__version__ = "0.1.0"

__all__ = [
    "BisloopError", "ControllerConfig", "ControllerError", "ControllerState",
    "DEFAULT_TF2_MIN", "Demographics", "DiscretePk", "DisturbancePulse", "HillParams",
    "Lp2State", "MetricsReport", "ModelError", "NonPhysicalParameterError",
    "PatientState", "PkParams", "PkPreset", "Scenario", "ScenarioError", "Sex", "SweepResult",
    "Trajectory", "TuningError", "VirtualPatient", "builtin_cohort",
    "ce_bis_curve", "cohort_csv", "cohort_member",
    "controller_step", "degradation_ratio", "derive_pk_params", "disturbance_at",
    "hill_bis", "iae", "induction_time", "inverse_hill", "lean_body_mass",
    "lp2_step", "metrics_csv", "noise_stream", "parse_scenario", "pk_derivatives",
    "render_svg_plot", "run_closed_loop", "run_many", "run_open_loop",
    "scenario_to_dict", "summarize", "sweep_csv", "tune_tf2",
    "write_trajectory_csv",
]
