"""Model-based BIS controller.

The loop inverts the measured BIS through a population-average Hill curve to
get a measurement-implied effect-site concentration, compares it against an
internal linear patient model, and passes the discrepancy through a low-pass
filter to form an innovation signal.  A PI tracking law on the concentration
error, clamped to the pump range, produces the infusion rate.  The
innovation term cancels the plant/model mismatch at low frequency, so the
measured BIS settles on the target with zero steady-state error even though
the individual Hill parameters are unknown.

The nominal curve's only per-patient value is the measured awake BIS e0, and
the internal model is one fixed PK set, the cohort's average individual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ControllerError, is_number, require
from .patient import (AVERAGE_PATIENT_ID, DiscretePk, HillParams, PatientState, ZERO_STATE,
                      cohort_member)

# Population-average Hill parameters used by the controller; only the awake
# baseline e0 is measurable per patient before induction.
POPULATION_EMAX = 87.5
POPULATION_GAMMA = 2.69
POPULATION_CE50 = 4.92

# Innovation filter time constant [min].  0.16312 min (9.7871 s) keeps the
# mismatch-correction path fast enough for induction to finish inside the
# clinical 4-minute window while still smoothing measurement noise.
DEFAULT_TF2_MIN = 9.7871 / 60.0

# The internal model is the cohort's average individual under the standard
# covariate preset, whoever the patient is.
MODEL_PK = cohort_member(AVERAGE_PATIENT_ID).pk

# inverse_hill floors its denominator emax - e0 + bis at this [BIS], so a
# reading below the curve's reach (an artefact, burst suppression) saturates:
# at 27.3 mg/L at most on the population curve at e0 <= 100.
INVERSE_HILL_FLOOR = 1.0


def inverse_hill(bis: float, curve: HillParams) -> float:
    """Effect-site concentration (mg/L) at which a Hill curve reads bis.

    curve is the controller's nominal curve or a patient's own.  Inverts the
    sigmoid: ce50 * ((e0 - bis)/(emax - e0 + bis))^(1/gamma).  Readings at or
    above the awake baseline map to 0 (no drug needed).  Below it the
    denominator is floored at INVERSE_HILL_FLOOR: every reading, even one
    below the curve's reach e0 - emax, has a finite inverse, monotone in bis,
    at most ce50 * (e0 / INVERSE_HILL_FLOOR)^(1/gamma) for bis >= 0.
    """
    if bis >= curve.e0:
        return 0.0
    den = curve.emax - curve.e0 + bis
    return curve.ce50 * ((curve.e0 - bis) / max(den, INVERSE_HILL_FLOOR)) ** (1.0 / curve.gamma)


@dataclass
class Lp2State:
    """Two cascaded first-order lags 1/(tf*s + 1); unit DC gain.

    tf = 0 degenerates to an identity passthrough.
    """

    tf: float
    x1: float = 0.0
    x2: float = 0.0

    def __post_init__(self):
        require(self, "tf", "non_negative", ControllerError)


def lp2_step(f: Lp2State, w: float, h: float) -> float:
    """Advance the filter by h minutes with input w held over the step.

    Each section is x <- x + (1 - exp(-h/tf)) * (in - x), the exact
    zero-order-hold step of one lag and unconditionally stable for any h.
    The second section holds the end-of-step x1 over the step, so the
    cascade is not the exact ZOH step of 1/(tf*s + 1)^2: against the
    closed-form unit-step response at h = 1 s the largest gap is 0.029
    (tf = 0.1 min, at 6 s) and 0.018 (tf = DEFAULT_TF2_MIN, at 10 s).
    """
    if f.tf == 0.0:
        f.x1 = w
        f.x2 = w
        return w
    a = 1.0 - math.exp(-h / f.tf)
    f.x1 += a * (w - f.x1)
    f.x2 += a * (f.x1 - f.x2)
    return f.x2


@dataclass(frozen=True)
class ControllerConfig:
    """Tuning knobs for one closed-loop run, checked when built.

    nominal_e0 is the measured awake BIS of the nominal curve; None resolves
    it per run to the patient's own e0.  nominal, the curve itself, is the
    population curve at that e0, and ce_ref, the concentration the loop
    tracks, is that curve's inverse at target_bis (mg/L); both are derived
    at construction (None while nominal_e0 is).  An e0 outside (0, 100]
    raises ModelError.  A number field that is a bool or not a real number,
    a gain or filter constant that is negative or not finite, a u_max that
    is not finite and positive, or a target_bis that is not finite raises
    ControllerError; so does, once nominal_e0 is set, a target_bis outside
    (0, e0) or below the nominal curve's reach e0 - emax.
    """

    target_bis: float = 50.0
    tf1: float = 0.1                  # BIS pre-filter time constant [min]
    tf2: float = DEFAULT_TF2_MIN      # innovation filter time constant [min]
    kp: float = 16.0                  # proportional gain [L/min]
    ki: float = 2.5                   # integral gain [L/min^2]
    u_max: float = 200.0              # pump limit [mg/min]
    nominal_e0: float | None = None   # awake BIS of the nominal curve
    nominal: HillParams | None = field(init=False)
    ce_ref: float | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        require(self, "target_bis", None, ControllerError)
        require(self, "tf1 tf2 kp ki", "non_negative", ControllerError)
        require(self, "u_max", "positive", ControllerError)
        e0 = self.nominal_e0
        # Only its type here: HillParams checks its range, with ModelError.
        if e0 is not None and not is_number(e0):
            raise ControllerError(f"nominal_e0 must be a number, got {e0!r}")
        nominal = ce_ref = None
        if e0 is not None:
            nominal = HillParams(e0, POPULATION_EMAX, POPULATION_CE50, POPULATION_GAMMA)
            if not (0 < self.target_bis < e0):
                raise ControllerError(
                    f"target_bis must lie in (0, e0={e0}), got {self.target_bis}")
            if nominal.emax - nominal.e0 + self.target_bis <= 0.0:
                raise ControllerError(
                    f"target_bis={self.target_bis} is below the nominal curve's reach "
                    f"e0 - emax = {e0} - {POPULATION_EMAX}")
            ce_ref = inverse_hill(self.target_bis, nominal)
        object.__setattr__(self, "nominal", nominal)
        object.__setattr__(self, "ce_ref", ce_ref)


@dataclass
class ControllerState:
    """Mutable per-run controller memory.

    The pre-filter starts at the awake baseline (that is what the monitor
    reads before induction); model and innovation states start drug-free.
    f1.x2 is the filtered BIS and f2.x2 the innovation after each step.
    """

    f1: Lp2State
    f2: Lp2State
    model_state: PatientState = ZERO_STATE
    integrator: float = 0.0

    @classmethod
    def initial(cls, cfg: ControllerConfig, awake_bis: float) -> "ControllerState":
        return cls(f1=Lp2State(cfg.tf1, x1=awake_bis, x2=awake_bis), f2=Lp2State(cfg.tf2))


def controller_step(cs: ControllerState, cfg: ControllerConfig, model: DiscretePk,
                    measured_bis: float) -> float:
    """One control update: consume a BIS reading, return the infusion rate.

    Mutates cs.  Sequence: pre-filter the reading, invert it to a measured
    concentration, filter the model discrepancy into the innovation, form
    the tracking error against the inverted target, apply the PI law with
    conditional-integration anti-windup, clamp to [0, u_max], and advance
    the internal model under the issued rate.  model is that internal model
    discretized at the control step h, which it carries.
    """
    h, u_max = model.h, cfg.u_max
    if cfg.nominal is None:
        raise ControllerError("ControllerConfig.nominal must be resolved before use")
    if not math.isfinite(measured_bis):
        raise ControllerError(f"measured BIS is not finite: {measured_bis!r}")

    ce_model = cs.model_state.ce
    bis_f = lp2_step(cs.f1, measured_bis, h)
    ce_meas = inverse_hill(bis_f, cfg.nominal)
    innovation = lp2_step(cs.f2, ce_meas - ce_model, h)
    err = cfg.ce_ref - (ce_model + innovation)

    proposed = cs.integrator + cfg.ki * err * h
    u = cfg.kp * err + proposed
    if (u > u_max and err > 0.0) or (u < 0.0 and err < 0.0):
        # Integrating would push further into the active constraint: freeze.
        u = cfg.kp * err + cs.integrator
    else:
        cs.integrator = proposed
    u = 0.0 if u < 0.0 else (u_max if u > u_max else u)
    if not math.isfinite(u):
        raise ControllerError(f"controller state diverged: u={u!r}, err={err!r}")

    cs.model_state = model.step(cs.model_state, u)
    return u
