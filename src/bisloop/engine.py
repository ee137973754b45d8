"""Closed-loop and open-loop simulation runner.

A run advances the true patient by exact zero-order-hold steps, produces the
measured BIS (monitor clamp, optional additive disturbance pulses plus
Gaussian noise), feeds the controller, and records every signal per step.
Runs are deterministic: the noise stream is a pure function of the scenario
seed.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass, field, fields, replace
from itertools import repeat
from typing import Iterable, NamedTuple, NoReturn, Sequence

import numpy as np

from .control import MODEL_PK, ControllerConfig, ControllerState, controller_step
from .errors import BisloopError, ControllerError, ModelError, ScenarioError
from .patient import (AVERAGE_PATIENT_ID, DiscretePk, VirtualPatient, ZERO_STATE, cohort_member,
                      hill_bis)

# Step budget of one run: duration / h may not exceed it.  A million steps is
# 11.6 days at the default 1-s step; the longest benchmark run has 14 400.
MAX_STEPS = 1_000_000


def noise_stream(sigma: float, seed: int, n_steps: int) -> np.ndarray:
    """A run's additive Gaussian BIS offsets, one per step: all zero when
    sigma is 0, else default_rng(seed).normal(0, sigma, n_steps)."""
    if sigma == 0.0:
        return np.zeros(n_steps)
    return np.random.default_rng(seed).normal(0.0, sigma, n_steps)


class DisturbancePulse(NamedTuple):
    """Additive BIS offset over [start, start + duration)."""

    start: float       # min
    duration: float    # min
    amplitude: float   # BIS units


def disturbance_at(profile: Sequence[DisturbancePulse], t: float) -> float:
    """Sum of all pulses active at time t (pulses may overlap)."""
    total = 0.0
    for p in profile:
        if p.start <= t < p.start + p.duration:
            total += p.amplitude
    return total


@dataclass(frozen=True)
class Scenario:
    """Everything needed to reproduce one run, checked when built.  An
    open-loop run (run_open_loop builds its own) does not read controller."""

    # A cohort id (1-13) stands for cohort_member(id); after construction the
    # field is always the VirtualPatient that runs.
    patient: VirtualPatient | int = AVERAGE_PATIENT_ID
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    duration: float = 60.0      # min
    h: float = 1.0 / 60.0       # min
    noise: float = 0.0          # sigma of the Gaussian BIS noise, BIS units
    disturbance: tuple[DisturbancePulse, ...] = ()
    seed: int = 0

    def __post_init__(self):
        duration, h = self.duration, self.h
        for name, value in (("duration", duration), ("h", h)):
            if not 0 < value <= sys.float_info.max:
                raise ScenarioError(f"{name} must be finite and positive, got {value}")
        if duration / h > MAX_STEPS:
            raise ScenarioError(f"run of {duration / h:.6g} steps (duration={duration} min, "
                                f"h={h} min) exceeds MAX_STEPS={MAX_STEPS}")
        # Only after the budget test, which keeps duration / h within int range.
        if self.n_steps < 1:
            raise ScenarioError(f"run has no steps (h={h} min, duration={duration} min)")
        if not 0 <= self.noise <= sys.float_info.max:
            raise ScenarioError(f"noise sigma must be finite and >= 0, got {self.noise}")
        if self.seed < 0:
            raise ScenarioError(f"seed must be >= 0, got {self.seed}")
        for p in self.disturbance:
            if not (abs(p.start) <= sys.float_info.max and 0 < p.duration <= sys.float_info.max
                    and abs(p.amplitude) <= sys.float_info.max):
                raise ScenarioError(f"disturbance pulse needs a finite start and amplitude and "
                                    f"a finite, positive duration, got {p}")
        if not isinstance(self.patient, VirtualPatient):
            object.__setattr__(self, "patient", cohort_member(self.patient))

    @property
    def n_steps(self) -> int:
        # duration/h with a final partial step truncated
        return int(self.duration / self.h + 1e-9)


@dataclass
class Trajectory:
    """Per-step record of every loop signal.

    The controller columns (bis_filtered, ce_model, i_t, ce_ref) hold None
    on open-loop runs, where the infusion is prescribed.
    """

    t: list[float] = field(default_factory=list)
    bis_true: list[float] = field(default_factory=list)
    bis_measured: list[float] = field(default_factory=list)
    bis_filtered: list[float | None] = field(default_factory=list)
    u: list[float] = field(default_factory=list)
    c1: list[float] = field(default_factory=list)
    c2: list[float] = field(default_factory=list)
    c3: list[float] = field(default_factory=list)
    ce_true: list[float] = field(default_factory=list)
    ce_model: list[float | None] = field(default_factory=list)
    i_t: list[float | None] = field(default_factory=list)
    ce_ref: list[float | None] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.t)


TRAJECTORY_FIELDS = tuple(f.name for f in fields(Trajectory))


def resolve_controller(scenario: Scenario) -> ControllerConfig:
    """The run's controller config, its nominal e0 defaulting to the patient's
    measured awake BIS; building it checks the target against that e0."""
    cfg, e0 = scenario.controller, scenario.patient.hill.e0
    return cfg if cfg.nominal_e0 is not None else replace(cfg, nominal_e0=e0)


# (start_min, rate) breakpoints of an open-loop run's infusion.
InfusionProfile = Sequence[tuple[float, float]]


def _rate_at(profile: InfusionProfile, t: float) -> float:
    """Piecewise-constant rate: last breakpoint at or before t wins."""
    rate = 0.0
    for start, r in profile:
        if start <= t:
            rate = r
        else:
            break
    return rate


def _offsets(noise: float, seed: int, n_steps: int) -> Iterable[float]:
    offsets = noise_stream(noise, seed, n_steps)
    # A noise-free run's offsets are all +0.0: repeated, not held as a list.
    return offsets.tolist() if offsets.any() else repeat(0.0, n_steps)


def _failure_prefix(k: int, h: float) -> str:
    """What a run's error at step k starts with."""
    return f"step {k} (t={k * h:.4f} min): "


def _named(run, scenario: Scenario, *args):
    """run(scenario, *args), with the run named in front of any BisloopError
    it raises: 'patient <id>, tf2=<tf2> min: ', then the error's message."""
    try:
        return run(scenario, *args)
    except BisloopError as e:
        raise type(e)(f"patient {scenario.patient.id}, "
                      f"tf2={scenario.controller.tf2:.6g} min: {e}") from e


def _trajectory(values: list[float | None]) -> Trajectory:
    # Every step's values in TRAJECTORY_FIELDS order, in one flat list of
    # floats: per-step tuples kept alive would wake the cyclic GC.
    n = len(TRAJECTORY_FIELDS)
    return Trajectory(*(values[i::n] for i in range(n)))


def _reference_run(scenario: Scenario, profile: InfusionProfile | None = None) -> Trajectory:
    """The per-step reference loop, which _run and the lanes are pinned to:
    open loop under profile when it is given, else closed loop.

    Built from the model's own functions: hill_bis, disturbance_at, then
    controller_step (lp2_step, inverse_hill, the PI law, DiscretePk.step on
    the internal model) or _rate_at, then DiscretePk.step on the plant.
    Each step measures BIS, records the step, then advances the plant under
    u held constant for the step.  A failure raises its error with the
    failing step index attached.  Runs take this loop only to explain a
    failure (_explain); it is also the tests' oracle.
    """
    patient, h, disturbance = scenario.patient, scenario.h, scenario.disturbance
    hill, advance = patient.hill, DiscretePk(patient.pk, h).step
    if profile is None:
        cfg = resolve_controller(scenario)
        cs = ControllerState.initial(cfg, awake_bis=hill.e0)
        model = DiscretePk(MODEL_PK, h)

        def control(t: float, bm: float) -> tuple:
            ce_model = cs.model_state.ce
            u = controller_step(cs, cfg, model, bm)
            return u, cs.f1.x2, ce_model, cs.f2.x2, cfg.ce_ref
    else:
        def control(t: float, bm: float) -> tuple:
            return _rate_at(profile, t), None, None, None, None

    state = ZERO_STATE
    values: list[float | None] = []
    for k, offset in enumerate(_offsets(scenario.noise, scenario.seed, scenario.n_steps)):
        t = k * h
        try:
            bt = hill_bis(state.ce, hill)
            bm = bt + disturbance_at(disturbance, t) + offset
            bm = 0.0 if bm < 0.0 else (100.0 if bm > 100.0 else bm)
            u, bis_f, ce_model, i_t, ce_ref = control(t, bm)
            values.extend((t, bt, bm, bis_f, u, *state, ce_model, i_t, ce_ref))
            state = advance(state, u)
        except (ModelError, ControllerError) as e:
            raise type(e)(f"{_failure_prefix(k, h)}{e}") from e
    return _trajectory(values)


def _explain(scenario: Scenario, profile: InfusionProfile | None, k: int) -> NoReturn:
    """Raise the error of a fast loop (_run or a lane) that failed at step k:
    the per-step reference's if it fails at step k too, else RuntimeError."""
    try:
        _reference_run(scenario, profile)
    except BisloopError as e:
        if str(e).startswith(_failure_prefix(k, scenario.h)):
            raise
    raise RuntimeError(f"a fast loop failed at step {k}; its reference did not")


def _run(scenario: Scenario, profile: InfusionProfile | None = None) -> Trajectory:
    """The scalar step loop both runners share: _reference_run on local floats.

    Every value of the loop is a local float: the plant's and the internal
    model's c1, c2, c3, ce, both filters and the integrator.  What does not
    change per step is computed once: phi and gamma unpacked, the nominal
    curve's emax - e0 and 1/gamma, each filter's 1 - exp(-h/tf) (or
    passthrough at tf = 0), the gains and ce_ref.  The pulse sum and the
    open-loop rate are re-read from disturbance_at and _rate_at only at
    steps reaching one of their edges; in between they are constant.  Each
    step repeats the reference's float operations in its order, so the two
    agree bit for bit.  Open loop (profile given) is the same loop with the
    controller block off.

    States no failure of its own: an out-of-domain reading inverts to NaN,
    and one finiteness test per step covers what the reference tests: bt,
    u (which a NaN reading makes NaN), the model and the plant state.  When
    it fails, or ce ** gamma overflows, _explain raises the reference's error
    at that step.
    """
    patient, h, disturbance = scenario.patient, scenario.h, scenario.disturbance
    hill = patient.hill
    e0, emax, gamma, c50g = hill.e0, hill.emax, hill.gamma, hill.c50g
    plant = DiscretePk(patient.pk, h)
    (p11, p12, p13, p14), (p21, p22, p23, p24), (p31, p32, p33, p34), \
        (p41, p42, p43, p44) = plant.phi
    g1, g2, g3, g4 = plant.gamma
    edges = {p.start for p in disturbance} | {p.start + p.duration for p in disturbance}
    closed = profile is None
    if closed:
        cfg = resolve_controller(scenario)
        nominal = cfg.nominal
        n_e0, n_emax_e0, n_ce50 = nominal.e0, nominal.emax - nominal.e0, nominal.ce50
        inv_gamma = 1.0 / nominal.gamma
        kp, ki, u_max, ce_ref = cfg.kp, cfg.ki, cfg.u_max, cfg.ce_ref
        pass1, pass2 = cfg.tf1 == 0.0, cfg.tf2 == 0.0
        a1 = 0.0 if pass1 else 1.0 - math.exp(-h / cfg.tf1)
        a2 = 0.0 if pass2 else 1.0 - math.exp(-h / cfg.tf2)
        model = DiscretePk(MODEL_PK, h)
        (q11, q12, q13, q14), (q21, q22, q23, q24), (q31, q32, q33, q34), \
            (q41, q42, q43, q44) = model.phi
        k1, k2, k3, k4 = model.gamma
        f1x1 = f1x2 = e0
        f2x1 = f2x2 = integrator = m1 = m2 = m3 = m4 = 0.0
    else:
        bis_f = ce_model = i_t = ce_ref = None
        edges.update(start for start, _ in profile)
    edges = sorted(edges) + [math.inf]
    edge = edges[0]
    d = u = c1 = c2 = c3 = ce = 0.0
    values: list[float | None] = []
    try:
        for k, offset in enumerate(_offsets(scenario.noise, scenario.seed, scenario.n_steps)):
            t = k * h
            if t >= edge:
                d = disturbance_at(disturbance, t)
                if not closed:
                    u = _rate_at(profile, t)
                edge = edges[bisect_right(edges, t)]
            # The clamped ce is never negative; at ce = +-0.0, x is +-0.0
            # and bt is e0 exactly, what hill_bis's ce <= 0 branch returns.
            x = ce ** gamma
            bt = e0 - emax * x / (x + c50g)
            bm = bt + d + offset
            bm = 0.0 if bm < 0.0 else (100.0 if bm > 100.0 else bm)
            if closed:
                if pass1:
                    f1x1 = f1x2 = bm
                else:
                    f1x1 += a1 * (bm - f1x1)
                    f1x2 += a1 * (f1x1 - f1x2)
                if f1x2 >= n_e0:
                    ce_meas = 0.0
                else:
                    den = n_emax_e0 + f1x2
                    ce_meas = (n_ce50 * ((n_e0 - f1x2) / den) ** inv_gamma if den > 0.0
                               else math.nan)
                w = ce_meas - m4
                if pass2:
                    f2x1 = f2x2 = w
                else:
                    f2x1 += a2 * (w - f2x1)
                    f2x2 += a2 * (f2x1 - f2x2)
                err = ce_ref - (m4 + f2x2)
                proposed = integrator + ki * err * h
                u = kp * err + proposed
                if (u > u_max and err > 0.0) or (u < 0.0 and err < 0.0):
                    u = kp * err + integrator
                else:
                    integrator = proposed
                u = 0.0 if u < 0.0 else (u_max if u > u_max else u)
                bis_f, ce_model, i_t = f1x2, m4, f2x2
                y1 = q11 * m1 + q12 * m2 + q13 * m3 + q14 * m4 + k1 * u
                y2 = q21 * m1 + q22 * m2 + q23 * m3 + q24 * m4 + k2 * u
                y3 = q31 * m1 + q32 * m2 + q33 * m3 + q34 * m4 + k3 * u
                y4 = q41 * m1 + q42 * m2 + q43 * m3 + q44 * m4 + k4 * u
                # (v - v) is 0.0 for a finite v and NaN otherwise, so check
                # is NaN when any value is not.  A NaN reading, which the
                # reference rejects, makes u NaN.
                check = (u - u) + (y1 - y1) + (y2 - y2) + (y3 - y3) + (y4 - y4)
                m1 = 0.0 if y1 < 0.0 else y1
                m2 = 0.0 if y2 < 0.0 else y2
                m3 = 0.0 if y3 < 0.0 else y3
                m4 = 0.0 if y4 < 0.0 else y4
            else:
                check = 0.0
            values.extend((t, bt, bm, bis_f, u, c1, c2, c3, ce, ce_model, i_t, ce_ref))
            x1 = p11 * c1 + p12 * c2 + p13 * c3 + p14 * ce + g1 * u
            x2 = p21 * c1 + p22 * c2 + p23 * c3 + p24 * ce + g2 * u
            x3 = p31 * c1 + p32 * c2 + p33 * c3 + p34 * ce + g3 * u
            x4 = p41 * c1 + p42 * c2 + p43 * c3 + p44 * ce + g4 * u
            check += (bt - bt) + (x1 - x1) + (x2 - x2) + (x3 - x3) + (x4 - x4)
            if check != check:
                break
            c1 = 0.0 if x1 < 0.0 else x1
            c2 = 0.0 if x2 < 0.0 else x2
            c3 = 0.0 if x3 < 0.0 else x3
            ce = 0.0 if x4 < 0.0 else x4
        else:
            return _trajectory(values)
    except OverflowError:
        pass
    _explain(scenario, profile, k)


def run_closed_loop(scenario: Scenario) -> Trajectory:
    """Simulate the full feedback loop and record every signal.

    The patient starts drug-free (BIS at the awake baseline).  Each step
    measures, controls, then advances the plant under the issued rate held
    constant for the step.  Controller or integration failures abort the
    run with the failing step index attached.
    """
    return _run(scenario)


def _lp2_lanes(x1: np.ndarray, x2: np.ndarray, w: np.ndarray, a: np.ndarray,
               passthrough: np.ndarray | None, tmp: np.ndarray) -> None:
    """lp2_step on lane arrays, in place; x2 is the filter output.  The
    passthrough lanes (tf = 0), if any, take w after each section's lag."""
    np.subtract(w, x1, tmp)
    np.multiply(a, tmp, tmp)
    np.add(x1, tmp, x1)
    if passthrough is not None:
        np.copyto(x1, w, where=passthrough)
    np.subtract(x1, x2, tmp)
    np.multiply(a, tmp, tmp)
    np.add(x2, tmp, x2)
    if passthrough is not None:
        np.copyto(x2, w, where=passthrough)


@np.errstate(all="ignore")   # a failing lane's inf and NaN warn nothing
def _closed_loop_lanes(scenarios: Sequence[Scenario]) -> np.ndarray:
    """run_closed_loop on L noise-free scenarios at once: bis_measured, shape
    (n_steps, L).

    The scenarios share h, the step count and the disturbance profile, and
    have noise 0, as the tuning sweep builds them; patient and controller
    are per lane.  Lane j equals run_closed_loop(scenarios[j]) bit for bit:
    each step repeats the scalar loop's arithmetic in its order, powers by
    np.float_power (the libm pow that float.__pow__ calls), and the plants
    and internal models advance by one DiscretePk step over 2L columns.  A
    lane's BIS or state turns non-finite in the step where its scalar loop
    fails; the first such lane goes to _explain, and the reference's error at
    that step is raised with the lane named in front, as run_many names a
    failing run.  So is a lane whose controller does not resolve.

    Each step is a fixed sequence of ufunc calls writing into buffers built
    once per run: the other signals live in one frame, which also holds the
    plant state in place, and each step computes its measured BIS in its own
    row of the output.  What does not change per step is decided once: the
    pulse sum of each step, the per-lane constants, and whether a filter has
    passthrough lanes to overwrite.
    """
    n_lanes, h, n_steps = len(scenarios), scenarios[0].h, scenarios[0].n_steps
    patients = [s.patient for s in scenarios]
    cfgs = [_named(resolve_controller, s) for s in scenarios]

    def lanes(objs, keys: str) -> list[np.ndarray]:
        return [np.array([getattr(o, k) for o in objs], dtype=float) for k in keys.split()]

    p_e0, p_emax, p_c50g, p_gamma = lanes([p.hill for p in patients], "e0 emax c50g gamma")
    e0, emax, ce50, gamma = lanes([c.nominal for c in cfgs], "e0 emax ce50 gamma")
    kp, ki, u_max, tf1, tf2, ce_ref = lanes(cfgs, "kp ki u_max tf1 tf2 ce_ref")
    # inverse_hill's den is (emax - e0) + bis; its first sum is per lane.
    emax_e0, inv_gamma = emax - e0, 1.0 / gamma
    # Constants as lane arrays: a ufunc runs faster on an array operand than a float.
    zero, hundred, nan, h_lanes = (np.full(n_lanes, v) for v in (0.0, 100.0, np.nan, h))
    a1, a2 = (np.array([0.0 if x == 0.0 else 1.0 - math.exp(-h / x) for x in tf.tolist()])
              for tf in (tf1, tf2))
    pass1, pass2 = (tf == 0.0 if (tf == 0.0).any() else None for tf in (tf1, tf2))

    # Columns 0..L-1 of the state are the patients, L..2L-1 the controller's
    # internal models, with one DiscretePk per distinct PK set.  Row i of a
    # step is (phi[i] . (c1, c2, c3, ce) + gamma[i] * u), summed in that order.
    pks = [p.pk for p in patients] + [MODEL_PK] * n_lanes
    models = {pk: DiscretePk(pk, h) for pk in dict.fromkeys(pks)}
    step_matrix = np.stack([np.column_stack((models[pk].phi, models[pk].gamma))
                            for pk in pks], axis=-1)                  # (4, 5, 2L)

    # Every lane's pulse sum at each step, as a row broadcast over the lanes.
    profile = scenarios[0].disturbance
    pulses = np.array([[disturbance_at(profile, k * h)] for k in range(n_steps)])

    # The frame's rows: bt, the two filter outputs, then the plant state c1,
    # c2, c3, ce and the rate u, each as a patient row and a model row.
    frame = np.zeros((13, n_lanes))
    bt, bis_f, i_t = frame[:3]
    state_and_u = frame[3:].reshape(5, 2 * n_lanes)
    state = state_and_u[:4]
    ce, ce_model, u, u_model = frame[9:]
    bis_f[:] = p_e0
    f1_x1 = p_e0.copy()
    f2_x1, integrator, proposed, x, tmp, den, ratio, err, kp_err = np.zeros((9, n_lanes))
    mask, low, err_sign = np.empty((3, n_lanes), dtype=bool)
    state_zero, product = np.zeros_like(state), np.empty_like(step_matrix)
    # The finiteness test covers bt, the filter outputs and the state, lanes
    # as columns; a non-finite reading or u shows in them within the step.
    checked = frame[:11]
    finite, negative = np.empty(checked.shape, dtype=bool), np.empty(state.shape, dtype=bool)

    out = np.empty((n_steps, n_lanes))
    for step, (bm, pulse) in enumerate(zip(out, pulses)):
        # The patient's BIS and the monitor's reading of it.  At ce = 0 this
        # gives e0 exactly, as hill_bis's ce <= 0 branch does.
        np.float_power(ce, p_gamma, x)
        np.add(x, p_c50g, tmp)
        np.multiply(p_emax, x, x)
        np.divide(x, tmp, x)
        np.subtract(p_e0, x, bt)
        np.add(bt, pulse, bm)
        np.less(bm, zero, mask)
        np.copyto(bm, zero, where=mask)
        np.greater(bm, hundred, mask)
        np.copyto(bm, hundred, where=mask)

        # Pre-filter, inverse nominal curve, innovation filter.
        _lp2_lanes(f1_x1, bis_f, bm, a1, pass1, tmp)
        np.add(emax_e0, bis_f, den)
        np.subtract(e0, bis_f, ratio)
        np.divide(ratio, den, ratio)
        # A validated target keeps den > 0 at every reading >= e0, so den <= 0
        # is exactly inverse_hill's out-of-domain case: NaN.  Readings at or
        # above e0 map to +0.0, as in inverse_hill.
        np.less_equal(den, zero, mask)
        np.copyto(ratio, nan, where=mask)
        np.maximum(ratio, zero, out=ratio)
        np.float_power(ratio, inv_gamma, ratio)
        np.multiply(ce50, ratio, ratio)
        np.subtract(ratio, ce_model, ratio)
        _lp2_lanes(f2_x1, i_t, ratio, a2, pass2, tmp)
        np.add(ce_model, i_t, err)
        np.subtract(ce_ref, err, err)

        # The PI law with conditional-integration anti-windup, clamped to [0, u_max].
        np.multiply(kp, err, kp_err)
        np.multiply(ki, err, proposed)
        np.multiply(proposed, h_lanes, proposed)
        np.add(integrator, proposed, proposed)
        np.add(kp_err, proposed, u)
        # Integrating would push further into the active constraint: freeze.
        np.greater(u, u_max, mask)
        np.logical_and(mask, np.greater(err, zero, err_sign), mask)
        np.less(u, zero, low)
        np.logical_and(low, np.less(err, zero, err_sign), low)
        np.logical_or(mask, low, mask)
        np.add(kp_err, integrator, tmp)
        np.copyto(u, tmp, where=mask)
        np.copyto(proposed, integrator, where=mask)
        integrator, proposed = proposed, integrator
        np.less(u, zero, mask)
        np.copyto(u, zero, where=mask)
        np.greater(u, u_max, mask)
        np.copyto(u, u_max, where=mask)

        # Advance plants and models under u.
        np.copyto(u_model, u)
        np.multiply(step_matrix, state_and_u, product)
        np.add.reduce(product, axis=1, out=state)
        if np.count_nonzero(np.isfinite(checked, finite)) < finite.size:
            _named(_explain, scenarios[int(np.argmin(finite.all(axis=0)))], None, step)
        np.copyto(state, state_zero, where=np.less(state, state_zero, negative))
    return out


def run_open_loop(patient: VirtualPatient, profile: float | InfusionProfile,
                  duration: float, h: float = Scenario.h,
                  noise: float = 0.0,
                  disturbance: Sequence[DisturbancePulse] = (),
                  seed: int = Scenario.seed) -> Trajectory:
    """Simulate a prescribed piecewise-constant infusion (no controller).

    profile is either a single constant rate in mg/min or a sequence of
    (start_min, rate) breakpoints, starts finite and non-decreasing; the last
    of equal starts wins.  Controller columns are recorded as None.  The
    run's other settings are checked as the Scenario it runs.
    """
    scenario = Scenario(patient, duration=duration, h=h, noise=noise,
                        disturbance=tuple(disturbance), seed=seed)
    if isinstance(profile, (int, float)):
        profile = ((0.0, profile),)
    # Checked before float(), which raises OverflowError beyond the float range.
    if not all(0 <= r <= sys.float_info.max for _, r in profile):
        raise ScenarioError("infusion rates must be >= 0 and finite")
    starts = [s for s, _ in profile]
    if not all(abs(s) <= sys.float_info.max for s in starts) or starts != sorted(starts):
        raise ScenarioError(f"breakpoint starts must be finite and non-decreasing, got {starts}")
    profile = tuple((float(s), float(r)) for s, r in profile)
    return _run(scenario, profile)


def run_many(scenarios: Iterable[Scenario]) -> list[Trajectory]:
    """run_closed_loop on every scenario, in input order.

    The first scenario that fails raises run_closed_loop's error for it, of
    the same type, with 'patient <id>, tf2=<tf2> min: ' in front.
    """
    return [_named(run_closed_loop, scenario) for scenario in scenarios]
