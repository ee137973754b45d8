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
from dataclasses import dataclass, field, fields, replace
from itertools import repeat
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .control import (MODEL_PK, POPULATION_CE50, POPULATION_EMAX, POPULATION_GAMMA,
                      ControllerConfig, ControllerState, controller_step)
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
    """Everything needed to reproduce one closed-loop run."""

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
        _check_run(self.duration, self.h, self.noise, self.seed, self.disturbance)
        if not isinstance(self.patient, VirtualPatient):
            object.__setattr__(self, "patient", cohort_member(self.patient))

    @property
    def n_steps(self) -> int:
        return _step_count(self.duration, self.h)


def _check_run(duration: float, h: float, noise: float, seed: int,
               disturbance: Sequence[DisturbancePulse]) -> None:
    """Reject run settings no run can use."""
    for name, value in (("duration", duration), ("h", h)):
        if not 0 < value <= sys.float_info.max:
            raise ScenarioError(f"{name} must be finite and positive, got {value}")
    if duration / h > MAX_STEPS:
        raise ScenarioError(f"run of {duration / h:.6g} steps (duration={duration} min, "
                            f"h={h} min) exceeds MAX_STEPS={MAX_STEPS}")
    # Only after the budget test, which keeps duration / h within int range.
    if _step_count(duration, h) < 1:
        raise ScenarioError(f"run has no steps (h={h} min, duration={duration} min)")
    if not 0 <= noise <= sys.float_info.max:
        raise ScenarioError(f"noise sigma must be finite and >= 0, got {noise}")
    if seed < 0:
        raise ScenarioError(f"seed must be >= 0, got {seed}")
    for p in disturbance:
        if not (abs(p.start) <= sys.float_info.max and 0 < p.duration <= sys.float_info.max
                and abs(p.amplitude) <= sys.float_info.max):
            raise ScenarioError(f"disturbance pulse needs a finite start and amplitude and "
                                f"a finite, positive duration, got {p}")


def _step_count(duration: float, h: float) -> int:
    # duration/h with a final partial step truncated
    return int(duration / h + 1e-9)


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


def resolve_controller(cfg: ControllerConfig, patient: VirtualPatient) -> ControllerConfig:
    """The run's controller config, its nominal e0 defaulting to the patient's
    measured awake BIS; building it checks the target against that e0."""
    return cfg if cfg.nominal_e0 is not None else replace(cfg, nominal_e0=patient.hill.e0)


def _run(patient: VirtualPatient, duration: float, h: float,
         disturbance: Sequence[DisturbancePulse], noise: float, seed: int,
         control: Callable[[float, float], tuple]) -> Trajectory:
    """The step loop both runners share.

    Each step measures BIS, asks control(t, measured_bis) for
    (u, bis_filtered, ce_model, i_t, ce_ref), records the step, then
    advances the plant under u held constant for the step.  Failures abort
    the run with the failing step index attached.
    """
    n_steps = _step_count(duration, h)
    offsets = noise_stream(noise, seed, n_steps)
    # A noise-free run's offsets are all +0.0: repeated, not held as a list.
    offsets = offsets.tolist() if offsets.any() else repeat(0.0, n_steps)
    hill, advance = patient.hill, DiscretePk(patient.pk, h).step
    state = ZERO_STATE
    # Every step's values in TRAJECTORY_FIELDS order, in one flat list of
    # floats: per-step tuples kept alive would wake the cyclic GC.
    values: list[float | None] = []
    for k, offset in enumerate(offsets):
        t = k * h
        try:
            bt = hill_bis(state.ce, hill)
            bm = bt + disturbance_at(disturbance, t) + offset
            bm = 0.0 if bm < 0.0 else (100.0 if bm > 100.0 else bm)
            u, bis_f, ce_model, i_t, ce_ref = control(t, bm)
            values.extend((t, bt, bm, bis_f, u, *state, ce_model, i_t, ce_ref))
            state = advance(state, u)
        except (ModelError, ControllerError) as e:
            raise type(e)(f"step {k} (t={t:.4f} min): {e}") from e
    n = len(TRAJECTORY_FIELDS)
    return Trajectory(*(values[i::n] for i in range(n)))


def run_closed_loop(scenario: Scenario) -> Trajectory:
    """Simulate the full feedback loop and record every signal.

    The patient starts drug-free (BIS at the awake baseline).  Each step
    measures, controls, then advances the plant under the issued rate held
    constant for the step.  Controller or integration failures abort the
    run with the failing step index attached.
    """
    patient = scenario.patient
    cfg = resolve_controller(scenario.controller, patient)
    cs = ControllerState.initial(cfg, awake_bis=patient.hill.e0)
    model = DiscretePk(MODEL_PK, scenario.h)
    ce_ref = cfg.ce_ref

    def control(t: float, bm: float) -> tuple:
        ce_model = cs.model_state.ce
        u = controller_step(cs, cfg, model, bm)
        return u, cs.f1.x2, ce_model, cs.f2.x2, ce_ref

    return _run(patient, scenario.duration, scenario.h, scenario.disturbance, scenario.noise,
                scenario.seed, control)


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


# The rows of the lane kernel's frame: the loop signals, then the plant state
# c1, c2, c3, ce and the rate u, each as a patient row and a model row.
_FRAME_ROWS = ("t", "bis_true", "bis_measured", "bis_filtered", "i_t", "ce_ref",
               "c1", "c1_model", "c2", "c2_model", "c3", "c3_model",
               "ce_true", "ce_model", "u", "u_model")


@np.errstate(all="ignore")   # a failing lane's inf and NaN warn nothing
def _closed_loop_lanes(scenarios: Sequence[Scenario], names: Sequence[str]) -> np.ndarray:
    """run_closed_loop on L scenarios at once: the named TRAJECTORY_FIELDS,
    shape (n_steps, len(names), L).

    The scenarios share h and the step count; all else is per lane.  Lane j
    equals run_closed_loop(scenarios[j]) bit for bit: each step repeats the
    scalar loop's arithmetic in its order, powers by np.float_power (the libm
    pow that float.__pow__ calls), and the plants and internal models advance
    by one DiscretePk step over 2L columns.  A lane's state turns non-finite
    in the step where its scalar loop fails; the first such lane re-runs
    run_closed_loop and raises its error at that step, naming the lane.

    Each step is a fixed sequence of ufunc calls writing into buffers built
    once per run: every signal lives in one frame, which also holds the
    plant state in place, and a step records the named rows with one take.
    What does not change per step is decided once: the per-lane pulse sums
    and constants, and whether a filter has passthrough lanes to overwrite.
    The noise table starts as zeros and only noisy lanes write their column,
    so a noise-free run never makes its pages resident.
    """
    n_lanes, h, n_steps = len(scenarios), scenarios[0].h, scenarios[0].n_steps
    patients = [s.patient for s in scenarios]
    cfgs = [resolve_controller(s.controller, p) for s, p in zip(scenarios, patients)]

    def lanes(objs, keys: str) -> list[np.ndarray]:
        return [np.array([getattr(o, k) for o in objs], dtype=float) for k in keys.split()]

    p_e0, p_emax, p_ce50, p_gamma = lanes([p.hill for p in patients], "e0 emax ce50 gamma")
    e0, kp, ki, u_max, tf1, tf2 = lanes(cfgs, "nominal_e0 kp ki u_max tf1 tf2")
    p_c50g = np.float_power(p_ce50, p_gamma)
    # inverse_hill's den is (emax - e0) + bis; its first sum is per lane.
    emax_e0 = POPULATION_EMAX - e0
    # Constants as lane arrays: a ufunc takes an array operand faster than a float.
    zero, hundred, nan, h_lanes, ce50, inv_gamma = (
        np.full(n_lanes, v) for v in (0.0, 100.0, np.nan, h, POPULATION_CE50,
                                       1.0 / POPULATION_GAMMA))
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

    # Each lane's pulse sum and noise offset per step.
    profiles = {d: i for i, d in enumerate(dict.fromkeys(s.disturbance for s in scenarios))}
    pulses = np.array([[disturbance_at(d, k * h) for d in profiles] for k in range(n_steps)])
    pulses = pulses[:, [profiles[s.disturbance] for s in scenarios]]
    noise = np.zeros((n_steps, n_lanes))
    for j, s in enumerate(scenarios):
        if s.noise:
            noise[:, j] = noise_stream(s.noise, s.seed, n_steps)

    frame = np.zeros((len(_FRAME_ROWS), n_lanes))
    _, bt, bm, bis_f, i_t, ce_ref = frame[:6]
    state_and_u = frame[6:].reshape(5, 2 * n_lanes)
    state = state_and_u[:4]
    ce, ce_model, u, u_model = frame[12:]
    # Each resolved config checked its target against its e0, so each one inverts.
    ce_ref[:] = [c.ce_ref for c in cfgs]
    bis_f[:] = p_e0
    f1_x1 = p_e0.copy()
    f2_x1, integrator, proposed, x, tmp, den, ratio, err, kp_err = np.zeros((9, n_lanes))
    mask, low, err_sign = np.empty((3, n_lanes), dtype=bool)
    state_zero, product = np.zeros_like(state), np.empty_like(step_matrix)
    finite = np.empty(state.shape, dtype=bool)
    rows = np.array([_FRAME_ROWS.index(name) for name in names])

    out = np.empty((n_steps, len(rows), n_lanes))
    for step, (record, pulse, offset) in enumerate(zip(out, pulses, noise)):
        # The patient's BIS and the monitor's reading of it.  At ce = 0 this
        # gives e0 exactly, as hill_bis's ce <= 0 branch does.
        np.float_power(ce, p_gamma, x)
        np.add(x, p_c50g, tmp)
        np.multiply(p_emax, x, x)
        np.divide(x, tmp, x)
        np.subtract(p_e0, x, bt)
        np.add(bt, pulse, bm)
        np.add(bm, offset, bm)
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

        # Record the step, then advance plants and models under u.
        frame.take(rows, 0, record, "clip")
        np.copyto(u_model, u)
        np.multiply(step_matrix, state_and_u, product)
        np.add.reduce(product, axis=1, out=state)
        if np.count_nonzero(np.isfinite(state, finite)) < finite.size:
            lane_finite = finite.all(axis=0)
            j = int(np.argmin(lane_finite[:n_lanes] & lane_finite[n_lanes:]))
            prefix = f"step {step} (t={step * h:.4f} min): "
            try:
                run_closed_loop(scenarios[j])
            except BisloopError as e:
                if str(e).startswith(prefix):
                    raise type(e)(f"{prefix}patient {patients[j].id}, tf2={cfgs[j].tf2:.6g} "
                                  f"min: {str(e)[len(prefix):]}") from e
            raise RuntimeError(f"lane {j} went non-finite at step {step}; run_closed_loop did not")
        np.copyto(state, state_zero, where=np.less(state, state_zero, finite))
    for i, name in enumerate(names):
        if name == "t":   # written once: t = step * h, as in the scalar loop
            out[:, i] = (np.arange(n_steps) * h)[:, None]
    return out


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


def run_open_loop(patient: VirtualPatient, profile: float | InfusionProfile,
                  duration: float, h: float = 1.0 / 60.0,
                  noise: float = 0.0,
                  disturbance: Sequence[DisturbancePulse] = (),
                  seed: int = 0) -> Trajectory:
    """Simulate a prescribed piecewise-constant infusion (no controller).

    profile is either a single constant rate in mg/min or a sequence of
    (start_min, rate) breakpoints, starts finite and non-decreasing; the last
    of equal starts wins.  Controller columns are recorded as None.
    """
    _check_run(duration, h, noise, seed, disturbance)
    if isinstance(profile, (int, float)):
        profile = ((0.0, profile),)
    # Checked before float(), which raises OverflowError beyond the float range.
    if not all(0 <= r <= sys.float_info.max for _, r in profile):
        raise ScenarioError("infusion rates must be >= 0 and finite")
    starts = [s for s, _ in profile]
    if not all(abs(s) <= sys.float_info.max for s in starts) or starts != sorted(starts):
        raise ScenarioError(f"breakpoint starts must be finite and non-decreasing, got {starts}")
    profile = tuple((float(s), float(r)) for s, r in profile)
    return _run(patient, duration, h, disturbance, noise, seed,
                lambda t, bm: (_rate_at(profile, t), None, None, None, None))


def run_many(scenarios: Iterable[Scenario]) -> list[Trajectory]:
    """run_closed_loop on every scenario, in input order.

    Scenarios sharing h and the step count run together as the lanes of
    _closed_loop_lanes, bit-identical to run_closed_loop; a scenario alone
    in its group runs the scalar loop, which is faster for one lane.  Groups
    run in order of first appearance, so a failure raises what the first
    failing group raises.
    """
    scenarios = list(scenarios)
    groups: dict[tuple[float, int], list[int]] = {}
    for i, s in enumerate(scenarios):
        groups.setdefault((s.h, s.n_steps), []).append(i)
    out: list[Trajectory] = [None] * len(scenarios)
    for members in groups.values():
        if len(members) == 1:
            for i in members:
                out[i] = run_closed_loop(scenarios[i])
            continue
        lanes = _closed_loop_lanes([scenarios[i] for i in members], TRAJECTORY_FIELDS)
        for j, i in enumerate(members):
            out[i] = Trajectory(*(lanes[:, f, j].tolist() for f in range(lanes.shape[1])))
    return out
