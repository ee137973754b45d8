"""Closed-loop and open-loop simulation runner.

A run advances the true patient by exact zero-order-hold steps, produces the
measured BIS (monitor clamp, optional additive disturbance pulses plus
Gaussian noise), feeds the controller, and records every signal per step.
Runs are deterministic: the noise stream is a pure function of the scenario
seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from itertools import repeat
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .control import (MODEL_PK, POPULATION_CE50, POPULATION_EMAX, POPULATION_GAMMA,
                      ControllerConfig, ControllerState, controller_step)
from .errors import BisloopError, ControllerError, ModelError, ScenarioError
from .patient import (AVERAGE_PATIENT_ID, DiscretePk, PkPreset, VirtualPatient, ZERO_STATE,
                      cohort_member, hill_bis)

# Step budget of one run: duration / h may not exceed it.  A million steps is
# 11.6 days at the default 1-s step; the longest benchmark run has 14 400.
MAX_STEPS = 1_000_000


class NoiseKind(str, Enum):
    NONE = "none"
    GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class NoiseModel:
    """Additive measurement noise on the BIS channel."""

    kind: NoiseKind = NoiseKind.NONE
    sigma: float = 2.0    # BIS units

    def __post_init__(self):
        if not 0 <= self.sigma < math.inf:
            raise ScenarioError(f"noise sigma must be finite and >= 0, got {self.sigma}")


def noise_stream(model: NoiseModel, seed: int, n_steps: int) -> np.ndarray:
    """A run's BIS offsets, one per step: all zero for the no-noise model,
    else default_rng(seed).normal(0, sigma, n_steps)."""
    if model.kind is NoiseKind.NONE or model.sigma == 0.0:
        return np.zeros(n_steps)
    return np.random.default_rng(seed).normal(0.0, model.sigma, n_steps)


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

    patient_id: int | None = None
    patient: VirtualPatient | None = None
    pk_preset: PkPreset = PkPreset.SCHNIDER_CORRECTED
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    duration: float = 60.0      # min
    h: float = 1.0 / 60.0       # min
    noise: NoiseModel = field(default_factory=NoiseModel)
    disturbance: tuple[DisturbancePulse, ...] = ()
    seed: int = 0

    def __post_init__(self):
        _check_run(self.duration, self.h, self.seed, self.disturbance)
        if self.patient_id is not None and self.patient is not None:
            raise ScenarioError("give either patient_id or an explicit patient, not both")

    def resolve_patient(self) -> VirtualPatient:
        if self.patient is not None:
            return self.patient
        pid = AVERAGE_PATIENT_ID if self.patient_id is None else self.patient_id
        return cohort_member(pid, self.pk_preset)

    @property
    def n_steps(self) -> int:
        return _step_count(self.duration, self.h)


def _check_run(duration: float, h: float, seed: int,
               disturbance: Sequence[DisturbancePulse]) -> None:
    """Reject run settings no run can use; zero-step runs are left to _run."""
    for name, value in (("duration", duration), ("h", h)):
        if not 0 < value < math.inf:
            raise ScenarioError(f"{name} must be finite and positive, got {value}")
    if duration / h > MAX_STEPS:
        raise ScenarioError(f"run of {duration / h:.6g} steps (duration={duration} min, "
                            f"h={h} min) exceeds MAX_STEPS={MAX_STEPS}")
    if seed < 0:
        raise ScenarioError(f"seed must be >= 0, got {seed}")
    for p in disturbance:
        if not (math.isfinite(p.start) and 0 < p.duration < math.inf
                and math.isfinite(p.amplitude)):
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
    """The run's validated controller config, its nominal e0 defaulting to the
    patient's measured awake BIS."""
    if cfg.nominal_e0 is None:
        cfg = replace(cfg, nominal_e0=patient.hill.e0)
    cfg.validate()
    return cfg


def _run(patient: VirtualPatient, duration: float, h: float,
         disturbance: Sequence[DisturbancePulse], noise: NoiseModel, seed: int,
         control: Callable[[float, float], tuple]) -> Trajectory:
    """The step loop both runners share.

    Each step measures BIS, asks control(t, measured_bis) for
    (u, bis_filtered, ce_model, i_t, ce_ref), records the step, then
    advances the plant under u held constant for the step.  Failures abort
    the run with the failing step index attached.
    """
    n_steps = _step_count(duration, h)
    if n_steps < 1:
        raise ScenarioError(f"run has no steps (h={h} min, duration={duration} min)")
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
    patient = scenario.resolve_patient()
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


def _lp2_lanes(x1: np.ndarray, x2: np.ndarray, w: np.ndarray, a, passthrough
               ) -> tuple[np.ndarray, np.ndarray]:
    """lp2_step on lane arrays; the new x2 is the filter output."""
    x1 = np.where(passthrough, w, x1 + a * (w - x1))
    x2 = np.where(passthrough, w, x2 + a * (x1 - x2))
    return x1, x2


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
    """
    n_lanes, h, n_steps = len(scenarios), scenarios[0].h, scenarios[0].n_steps
    patients = [s.resolve_patient() for s in scenarios]
    cfgs = [resolve_controller(s.controller, p) for s, p in zip(scenarios, patients)]

    def lanes(objs, keys: str) -> list[np.ndarray]:
        return [np.array([getattr(o, k) for o in objs], dtype=float) for k in keys.split()]

    p_e0, p_emax, p_ce50, p_gamma = lanes([p.hill for p in patients], "e0 emax ce50 gamma")
    e0, kp, ki, u_max, tf1, tf2 = lanes(cfgs, "nominal_e0 kp ki u_max tf1 tf2")
    inv_gamma, p_c50g = 1.0 / POPULATION_GAMMA, np.float_power(p_ce50, p_gamma)
    # resolve_controller validated every target, so each one inverts.
    ce_ref = np.array([c.ce_ref for c in cfgs])
    a1, a2 = (np.array([0.0 if x == 0.0 else 1.0 - math.exp(-h / x) for x in tf.tolist()])
              for tf in (tf1, tf2))
    pass1, pass2 = tf1 == 0.0, tf2 == 0.0

    # Columns 0..L-1 are the patients, L..2L-1 the controller's internal
    # models, with one DiscretePk per distinct PK set.
    pks = [p.pk for p in patients] + [MODEL_PK] * n_lanes
    models = {pk: DiscretePk(pk, h) for pk in dict.fromkeys(pks)}
    phi = np.stack([models[pk].phi for pk in pks], axis=-1)        # (4, 4, 2L)
    gamma = np.stack([models[pk].gamma for pk in pks], axis=-1)    # (4, 2L)

    # Pulse sums per step of each distinct profile; each lane's noise stream.
    profiles = {d: i for i, d in enumerate(dict.fromkeys(s.disturbance for s in scenarios))}
    pulses = np.array([[disturbance_at(d, k * h) for d in profiles] for k in range(n_steps)])
    profile = np.array([profiles[s.disturbance] for s in scenarios])
    noise = np.empty((n_steps, n_lanes))
    for j, s in enumerate(scenarios):
        noise[:, j] = noise_stream(s.noise, s.seed, n_steps)

    picks = [TRAJECTORY_FIELDS.index(name) for name in names]
    s = np.zeros((4, 2 * n_lanes))
    f1 = (p_e0, p_e0)
    f2 = (np.zeros(n_lanes), np.zeros(n_lanes))
    integrator = np.zeros(n_lanes)
    out = np.empty((n_steps, len(picks), n_lanes))
    for step in range(n_steps):
        t = step * h
        ce, ce_model = s[3, :n_lanes], s[3, n_lanes:]
        # At ce = 0 this gives e0 exactly, as hill_bis's ce <= 0 branch does.
        x = np.float_power(ce, p_gamma)
        bt = p_e0 - p_emax * x / (x + p_c50g)
        bm = bt + pulses[step, profile] + noise[step]
        bm = np.where(bm < 0.0, 0.0, np.where(bm > 100.0, 100.0, bm))

        f1 = _lp2_lanes(*f1, bm, a1, pass1)
        bis_f = f1[1]
        den = POPULATION_EMAX - e0 + bis_f
        # A validated target keeps den > 0 at every reading >= e0, so den <= 0
        # is exactly inverse_hill's out-of-domain case: NaN.  Readings at or
        # above e0 map to +0.0, as in inverse_hill.
        ratio = np.where(den > 0.0, (e0 - bis_f) / den, np.nan)
        ce_meas = POPULATION_CE50 * np.float_power(np.maximum(ratio, 0.0), inv_gamma)
        f2 = _lp2_lanes(*f2, ce_meas - ce_model, a2, pass2)
        err = ce_ref - (ce_model + f2[1])

        proposed = integrator + ki * err * h
        u_raw = kp * err + proposed
        low, high = u_raw < 0.0, u_raw > u_max
        # Integrating would push further into the active constraint: freeze.
        freeze = (high & (err > 0.0)) | (low & (err < 0.0))
        u_raw = np.where(freeze, kp * err + integrator, u_raw)
        u = np.where(u_raw < 0.0, 0.0, np.where(u_raw > u_max, u_max, u_raw))
        integrator = np.where(freeze, integrator, proposed)

        row = (t, bt, bm, bis_f, u, *s[:, :n_lanes], ce_model, f2[1], ce_ref)
        for i, c in enumerate(picks):
            out[step, i] = row[c]
        s = (phi * s).sum(axis=1) + gamma * np.concatenate((u, u))
        if not np.isfinite(s).all():
            finite = np.isfinite(s).all(axis=0)
            j = int(np.argmin(finite[:n_lanes] & finite[n_lanes:]))
            prefix = f"step {step} (t={t:.4f} min): "
            try:
                run_closed_loop(scenarios[j])
            except BisloopError as e:
                if str(e).startswith(prefix):
                    raise type(e)(f"{prefix}patient {patients[j].id}, tf2={cfgs[j].tf2:.6g} "
                                  f"min: {str(e)[len(prefix):]}") from e
            raise RuntimeError(f"lane {j} went non-finite at step {step}; run_closed_loop did not")
        s = np.where(s < 0.0, 0.0, s)
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
                  noise: NoiseModel | None = None,
                  disturbance: Sequence[DisturbancePulse] = (),
                  seed: int = 0) -> Trajectory:
    """Simulate a prescribed piecewise-constant infusion (no controller).

    profile is either a single constant rate in mg/min or a sequence of
    (start_min, rate) breakpoints, starts finite and non-decreasing; the last
    of equal starts wins.  Controller columns are recorded as None.
    """
    _check_run(duration, h, seed, disturbance)
    if isinstance(profile, (int, float)):
        profile = ((0.0, profile),)
    profile = tuple((float(s), float(r)) for s, r in profile)
    if not all(0 <= r < math.inf for _, r in profile):
        raise ScenarioError("infusion rates must be >= 0 and finite")
    starts = [s for s, _ in profile]
    if not all(map(math.isfinite, starts)) or starts != sorted(starts):
        raise ScenarioError(f"breakpoint starts must be finite and non-decreasing, got {starts}")
    return _run(patient, duration, h, disturbance, noise or NoiseModel(), seed,
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
    for (_, n_steps), members in groups.items():
        # The scalar loop also rejects a run without steps.
        if len(members) == 1 or n_steps < 1:
            for i in members:
                out[i] = run_closed_loop(scenarios[i])
            continue
        lanes = _closed_loop_lanes([scenarios[i] for i in members], TRAJECTORY_FIELDS)
        for j, i in enumerate(members):
            out[i] = Trajectory(*(lanes[:, f, j].tolist() for f in range(lanes.shape[1])))
    return out
