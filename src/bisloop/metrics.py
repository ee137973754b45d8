"""Run metrics and innovation-filter tuning.

The tuning procedure sweeps the innovation filter time constant over a grid,
scores each value by the worst-case relative increase in integrated absolute
BIS error across the cohort (against the unfiltered loop on the same
scenario), and keeps the largest value whose degradation stays inside the
budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .control import inverse_hill
from .engine import DisturbancePulse, NoiseModel, Scenario, Trajectory, _closed_loop_lanes
from .errors import BisloopError, ScenarioError
from .patient import VirtualPatient, builtin_cohort, hill_bis


def _signal(traj: Trajectory, name: str) -> list[float]:
    try:
        values = getattr(traj, name)
    except AttributeError:
        raise ValueError(f"unknown trajectory signal {name!r}") from None
    if values and values[0] is None:
        raise ValueError(f"signal {name!r} was not recorded on this run")
    return values


def iae(traj: Trajectory, target_bis: float, signal: str = "bis_true") -> float:
    """Integrated absolute BIS error (BIS*min), trapezoidal on the run grid.

    signal selects the channel; the drug-effect channel (bis_true) is the
    noise-free default.
    """
    if len(traj) == 0:
        raise ValueError("trajectory is empty")
    return _trapezoid_iae(traj.t, _signal(traj, signal), target_bis)


def _trapezoid_iae(ts, ys, target_bis: float):
    """Trapezoidal IAE of samples ys at times ts; a sample may be a row of lanes."""
    total = 0.0
    prev_t = ts[0]
    prev_e = abs(target_bis - ys[0])
    for t, y in zip(ts[1:], ys[1:]):
        e = abs(target_bis - y)
        total += 0.5 * (e + prev_e) * (t - prev_t)
        prev_t, prev_e = t, e
    return total


def induction_time(traj: Trajectory, target_bis: float, band: float = 5.0,
                   hold: float = 1.0, signal: str = "bis_true") -> float | None:
    """Earliest time the BIS settles into the target band.

    Settling requires the signal to stay within +/-band for the following
    hold window and never to leave +/-2*band afterwards until the end of
    the run.  Returns None when the band is never held.
    """
    ys = _signal(traj, signal)
    ts = traj.t
    n = len(ts)
    if n == 0:
        return None
    lo, hi = target_bis - band, target_bis + band
    lo2, hi2 = target_bis - 2 * band, target_bis + 2 * band
    # suffix[i]: every sample from i on stays inside the 2*band corridor
    suffix = [False] * (n + 1)
    suffix[n] = True
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] and lo2 <= ys[i] <= hi2
    j = 0
    for i in range(n):
        if not (lo <= ys[i] <= hi and suffix[i]):
            continue
        if j < i:
            j = i
        end = ts[i] + hold
        while j < n and ts[j] <= end and lo <= ys[j] <= hi:
            j += 1
        if j >= n or ts[j] > end:
            return ts[i]
    return None


@dataclass(frozen=True)
class MetricsReport:
    """Headline numbers for one closed-loop run."""

    iae: float
    induction_time: float | None
    min_bis_post_crossing: float | None
    steady_state_error: float
    max_u: float


def summarize(traj: Trajectory, target_bis: float, band: float = 5.0,
              signal: str = "bis_true") -> MetricsReport:
    ys = _signal(traj, signal)
    t_ind = induction_time(traj, target_bis, band=band, signal=signal)
    min_post = None
    for y, t in zip(ys, traj.t):
        if t_ind is not None and t >= t_ind:
            min_post = y if min_post is None else min(min_post, y)
    return MetricsReport(
        iae=iae(traj, target_bis, signal=signal),
        induction_time=t_ind,
        min_bis_post_crossing=min_post,
        steady_state_error=abs(ys[-1] - target_bis),
        max_u=max(traj.u),
    )


def degradation_ratio(iae_with_filter: list[float], iae_baseline: list[float]) -> float:
    """Worst-case relative IAE increase: max over patients of (f - b)/b."""
    if not iae_with_filter or not iae_baseline:
        raise ValueError("IAE lists must be non-empty")
    if len(iae_with_filter) != len(iae_baseline):
        raise ValueError("IAE lists must have equal length")
    if any(b <= 0 for b in iae_baseline):
        raise ValueError("baseline IAE values must be positive")
    return max((f - b) / b for f, b in zip(iae_with_filter, iae_baseline))


@dataclass(frozen=True)
class SweepResult:
    """Degradation curve and the selected filter time constant."""

    grid: tuple[float, ...]
    d_values: tuple[float, ...]
    selected_tf2: float
    threshold: float


class TuningError(BisloopError):
    """No grid point satisfied the degradation budget; carries the curve."""

    def __init__(self, message: str, grid: tuple[float, ...], d_values: tuple[float, ...]):
        super().__init__(message)
        self.grid = grid
        self.d_values = d_values


def default_tuning_scenario() -> Scenario:
    """Noise-free regulation run used to score a filter setting.

    Full run from the awake state so the score captures how much the filter
    slows both induction and the rejection of a mid-maintenance arousal
    pulse; a converged-start run would leave the unfiltered baseline with
    nothing to integrate.
    """
    return Scenario(
        patient_id=13,
        duration=30.0,
        noise=NoiseModel(),
        disturbance=(DisturbancePulse(start=15.0, duration=1.0, amplitude=10.0),),
    )


# The trajectory channels tune_tf2 can score.
LANE_CHANNELS = ("bis_true", "bis_measured", "bis_filtered")


def tune_tf2(grid: list[float], threshold: float = 0.30,
             cohort: list[VirtualPatient] | None = None,
             template: Scenario | None = None,
             signal: str = "bis_measured",
             workers: int | None = 1) -> SweepResult:
    """Sweep the innovation filter time constant and pick the largest value
    whose worst-case cohort degradation stays within the budget.

    The baseline is the same scenario with the filter removed (tf2 = 0).
    The IAE channel defaults to the measured BIS, which on the noise-free
    tuning scenario is the patient's apparent depth including the arousal
    pulse; bis_true and bis_filtered can be scored too.  Every (tf2,
    patient) run of the sweep is one lane of _closed_loop_lanes, bit-identical
    to run_closed_loop; workers is ignored, kept for callers that still pass
    it.  Raises TuningError (carrying the full curve) when no grid point
    meets the threshold.
    """
    if not grid:
        raise ValueError("grid must be non-empty")
    grid = [float(g) for g in grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    if any(g < 0 for g in grid):
        raise ValueError("grid values must be >= 0")
    if signal not in LANE_CHANNELS:
        raise ValueError(f"tuning scores one of {LANE_CHANNELS}, got {signal!r}")
    cohort = cohort if cohort is not None else builtin_cohort()
    if not cohort:
        raise ValueError("cohort must be non-empty")
    template = template if template is not None else default_tuning_scenario()
    if template.n_steps < 2:
        raise ScenarioError(
            f"tuning template has {template.n_steps} steps (h={template.h} min, "
            f"duration={template.duration} min); the sweep needs at least 2")

    # The baseline lanes double as the tf2 = 0 grid point.  Each lane is the
    # template on one patient, noise-free, with the nominal curve resolved
    # from that patient.
    settings = [0.0] + [tf2 for tf2 in grid if tf2 != 0.0]
    runs = [replace(template, patient_id=None, patient=p, noise=NoiseModel(),
                    controller=replace(template.controller, tf2=tf2, nominal_e0=None))
            for tf2 in settings for p in cohort]
    ys = _closed_loop_lanes(runs, (signal,))[:, 0]
    ts = [k * template.h for k in range(template.n_steps)]
    iaes = _trapezoid_iae(ts, ys, template.controller.target_bis).tolist()
    n = len(cohort)
    baseline = iaes[:n]
    d_at = {tf2: degradation_ratio(iaes[i * n:(i + 1) * n], baseline)
            for i, tf2 in enumerate(settings)}
    d_values = tuple(d_at[tf2] for tf2 in grid)

    selected = None
    for tf2, d in zip(grid, d_values):
        if d <= threshold:
            selected = tf2
    if selected is None:
        raise TuningError(
            f"no grid point keeps the degradation ratio within {threshold}",
            tuple(grid), d_values)
    return SweepResult(grid=tuple(grid), d_values=d_values,
                       selected_tf2=selected, threshold=threshold)


def ce_bis_curve(patient: VirtualPatient, ce_max: float,
                 n_points: int) -> list[tuple[float, float]]:
    """Sample the patient's concentration-effect curve on [0, ce_max]."""
    if not 0 < ce_max < math.inf:
        raise ValueError(f"ce_max must be finite and positive, got {ce_max}")
    if n_points < 2:
        raise ValueError(f"n_points must be >= 2, got {n_points}")
    step = ce_max / (n_points - 1)
    return [(i * step, hill_bis(i * step, patient.hill)) for i in range(n_points)]


def cohort_target_window(cohort: list[VirtualPatient], target_bis: float = 50.0,
                         lo: float = 3.0, hi: float = 9.0
                         ) -> list[tuple[int, float, bool]]:
    """Per patient: the ce reaching the target BIS and whether it falls in
    the expected clinical window.  Raises ControllerError when a patient's
    curve cannot reach target_bis."""
    out = []
    for p in cohort:
        ce = inverse_hill(target_bis, p.hill)
        out.append((p.id, ce, lo <= ce <= hi))
    return out
