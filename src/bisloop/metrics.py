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

from .engine import DisturbancePulse, Scenario, Trajectory, _closed_loop_lanes
from .errors import BisloopError, ScenarioError, number_error
from .patient import VirtualPatient, builtin_cohort, hill_bis


# induction_time's target band (BIS units) and hold window (min).
INDUCTION_BAND = 5.0
INDUCTION_HOLD_MIN = 1.0


def iae(traj: Trajectory, target_bis: float) -> float:
    """Integrated absolute error (BIS*min) of the drug-effect BIS (bis_true),
    trapezoidal on the run grid."""
    if len(traj) == 0:
        raise ValueError("trajectory is empty")
    return _trapezoid_iae(traj.t, traj.bis_true, target_bis)


# Rows of terms _trapezoid_iae sums per block: its buffers stay small
# however long the run.
_TRAPEZOID_BLOCK = 256


def _trapezoid_iae(ts, ys, target_bis: float):
    """Trapezoidal IAE of samples ys at times ts: a float for a sequence of
    samples, one float per lane for rows of lanes (shape (n, L)).

    Equal by bits to the sequential loop total = 0.0, then total +=
    0.5 * (e + prev_e) * (t - prev_t) per interval with e = |target_bis - y|:
    each block of intervals is one np.add.accumulate down the rows, seeded
    with the running total.  (np.add.reduce would sum a single lane
    pairwise and change the bits.)
    """
    import numpy as np

    ts, ys = np.asarray(ts, dtype=float), np.asarray(ys, dtype=float)
    n, lanes = len(ys), ys.shape[1:]
    dt = np.diff(ts).reshape((-1,) + (1,) * len(lanes))
    rows = min(n, _TRAPEZOID_BLOCK + 1)
    # Row 0 of each buffer carries the previous block's last error and total.
    e, acc = np.empty((rows,) + lanes), np.zeros((rows,) + lanes)
    np.abs(np.subtract(target_bis, ys[:1], e[:1]), e[:1])
    for start in range(1, n, _TRAPEZOID_BLOCK):
        stop = min(start + _TRAPEZOID_BLOCK, n)
        b = stop - start
        np.abs(np.subtract(target_bis, ys[start:stop], e[1:b + 1]), e[1:b + 1])
        terms = acc[1:b + 1]
        np.add(e[1:b + 1], e[:b], terms)
        np.multiply(0.5, terms, terms)
        np.multiply(terms, dt[start - 1:stop - 1], terms)
        np.add.accumulate(acc[:b + 1], axis=0, out=acc[:b + 1])
        e[0], acc[0] = e[b], acc[b]
    return acc[0].copy() if lanes else float(acc[0])


def induction_time(traj: Trajectory, target_bis: float) -> float | None:
    """Earliest time the drug-effect BIS (bis_true) settles into the target
    band: t at the settling index, or None when the band is never held.

    The settling index is the first step i such that every sample with
    t[i] <= t <= t[i] + INDUCTION_HOLD_MIN lies within target_bis +/-
    INDUCTION_BAND (a run that ends inside that window counts as holding
    it) and every sample from i to the end of the run lies within
    target_bis +/- 2*INDUCTION_BAND.
    """
    i = _settling_index(traj, target_bis)
    return None if i is None else traj.t[i]


def _settling_index(traj: Trajectory, target_bis: float) -> int | None:
    """induction_time's settling index, or None."""
    ys, ts, band = traj.bis_true, traj.t, INDUCTION_BAND
    n = len(ts)
    lo, hi = target_bis - band, target_bis + band
    lo2, hi2 = target_bis - 2 * band, target_bis + 2 * band
    # The last sample outside the 2*band corridor (NaN included), or -1: the
    # settling index lies after it.
    last = next((i for i in range(n - 1, -1, -1) if not lo2 <= ys[i] <= hi2), -1)
    j = 0
    for i in range(last + 1, n):
        if not lo <= ys[i] <= hi:
            continue
        if j < i:
            j = i
        end = ts[i] + INDUCTION_HOLD_MIN
        while j < n and ts[j] <= end and lo <= ys[j] <= hi:
            j += 1
        if j >= n or ts[j] > end:
            return i
    return None


@dataclass(frozen=True)
class MetricsReport:
    """Headline numbers for one closed-loop run."""

    iae: float
    induction_time: float | None
    min_bis_post_crossing: float | None
    steady_state_error: float
    max_u: float


def summarize(traj: Trajectory, target_bis: float) -> MetricsReport:
    """The run's headline numbers, all scored on the drug-effect BIS.

    induction_time is t at induction_time's settling index.
    min_bis_post_crossing is the minimum from that index to the end of the
    run, so it never reads below target_bis - 2*INDUCTION_BAND: a dip below
    that before the signal settles (an induction undershoot) does not show
    in it.  Both are None when the band is never held.
    """
    ys = traj.bis_true
    # t rises strictly, so the steps from the settling index on are those
    # at or after the induction time.
    i = _settling_index(traj, target_bis)
    return MetricsReport(
        iae=iae(traj, target_bis),
        induction_time=None if i is None else traj.t[i],
        min_bis_post_crossing=None if i is None else min(ys[i:]),
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
        patient=13,
        duration=30.0,
        noise=0.0,
        disturbance=(DisturbancePulse(start=15.0, duration=1.0, amplitude=10.0),),
    )


def tune_tf2(grid: list[float], threshold: float = 0.30,
             cohort: list[VirtualPatient] | None = None,
             template: Scenario | None = None,
             workers: int | None = 1) -> SweepResult:
    """Sweep the innovation filter time constant and pick the largest value
    whose worst-case cohort degradation stays within the budget.

    The baseline is the same scenario with the filter removed (tf2 = 0).
    The IAE is scored on the measured BIS, which on the noise-free tuning
    scenario is the patient's apparent depth including the arousal pulse.
    Every (tf2, patient) run of the sweep is one lane of _closed_loop_lanes,
    bit-identical to run_closed_loop.  workers is ignored; it stays because
    the benchmark under perfbench/ still passes workers=1.  Raises
    TuningError (carrying the full curve) when no grid point meets the
    threshold, and ScenarioError before any run when none can (NaN, -inf).
    """
    if not grid:
        raise ValueError("grid must be non-empty")
    grid = [float(g) for g in grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    if any(number_error(g, "non_negative") for g in grid):
        raise ValueError("grid values must be finite and >= 0")
    if not threshold > -math.inf:
        raise ScenarioError(f"threshold must be a number above -inf, got {threshold}")
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
    runs = [replace(template, patient=p, noise=0.0,
                    controller=replace(template.controller, tf2=tf2, nominal_e0=None))
            for tf2 in settings for p in cohort]
    ys = _closed_loop_lanes(runs)
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
    if want := number_error(ce_max, "positive"):
        raise ValueError(f"ce_max must be {want}, got {ce_max!r}")
    if n_points < 2:
        raise ValueError(f"n_points must be >= 2, got {n_points}")
    step = ce_max / (n_points - 1)
    return [(i * step, hill_bis(i * step, patient.hill)) for i in range(n_points)]
