import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bisloop import (DEFAULT_TF2_MIN, ControllerConfig, ControllerError, DisturbancePulse,
                     ModelError, Scenario, ScenarioError, Trajectory, TuningError,
                     ce_bis_curve, cohort_member, degradation_ratio,
                     iae, induction_time, inverse_hill, run_closed_loop, summarize,
                     sweep_csv, tune_tf2)
from bisloop import metrics
from bisloop.engine import _closed_loop_lanes
from bisloop.metrics import _trapezoid_iae, default_tuning_scenario


def synthetic_trajectory(values, h=1 / 60):
    """Trajectory stub with a prescribed bis_true sequence."""
    traj = Trajectory()
    for i, v in enumerate(values):
        traj.t.append(i * h)
        traj.bis_true.append(v)
        traj.bis_measured.append(v)
        traj.bis_filtered.append(v)
        traj.u.append(0.0)
        traj.c1.append(0.0)
        traj.c2.append(0.0)
        traj.c3.append(0.0)
        traj.ce_true.append(0.0)
        traj.ce_model.append(0.0)
        traj.i_t.append(0.0)
        traj.ce_ref.append(0.0)
    return traj


class TestIae:
    def test_on_target_is_zero(self):
        traj = synthetic_trajectory([50.0] * 100)
        assert iae(traj, 50.0) == 0.0

    def test_constant_error_rectangle_area(self):
        # constant 5-BIS error held over a 10-minute record integrates to 50
        h = 1 / 60
        n = int(10 / h) + 1  # inclusive endpoint so the record spans 10 min
        traj = synthetic_trajectory([45.0] * n, h=h)
        assert iae(traj, 50.0) == pytest.approx(50.0, rel=1e-12)

    def test_matches_fine_grid_rectangle_oracle(self):
        # induction run sampled at h/10, trapezoid vs brute-force left-rectangle
        s = Scenario(patient=13, duration=30.0, h=1 / 600)
        traj = run_closed_loop(s)
        value = iae(traj, 50.0)
        h = 1 / 600
        oracle = sum(abs(50.0 - b) * h for b in traj.bis_true)
        assert value == pytest.approx(oracle, rel=1e-3)

    @pytest.mark.parametrize("n", [2, 3, metrics._TRAPEZOID_BLOCK - 1, metrics._TRAPEZOID_BLOCK,
                                   metrics._TRAPEZOID_BLOCK + 1, 1800])
    @pytest.mark.parametrize("lanes", [None, 1, 2, 52])
    def test_trapezoid_equals_sequential_loop(self, n, lanes):
        def sequential(ts, ys):
            total, prev_t, prev_e = 0.0, ts[0], abs(50.0 - ys[0])
            for t, y in zip(ts[1:], ys[1:]):
                e = abs(50.0 - y)
                total += 0.5 * (e + prev_e) * (t - prev_t)
                prev_t, prev_e = t, e
            return total

        rng = np.random.default_rng(n)
        ts = np.cumsum(rng.uniform(0.001, 0.1, n)).tolist()
        if lanes is None:
            ys = rng.normal(50.0, 30.0, n).tolist()
            assert repr(_trapezoid_iae(ts, ys, 50.0)) == repr(sequential(ts, ys))
        else:
            ys = rng.normal(50.0, 30.0, (n, lanes))
            assert repr(_trapezoid_iae(ts, ys, 50.0).tolist()) == \
                repr([sequential(ts, column) for column in ys.T.tolist()])

    def test_empty_trajectory_rejected(self):
        with pytest.raises(ValueError):
            iae(Trajectory(), 50.0)


class TestInductionTime:
    def test_on_target_from_start(self):
        traj = synthetic_trajectory([50.0] * 200)
        assert induction_time(traj, 50.0) == 0.0

    def test_never_in_band(self):
        traj = synthetic_trajectory([80.0] * 200)
        assert induction_time(traj, 50.0) is None

    def test_band_entry_without_hold_rejected(self):
        # dips into the band for under the hold window, then leaves the
        # double-band corridor: never settled
        values = [80.0] * 30 + [50.0] * 30 + [80.0] * 60
        traj = synthetic_trajectory(values)
        assert induction_time(traj, 50.0) is None

    def test_settles_after_transient(self):
        h = 1 / 60
        values = [80.0] * 60 + [50.0] * 300
        traj = synthetic_trajectory(values, h=h)
        assert induction_time(traj, 50.0) == pytest.approx(60 * h)

    def test_excursion_beyond_double_band_disqualifies_prefix(self):
        values = [50.0] * 120 + [62.0] * 5 + [50.0] * 300
        traj = synthetic_trajectory(values)
        t = induction_time(traj, 50.0)
        assert t == pytest.approx(125 / 60)

    def test_patient13_nominal(self, p13_nominal_traj):
        t = induction_time(p13_nominal_traj, 50.0)
        assert t is not None and t <= 4.0


class TestSummarize:
    def test_report_fields(self, p13_nominal_traj):
        rep = summarize(p13_nominal_traj, 50.0)
        assert rep.iae > 0
        assert rep.induction_time == induction_time(p13_nominal_traj, 50.0)
        assert rep.min_bis_post_crossing >= 45.0
        assert rep.steady_state_error < 0.5
        assert 0 < rep.max_u <= 200.0

    def test_never_settled_report(self):
        traj = synthetic_trajectory([80.0] * 10)
        rep = summarize(traj, 50.0)
        assert rep.induction_time is None
        assert rep.min_bis_post_crossing is None
        assert rep.steady_state_error == pytest.approx(30.0)


class TestDegradationRatio:
    def test_identical_lists_zero(self):
        assert degradation_ratio([10.0, 12.0], [10.0, 12.0]) == 0.0

    def test_uniform_scaling(self):
        base = [10.0, 20.0, 5.0]
        assert degradation_ratio([1.3 * b for b in base], base) == pytest.approx(0.3)

    def test_worst_case_selection(self):
        assert degradation_ratio([12.0, 10.0], [10.0, 10.0]) == pytest.approx(0.2)

    def test_scale_invariance(self):
        filt, base = [12.0, 11.0], [10.0, 10.5]
        d = degradation_ratio(filt, base)
        assert degradation_ratio([7 * f for f in filt],
                                 [7 * b for b in base]) == pytest.approx(d, rel=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            degradation_ratio([], [])
        with pytest.raises(ValueError):
            degradation_ratio([1.0], [0.0])
        with pytest.raises(ValueError):
            degradation_ratio([1.0, 2.0], [1.0])


class TestTuneTf2:
    def test_zero_only_grid(self):
        result = tune_tf2([0.0], threshold=0.30)
        assert result.d_values == (0.0,)
        assert result.selected_tf2 == 0.0

    def test_unreachable_target_rejected_before_the_lanes_run(self):
        template = Scenario(duration=2.0, controller=ControllerConfig(target_bis=3.0))
        with pytest.raises(ControllerError,
                           match=r"^patient 1, tf2=0 min: target_bis=3.0 is below"):
            tune_tf2([0.0, 0.5], template=template)

    @pytest.mark.parametrize("threshold", [math.nan, -math.inf])
    def test_threshold_no_ratio_meets_rejected_before_the_lanes_run(self, monkeypatch,
                                                                    threshold):
        monkeypatch.setattr(metrics, "_closed_loop_lanes", None)   # a sweep would raise TypeError
        with pytest.raises(ScenarioError, match=r"^threshold must be a number above -inf"):
            tune_tf2([0.25], threshold=threshold)

    def test_infinite_threshold_selects_last(self):
        result = tune_tf2([0.25, 0.5], threshold=math.inf)
        assert result.selected_tf2 == 0.5
        assert result.d_values[0] >= 0.0

    def test_selection_monotone_in_threshold(self):
        low = tune_tf2([0.25, 0.5], threshold=0.15)
        high = tune_tf2([0.25, 0.5], threshold=math.inf)
        assert low.selected_tf2 <= high.selected_tf2

    def test_no_feasible_point_raises_with_curve(self):
        with pytest.raises(TuningError) as exc:
            tune_tf2([5.0], threshold=1e-6)
        assert exc.value.grid == (5.0,)
        assert len(exc.value.d_values) == 1

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            tune_tf2([])
        with pytest.raises(ValueError):
            tune_tf2([0.5, 0.25])
        with pytest.raises(ValueError):
            tune_tf2([-1.0, 0.5])
        with pytest.raises(ValueError):
            tune_tf2([0.5], cohort=[])

    def test_zero_grid_point_reuses_baseline_lanes(self, monkeypatch):
        lane_counts = []
        kernel = metrics._closed_loop_lanes

        def counting(scenarios):
            lane_counts.append(len(scenarios))
            return kernel(scenarios)

        monkeypatch.setattr(metrics, "_closed_loop_lanes", counting)
        result = tune_tf2([0.0, 0.5], threshold=math.inf)
        assert lane_counts == [2 * 13]
        assert result.d_values[0] == 0.0
        assert result.d_values[1] > 0.0
        assert all(type(d) is float for d in result.d_values)
        assert type(result.selected_tf2) is float

    def test_failing_lane_named_with_step_and_time(self):
        template = replace(default_tuning_scenario(), h=5.0)
        with pytest.raises(ControllerError,
                           match=r"^patient \d+, tf2=0 min: step 1 \(t=5\.0000 min\): "
                                 r"inverse Hill out of domain"):
            tune_tf2([0.5], template=template)

    def test_lane_failing_before_its_first_step_named(self):
        # patient 10's awake BIS, 83.1, is the first below the target
        template = Scenario(duration=1.0, controller=ControllerConfig(target_bis=85))
        with pytest.raises(ControllerError) as scalar:
            run_closed_loop(replace(template, patient=10,
                                    controller=replace(template.controller, tf2=0.0)))
        with pytest.raises(ControllerError) as info:
            tune_tf2([0.5], template=template)
        assert str(info.value) == f"patient 10, tf2=0 min: {scalar.value}"

    def test_criterion_7_sweep_pinned(self):
        # The digests pin the CSV bytes and every bit of the 81 d-values.
        result = tune_tf2([0.0] + [round(0.25 * i, 10) for i in range(1, 81)], threshold=0.30)
        assert hashlib.sha256(sweep_csv(result).encode()).hexdigest() == \
            "bd6d6ebad1152fb377710532a433e83c60ebc736cb8954aefaf5534d4c962b83"
        assert hashlib.sha256(repr(result.d_values).encode()).hexdigest() == \
            "7efa5f8d4e8633d02d256c233d40f9cbc49a577391a0a14d1c8e490a5470f6b2"

    @pytest.mark.parametrize("h", [40.0, 29.999])
    def test_template_shorter_than_two_steps_rejected(self, h):
        with pytest.raises(ScenarioError, match=rf"h={h} min, duration=30.0 min"):
            tune_tf2([0.5], template=replace(default_tuning_scenario(), h=h))


# A short tuning-style run: induction, then a +10 BIS pulse at t = 3 min.
SHORT_TEMPLATE = replace(default_tuning_scenario(), duration=6.0,
                         disturbance=(DisturbancePulse(3.0, 1.0, 10.0),))
LANES = st.lists(st.tuples(st.integers(1, 13),
                           st.one_of(st.just(0.0), st.floats(0.0, 20.0))),
                 min_size=1, max_size=4)


def _lane_iaes(template, patients, tf2):
    """IAE of each lane of the kernel, run on the scenarios tune_tf2 builds."""
    runs = [replace(template, patient=p, noise=0.0,
                    controller=replace(template.controller, tf2=t, nominal_e0=None))
            for p, t in zip(patients, tf2)]
    ys = _closed_loop_lanes(runs)
    ts = [k * template.h for k in range(template.n_steps)]
    return _trapezoid_iae(ts, ys, template.controller.target_bis).tolist()


class TestLaneParity:
    """Every lane of the batched sweep loop matches the scalar run_closed_loop."""

    @settings(max_examples=20)
    @given(lanes=LANES, kp=st.floats(0.0, 40.0), ki=st.floats(0.0, 10.0))
    def test_lane_iae_matches_scalar_run(self, lanes, kp, ki):
        template = replace(SHORT_TEMPLATE,
                           controller=replace(SHORT_TEMPLATE.controller, kp=kp, ki=ki))
        patients = [cohort_member(pid) for pid, _ in lanes]
        tf2 = [t for _, t in lanes]
        try:
            expected = [
                _trapezoid_iae(traj.t, traj.bis_measured, template.controller.target_bis)
                for traj in (run_closed_loop(replace(
                    template, patient=p, controller=replace(template.controller, tf2=t)))
                    for p, t in zip(patients, tf2))]
        except (ControllerError, ModelError) as e:
            with pytest.raises(type(e)):
                _lane_iaes(template, patients, tf2)
            return
        got = _lane_iaes(template, patients, tf2)
        assert all(type(v) is float for v in got)
        assert got == expected

    def test_cohort_matches_scalar_on_tuning_scenario(self, cohort):
        template = default_tuning_scenario()
        expected = [
            _trapezoid_iae(traj.t, traj.bis_measured, 50.0)
            for traj in (run_closed_loop(replace(template, patient=p)) for p in cohort)]
        got = _lane_iaes(template, cohort, [DEFAULT_TF2_MIN] * len(cohort))
        assert got == expected


class TestCeBisCurve:
    def test_first_sample_is_baseline(self):
        p = cohort_member(13)
        pts = ce_bis_curve(p, ce_max=15.0, n_points=11)
        assert pts[0] == (0.0, 93.1)
        assert len(pts) == 11
        assert pts[-1][0] == pytest.approx(15.0)

    def test_monotone_non_increasing_for_cohort(self, cohort):
        for p in cohort:
            pts = ce_bis_curve(p, ce_max=15.0, n_points=151)
            values = [b for _, b in pts]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_target_crossing_by_bracketing_oracle(self):
        # locate BIS=50 on a dense sampled curve and compare with the
        # closed-form inverse
        p = cohort_member(13)
        n = 3001
        pts = ce_bis_curve(p, ce_max=15.0, n_points=n)
        grid_step = 15.0 / (n - 1)
        bracketed = None
        for (c0, b0), (c1, b1) in zip(pts, pts[1:]):
            if b0 >= 50.0 >= b1:
                bracketed = (c0 + c1) / 2
                break
        assert bracketed is not None
        assert abs(bracketed - inverse_hill(50.0, p.hill)) <= grid_step
        assert inverse_hill(50.0, p.hill) == pytest.approx(6.905034653589145)

    def test_validation(self):
        p = cohort_member(13)
        with pytest.raises(ValueError):
            ce_bis_curve(p, ce_max=0.0, n_points=10)
        with pytest.raises(ValueError):
            ce_bis_curve(p, ce_max=10.0, n_points=1)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="ce_max must be finite and positive"):
                ce_bis_curve(p, ce_max=bad, n_points=10)

    def test_cohort_window_report(self, cohort):
        # every member's half-depth concentration sits in the expected
        # clinical window of 3-9 mg/L for this cohort
        assert len(cohort) == 13
        assert all(3.0 <= inverse_hill(50.0, p.hill) <= 9.0 for p in cohort)
