import math
import re
from dataclasses import asdict, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bisloop import (BisloopError, ControllerConfig, ControllerError, Demographics,
                     DisturbancePulse, HillParams, ModelError, Scenario, ScenarioError, Sex,
                     VirtualPatient, cohort_member, disturbance_at, noise_stream,
                     run_closed_loop, run_many, run_open_loop, tune_tf2)
from bisloop import engine
from bisloop.control import DEFAULT_TF2_MIN, inverse_hill
from bisloop.engine import MAX_STEPS
from bisloop.metrics import default_tuning_scenario, induction_time


class TestDisturbance:
    def test_empty_profile(self):
        assert disturbance_at((), 5.0) == 0.0

    def test_half_open_interval(self):
        pulse = (DisturbancePulse(30.0, 1.0, 10.0),)
        assert disturbance_at(pulse, 30.0) == 10.0
        assert disturbance_at(pulse, 30.5) == 10.0
        assert disturbance_at(pulse, 31.0) == 0.0
        assert disturbance_at(pulse, 29.999) == 0.0

    def test_overlapping_pulses_add(self):
        pulses = (DisturbancePulse(10.0, 5.0, 10.0), DisturbancePulse(12.0, 5.0, -4.0))
        assert disturbance_at(pulses, 13.0) == 6.0


class TestNoise:
    def test_none_model(self):
        assert noise_stream(Scenario().noise, 0, 5).tolist() == [0.0] * 5

    def test_zero_sigma(self):
        assert noise_stream(0.0, 0, 5).tolist() == [0.0] * 5

    def test_large_sample_statistics(self):
        samples = noise_stream(2.0, 0, 1_000_000)
        assert abs(samples.mean()) < 0.01
        assert abs(samples.std() - 2.0) < 0.01

    def test_stream_is_pure_function_of_seed(self):
        a = noise_stream(2.0, 42, 5).tolist()
        b = noise_stream(2.0, 42, 5).tolist()
        assert a == b

    def test_negative_sigma_rejected(self):
        with pytest.raises(ScenarioError):
            Scenario(noise=-1.0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf,
                                       pytest.param(10**400, id="int_above_float_range")])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(ScenarioError, match="sigma must be finite"):
            Scenario(noise=sigma)


class TestClosedLoop:
    def test_single_step_run(self):
        traj = run_closed_loop(Scenario(patient=13, duration=1 / 60))
        assert len(traj) == 1
        assert traj.t == [0.0]
        assert traj.bis_true[0] == 93.1
        assert traj.u[0] > 0.0

    def test_nominal_patient13_run(self, p13_nominal_traj):
        traj = p13_nominal_traj
        t_in = induction_time(traj, 50.0)
        assert t_in is not None and t_in <= 4.0
        assert traj.ce_true[-1] == pytest.approx(6.905, abs=0.05)
        assert abs(traj.bis_true[-1] - 50.0) < 0.5

    def test_reproducible_with_noise(self):
        s = Scenario(patient=13, duration=5.0, seed=99, noise=2.0)
        a = run_closed_loop(s)
        b = run_closed_loop(s)
        assert a.bis_measured == b.bis_measured
        assert a.u == b.u
        assert a.ce_true == b.ce_true

    def test_different_seed_differs(self):
        base = dict(patient=13, duration=2.0, noise=2.0)
        a = run_closed_loop(Scenario(seed=1, **base))
        b = run_closed_loop(Scenario(seed=2, **base))
        assert a.bis_measured != b.bis_measured

    def test_measured_clamped_to_monitor_range(self):
        s = Scenario(patient=13, duration=2.0,
                     disturbance=(DisturbancePulse(0.0, 2.0, 500.0),))
        traj = run_closed_loop(s)
        assert all(v == 100.0 for v in traj.bis_measured)
        assert all(v <= 100.0 for v in traj.bis_measured)

    def test_all_signals_finite_and_bounded(self):
        s = Scenario(patient=13, duration=10.0, seed=3,
                     noise=2.0,
                     disturbance=(DisturbancePulse(5.0, 1.0, 10.0),))
        traj = run_closed_loop(s)
        for col in (traj.bis_true, traj.bis_measured, traj.bis_filtered, traj.u,
                    traj.c1, traj.c2, traj.c3, traj.ce_true, traj.ce_model,
                    traj.i_t, traj.ce_ref):
            assert all(math.isfinite(v) for v in col)
        assert all(0.0 <= u <= s.controller.u_max for u in traj.u)
        assert all(0.0 <= v <= 100.0 for v in traj.bis_measured)

    def test_error_carries_step_index(self):
        # a huge negative artifact drags the filtered BIS below the reach of
        # the nominal curve; the run must abort naming the failing step
        from bisloop import ControllerError
        s = Scenario(patient=13, duration=2.0,
                     disturbance=(DisturbancePulse(0.0, 2.0, -1000.0),))
        with pytest.raises(ControllerError, match=r"step \d+"):
            run_closed_loop(s)

    def test_target_inverted_once_per_run(self, monkeypatch):
        # inverse_hill is called once, for the target concentration, which the
        # ce_ref column records; the loop inverts each reading inline
        from bisloop import control
        calls = []

        def counted(bis, curve):
            calls.append(bis)
            return inverse_hill(bis, curve)

        monkeypatch.setattr(control, "inverse_hill", counted)
        traj = run_closed_loop(Scenario(patient=13, duration=1.0))
        assert len(traj) == 60
        assert calls == [50.0]
        assert set(traj.ce_ref) == {inverse_hill(50.0, ControllerConfig(nominal_e0=93.1).nominal)}

    def test_time_axis_strictly_increasing(self, p13_nominal_traj):
        ts = p13_nominal_traj.t
        assert all(b > a for a, b in zip(ts, ts[1:]))
        assert len(p13_nominal_traj) == 3600


@pytest.fixture(scope="module")
def pulsed():
    s = Scenario(patient=13,
                 disturbance=(DisturbancePulse(30.0, 1.0, 10.0),))
    return run_closed_loop(s)


class TestDisturbanceResponse:
    def test_positive_pulse_raises_mean_infusion(self, pulsed):
        traj = pulsed
        u_ss = traj.u[traj.t.index(29.0)]
        in_pulse = [u for t, u in zip(traj.t, traj.u) if 30.0 <= t < 31.0]
        assert sum(in_pulse) / len(in_pulse) > u_ss

    def test_negative_pulse_lowers_mean_infusion(self):
        s = Scenario(patient=13, duration=40.0,
                     disturbance=(DisturbancePulse(30.0, 1.0, -10.0),))
        traj = run_closed_loop(s)
        u_ss = traj.u[traj.t.index(29.0)]
        in_pulse = [u for t, u in zip(traj.t, traj.u) if 30.0 <= t < 31.0]
        assert sum(in_pulse) / len(in_pulse) < u_ss

    def test_recovery_within_ten_minutes(self, pulsed):
        traj = pulsed
        late = [b for t, b in zip(traj.t, traj.bis_true) if t >= 41.0]
        assert all(abs(b - 50.0) < 2.0 for b in late)


class TestOpenLoop:
    def test_no_infusion_stays_at_baseline(self):
        p = cohort_member(13)
        traj = run_open_loop(p, 0.0, duration=5.0)
        assert all(b == 93.1 for b in traj.bis_true)
        assert all(v == 0.0 for v in traj.c1)
        assert all(v == 0.0 for v in traj.ce_true)
        assert traj.bis_filtered[0] is None
        assert traj.ce_model[0] is None

    def test_constant_rate_converges_to_clearance_equilibrium(self):
        # fast-equilibrating parameter set: all poles settle well before 300 min
        from bisloop import Demographics, HillParams, PkPreset, Sex, VirtualPatient
        demo = Demographics(age=30, height_cm=190.0, weight_kg=95.0, sex=Sex.MALE)
        hill = HillParams(e0=93.1, emax=96.58, ce50=7.42, gamma=3.0)
        p = VirtualPatient(1, demo, hill, PkPreset.AS_PUBLISHED)
        u = 10.0
        traj = run_open_loop(p, u, duration=300.0, h=1 / 60)
        assert traj.c1[-1] == pytest.approx(u / p.pk.cl1, rel=0.01)
        assert traj.ce_true[-1] == pytest.approx(u / p.pk.cl1, rel=0.01)

    def test_deep_compartment_preset_converges_on_long_horizon(self):
        # the 238 L deep compartment drains into equilibrium over hours
        p = cohort_member(13)
        u = 10.0
        traj = run_open_loop(p, u, duration=1500.0, h=0.5)
        assert traj.c1[-1] == pytest.approx(u / p.pk.cl1, rel=0.01)

    def test_linearity_doubling_rate_doubles_concentrations(self):
        p = cohort_member(13)
        profile = ((0.0, 30.0), (2.0, 5.0), (4.0, 80.0))
        doubled = tuple((t, 2 * r) for t, r in profile)
        a = run_open_loop(p, profile, duration=6.0)
        b = run_open_loop(p, doubled, duration=6.0)
        for x, y in zip(a.ce_true, b.ce_true):
            assert y == pytest.approx(2 * x, rel=1e-9, abs=1e-300)
        for x, y in zip(a.c1, b.c1):
            assert y == pytest.approx(2 * x, rel=1e-9, abs=1e-300)

    def test_negative_rate_rejected(self):
        p = cohort_member(13)
        with pytest.raises(ScenarioError):
            run_open_loop(p, ((0.0, -5.0),), duration=1.0)

    @pytest.mark.parametrize("profile", [-5.0, float("nan"), ((0.0, float("nan")),)])
    def test_negative_or_nan_rate_rejected(self, profile):
        with pytest.raises(ScenarioError, match="infusion rates must be >= 0"):
            run_open_loop(cohort_member(13), profile, duration=1.0)

    def test_run_without_steps_rejected(self):
        with pytest.raises(ScenarioError, match="h=0.02 min, duration=0.01 min"):
            run_open_loop(cohort_member(13), 10.0, duration=0.01, h=0.02)

    @pytest.mark.parametrize("profile", [
        math.inf, ((0.0, 10.0), (0.5, math.inf)),
        pytest.param(10**400, id="int_above_float_range"),
        pytest.param(((0.0, 10**400),), id="int_above_float_range_breakpoint")])
    def test_infinite_rate_rejected(self, profile):
        with pytest.raises(ScenarioError, match="infusion rates must be >= 0 and finite"):
            run_open_loop(cohort_member(13), profile, duration=1.0)

    @pytest.mark.parametrize("profile", [((10.0, 5.0), (0.0, 3.0)), ((math.nan, 5.0),),
                                         ((0.0, 5.0), (math.inf, 3.0)), ((10**400, 5.0),)])
    def test_breakpoints_out_of_order_or_non_finite_rejected(self, profile):
        with pytest.raises(ScenarioError, match="breakpoint starts must be finite"):
            run_open_loop(cohort_member(13), profile, duration=20.0)

    def test_breakpoints_sharing_a_start_last_wins(self):
        traj = run_open_loop(cohort_member(13), ((0.0, 5.0), (0.0, 3.0), (0.5, 7.0)),
                             duration=1.0)
        assert set(traj.u[:30]) == {3.0}
        assert set(traj.u[30:]) == {7.0}

    @pytest.mark.parametrize("kwargs, match", [
        ({"duration": math.inf}, "duration must be finite"),
        ({"duration": 1.0, "h": math.nan}, "h must be finite"),
        ({"duration": 1.0, "seed": -1}, "seed must be >= 0"),
        ({"duration": 1e12}, "exceeds MAX_STEPS"),
        ({"duration": 1.0, "disturbance": (DisturbancePulse(0.0, 1.0, math.nan),)},
         "disturbance pulse"),
    ])
    def test_bad_run_settings_rejected(self, kwargs, match):
        with pytest.raises(ScenarioError, match=match):
            run_open_loop(cohort_member(13), 10.0, **kwargs)


class TestStepSizeSensitivity:
    def test_open_loop_halving_h(self):
        p = cohort_member(13)
        a = run_open_loop(p, 25.0, duration=10.0, h=1 / 60)
        b = run_open_loop(p, 25.0, duration=10.0, h=1 / 120)
        for i in range(len(a)):
            for col in ("c1", "c2", "c3", "ce_true", "bis_true"):
                assert abs(getattr(a, col)[i] - getattr(b, col)[i * 2]) < 1e-6

    def test_closed_loop_halving_h(self):
        # the sampled feedback path makes the loop first-order in h, so the
        # transient shifts by O(h); outside it the runs coincide closely
        a = run_closed_loop(Scenario(patient=13, duration=20.0, h=1 / 60))
        b = run_closed_loop(Scenario(patient=13, duration=20.0, h=1 / 120))
        worst = 0.0
        for i in range(len(a)):
            for col in ("bis_true", "u", "c1", "ce_true"):
                worst = max(worst, abs(getattr(a, col)[i] - getattr(b, col)[2 * i]))
        assert worst < 0.5
        late = [abs(x - y) for x, y in zip(a.bis_true[600:], b.bis_true[1200::2])]
        assert max(late) < 2e-2


# Every run setting varies.  A deep negative pulse can pin the monitor at 0,
# where the nominal curve has no preimage, so some inputs fail.
PULSES = st.lists(st.builds(DisturbancePulse, st.floats(0.0, 1.5), st.floats(0.05, 1.0),
                            st.floats(-100.0, 30.0)), max_size=2).map(tuple)
CONTROLLERS = st.builds(
    ControllerConfig, target_bis=st.floats(30.0, 70.0), tf1=st.floats(0.0, 0.5),
    tf2=st.one_of(st.just(0.0), st.floats(0.0, 5.0)), kp=st.floats(0.0, 40.0),
    ki=st.floats(0.0, 10.0),
    nominal_e0=st.one_of(st.none(), st.floats(80.0, 100.0)))
SCENARIOS = st.builds(Scenario, patient=st.integers(1, 13), controller=CONTROLLERS,
                      duration=st.sampled_from([0.75, 1.0, 1.5]), noise=st.floats(0.0, 8.0),
                      disturbance=PULSES, seed=st.integers(0, 2**32))


# Runs that fail, one per way a run can fail once it has started.  At h = 5
# min the filtered BIS of patient 13 reaches 0 at step 1, below the nominal
# curve's reach; at kp = u_max = 1e300 the first bolus drives ce ** gamma
# beyond the float range at step 1.  On the last patient ce ** gamma stays
# finite but emax * ce ** gamma overflows at step 130: the curve reads -inf.
HILL_NON_FINITE_PATIENT = VirtualPatient(
    5, Demographics(age=38, height_cm=169.0, weight_kg=65.0, sex=Sex.FEMALE),
    HillParams(e0=95.0, emax=94.0, ce50=1.0, gamma=2.0))
FAILING = {
    "out_of_domain": replace(default_tuning_scenario(), h=5.0),
    "hill_overflow": Scenario(patient=13, duration=1.0,
                              controller=ControllerConfig(kp=1e300, u_max=1e300)),
    "hill_non_finite": Scenario(patient=HILL_NON_FINITE_PATIENT, duration=5.0,
                                controller=ControllerConfig(kp=1e300, u_max=1e156,
                                                            nominal_e0=80.0)),
}


def _runs_through(scenario):
    """The scenario on patient 1 with the controller off: it runs to the end."""
    return replace(scenario, patient=1,
                   controller=replace(scenario.controller, kp=0.0, ki=0.0))


def _failure(scenario):
    """The step at which run_closed_loop fails (-1 before the run) and the
    error type, or None when it runs."""
    try:
        run_closed_loop(scenario)
    except BisloopError as e:
        step = re.match(r"step (\d+) ", str(e))
        return (int(step.group(1)) if step else -1), type(e)
    return None


class TestRunMany:
    @settings(max_examples=30)
    @example(scenarios=[_runs_through(FAILING["out_of_domain"]), FAILING["out_of_domain"]])
    @example(scenarios=[_runs_through(FAILING["hill_overflow"]), FAILING["hill_overflow"]])
    @given(scenarios=st.lists(SCENARIOS, min_size=1, max_size=6))
    def test_equals_run_closed_loop_bit_for_bit(self, scenarios):
        # The first failing scenario in input order raises its error, named.
        failing = next((s for s in scenarios if _failure(s)), None)
        if failing is not None:
            with pytest.raises(BisloopError) as info:
                run_many(scenarios)
            assert (type(info.value), str(info.value)) == _named_error(failing)
            return
        assert [repr(asdict(t)) for t in run_many(scenarios)] == \
            [repr(asdict(run_closed_loop(s))) for s in scenarios]

    def test_first_failing_scenario_in_input_order_raises(self):
        # At one duration: a fails at step 130, b at step 1, and a comes first.
        a = FAILING["hill_non_finite"]
        b = replace(FAILING["hill_overflow"], duration=a.duration)
        assert _failure(a)[0] > _failure(b)[0]
        with pytest.raises(ModelError) as info:
            run_many([a, b])
        assert str(info.value) == _named_error(a)[1]
        assert str(info.value).startswith("patient 5, ")

    def test_run_failing_before_its_first_step_is_named(self):
        # Patient 10's awake BIS, 83.1, lies below the target: its controller
        # does not resolve, so its run fails before step 0.
        unreachable = ControllerConfig(target_bis=85)
        failing = Scenario(patient=10, controller=unreachable)
        with pytest.raises(ControllerError) as scalar:
            run_closed_loop(failing)
        with pytest.raises(ControllerError) as info:
            run_many([Scenario(patient=1, controller=unreachable), failing])
        assert type(info.value) is ControllerError
        assert str(info.value) == f"patient 10, tf2=0.163118 min: {scalar.value}"

    def test_preserves_order_and_matches_serial(self):
        scenarios = [Scenario(patient=i, duration=1.0) for i in (1, 5, 13)]
        serial = [run_closed_loop(s) for s in scenarios]
        batched = run_many(scenarios)
        for a, b in zip(serial, batched):
            assert a.u == b.u


def _reference(scenario):
    """scenario through the per-step reference loop."""
    return engine._reference_run(scenario)


def _outcome(run, *args):
    """repr(asdict) of a run's trajectory, or its error's type and message."""
    try:
        return repr(asdict(run(*args)))
    except BisloopError as e:
        return type(e), str(e)


# Short steps, passthrough filters, a pump that saturates, noise and pulses.
KERNEL_CONTROLLERS = st.builds(
    ControllerConfig, target_bis=st.floats(30.0, 70.0),
    tf1=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
    tf2=st.one_of(st.just(0.0), st.floats(0.0, 5.0)), kp=st.floats(0.0, 40.0),
    ki=st.floats(0.0, 10.0), u_max=st.one_of(st.just(200.0), st.floats(0.5, 30.0)),
    nominal_e0=st.one_of(st.none(), st.floats(80.0, 100.0)))
STEPS = st.one_of(st.just(1.0 / 60.0), st.floats(0.002, 0.1))
BREAKPOINTS = st.lists(st.tuples(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(-1.0, 2.0)),
                                 st.floats(0.0, 300.0)), max_size=5).map(sorted).map(tuple)


class TestScalarKernel:
    """run_closed_loop and run_open_loop equal the per-step reference loop:
    every column bit for bit, or the same error type and message."""

    @settings(max_examples=60, deadline=None)
    @given(scenario=st.builds(Scenario, patient=st.integers(1, 13), controller=KERNEL_CONTROLLERS,
                              duration=st.floats(0.1, 2.0), h=STEPS, noise=st.floats(0.0, 8.0),
                              disturbance=PULSES, seed=st.integers(0, 2**32)))
    def test_closed_loop_equals_reference(self, scenario):
        assert _outcome(run_closed_loop, scenario) == _outcome(_reference, scenario)

    @settings(max_examples=60, deadline=None)
    @given(patient=st.integers(1, 13).map(cohort_member),
           profile=st.one_of(BREAKPOINTS, st.floats(0.0, 300.0)), duration=st.floats(0.1, 2.0),
           h=STEPS, noise=st.floats(0.0, 8.0), disturbance=PULSES, seed=st.integers(0, 2**32))
    def test_open_loop_equals_reference(self, patient, profile, duration, h, noise,
                                        disturbance, seed):
        breakpoints = ((0.0, profile),) if isinstance(profile, float) else profile
        assert _outcome(run_open_loop, patient, profile, duration, h, noise, disturbance, seed) \
            == _outcome(engine._reference_run, Scenario(patient, duration=duration, h=h,
                                                        noise=noise, disturbance=disturbance,
                                                        seed=seed), breakpoints)

    @pytest.mark.parametrize("kind", FAILING)
    def test_failing_closed_loop_raises_the_reference_error(self, kind):
        got = _outcome(run_closed_loop, FAILING[kind])
        assert got == _outcome(_reference, FAILING[kind])
        assert isinstance(got, tuple)

    @pytest.mark.parametrize("patient, rate", [(cohort_member(13), 1e300),
                                               (HILL_NON_FINITE_PATIENT, 1e156)])
    def test_failing_open_loop_raises_the_reference_error(self, patient, rate):
        got = _outcome(run_open_loop, patient, rate, 5.0)
        assert got == _outcome(engine._reference_run, Scenario(patient, duration=5.0),
                               ((0.0, rate),))
        assert got[0] is ModelError and "Hill curve overflows" in got[1]

    @pytest.mark.parametrize("kind", FAILING)
    def test_a_failure_the_reference_does_not_share_is_a_runtime_error(self, kind, monkeypatch):
        # the loop detects each failing case itself, then asks the reference
        monkeypatch.setattr(engine, "_reference_run", lambda *args: None)
        with pytest.raises(RuntimeError, match=r"a fast loop failed at step \d+; "
                                               r"its reference did not"):
            run_closed_loop(FAILING[kind])

    @pytest.mark.parametrize("kind", FAILING)
    def test_a_lane_failure_the_reference_does_not_share_is_a_runtime_error(self, kind,
                                                                           monkeypatch):
        monkeypatch.setattr(engine, "_reference_run", lambda *args: None)
        with pytest.raises(RuntimeError, match=r"a fast loop failed at step \d+; "
                                               r"its reference did not"):
            engine._closed_loop_lanes([FAILING[kind]])

    @pytest.mark.parametrize("kind", FAILING)
    def test_a_reference_error_at_another_step_is_a_runtime_error(self, kind, monkeypatch):
        scenario = FAILING[kind]
        step = _failure(scenario)[0]

        def reference(*args):
            raise ModelError(f"{engine._failure_prefix(step + 1, scenario.h)}Hill curve overflows")

        monkeypatch.setattr(engine, "_reference_run", reference)
        with pytest.raises(RuntimeError, match=rf"a fast loop failed at step {step}; "
                                               r"its reference did not"):
            run_closed_loop(scenario)


# One _closed_loop_lanes input: noise-free scenarios that share h, the step
# count and one pulse profile, each with its own patient and controller.
LANE_SCENARIOS = st.tuples(st.floats(0.1, 2.0), STEPS, PULSES).flatmap(
    lambda shared: st.lists(st.builds(
        Scenario, patient=st.integers(1, 13), controller=KERNEL_CONTROLLERS,
        duration=st.just(shared[0]), h=st.just(shared[1]), disturbance=st.just(shared[2])),
        min_size=1, max_size=6))


class TestLanes:
    """Each lane's bis_measured equals run_closed_loop's bit for bit; a failing
    lane raises run_closed_loop's error, named."""

    @settings(max_examples=40, deadline=None)
    @example(scenarios=[_runs_through(FAILING["out_of_domain"]), FAILING["out_of_domain"]])
    @example(scenarios=[_runs_through(FAILING["hill_overflow"]), FAILING["hill_overflow"]])
    @given(scenarios=LANE_SCENARIOS)
    def test_equals_run_closed_loop_bit_for_bit(self, scenarios):
        failures = [(f[0], j) for j, f in enumerate(map(_failure, scenarios)) if f]
        if failures:
            # The earliest step fails first; at one step, the first lane.
            _, j = min(failures)
            with pytest.raises(BisloopError) as info:
                engine._closed_loop_lanes(scenarios)
            assert (type(info.value), str(info.value)) == _named_error(scenarios[j])
            return
        lanes = engine._closed_loop_lanes(scenarios)
        assert [repr(column) for column in lanes.T.tolist()] == \
            [repr(run_closed_loop(s).bis_measured) for s in scenarios]

    def test_passthrough_lanes_equal_run_closed_loop(self):
        # Three calls: no lane with tf1 = 0 or tf2 = 0, every lane a
        # passthrough on both filters, and a mix of the two.
        pulses = (DisturbancePulse(0.5, 0.5, 10.0), DisturbancePulse(1.2, 0.3, -8.0))
        for tf1_tf2, disturbance in (([(0.1, 0.2), (0.3, DEFAULT_TF2_MIN)] * 2, ()),
                                     ([(0.0, 0.0)] * 4, pulses),
                                     ([(0.0, 0.2), (0.1, 0.0), (0.0, 0.0), (0.2, 0.5)], pulses)):
            scenarios = [Scenario(patient=1 + 3 * i, duration=2.0, disturbance=disturbance,
                                  controller=ControllerConfig(tf1=tf1, tf2=tf2))
                         for i, (tf1, tf2) in enumerate(tf1_tf2)]
            assert [repr(column) for column in engine._closed_loop_lanes(scenarios).T.tolist()] \
                == [repr(run_closed_loop(s).bis_measured) for s in scenarios]


def _scalar_error(scenario):
    """run_closed_loop's error type, step prefix and message body."""
    with pytest.raises(BisloopError) as info:
        run_closed_loop(scenario)
    prefix, body = str(info.value).split(": ", 1)
    assert re.fullmatch(r"step \d+ \(t=\d+\.\d{4} min\)", prefix)
    return type(info.value), prefix, body


def _named_error(scenario):
    """The error run_many and the lanes raise for scenario: its type, and
    run_closed_loop's message with the run named in front."""
    exc_type, prefix, body = _scalar_error(scenario)
    return exc_type, (f"patient {scenario.patient.id}, "
                      f"tf2={scenario.controller.tf2:.6g} min: {prefix}: {body}")


@pytest.mark.filterwarnings("error")
class TestFailureParity:
    """A failing lane raises what run_closed_loop raises for it: the same type,
    step and message, the lane named in front, and no numpy warning."""

    @pytest.mark.parametrize("kind", FAILING)
    def test_run_many(self, kind):
        failing = FAILING[kind]
        exc_type, prefix, body = _scalar_error(failing)
        with pytest.raises(BisloopError) as info:
            run_many([_runs_through(failing), failing])
        assert type(info.value) is exc_type
        assert str(info.value) == \
            f"patient {failing.patient.id}, tf2={failing.controller.tf2:.6g} min: {prefix}: {body}"

    @pytest.mark.parametrize("kind", FAILING)
    def test_tune_tf2(self, kind):
        template, p13 = FAILING[kind], cohort_member(13)
        # the sweep's first lane: the template on patient 13, unfiltered
        exc_type, prefix, body = _scalar_error(replace(
            template, patient=p13,
            controller=replace(template.controller, tf2=0.0, nominal_e0=None)))
        with pytest.raises(BisloopError) as info:
            tune_tf2([0.5], cohort=[p13], template=template)
        assert type(info.value) is exc_type
        assert str(info.value) == f"patient 13, tf2=0 min: {prefix}: {body}"

    @pytest.mark.parametrize("ce50", [1e200, 1e-200])
    def test_ce50_extremes_rejected_before_any_run(self, ce50):
        # ce50 ** gamma overflows or underflows to 0.0, where the scalar loop
        # and the lanes would part ways
        p13 = cohort_member(13)
        with pytest.raises(ModelError, match=r"ce50 \*\* gamma must be"):
            HillParams(e0=p13.hill.e0, emax=p13.hill.emax, ce50=ce50, gamma=2.0)


class TestScenarioValidation:
    def test_bad_duration(self):
        with pytest.raises(ScenarioError):
            Scenario(patient=13, duration=0.0)

    def test_bad_h(self):
        with pytest.raises(ScenarioError):
            Scenario(patient=13, h=-1.0)

    @pytest.mark.parametrize("kwargs, match", [
        ({"duration": math.nan}, "duration must be finite"),
        ({"h": math.nan}, "h must be finite"),
        ({"duration": math.inf}, "duration must be finite"),
        ({"h": math.inf}, "h must be finite"),
        ({"seed": -1, "noise": 2.0}, "seed must be >= 0"),
        ({"duration": 10**400}, "duration must be finite"),
        ({"h": 10**400}, "h must be finite"),
    ])
    def test_non_finite_settings_and_negative_seed_rejected(self, kwargs, match):
        with pytest.raises(ScenarioError, match=match):
            Scenario(patient=13, **kwargs)

    @pytest.mark.parametrize("duration, h", [(1e12, 1 / 60), (1e10, 1e-300)])
    def test_step_budget_enforced(self, duration, h):
        # constructed, never run: at the default h, 1e12 min is 6e13 steps
        with pytest.raises(ScenarioError, match=r"steps .* exceeds MAX_STEPS=1000000"):
            Scenario(patient=13, duration=duration, h=h)

    def test_step_budget_boundary_accepted(self):
        assert Scenario(patient=13, duration=0.5 * MAX_STEPS, h=0.5).n_steps == MAX_STEPS

    @pytest.mark.parametrize("pulse", [DisturbancePulse(0.0, -1.0, 5.0),
                                       DisturbancePulse(math.nan, 1.0, 5.0),
                                       DisturbancePulse(0.0, math.inf, 5.0),
                                       DisturbancePulse(0.0, 1.0, math.nan),
                                       DisturbancePulse(10**400, 1.0, 5.0)])
    def test_bad_pulse_rejected(self, pulse):
        with pytest.raises(ScenarioError, match="disturbance pulse"):
            Scenario(patient=13, disturbance=(pulse,))

    def test_default_patient_is_average_individual(self):
        assert Scenario().patient.id == 13

    def test_steady_state_equilibrium_identity_holds(self, p13_nominal_traj):
        # at the settled end of the run the true patient sits on its own
        # Hill curve at the target concentration
        p = cohort_member(13)
        ce_star = inverse_hill(50.0, p.hill)
        assert ce_star == pytest.approx(6.905034653589145)
        assert p13_nominal_traj.ce_true[-1] == pytest.approx(ce_star, abs=0.05)
