import math
import re
import sys
import tracemalloc
from array import array
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bisloop import (BisloopError, ControllerConfig, ControllerError, ControllerState,
                     Demographics, DisturbancePulse, HillParams, ModelError, Scenario,
                     ScenarioError, Sex, VirtualPatient, cohort_member,
                     controller_step, disturbance_at, hill_bis, noise_stream, run_closed_loop,
                     run_many, run_open_loop, tune_tf2, write_trajectory_csv)
from bisloop import engine
from bisloop.control import DEFAULT_TF2_MIN, MODEL_PK, inverse_hill
from bisloop.engine import MAX_STEPS, TRAJECTORY_FIELDS
from bisloop.patient import ZERO_STATE
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

    @pytest.mark.parametrize("seed", [0, 1, 42, 2**32])
    def test_zero_sigma_offsets_are_positive_zero(self, seed):
        # == cannot tell -0.0 from +0.0; the sign bit can
        assert all(math.copysign(1.0, v) == 1.0 for v in noise_stream(0.0, seed, 1000).tolist())

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
        with pytest.raises(ScenarioError, match="noise must be finite"):
            Scenario(noise=sigma)


class TestClosedLoop:
    def test_single_step_run(self):
        traj = run_closed_loop(Scenario(patient=13, duration=1 / 60))
        assert len(traj) == 1
        assert traj.t.tolist() == [0.0]
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

    def test_reading_below_the_curves_reach_saturates(self):
        # a huge negative artifact pins the monitor at 0, below the nominal
        # curve's reach: the inverse saturates at its ceiling, far above the
        # target, so the pump stops, and the run goes on to its end
        s = Scenario(patient=13, duration=2.0,
                     disturbance=(DisturbancePulse(0.0, 2.0, -1000.0),))
        traj = run_closed_loop(s)
        assert len(traj) == 120
        assert set(traj.bis_measured) == {0.0}
        assert traj.u[-1] == 0.0
        ceiling = 4.92 * (93.1 / 1.0) ** (1 / 2.69)
        assert traj.ce_model[-1] + traj.i_t[-1] == pytest.approx(ceiling, rel=1e-2)

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

    @pytest.mark.parametrize("profile, match", [
        (True, "infusion rates"), (((0.0, False),), "infusion rates"),
        (((0.0, "5"),), "infusion rates"), (((True, 5.0),), "breakpoint starts"),
        (((0.0, 5.0), ("1", 3.0)), "breakpoint starts")])
    def test_bool_or_non_number_rates_and_starts_rejected(self, profile, match):
        with pytest.raises(ScenarioError, match=match):
            run_open_loop(cohort_member(13), profile, duration=1.0)

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
# below the nominal curve's reach, where its inverse saturates.
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


def reference_run(scenario, profile=None):
    """The per-step reference loop, which _run and the lanes are pinned to:
    open loop under profile when it is given, else closed loop.

    Built from the model's own functions: hill_bis, disturbance_at, then
    controller_step (lp2_step, inverse_hill, the PI law, DiscretePk.step on
    the internal model) or the profile's rate, then DiscretePk.step on the
    plant.  Each step measures BIS, records the step, then advances the plant
    under u held constant for the step.  It admits nothing before step 0:
    a value that leaves the float range raises from its function's own check.
    """
    patient, h, disturbance = scenario.patient, scenario.h, scenario.disturbance
    hill, advance = patient.hill, engine._discrete_pk(patient.pk, h).step
    if profile is None:
        cfg = engine.resolve_controller(scenario)
        cs = ControllerState.initial(cfg, awake_bis=hill.e0)
        model = engine._discrete_pk(MODEL_PK, h)

        # u, then what a step records between bm and the state and after it.
        def control(t, bm):
            ce_model = cs.model_state.ce
            u = controller_step(cs, cfg, model, bm)
            return u, (cs.f1.x2, u), (ce_model, cs.f2.x2, cfg.ce_ref)
    else:
        def control(t, bm):
            u = engine._rate_at(profile, t)
            return u, (u,), ()

    state = ZERO_STATE
    values = []
    for k, offset in enumerate(engine._offsets(scenario.noise, scenario.seed, scenario.n_steps)):
        t = k * h
        bt = hill_bis(state.ce, hill)
        bm = bt + disturbance_at(disturbance, t) + offset
        bm = 0.0 if bm < 0.0 else (100.0 if bm > 100.0 else bm)
        u, before, after = control(t, bm)
        values.extend((t, bt, bm, *before, *state, *after))
        state = advance(state, u)
    store = array("d")
    engine._flush(store, values)
    return engine._trajectory(store, profile is None)


# A step index in an error message, as a run that failed part-way once named it.
STEP = re.compile(r"step \d+")

# The two inputs whose low reading once aborted the controller part-way: at
# h = 5 min the filtered BIS of patient 13 reads 0 at step 1, and a -60 pulse
# at 20-22 min pulls it to 5.5 at step 1221, both below the nominal curve's
# reach.  Each now runs to its end on the saturated inverse.
LOW_READINGS = {
    "h_5_min": Scenario(patient=13, h=5.0),
    "pulse_minus_60": Scenario(patient=13, disturbance=(DisturbancePulse(20.0, 2.0, -60.0),)),
}

# Inputs rejected before step 0, one per bound a run could leave, with the
# error each raises.  At kp = u_max = 1e300 the first bolus would drive
# ce ** gamma beyond the float range at step 1.  On the next patient
# ce ** gamma would stay finite, but emax * ce ** gamma would overflow at
# step 130: the curve would read -inf.  At kp = 1e308, kp * err would
# overflow at step 0.  Two pulses of 1e308 sum to inf, which an offset of
# -inf from noise of sigma 1e308 would turn into a NaN reading at step 12.
HILL_NON_FINITE_PATIENT = VirtualPatient(
    5, Demographics(age=38, height_cm=169.0, weight_kg=65.0, sex=Sex.FEMALE),
    HillParams(e0=95.0, emax=94.0, ce50=1.0, gamma=2.0))
FAILING = {
    "hill_overflow": (Scenario(patient=13, duration=1.0,
                               controller=ControllerConfig(kp=1e300, u_max=1e300)),
                      ModelError, r"^under u <= 1e\+300 mg/min ce may reach 5\.25185e\+299 mg/L, "
                                  r"where the Hill curve \(gamma=3\) or a state bound overflows$"),
    "hill_non_finite": (Scenario(patient=HILL_NON_FINITE_PATIENT, duration=5.0,
                                 controller=ControllerConfig(kp=1e300, u_max=1e156,
                                                             nominal_e0=80.0)),
                        ModelError, r"^under u <= 1e\+156 mg/min ce may reach 5\.25185e\+155 mg/L, "
                                    r"where the Hill curve \(gamma=2\)"),
    "gain_overflow": (Scenario(patient=13, duration=1.0, controller=ControllerConfig(kp=1e308)),
                      ControllerError, r"^kp=1e\+308, ki=2\.5 and u_max=200 may drive the PI "
                                       r"law or the internal model beyond the float range"),
    "nan_reading": (Scenario(patient=13, duration=1.0, noise=1e308,
                             disturbance=(DisturbancePulse(0.0, 1.0, 1e308),) * 2),
                    ControllerError, r"^a noisy reading could be NaN: the pulses sum beyond "),
}
# The noise-free ones, which a lane can hold.
LANE_FAILING = [kind for kind, (scenario, _, _) in FAILING.items() if scenario.noise == 0.0]


# Pulse profiles at their edges: overlapping pulses whose edges land exactly
# on k * h (h = 0.25), a pulse that starts before 0, the tuning scenario's
# pulse at the default step, a pulse that ends at exactly t = 0 and one whose
# end overflows to inf.
EDGE_RUNS = [
    Scenario(patient=13, duration=3.0, h=0.25,
             disturbance=(DisturbancePulse(0.5, 1.0, 10.0), DisturbancePulse(1.0, 0.75, -4.0),
                          DisturbancePulse(1.25, 0.25, 2.5))),
    Scenario(patient=13, duration=1.0,
             disturbance=(DisturbancePulse(-1.0, 1.5, 7.0), DisturbancePulse(0.2, 0.1, -3.0))),
    default_tuning_scenario(),
    Scenario(patient=13, duration=1.0, disturbance=(DisturbancePulse(-1e308, 1e308, 5.0),
                                                    DisturbancePulse(0.25, 0.5, 10.0))),
    Scenario(patient=13, duration=1.0, disturbance=(DisturbancePulse(0.25, 0.5, 10.0),
                                                    DisturbancePulse(1e308, 1e308, -5.0))),
]


def _admitted(scenario):
    """The scenario on patient 1 under the default controller, noise-free: it
    runs."""
    return replace(scenario, patient=1, controller=ControllerConfig(), noise=0.0)


def _error(scenario):
    """run_closed_loop's error for scenario, or None when it runs."""
    try:
        run_closed_loop(scenario)
    except BisloopError as e:
        return e
    return None


def _named_error(scenario):
    """The error run_many and the lanes raise for scenario: its type, and
    run_closed_loop's message with the run named in front."""
    e = _error(scenario)
    return type(e), (f"patient {scenario.patient.id}, "
                     f"tf2={scenario.controller.tf2:.6g} min: {e}")


def _rejected(monkeypatch, run, *args):
    """run(*args)'s error, checked to come before any run's step 0: no run
    reads its pulse edges, and the message names no step."""
    starts = []
    real_edges = engine._edges
    with monkeypatch.context() as m:
        m.setattr(engine, "_edges", lambda *a: starts.append(a) or real_edges(*a))
        with pytest.raises(BisloopError) as info:
            run(*args)
    assert starts == []
    assert not STEP.search(str(info.value))
    return type(info.value), str(info.value)


class TestRunMany:
    @settings(max_examples=30)
    @example(scenarios=[_admitted(FAILING["hill_overflow"][0]), FAILING["hill_overflow"][0]])
    @example(scenarios=[_admitted(FAILING["gain_overflow"][0]), FAILING["gain_overflow"][0]])
    @example(scenarios=list(LOW_READINGS.values()))
    @given(scenarios=st.lists(SCENARIOS, min_size=1, max_size=6))
    def test_equals_run_closed_loop_bit_for_bit(self, scenarios):
        # The first scenario that run_closed_loop rejects, in input order,
        # raises its error, named.
        failing = next((s for s in scenarios if _error(s)), None)
        if failing is not None:
            with pytest.raises(BisloopError) as info:
                run_many(scenarios)
            assert (type(info.value), str(info.value)) == _named_error(failing)
            return
        assert [repr(asdict(t)) for t in run_many(scenarios)] == \
            [repr(asdict(run_closed_loop(s))) for s in scenarios]

    def test_first_failing_scenario_in_input_order_raises(self, monkeypatch):
        # a once failed at step 130 and b at step 1; both are rejected
        # before any run, and a comes first.
        a, b = FAILING["hill_non_finite"][0], FAILING["hill_overflow"][0]
        assert _rejected(monkeypatch, run_many, [a, b]) == _named_error(a)
        assert _named_error(a)[1].startswith("patient 5, ")

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

    def test_unresolvable_controller_fails_before_any_run(self, monkeypatch):
        # Patient 1 reaches target 85 and patient 10 does not: the error for
        # patient 10 comes before patient 1's run starts.
        unreachable = ControllerConfig(target_bis=85)
        scenarios = [Scenario(patient=1, controller=unreachable),
                     Scenario(patient=10, controller=unreachable)]
        with pytest.raises(ControllerError) as scalar:
            run_closed_loop(scenarios[1])
        runs = []
        real_run = engine._run
        monkeypatch.setattr(engine, "_run", lambda *args: runs.append(args) or real_run(*args))
        with pytest.raises(ControllerError) as info:
            run_many(iter(scenarios))
        assert str(info.value) == f"patient 10, tf2=0.163118 min: {scalar.value}"
        assert runs == []

    def test_preserves_order_and_matches_serial(self):
        scenarios = [Scenario(patient=i, duration=1.0) for i in (1, 5, 13)]
        serial = [run_closed_loop(s) for s in scenarios]
        batched = run_many(scenarios)
        for a, b in zip(serial, batched):
            assert a.u == b.u


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
    """run_closed_loop and run_open_loop equal the per-step reference loop,
    every column bit for bit, or fail before step 0."""

    @settings(max_examples=60, deadline=None)
    @example(scenario=EDGE_RUNS[0])
    @example(scenario=EDGE_RUNS[1])
    @example(scenario=EDGE_RUNS[2])
    @example(scenario=EDGE_RUNS[3])
    @example(scenario=EDGE_RUNS[4])
    @example(scenario=replace(LOW_READINGS["h_5_min"], duration=30.0))
    @given(scenario=st.builds(Scenario, patient=st.integers(1, 13), controller=KERNEL_CONTROLLERS,
                              duration=st.floats(0.1, 2.0), h=STEPS, noise=st.floats(0.0, 8.0),
                              disturbance=PULSES, seed=st.integers(0, 2**32)))
    def test_closed_loop_equals_reference(self, scenario):
        assert _outcome(run_closed_loop, scenario) == _outcome(reference_run, scenario)

    @settings(max_examples=60, deadline=None)
    @given(patient=st.integers(1, 13).map(cohort_member),
           profile=st.one_of(BREAKPOINTS, st.floats(0.0, 300.0)), duration=st.floats(0.1, 2.0),
           h=STEPS, noise=st.floats(0.0, 8.0), disturbance=PULSES, seed=st.integers(0, 2**32))
    def test_open_loop_equals_reference(self, patient, profile, duration, h, noise,
                                        disturbance, seed):
        breakpoints = ((0.0, profile),) if isinstance(profile, float) else profile
        assert _outcome(run_open_loop, patient, profile, duration, h, noise, disturbance, seed) \
            == _outcome(reference_run, Scenario(patient, duration=duration, h=h, noise=noise,
                                                disturbance=disturbance, seed=seed), breakpoints)

    @pytest.mark.parametrize("kind", LOW_READINGS)
    def test_low_reading_runs_to_the_end(self, kind):
        # The reading falls below the nominal curve's reach, where the
        # inverse saturates: every column stays finite to the end.
        scenario = LOW_READINGS[kind]
        traj = run_closed_loop(scenario)
        assert len(traj) == scenario.n_steps
        assert min(traj.bis_filtered) < 93.1 - 87.5
        assert all(math.isfinite(v) for name in TRAJECTORY_FIELDS for v in getattr(traj, name))
        assert repr(asdict(traj)) == repr(asdict(reference_run(scenario)))

    def test_pulsed_low_reading_settles_on_the_target(self):
        traj = run_closed_loop(LOW_READINGS["pulse_minus_60"])
        assert f"{traj.bis_true[-1]:.2f}" == "49.76"

    @pytest.mark.parametrize("kind", FAILING)
    def test_rejected_before_step_0(self, kind, monkeypatch):
        scenario, error, message = FAILING[kind]
        got_type, got = _rejected(monkeypatch, run_closed_loop, scenario)
        assert got_type is error
        assert re.search(message, got)

    @pytest.mark.parametrize("kind", ["hill_overflow", "hill_non_finite"])
    def test_reference_fails_part_way_where_the_run_is_rejected(self, kind):
        # The bound is not idle: without it, the per-step functions raise
        # after the run has started.
        with pytest.raises(ModelError, match="Hill curve overflows"):
            reference_run(FAILING[kind][0])

    @pytest.mark.parametrize("patient, rate", [(cohort_member(13), 1e300),
                                               (HILL_NON_FINITE_PATIENT, 1e156)])
    def test_open_loop_rejected_before_step_0(self, patient, rate, monkeypatch):
        # The reference fails part-way: the run is rejected before step 0.
        with pytest.raises(ModelError, match="Hill curve overflows"):
            reference_run(Scenario(patient, duration=5.0), ((0.0, rate),))
        got_type, got = _rejected(monkeypatch, run_open_loop, patient, rate, 5.0)
        assert got_type is ModelError
        assert got.startswith(f"under u <= {rate:.6g} mg/min ce may reach ")

    @pytest.mark.parametrize("profile", [(), ((1.0, 0.0),)])
    def test_open_loop_without_a_rate_runs(self, profile):
        # The profile's largest rate bounds the plant; without one it is 0.
        traj = run_open_loop(cohort_member(13), profile, duration=2.0)
        assert set(traj.u) == {0.0}
        assert set(traj.bis_true) == {93.1}


# Extreme settings the bound must hold under: gains and pump limits spread
# log-uniformly over the float range, and patients as steep as gamma = 50.
def _log_uniform(lowest, highest):
    return st.floats(math.log10(lowest), math.log10(highest)).map(lambda e: 10.0 ** e)


GAINS = st.one_of(st.just(0.0), _log_uniform(1e-10, 1e308))
EXTREME_CONTROLLERS = st.builds(
    ControllerConfig, target_bis=st.floats(30.0, 70.0),
    tf1=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
    tf2=st.one_of(st.just(0.0), st.floats(0.0, 5.0)), kp=GAINS, ki=GAINS,
    u_max=_log_uniform(1e-10, 1e300), nominal_e0=st.one_of(st.none(), st.floats(80.0, 100.0)))
STEEP_PATIENTS = st.builds(lambda p, gamma: replace(p, hill=replace(p.hill, gamma=gamma)),
                           st.integers(1, 13).map(cohort_member), st.floats(0.5, 50.0))
EXTREME_SCENARIOS = st.builds(
    Scenario, patient=STEEP_PATIENTS, controller=EXTREME_CONTROLLERS,
    duration=st.floats(0.1, 2.0), h=STEPS, noise=st.floats(0.0, 8.0), disturbance=PULSES,
    seed=st.integers(0, 2**32))


def _finite_columns(traj):
    return all(math.isfinite(v) for name in TRAJECTORY_FIELDS for v in getattr(traj, name)
               if v is not None)


@pytest.mark.filterwarnings("error")
class TestBound:
    """Under extreme gains, pump limits, rates and patient curves, a run
    either fails before step 0, naming no step, or runs with every column
    finite and equal to the per-step reference's."""

    @settings(max_examples=80, deadline=None)
    @given(scenario=EXTREME_SCENARIOS)
    def test_closed_loop(self, scenario):
        try:
            traj = run_closed_loop(scenario)
        except (ModelError, ControllerError) as e:
            assert not STEP.search(str(e))
            return
        assert _finite_columns(traj)
        assert repr(asdict(traj)) == repr(asdict(reference_run(scenario)))

    @settings(max_examples=60, deadline=None)
    @given(patient=STEEP_PATIENTS, rates=st.lists(_log_uniform(1e-10, 1e300), min_size=1,
                                                  max_size=3),
           duration=st.floats(0.1, 2.0), h=STEPS, noise=st.floats(0.0, 8.0), disturbance=PULSES)
    def test_open_loop(self, patient, rates, duration, h, noise, disturbance):
        profile = tuple((0.5 * i, rate) for i, rate in enumerate(rates))
        try:
            traj = run_open_loop(patient, profile, duration, h, noise, disturbance)
        except ModelError as e:
            assert not STEP.search(str(e))
            return
        assert _finite_columns(traj)
        assert repr(asdict(traj)) == repr(asdict(reference_run(
            Scenario(patient, duration=duration, h=h, noise=noise, disturbance=disturbance),
            profile)))

    @settings(max_examples=40, deadline=None)
    @example(shared=(1.0, 1 / 60, ()), lanes=[(cohort_member(13), ControllerConfig(kp=1e308))])
    @given(shared=st.tuples(st.floats(0.1, 2.0), STEPS, PULSES),
           lanes=st.lists(st.tuples(STEEP_PATIENTS, EXTREME_CONTROLLERS), min_size=1,
                          max_size=4))
    def test_lanes(self, shared, lanes):
        duration, h, disturbance = shared
        scenarios = [Scenario(patient, controller, duration, h, disturbance=disturbance)
                     for patient, controller in lanes]
        failing = next((s for s in scenarios if _error(s)), None)
        if failing is not None:
            with pytest.raises(BisloopError) as info:
                engine._closed_loop_lanes(scenarios)
            assert (type(info.value), str(info.value)) == _named_error(failing)
            assert not STEP.search(str(info.value))
            return
        out = engine._closed_loop_lanes(scenarios)
        assert np.isfinite(out).all()
        assert [repr(column) for column in out.T.tolist()] == \
            [repr(reference_run(s).bis_measured.tolist()) for s in scenarios]


# One _closed_loop_lanes input: noise-free scenarios that share h, the step
# count and one pulse profile, each with its own patient and controller.
LANE_SCENARIOS = st.tuples(st.floats(0.1, 2.0), STEPS, PULSES).flatmap(
    lambda shared: st.lists(st.builds(
        Scenario, patient=st.integers(1, 13), controller=KERNEL_CONTROLLERS,
        duration=st.just(shared[0]), h=st.just(shared[1]), disturbance=st.just(shared[2])),
        min_size=1, max_size=6))


# Lanes at the edge of every clamp: a -150 pulse pins the monitor at 0 and a
# +150 pulse at 100.  The lanes have kp = 0, ki = 0, both 0, a 0.5 mg/min pump
# limit that every step reaches, and a rate that falls below 0 after the deep
# pulse (target 70, tf2 = 0).
CLAMP_PULSES = (DisturbancePulse(0.25, 0.2, -150.0), DisturbancePulse(0.6, 0.1, 150.0))
CLAMP_LANES = [Scenario(patient=1 + 3 * i, duration=1.0, disturbance=CLAMP_PULSES, controller=c)
               for i, c in enumerate((ControllerConfig(kp=0.0), ControllerConfig(ki=0.0),
                                      ControllerConfig(kp=0.0, ki=0.0),
                                      ControllerConfig(u_max=0.5),
                                      ControllerConfig(target_bis=70.0, tf2=0.0)))]
# Lanes whose filtered BIS falls below the nominal curve's reach at step 1.
LOW_READING_LANES = [replace(LOW_READINGS["h_5_min"], patient=p, duration=30.0)
                     for p in (1, 9, 13)]


@pytest.mark.filterwarnings("error")
class TestLanes:
    """Each lane's bis_measured equals run_closed_loop's bit for bit, with no
    numpy warning; a lane rejected before step 0 raises run_closed_loop's
    error, named."""

    @settings(max_examples=40, deadline=None)
    @example(scenarios=CLAMP_LANES)
    @example(scenarios=CLAMP_LANES[-1:])
    @example(scenarios=LOW_READING_LANES)
    @example(scenarios=[_admitted(FAILING["hill_overflow"][0]), FAILING["hill_overflow"][0]])
    @example(scenarios=[_admitted(FAILING["gain_overflow"][0]), FAILING["gain_overflow"][0]])
    @given(scenarios=LANE_SCENARIOS)
    def test_equals_run_closed_loop_bit_for_bit(self, scenarios):
        # The first lane rejected, in input order, raises.
        failing = next((s for s in scenarios if _error(s)), None)
        if failing is not None:
            with pytest.raises(BisloopError) as info:
                engine._closed_loop_lanes(scenarios)
            assert (type(info.value), str(info.value)) == _named_error(failing)
            return
        lanes = engine._closed_loop_lanes(scenarios)
        assert [repr(column) for column in lanes.T.tolist()] == \
            [repr(run_closed_loop(s).bis_measured.tolist()) for s in scenarios]

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
                == [repr(run_closed_loop(s).bis_measured.tolist()) for s in scenarios]

    @pytest.mark.parametrize("template", EDGE_RUNS)
    def test_pulse_edges_equal_run_closed_loop(self, template):
        # Each lane re-reads disturbance_at at the steps reaching a pulse edge,
        # as run_closed_loop does.
        scenarios = [replace(template, patient=patient, controller=ControllerConfig(tf2=tf2))
                     for patient, tf2 in ((1, 0.0), (7, 0.5), (13, DEFAULT_TF2_MIN))]
        assert [repr(column) for column in engine._closed_loop_lanes(scenarios).T.tolist()] \
            == [repr(run_closed_loop(s).bis_measured.tolist()) for s in scenarios]


CONTROLLER_COLUMNS = ("bis_filtered", "ce_model", "i_t", "ce_ref")


class TestTrajectoryColumns:
    """A run stores each numeric column as an array('d'); an open-loop run's
    controller columns are None."""

    PROFILE = ((0.0, 10.0), (0.5, 2.5))

    @pytest.mark.parametrize("run", [
        run_closed_loop,
        lambda s: run_many([s, replace(s, patient=4)])[1],
        reference_run,
    ], ids=["run_closed_loop", "run_many", "reference"])
    def test_closed_loop_columns_are_double_arrays(self, run):
        traj = run(Scenario(patient=13, duration=1.0, noise=1.0, seed=2))
        for name in TRAJECTORY_FIELDS:
            column = getattr(traj, name)
            assert type(column) is array and column.typecode == "d", name
            assert len(column) == 60, name

    @pytest.mark.parametrize("run", [
        lambda s, profile: run_open_loop(s.patient, profile, s.duration),
        reference_run,
    ], ids=["run_open_loop", "reference"])
    def test_open_loop_columns(self, run):
        traj = run(Scenario(patient=13, duration=1.0), self.PROFILE)
        for name in TRAJECTORY_FIELDS:
            column = getattr(traj, name)
            assert len(column) == 60, name
            if name in CONTROLLER_COLUMNS:
                assert all(v is None for v in column), name
            else:
                assert type(column) is array and column.typecode == "d", name

class TestMemoryBudget:
    """Traced memory of a 14 400-step run, per step: what its Trajectory
    holds once the run returns, and the peak of the run and its CSV."""

    STEPS = 14_400
    HELD = 110              # B/step after the run returns
    CLOSED_LOOP_PEAK = 450  # B/step through write_trajectory_csv
    OPEN_LOOP_PEAK = 350

    def traced(self, run) -> tuple[float, float]:
        # The first run fills the caches (DiscretePk, struct formats) before
        # tracing starts.  It runs under a no-op profile function, which on
        # CPython 3.11 gives each code object it calls a line array:
        # tracemalloc then finds the line of an allocation in constant time,
        # not by decoding _run's line table, which made a traced 14 400-step
        # closed-loop run take ~6 s rather than ~0.1 s.
        previous = sys.getprofile()
        sys.setprofile(lambda *args: None)
        try:
            run()
        finally:
            sys.setprofile(previous)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            traj = run()
            held = tracemalloc.get_traced_memory()[0] - base
            write_trajectory_csv(traj)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return held / self.STEPS, peak / self.STEPS

    def test_closed_loop(self):
        held, peak = self.traced(lambda: run_closed_loop(Scenario(patient=13, duration=240.0)))
        assert held <= self.HELD
        assert peak <= self.CLOSED_LOOP_PEAK

    def test_open_loop(self):
        patient = cohort_member(13)
        held, peak = self.traced(lambda: run_open_loop(patient, 10.0, 240.0))
        assert held <= self.HELD
        assert peak <= self.OPEN_LOOP_PEAK


class TestDiscretePkCache:
    def test_runs_share_one_discrete_model_per_pk_set_and_step(self):
        engine._discrete_pk.cache_clear()
        scenario = Scenario(patient=3, duration=0.5)
        run_closed_loop(scenario)
        run_closed_loop(replace(scenario, patient=cohort_member(3)))
        engine._closed_loop_lanes([scenario])
        reference_run(scenario)
        info = engine._discrete_pk.cache_info()
        # the plant and the internal model, built once and then reused
        assert (info.misses, info.hits) == (2, 6)
        assert engine._discrete_pk(cohort_member(3).pk, scenario.h) is \
            engine._discrete_pk(scenario.patient.pk, scenario.h)


@pytest.mark.filterwarnings("error")
class TestFailureParity:
    """A scenario rejected before step 0 raises the same error, named, from
    run_many and from the sweep's lanes, starts no run, and warns nothing."""

    @pytest.mark.parametrize("kind", FAILING)
    def test_run_many(self, kind, monkeypatch):
        failing = FAILING[kind][0]
        assert _rejected(monkeypatch, run_many, [_admitted(failing), failing]) == \
            _named_error(failing)

    @pytest.mark.parametrize("kind", LANE_FAILING)
    def test_lanes(self, kind, monkeypatch):
        failing = FAILING[kind][0]
        assert _rejected(monkeypatch, engine._closed_loop_lanes, [_admitted(failing), failing]) \
            == _named_error(failing)

    @pytest.mark.parametrize("kind", LANE_FAILING)
    def test_tune_tf2(self, kind, monkeypatch):
        template, p13 = FAILING[kind][0], cohort_member(13)
        # the sweep's first lane: the template on patient 13, unfiltered
        exc_type, message = _named_error(replace(
            template, patient=p13,
            controller=replace(template.controller, tf2=0.0, nominal_e0=None)))
        assert _rejected(monkeypatch, tune_tf2, [0.5], 0.3, [p13], template) == \
            (exc_type, message)
        assert message.startswith("patient 13, tf2=0 min: ")

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
        # the parser's integer rule, whatever the noise: a noisy run would
        # otherwise fail inside numpy at its first draw
        ({"seed": 1.5, "noise": 1.0}, "seed must be an integer"),
        ({"seed": math.nan, "noise": 1.0}, "seed must be an integer"),
        ({"seed": 1.5}, "seed must be an integer"),
        ({"seed": math.nan}, "seed must be an integer"),
        ({"seed": 2.0}, "seed must be an integer"),
        ({"seed": True}, "seed must be an integer"),
    ])
    def test_non_finite_settings_and_negative_seed_rejected(self, kwargs, match):
        with pytest.raises(ScenarioError, match=match):
            Scenario(patient=13, **kwargs)

    @pytest.mark.parametrize("kwargs, match", [
        ({"noise": True, "duration": True}, "duration must be a number, got True"),
        ({"h": True}, "h must be a number, got True"),
        ({"noise": True}, "noise must be a number, got True"),
        ({"duration": "60"}, "duration must be a number"),
        ({"noise": None}, "noise must be a number"),
        ({"disturbance": (DisturbancePulse(True, True, True),)}, "disturbance pulse must be a"),
        ({"disturbance": (DisturbancePulse(0.1, "0.2", 5.0),)}, "disturbance pulse must be a"),
        ({"disturbance": ((0.1, 0.2, 5.0),)}, "disturbance pulse must be a DisturbancePulse"),
    ])
    def test_bool_or_non_number_settings_rejected(self, kwargs, match):
        # the parser's "must be a number", for a Scenario built in Python
        with pytest.raises(ScenarioError, match=match):
            Scenario(patient=13, **kwargs)

    def test_disturbance_is_stored_as_a_tuple(self):
        pulse = DisturbancePulse(0.1, 0.2, 5.0)
        assert Scenario(disturbance=[pulse]) == Scenario(disturbance=(pulse,))
        assert Scenario(disturbance=[pulse]).disturbance == (pulse,)

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
