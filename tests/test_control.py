import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bisloop import (ControllerConfig, ControllerError, ControllerState, DiscretePk,
                     Lp2State, ModelError, PatientState, cohort_member,
                     controller_step, inverse_hill, lp2_step)
from bisloop.control import INVERSE_HILL_FLOOR

NOMINAL_P13 = ControllerConfig(nominal_e0=93.1).nominal


class TestInverseHill:
    def test_baseline_maps_to_zero(self):
        assert inverse_hill(93.1, NOMINAL_P13) == 0.0
        assert inverse_hill(99.0, NOMINAL_P13) == 0.0

    def test_half_effect_inverse(self):
        bis = 93.1 - 87.5 / 2
        assert inverse_hill(bis, NOMINAL_P13) == pytest.approx(4.92, rel=1e-12)

    def test_target_50_frozen(self):
        # direct evaluation: 4.92 * ((93.1-50)/(87.5-93.1+50))^(1/2.69)
        expected = 4.92 * ((93.1 - 50) / (87.5 - 93.1 + 50)) ** (1 / 2.69)
        got = inverse_hill(50.0, NOMINAL_P13)
        assert got == pytest.approx(expected, rel=1e-15)
        assert got == pytest.approx(4.865947790082468)
        assert got == pytest.approx(4.866, abs=1e-3)

    def test_below_reach_saturates(self):
        # emax - e0 + bis = -0.6 at bis 5: the denominator is floored at
        # INVERSE_HILL_FLOOR = 1 BIS, so the inverse is finite and reaches its
        # ceiling ce50 * (e0 / 1)^(1/gamma) at bis 0
        assert INVERSE_HILL_FLOOR == 1.0
        assert inverse_hill(5.0, NOMINAL_P13) == 4.92 * (93.1 - 5.0) ** (1 / 2.69)
        assert inverse_hill(0.0, NOMINAL_P13) == 4.92 * 93.1 ** (1 / 2.69)
        assert inverse_hill(0.0, NOMINAL_P13) == pytest.approx(26.540961807171215, rel=1e-15)
        assert inverse_hill(0.0, ControllerConfig(nominal_e0=100.0).nominal) < 27.3

    @given(st.floats(0.0, 100.0), st.floats(0.0, 100.0), st.floats(60.0, 100.0))
    def test_monotone_finite_and_bounded(self, bis, other, e0):
        # monotone through the floor at bis = e0 - emax + 1, and at most
        # the ceiling, for every reading a monitor can give
        nominal = ControllerConfig(nominal_e0=e0).nominal
        lo, hi = sorted((bis, other))
        assert 0.0 <= inverse_hill(hi, nominal) <= inverse_hill(lo, nominal) \
            <= 4.92 * e0 ** (1 / 2.69)

    @given(st.floats(0.01, 20.0))
    def test_round_trip_with_hill(self, ce):
        # below ce ~ 1e-3 the drug effect underflows against e0's float
        # resolution and the curve is not invertible to this precision
        from bisloop import HillParams, hill_bis
        hill = HillParams(e0=93.1, emax=87.5, ce50=4.92, gamma=2.69)
        bis = hill_bis(ce, hill)
        assert abs(inverse_hill(bis, NOMINAL_P13) - ce) < 1e-9


class TestLp2Filter:
    def test_converged_constant_passthrough(self):
        f = Lp2State(tf=0.5, x1=3.25, x2=3.25)
        assert lp2_step(f, 3.25, 1 / 60) == pytest.approx(3.25, rel=1e-15)

    def test_step_response_at_one_time_constant(self):
        # analytic cascade step response: 1 - exp(-t/T)(1 + t/T)
        tf = 0.5
        f = Lp2State(tf=tf)
        h = tf / 1000.0
        out = 0.0
        for _ in range(1000):
            out = lp2_step(f, 1.0, h)
        assert out == pytest.approx(1 - 2 / math.e, abs=1e-3)

    def test_zero_time_constant_is_identity(self):
        f = Lp2State(tf=0.0)
        seq = [5.0, -2.0, 93.1, 0.0, 47.3]
        assert [lp2_step(f, w, 1 / 60) for w in seq] == seq

    def test_dc_gain_convergence(self):
        # unit DC gain: settles on the input constant; residual after 20*tf
        # is a few 1e-8 of the initial offset and crosses 1e-9 by 25*tf
        tf, h = 0.3, 1 / 60
        f = Lp2State(tf=tf)
        steps_20 = int(20 * tf / h)
        out = 0.0
        for _ in range(steps_20):
            out = lp2_step(f, 1.0, h)
        assert abs(out - 1.0) < 5e-8
        for _ in range(int(5 * tf / h)):
            out = lp2_step(f, 1.0, h)
        assert abs(out - 1.0) < 1e-9

    @given(st.floats(0.01, 5.0), st.lists(st.floats(-50, 50), min_size=1, max_size=50))
    @settings(max_examples=50)
    def test_output_stays_in_input_hull(self, tf, inputs):
        f = Lp2State(tf=tf)
        lo = min(0.0, *inputs)
        hi = max(0.0, *inputs)
        for w in inputs:
            out = lp2_step(f, w, 1 / 60)
            assert lo - 1e-12 <= out <= hi + 1e-12

    def test_negative_tf_rejected(self):
        with pytest.raises(ControllerError):
            Lp2State(tf=-0.1)


def converged_controller(patient, cfg):
    """Closed-loop fixed point: filters settled, tracking error zero,
    the integrator holding the equilibrium rate."""
    ce_star = inverse_hill(cfg.target_bis, patient.hill)
    u_ss = patient.pk.cl1 * ce_star
    pk = patient.pk  # internal model personalizes to the same demographics here
    c1 = u_ss / pk.cl1
    model = PatientState(c1, pk.k12 / pk.k21 * c1, pk.k13 / pk.k31 * c1, c1)
    ce_ref = inverse_hill(cfg.target_bis, cfg.nominal)
    innovation = ce_ref - model.ce
    cs = ControllerState(
        f1=Lp2State(cfg.tf1, x1=cfg.target_bis, x2=cfg.target_bis),
        f2=Lp2State(cfg.tf2, x1=innovation, x2=innovation),
        model_state=model,
        integrator=u_ss,
    )
    return cs, u_ss


class TestControllerStep:
    def setup_method(self):
        self.patient = cohort_member(13)
        self.cfg = ControllerConfig(nominal_e0=self.patient.hill.e0)
        self.model = DiscretePk(self.patient.pk, 1 / 60)

    def test_fixed_point_is_preserved(self):
        cs, u_ss = converged_controller(self.patient, self.cfg)
        model_before = cs.model_state
        u = controller_step(cs, self.cfg, self.model, self.cfg.target_bis)
        assert u == pytest.approx(u_ss, abs=1e-9)
        for a, b in zip(cs.model_state, model_before):
            assert a == pytest.approx(b, abs=1e-9)
        # and it stays there over many steps
        for _ in range(600):
            u = controller_step(cs, self.cfg, self.model, self.cfg.target_bis)
        assert u == pytest.approx(u_ss, abs=1e-6)

    def test_on_target_reading_still_starts_induction(self):
        # drug-free internal model means the loop must infuse even when the
        # (stale) reading equals the target
        cs = ControllerState.initial(self.cfg, awake_bis=self.cfg.target_bis)
        u = controller_step(cs, self.cfg, self.model, self.cfg.target_bis)
        assert u > 0.0

    def test_positive_bis_step_raises_infusion(self):
        cs, u_ss = converged_controller(self.patient, self.cfg)
        h = 1 / 60
        for _ in range(int(2.0 / h)):
            u = controller_step(cs, self.cfg, self.model, self.cfg.target_bis + 10.0)
            assert u > u_ss

    def test_output_bounded_and_deterministic(self):
        import random
        rng = random.Random(7)
        readings = [rng.uniform(20.0, 100.0) for _ in range(400)]

        def run():
            cs = ControllerState.initial(self.cfg, awake_bis=self.patient.hill.e0)
            out = []
            for bis in readings:
                u = controller_step(cs, self.cfg, self.model, bis)
                assert 0.0 <= u <= self.cfg.u_max
                out.append(u)
            return out

        assert run() == run()

    def test_integrator_frozen_at_saturation(self):
        cfg = ControllerConfig(u_max=5.0, nominal_e0=self.patient.hill.e0)
        cs = ControllerState.initial(cfg, awake_bis=self.patient.hill.e0)
        u = controller_step(cs, cfg, self.model, self.patient.hill.e0)
        assert u == 5.0
        frozen = cs.integrator
        u = controller_step(cs, cfg, self.model, self.patient.hill.e0)
        assert u == 5.0
        assert cs.integrator == frozen

    def test_non_finite_reading_rejected(self):
        cs = ControllerState.initial(self.cfg, awake_bis=self.patient.hill.e0)
        with pytest.raises(ControllerError):
            controller_step(cs, self.cfg, self.model, math.nan)

    def test_non_positive_u_max_rejected(self):
        with pytest.raises(ControllerError, match="u_max must be finite and positive"):
            ControllerConfig(u_max=0.0, nominal_e0=self.patient.hill.e0)

    def test_unresolved_nominal_rejected(self):
        cfg = ControllerConfig()
        cs = ControllerState.initial(cfg, awake_bis=93.1)
        with pytest.raises(ControllerError, match="nominal"):
            controller_step(cs, cfg, self.model, 93.1)

    def test_config_validation(self):
        with pytest.raises(ControllerError):
            ControllerConfig(tf1=-1.0)
        with pytest.raises(ControllerError):
            ControllerConfig(u_max=0.0)
        with pytest.raises(ControllerError):
            ControllerConfig(target_bis=95.0, nominal_e0=93.1)

    @pytest.mark.parametrize("field, value", [
        ("kp", math.nan), ("ki", math.inf), ("tf1", math.nan), ("tf2", math.inf),
        ("u_max", math.inf), ("target_bis", math.nan),
        pytest.param("kp", 10**400, id="kp-int_above_float_range")])
    def test_non_finite_setting_rejected_before_the_run(self, field, value):
        for nominal_e0 in (93.1, None):
            with pytest.raises(ControllerError, match=f"^{field} must be finite"):
                ControllerConfig(nominal_e0=nominal_e0, **{field: value})

    @pytest.mark.parametrize("field", ["target_bis", "tf1", "tf2", "kp", "ki", "u_max",
                                       "nominal_e0"])
    @pytest.mark.parametrize("value", [True, False, "1"])
    def test_bool_or_non_number_setting_rejected(self, field, value):
        with pytest.raises(ControllerError, match=f"^{field} must be a number, got {value!r}"):
            ControllerConfig(**{field: value})

    @pytest.mark.parametrize("target", [3.0, 93.1 - 87.5])
    def test_unreachable_target_rejected(self, target):
        # the nominal curve bottoms out at e0 - emax = 5.6, checked also when
        # replace() sets the e0
        with pytest.raises(ControllerError, match=f"target_bis={target} is below"):
            ControllerConfig(target_bis=target, nominal_e0=93.1)
        with pytest.raises(ControllerError, match=f"target_bis={target} is below"):
            replace(ControllerConfig(target_bis=target), nominal_e0=93.1)

    def test_lowest_reachable_target_accepted(self):
        target = 93.1 - 87.5 + 1e-9
        ControllerConfig(target_bis=target, nominal_e0=93.1)
        assert inverse_hill(target, NOMINAL_P13) > 0.0

    def test_ce_ref_derived_at_construction(self):
        # None until the nominal e0 is known; replace() derives it again
        assert ControllerConfig().ce_ref is None
        cfg = ControllerConfig(nominal_e0=93.1)
        assert cfg.ce_ref == inverse_hill(50.0, NOMINAL_P13)
        moved = replace(cfg, nominal_e0=90.0)
        assert moved.ce_ref == inverse_hill(50.0, moved.nominal) != cfg.ce_ref
        assert replace(cfg, target_bis=40.0).ce_ref == inverse_hill(40.0, NOMINAL_P13)
        # it takes no part in == or repr
        assert "ce_ref" not in repr(cfg)
        assert cfg == ControllerConfig(nominal_e0=93.1)

    @pytest.mark.parametrize("e0", [math.nan, 120.0])
    def test_nominal_e0_outside_the_monitor_range_rejected(self, e0):
        # the nominal curve is a HillParams, so its e0 must lie in (0, 100]
        with pytest.raises(ModelError, match=r"e0 must be in \(0, 100\]"):
            ControllerConfig(nominal_e0=e0)
