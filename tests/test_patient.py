import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bisloop import (Demographics, DiscretePk, HillParams, ModelError,
                     NonPhysicalParameterError, PatientState, PkParams, PkPreset, Scenario, Sex,
                     builtin_cohort, cohort_member, derive_pk_params, hill_bis,
                     lean_body_mass, pk_derivatives)
from bisloop.control import MODEL_PK
from bisloop.patient import ZERO_STATE

P13_DEMO = Demographics(age=38, height_cm=169.0, weight_kg=65.0, sex=Sex.FEMALE)
P13_HILL = HillParams(e0=93.1, emax=96.58, ce50=7.42, gamma=3.00)


def lbm_oracle(sex, w, h):
    if sex is Sex.MALE:
        return 1.1 * w - 128.0 * w * w / (h * h)
    return 1.07 * w - 148.0 * w * w / (h * h)


class TestLeanBodyMass:
    @pytest.mark.parametrize("sex,w,h", [
        (Sex.FEMALE, 65.0, 169.0),
        (Sex.MALE, 77.0, 177.0),
        (Sex.FEMALE, 77.0, 177.0),
    ])
    def test_matches_direct_evaluation(self, sex, w, h):
        assert lean_body_mass(sex, w, h) == pytest.approx(lbm_oracle(sex, w, h), rel=1e-15)

    def test_frozen_values(self):
        assert lean_body_mass(Sex.FEMALE, 65, 169) == pytest.approx(47.65650887573965)
        assert lean_body_mass(Sex.MALE, 77, 177) == pytest.approx(60.476054135146356)
        assert lean_body_mass(Sex.FEMALE, 77, 177) == pytest.approx(54.38106259376297)

    def test_non_physical_rejected(self):
        with pytest.raises(ModelError, match="non-physical LBM"):
            lean_body_mass(Sex.MALE, 200.0, 100.0)

    @pytest.mark.parametrize("w,h", [(40.0, 5e-324), (1e200, 1e200)])
    def test_squares_out_of_float_range_rejected(self, w, h):
        # h*h underflows to 0; both squares overflow to inf and their ratio is NaN
        with pytest.raises(NonPhysicalParameterError, match="non-physical LBM"):
            lean_body_mass(Sex.FEMALE, w, h)

    def test_accepts_string_sex(self):
        assert lean_body_mass("F", 65, 169) == lean_body_mass(Sex.FEMALE, 65, 169)


class TestDerivePkParams:
    def test_patient13_corrected_preset(self):
        pk = derive_pk_params(P13_DEMO, PkPreset.SCHNIDER_CORRECTED)
        # independent recomputation of the covariate chain
        lbm = lbm_oracle(Sex.FEMALE, 65.0, 169.0)
        cl1 = 1.89 + 0.0456 * (65 - 77) - 0.0681 * (lbm - 59) + 0.0264 * (169 - 177)
        assert pk.cl1 == pytest.approx(cl1, rel=1e-15)
        assert pk.cl1 == pytest.approx(1.9040917455621298)
        assert pk.k10 == pytest.approx(0.4459231254243864)
        assert pk.v2 == pytest.approx(24.765)
        assert pk.k12 == pytest.approx(0.38641686182669793)
        assert pk.k21 == pytest.approx(0.06662628709872803)
        assert pk.k13 == pytest.approx(0.19578454332552694)
        assert pk.k31 == pytest.approx(0.0035126050420168065)
        assert pk.v3 == 238.0
        assert pk.ke0 == pk.k1e == 0.456

    def test_age_53_constant_terms_vanish(self):
        demo = Demographics(age=53, height_cm=169.0, weight_kg=65.0, sex=Sex.FEMALE)
        pk = derive_pk_params(demo)
        assert pk.v2 == 18.9
        assert pk.cl2 == 1.29

    def test_patient13_as_published_is_non_physical(self):
        with pytest.raises(NonPhysicalParameterError, match="non-physical PK") as exc:
            derive_pk_params(P13_DEMO, PkPreset.AS_PUBLISHED)
        assert exc.value.value == pytest.approx(-4.921508254437871)

    def test_as_published_valid_for_large_adult(self):
        demo = Demographics(age=30, height_cm=190.0, weight_kg=95.0, sex=Sex.MALE)
        pk = derive_pk_params(demo, PkPreset.AS_PUBLISHED)
        assert pk.cl1 > 0
        assert pk.v3 == 2.38

    def test_deterministic_and_pure(self):
        a = derive_pk_params(P13_DEMO)
        b = derive_pk_params(P13_DEMO)
        assert a == b

    def test_consistency_identities(self):
        pk = derive_pk_params(P13_DEMO)
        assert pk.k10 * pk.v1 == pytest.approx(pk.cl1, rel=1e-12)
        assert pk.k12 * pk.v1 == pytest.approx(pk.cl2, rel=1e-12)
        assert pk.k13 * pk.v1 == pytest.approx(pk.cl3, rel=1e-12)
        assert pk.k21 * pk.v2 == pytest.approx(pk.cl2, rel=1e-12)
        assert pk.k31 * pk.v3 == pytest.approx(pk.cl3, rel=1e-12)


class TestPkDerivatives:
    def test_origin_is_equilibrium(self):
        pk = derive_pk_params(P13_DEMO)
        d = pk_derivatives(PatientState(0, 0, 0, 0), 0.0, pk)
        assert d == PatientState(0.0, 0.0, 0.0, 0.0)

    def test_only_infusion_term(self):
        pk = derive_pk_params(P13_DEMO)
        d = pk_derivatives(PatientState(0, 0, 0, 0), 4.27, pk)
        assert d.c1 == pytest.approx(1.0, rel=1e-15)
        assert d.c2 == d.c3 == d.ce == 0.0

    def test_algebraic_equilibrium(self):
        # solve the stationarity conditions for an arbitrary c1 > 0
        pk = derive_pk_params(P13_DEMO)
        c1 = 3.7
        state = PatientState(c1, pk.k12 / pk.k21 * c1, pk.k13 / pk.k31 * c1,
                             pk.k1e / pk.ke0 * c1)
        d = pk_derivatives(state, pk.cl1 * c1, pk)
        assert math.sqrt(d.c1**2 + d.c2**2 + d.c3**2 + d.ce**2) < 1e-12

    def test_clearance_identity_at_equilibrium(self):
        # at any constant-u equilibrium: c1 = u/cl1 and ce = c1
        pk = derive_pk_params(P13_DEMO)
        u = 13.0
        c1 = u / pk.cl1
        state = PatientState(c1, pk.k12 / pk.k21 * c1, pk.k13 / pk.k31 * c1, c1)
        d = pk_derivatives(state, u, pk)
        assert max(abs(v) for v in d) < 1e-12
        after = DiscretePk(pk, 1.0 / 60.0).step(state, u)
        assert after.c1 == pytest.approx(c1, abs=1e-12)
        assert after.ce == pytest.approx(c1, abs=1e-12)


def step_reference(model, state, u):
    """DiscretePk.step as a loop over the rows of phi and gamma."""
    c1, c2, c3, ce = state
    out = [p1 * c1 + p2 * c2 + p3 * c3 + p4 * ce + g * u
           for (p1, p2, p3, p4), g in zip(model.phi, model.gamma)]
    return PatientState._make([0.0 if v < 0.0 else v for v in out])


def _single_compartment_pk(k10=0.5, v1=4.27):
    return PkParams(v1=v1, v2=10.0, v3=10.0, cl1=k10 * v1, cl2=0.0, cl3=0.0, ke0=0.456)


class TestStepRk4:
    """The DiscretePk step; the class keeps the name of the RK4 step it
    replaced so that the ids of its older tests stay stable."""

    def test_zero_state_zero_input_fixed(self):
        pk = derive_pk_params(P13_DEMO)
        s = PatientState(0, 0, 0, 0)
        for h in (1 / 60, 0.1, 1.0):
            assert DiscretePk(pk, h).step(s, 0.0) == s

    def test_single_compartment_matches_analytic(self):
        # c1(t) = c0*exp(-k10 t) + u/(v1 k10) (1 - exp(-k10 t))
        pk = _single_compartment_pk()
        h = 1.0 / 60.0
        u = 20.0
        state = PatientState(1.5, 0.0, 0.0, 0.0)
        t = 0.0
        model = DiscretePk(pk, h)
        for _ in range(int(10.0 / h)):
            state = model.step(state, u)
            t += h
            c1_exact = (1.5 * math.exp(-pk.k10 * t)
                        + u / (pk.v1 * pk.k10) * (1 - math.exp(-pk.k10 * t)))
            assert abs(state.c1 - c1_exact) < 1e-8

    @pytest.mark.parametrize("h", [1.0, 40.0])
    def test_single_compartment_exact_at_any_h(self, h):
        # one step of any length lands on the analytic solution, c1 and ce:
        # c1(t) = css + (c0 - css) exp(-k t), ce' = ke0 (c1 - ce), ce(0) = 0
        pk = _single_compartment_pk()
        k, ke0, u, c0 = pk.k10, pk.ke0, 20.0, 1.5
        css = u / (pk.v1 * k)
        after = DiscretePk(pk, h).step(PatientState(c0, 0.0, 0.0, 0.0), u)
        c1 = css + (c0 - css) * math.exp(-k * h)
        ce = (css * (1 - math.exp(-ke0 * h))
              + (c0 - css) * ke0 / (ke0 - k) * (math.exp(-k * h) - math.exp(-ke0 * h)))
        assert after.c1 == pytest.approx(c1, rel=1e-12)
        assert after.ce == pytest.approx(ce, rel=1e-12)
        assert after.c2 == after.c3 == 0.0

    @pytest.mark.parametrize("h", [1 / 60, 1.0, 40.0])
    def test_two_half_steps_equal_one_step(self, h):
        pk = derive_pk_params(P13_DEMO)
        state, u = PatientState(3.0, 1.0, 0.5, 2.0), 35.0
        half = DiscretePk(pk, h / 2)
        twice = half.step(half.step(state, u), u)
        for a, b in zip(twice, DiscretePk(pk, h).step(state, u)):
            assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("h", [0.0, -1.0, math.nan, math.inf])
    def test_bad_step_size_rejected(self, h):
        with pytest.raises(ModelError, match="step size"):
            DiscretePk(derive_pk_params(P13_DEMO), h)

    def test_against_fine_euler_oracle(self):
        # brute-force explicit Euler at h/1000 over 1 min
        pk = derive_pk_params(P13_DEMO)
        u = 0.2
        h = 1.0 / 60.0
        state = PatientState(0, 0, 0, 0)
        model = DiscretePk(pk, h)
        for _ in range(60):
            state = model.step(state, u)

        fine = [0.0, 0.0, 0.0, 0.0]
        hf = h / 1000.0
        for _ in range(60 * 1000):
            d = pk_derivatives(PatientState(*fine), u, pk)
            fine = [x + hf * dx for x, dx in zip(fine, d)]
        assert max(abs(a - b) for a, b in zip(state, fine)) < 1e-6

    def test_against_fine_euler_oracle_at_scale(self):
        # same comparison at pump-limit scale, relative to the state magnitude
        pk = derive_pk_params(P13_DEMO)
        u = 200.0
        state = PatientState(0, 0, 0, 0)
        model = DiscretePk(pk, 1.0 / 60.0)
        for _ in range(60):
            state = model.step(state, u)
        fine = [0.0, 0.0, 0.0, 0.0]
        hf = 1.0 / 60000.0
        for _ in range(60000):
            d = pk_derivatives(PatientState(*fine), u, pk)
            fine = [x + hf * dx for x, dx in zip(fine, d)]
        scale = max(abs(v) for v in fine)
        assert max(abs(a - b) for a, b in zip(state, fine)) / scale < 5e-5

    def test_diverged_integration_raises(self):
        pk = derive_pk_params(P13_DEMO)
        with pytest.raises(ModelError, match="diverged"):
            DiscretePk(pk, 1e6).step(PatientState(1e308, 0, 0, 0), 1e308)
        model = DiscretePk(pk, 1 / 60)
        for state, u in ((PatientState(math.nan, 0.0, 0.0, 0.0), 1.0),
                         (PatientState(0.0, 0.0, 0.0, math.nan), 0.0),
                         (PatientState(0.0, 0.0, 0.0, 0.0), math.inf)):
            with pytest.raises(ModelError, match=r"^integration diverged: state=\(.*\), "
                                                 r"u=.*, h=0\.01666"):
                model.step(state, u)

    @given(st.sampled_from([p.pk for p in builtin_cohort()] + [MODEL_PK]),
           st.floats(1e-4, 5.0),
           st.tuples(*[st.floats(0.0, 1e4)] * 4),
           st.floats(0.0, 1e4))
    def test_step_equals_reference_bit_for_bit(self, pk, h, state, u):
        model = DiscretePk(pk, h)
        got = model.step(PatientState(*state), u)
        assert type(got) is PatientState
        assert [v.hex() for v in got] == [v.hex() for v in step_reference(model, state, u)]


def numpy_expm(m):
    """The scaling-and-squaring exponential as it was written with numpy, the
    products by its matmul."""
    s = max(0, int(np.frexp(np.abs(m).sum(axis=0).max())[1]) + 1)
    a = np.ldexp(m, -s)
    term = out = np.eye(len(m))
    for k in range(1, 19):
        term = term @ a / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def numpy_phi_gamma(pk, h):
    """DiscretePk's phi and gamma, rows (phi[i], gamma[i]), from numpy_expm."""
    m = np.zeros((5, 5))
    for j, unit in enumerate(np.eye(4)):
        m[:4, j] = pk_derivatives(PatientState(*unit), 0.0, pk)
    m[:4, 4] = pk_derivatives(ZERO_STATE, 1.0, pk)
    return numpy_expm(m * h)[:4].tolist()


def phi_gamma(pk, h):
    model = DiscretePk(pk, h)
    return [[*row, g] for row, g in zip(model.phi, model.gamma)]


EXPM_PKS = [pytest.param(p.pk, id=f"patient_{p.id}") for p in builtin_cohort()] + \
    [pytest.param(MODEL_PK, id="model_pk")]


class TestExpm:
    """The pure-Python exponential behind DiscretePk against numpy's."""

    @pytest.mark.parametrize("pk", EXPM_PKS)
    def test_default_h_bit_identical_to_numpy(self, pk):
        h = 1.0 / 60.0
        assert [[v.hex() for v in row] for row in phi_gamma(pk, h)] == \
            [[v.hex() for v in row] for row in numpy_phi_gamma(pk, h)]

    @pytest.mark.parametrize("h", [0.1, 1.0, 5.0])
    @pytest.mark.parametrize("pk", EXPM_PKS)
    def test_other_h_within_1e14_of_numpy(self, pk, h):
        for got, want in zip(phi_gamma(pk, h), numpy_phi_gamma(pk, h)):
            for a, b in zip(got, want):
                assert abs(a - b) <= 1e-14 * abs(b)


class TestHillBis:
    def test_zero_concentration_is_baseline(self):
        assert hill_bis(0.0, P13_HILL) == 93.1

    def test_half_effect_point(self):
        assert hill_bis(7.42, P13_HILL) == pytest.approx(93.1 - 96.58 / 2, rel=1e-12)
        assert hill_bis(7.42, P13_HILL) == pytest.approx(44.81)

    def test_unclamped_below_zero(self):
        # emax > e0 patients drive the raw curve negative at high ce
        hill = HillParams(e0=83.1, emax=151.0, ce50=13.7, gamma=1.65)
        assert hill_bis(200.0, hill) < 0.0

    def test_overflow_raises_model_error(self):
        with pytest.raises(ModelError, match=r"^Hill curve overflows: ce=1e\+200 mg/L, gamma=3$"):
            hill_bis(1e200, P13_HILL)

    @pytest.mark.parametrize("ce50, value", [(1.0, "-inf"), (1e154, "nan")])
    def test_non_finite_result_raises_model_error(self, ce50, value):
        # ce ** gamma = 1e308 is finite; emax * x overflows, and with it
        # x + ce50 ** gamma when ce50 = 1e154, giving -inf and NaN
        hill = HillParams(e0=95.0, emax=94.0, ce50=ce50, gamma=2.0)
        raw = 95.0 - 94.0 * 1e308 / (1e308 + ce50 ** 2.0)
        assert repr(raw) == value
        with pytest.raises(ModelError, match=r"^Hill curve overflows: ce=1e\+154 mg/L, gamma=2$"):
            hill_bis(1e154, hill)

    def test_c50g_is_derived_and_not_a_field_of_the_curve(self):
        # c50g is ce50 ** gamma, kept from validation; it takes no part in
        # ==, repr or hash, so a curve is still its four numbers
        assert P13_HILL.c50g == 7.42 ** 3.00
        assert P13_HILL == HillParams(e0=93.1, emax=96.58, ce50=7.42, gamma=3.0)
        assert repr(P13_HILL) == "HillParams(e0=93.1, emax=96.58, ce50=7.42, gamma=3.0)"
        assert hash(P13_HILL) == hash((93.1, 96.58, 7.42, 3.0))
        with pytest.raises(TypeError):
            HillParams(e0=93.1, emax=96.58, ce50=7.42, gamma=3.0, c50g=1.0)

    @given(st.floats(0.5, 20), st.floats(0.5, 6), st.floats(50, 100), st.floats(10, 120))
    def test_monotone_decreasing(self, ce50, gamma, e0, emax):
        hill = HillParams(e0=e0, emax=emax, ce50=ce50, gamma=gamma)
        ces = [0.1 * i * ce50 for i in range(1, 40)]
        values = [hill_bis(c, hill) for c in ces]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestCohort:
    def test_has_13_members(self, cohort):
        assert [p.id for p in cohort] == list(range(1, 14))

    def test_first_row(self, cohort):
        p = cohort[0]
        d = p.demographics
        assert (d.age, d.height_cm, d.weight_kg, d.sex) == (40, 163, 54, Sex.FEMALE)
        assert (p.hill.ce50, p.hill.gamma, p.hill.e0, p.hill.emax) == (6.33, 2.24, 98.8, 94.10)

    def test_last_row_is_flagged_average(self, cohort):
        p = cohort[12]
        d = p.demographics
        assert (d.age, d.height_cm, d.weight_kg, d.sex) == (38, 169, 65, Sex.FEMALE)
        assert (p.hill.ce50, p.hill.gamma, p.hill.e0, p.hill.emax) == (7.42, 3.00, 93.1, 96.58)

    def test_ce50_mean_matches_average_row(self, cohort):
        mean = sum(p.hill.ce50 for p in cohort[:12]) / 12
        assert mean == pytest.approx(7.425)
        assert abs(mean - cohort[12].hill.ce50) < 0.01

    def test_pk_uses_requested_preset(self, cohort):
        assert cohort[0].pk == derive_pk_params(cohort[0].demographics,
                                                PkPreset.SCHNIDER_CORRECTED)

    def test_as_published_cohort_rejected(self):
        with pytest.raises(NonPhysicalParameterError):
            builtin_cohort(PkPreset.AS_PUBLISHED)

    # True and 13.0 compare equal to cohort ids, but an id is an int
    @pytest.mark.parametrize("patient_id", [14, True, 13.0])
    def test_unknown_member(self, patient_id):
        with pytest.raises(ModelError, match="unknown patient id"):
            cohort_member(patient_id)
        with pytest.raises(ModelError, match="unknown patient id"):
            Scenario(patient=patient_id)

    def test_repeated_calls_identical(self):
        assert builtin_cohort() == builtin_cohort()


class TestStateProperties:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_non_negativity_under_random_infusion(self, seed):
        import random
        rng = random.Random(seed)
        pk = derive_pk_params(P13_DEMO)
        state = PatientState(0, 0, 0, 0)
        model = DiscretePk(pk, 0.05)
        for _ in range(30):
            u = rng.uniform(0.0, 400.0)
            state = model.step(state, u)
            assert all(v >= 0.0 for v in state)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_superposition(self, seed):
        import random
        rng = random.Random(seed)
        pk = derive_pk_params(P13_DEMO)
        rates = [rng.uniform(0.0, 200.0) for _ in range(30)]
        s1 = PatientState(0, 0, 0, 0)
        s2 = PatientState(0, 0, 0, 0)
        model = DiscretePk(pk, 0.05)
        for u in rates:
            s1 = model.step(s1, u)
            s2 = model.step(s2, 2.0 * u)
            for a, b in zip(s1, s2):
                assert b == pytest.approx(2.0 * a, rel=1e-9)

    def test_demographics_validation(self):
        with pytest.raises(ModelError):
            Demographics(age=0, height_cm=170, weight_kg=70, sex=Sex.MALE)
        with pytest.raises(ModelError):
            Demographics(age=40, height_cm=-1, weight_kg=70, sex=Sex.MALE)
        with pytest.raises(ModelError):
            # LBM formula domain violation
            Demographics(age=40, height_cm=100, weight_kg=200, sex=Sex.MALE)
        good = {"age": 40, "height_cm": 170.0, "weight_kg": 60.0}
        for name in good:
            # an integer above the float range compares below math.inf
            for bad, want in ((math.nan, "finite"), (math.inf, "finite"), (10**400, "finite"),
                              (True, "a number"), ("1", "a number")):
                with pytest.raises(ModelError, match=f"{name} must be {want}"):
                    Demographics(**{**good, name: bad}, sex=Sex.FEMALE)

    @pytest.mark.parametrize("name", ["e0", "emax", "ce50", "gamma"])
    # an integer above the float range compares below math.inf
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf,
                                     pytest.param(10**400, id="int_above_float_range"),
                                     True, "1"])
    def test_hill_validation(self, name, bad):
        good = {"e0": 93.1, "emax": 87.5, "ce50": 4.92, "gamma": 2.69}
        want = (r"in \(0, 100\]" if name == "e0"
                else "a number" if isinstance(bad, (bool, str)) else "finite and positive")
        with pytest.raises(ModelError, match=f"{name} must be {want}"):
            HillParams(**{**good, name: bad})

    @pytest.mark.parametrize("name", ["v1", "v2", "v3", "cl1", "cl2", "cl3", "ke0"])
    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf,
                                     pytest.param(10**400, id="int_above_float_range"),
                                     True, "1"])
    def test_pk_validation(self, name, bad):
        good = {"v1": 4.27, "v2": 18.9, "v3": 238.0, "cl1": 1.8, "cl2": 1.3, "cl3": 0.8,
                "ke0": 0.456}
        with pytest.raises(ModelError, match=name):
            PkParams(**{**good, name: bad})
