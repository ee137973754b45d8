"""Acceptance suite: every release-gating behavior at its pinned tolerance.

Each check prints one PASS/FAIL line.  Two pins are strict expected
failures with the measured value printed: the published average-patient
gamma is a rounded value sitting 0.0117 from the true column mean, and the
60-minute infusion rate cannot equal the full-equilibrium value while the
238 L deep compartment is still filling.
"""

import math
import random

import pytest

from bisloop import (ControllerConfig, Demographics, DisturbancePulse, HillParams,
                     DiscretePk, NonPhysicalParameterError,
                     PatientState, PkParams, PkPreset, Scenario, Sex,
                     cohort_member, derive_pk_params, hill_bis, inverse_hill,
                     pk_derivatives, run_closed_loop, tune_tf2)
from bisloop.cli import main
from bisloop.control import Lp2State, lp2_step
from bisloop.metrics import induction_time


def check(name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
          + (f" - {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


# --- 1. cohort fidelity -----------------------------------------------------

EXPECTED_COHORT_CSV = """id,age,height_cm,weight_kg,sex,ce50,gamma,e0,emax
1,40,163,54,F,6.33,2.24,98.8,94.10
2,36,163,50,F,6.76,4.29,98.6,86.00
3,28,164,52,F,8.44,4.10,91.2,80.70
4,50,163,83,F,6.44,2.18,95.9,102.00
5,28,164,60,M,4.93,2.46,94.7,85.30
6,43,163,59,F,12.00,2.42,90.2,147.00
7,37,187,75,M,8.02,2.10,92.0,104.00
8,38,174,80,F,6.56,4.12,95.5,76.40
9,41,170,70,F,6.15,6.89,89.2,63.80
10,37,167,58,F,13.70,1.65,83.1,151.00
11,42,179,78,M,4.82,1.85,91.8,77.90
12,34,172,58,F,4.95,1.84,96.2,90.80
13,38,169,65,F,7.42,3.00,93.1,96.58
"""


def test_criterion_1_cohort_listing_byte_exact(tmp_path, capsys):
    out = tmp_path / "cohort.csv"
    rc = main(["list-patients", "--out", str(out)])
    capsys.readouterr()
    check("1 list-patients byte-for-byte", rc == 0 and out.read_text() == EXPECTED_COHORT_CSV)


def test_criterion_1_average_row_matches_column_means(cohort):
    avg = cohort[12].hill
    for name, value in (("ce50", avg.ce50), ("e0", avg.e0), ("emax", avg.emax)):
        mean = sum(getattr(p.hill, name) for p in cohort[:12]) / 12
        check(f"1 column mean {name} within 0.01", abs(mean - value) <= 0.01,
              f"mean={mean:.6f} published={value}")


@pytest.mark.xfail(strict=True,
                   reason="published average-row gamma is 3.00 but the true "
                          "column mean is 3.0117: off by 0.0117 > 0.01 "
                          "(rounding in the published row)")
def test_criterion_1_gamma_mean_within_tolerance(cohort):
    mean = sum(p.hill.gamma for p in cohort[:12]) / 12
    check("1 column mean gamma within 0.01", abs(mean - cohort[12].hill.gamma) <= 0.01,
          f"mean={mean:.6f} published={cohort[12].hill.gamma}")


# --- 2. PK correctness ------------------------------------------------------

def test_criterion_2_single_compartment_analytic():
    k10, v1 = 0.5, 4.27
    pk = PkParams(v1=v1, v2=10.0, v3=10.0, cl1=k10 * v1, cl2=0.0, cl3=0.0, ke0=0.456)
    u, h = 20.0, 1 / 60
    state = PatientState(1.5, 0.0, 0.0, 0.0)
    worst = 0.0
    model = DiscretePk(pk, h)
    for k in range(1, int(10 / h) + 1):
        state = model.step(state, u)
        t = k * h
        exact = 1.5 * math.exp(-k10 * t) + u / (v1 * k10) * (1 - math.exp(-k10 * t))
        worst = max(worst, abs(state.c1 - exact))
    check("2 single-compartment vs analytic (1e-8)", worst < 1e-8, f"worst={worst:.3e}")


def test_criterion_2_full_model_vs_fine_euler():
    pk = cohort_member(13).pk
    u, h = 0.2, 1 / 60
    state = PatientState(0, 0, 0, 0)
    model = DiscretePk(pk, h)
    for _ in range(60):
        state = model.step(state, u)
    fine = [0.0, 0.0, 0.0, 0.0]
    hf = 1 / 60000
    for _ in range(60000):
        d = pk_derivatives(PatientState(*fine), u, pk)
        fine = [x + hf * dx for x, dx in zip(fine, d)]
    worst = max(abs(a - b) for a, b in zip(state, fine))
    check("2 ZOH step vs fine-Euler oracle (1e-6)", worst < 1e-6, f"worst={worst:.3e}")


# --- 3. non-physical parameter detection ------------------------------------

def test_criterion_3_parameter_presets():
    demo = Demographics(age=38, height_cm=169.0, weight_kg=65.0, sex=Sex.FEMALE)
    with pytest.raises(NonPhysicalParameterError) as exc:
        derive_pk_params(demo, PkPreset.AS_PUBLISHED)
    check("3 as-published cl1 = -4.92 +/- 0.01 and errors",
          abs(exc.value.value - (-4.92)) <= 0.01, f"cl1={exc.value.value:.4f}")
    pk = derive_pk_params(demo, PkPreset.SCHNIDER_CORRECTED)
    check("3 corrected k10 = 0.4459 +/- 0.0001",
          abs(pk.k10 - 0.4459) <= 1e-4, f"k10={pk.k10:.6f}")


# --- 4. induction ------------------------------------------------------------

def _u_extrema(traj, t_from):
    us, ts = traj.u, traj.t
    out = []
    for i in range(1, len(us) - 1):
        if ts[i] >= t_from and (us[i] - us[i - 1]) * (us[i + 1] - us[i]) < 0:
            out.append(us[i])
    return out


def test_criterion_4_induction(p13_nominal_traj):
    traj = p13_nominal_traj
    t_in = induction_time(traj, 50.0)
    check("4 induction time <= 4.0 min", t_in is not None and t_in <= 4.0,
          f"t={t_in}")
    check("4 no undershoot below 45", min(traj.bis_true) >= 45.0,
          f"min BIS={min(traj.bis_true):.2f}")
    extrema = _u_extrema(traj, t_in)
    worst = max((abs(a - b) for a, b in zip(extrema, extrema[1:])), default=0.0)
    u_max = Scenario().controller.u_max
    check("4 no sign-alternating u oscillation (20% of u_max)",
          worst <= 0.2 * u_max, f"worst extremum gap={worst:.2f} mg/min")


# --- 5. zero steady-state error ----------------------------------------------

def test_criterion_5_cohort_steady_state(cohort, p13_nominal_traj):
    worst = 0.0
    for p in cohort:
        traj = p13_nominal_traj if p.id == 13 else run_closed_loop(
            Scenario(patient=p.id))
        worst = max(worst, abs(traj.bis_true[-1] - 50.0))
    check("5 all 13 patients |BIS-50| < 0.5 at 60 min", worst < 0.5,
          f"worst={worst:.3f}")
    ce_end = p13_nominal_traj.ce_true[-1]
    check("5 patient 13 ce_true = 6.905 +/- 0.05 at 60 min",
          abs(ce_end - 6.905) <= 0.05, f"ce={ce_end:.4f}")


@pytest.mark.xfail(strict=True,
                   reason="u = cl1*c1 holds only at full equilibrium; at 60 min "
                          "the 238 L deep compartment is still taking up drug, so "
                          "the loop must infuse ~18 mg/min, not 13.15")
def test_criterion_5_infusion_rate_equilibrium_pin(p13_nominal_traj):
    u_end = p13_nominal_traj.u[-1]
    check("5 patient 13 u = 13.15 +/- 0.5 at 60 min",
          abs(u_end - 13.15) <= 0.5,
          f"u(60)={u_end:.3f} mg/min; full-equilibrium value "
          f"{cohort_member(13).pk.cl1 * inverse_hill(50.0, cohort_member(13).hill):.3f}")


# --- 6. disturbance rejection -------------------------------------------------

def test_criterion_6_disturbance_rejection():
    pulse = DisturbancePulse(start=30.0, duration=1.0, amplitude=10.0)
    noise_free = Scenario(patient=13, disturbance=(pulse,))
    traj = run_closed_loop(noise_free)
    u_ss = traj.u[traj.t.index(29.0)]
    in_pulse = [u for t, u in zip(traj.t, traj.u) if 30.0 <= t < 31.0]
    check("6 mean u during pulse > pre-pulse u_ss",
          sum(in_pulse) / len(in_pulse) > u_ss,
          f"mean={sum(in_pulse) / len(in_pulse):.2f} vs u_ss={u_ss:.2f}")
    late = [abs(b - 50.0) for t, b in zip(traj.t, traj.bis_true) if t >= 41.0]
    check("6 |BIS-50| < 2 within 10 min of pulse end", max(late) < 2.0,
          f"worst after t=41: {max(late):.3f}")

    noisy = Scenario(patient=13, disturbance=(pulse,), seed=1234, noise=2.0)
    a = run_closed_loop(noisy)
    b = run_closed_loop(noisy)
    check("6 noisy run bit-reproducible",
          a.bis_measured == b.bis_measured and a.u == b.u and a.ce_true == b.ce_true)


# --- 7. tuning sweep ----------------------------------------------------------

def test_criterion_7_tuning_sweep():
    grid = [0.0] + [round(0.25 * i, 10) for i in range(1, 81)]
    result = tune_tf2(grid, threshold=0.30, workers=1)
    check("7 d(0) = 0 exactly", result.d_values[0] == 0.0,
          f"d(0)={result.d_values[0]!r}")
    worst_dip = min((b - a for a, b in zip(result.d_values, result.d_values[1:])),
                    default=0.0)
    check("7 d curve non-decreasing (1e-6)", worst_dip >= -1e-6,
          f"worst step={worst_dip:.3e}")
    idx = result.grid.index(result.selected_tf2)
    check("7 selected tf2 reported with d <= 0.30",
          result.d_values[idx] <= 0.30,
          f"selected={result.selected_tf2} d={result.d_values[idx]:.4f}")


# --- 8. property suites ---------------------------------------------------------

def test_criterion_8_pk_nonnegativity_and_superposition():
    pk = cohort_member(13).pk
    rng = random.Random(20240901)
    ok_nonneg = True
    ok_super = True
    for _ in range(1000):
        n = rng.randint(5, 25)
        rates = [rng.uniform(0.0, 300.0) for _ in range(n)]
        h = rng.choice([1 / 60, 0.05, 0.2])
        s1 = PatientState(0, 0, 0, 0)
        s2 = PatientState(0, 0, 0, 0)
        model = DiscretePk(pk, h)
        for u in rates:
            s1 = model.step(s1, u)
            s2 = model.step(s2, 2 * u)
            if min(s1) < 0 or min(s2) < 0:
                ok_nonneg = False
            for a, b in zip(s1, s2):
                if abs(b - 2 * a) > 1e-9 * max(abs(b), 1e-12):
                    ok_super = False
    check("8 PK non-negativity over 1000 random profiles", ok_nonneg)
    check("8 PK superposition over 1000 random profiles", ok_super)


def test_criterion_8_hill_inverse_round_trip():
    hill = HillParams(e0=93.1, emax=87.5, ce50=4.92, gamma=2.69)
    nominal = ControllerConfig(nominal_e0=93.1).nominal
    worst = 0.0
    for i in range(2001):
        ce = 20.0 * i / 2000
        worst = max(worst, abs(inverse_hill(hill_bis(ce, hill), nominal) - ce))
    check("8 Hill/inverse-Hill round trip < 1e-9 on [0, 20]", worst < 1e-9,
          f"worst={worst:.2e}")


def test_criterion_8_filter_dc_gain():
    ok = True
    for tf, c in ((0.1, 93.1), (0.5, -2.0), (2.0, 47.0)):
        f = Lp2State(tf=tf)
        out = 0.0
        for _ in range(int(25 * tf * 60)):
            out = lp2_step(f, c, 1 / 60)
        if abs(out - c) > 1e-9 * max(1.0, abs(c)):
            ok = False
    check("8 filter unit DC gain", ok)


def test_criterion_8_actuator_bound(p13_nominal_traj):
    runs = [p13_nominal_traj,
            run_closed_loop(Scenario(patient=5, duration=10.0, seed=7,
                                     noise=2.0,
                                     disturbance=(DisturbancePulse(5.0, 1.0, 10.0),)))]
    u_max = Scenario().controller.u_max
    ok = all(0.0 <= u <= u_max for traj in runs for u in traj.u)
    check("8 actuator bound 0 <= u <= u_max on every step", ok)
