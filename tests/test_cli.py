import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bisloop
from bisloop import cli, metrics
from bisloop.cli import main
from bisloop.scenario_io import TRAJECTORY_CSV_HEADER

# The first bolus drives ce ** gamma beyond the float range at step 1.
HILL_OVERFLOW = {"patient_id": 13, "duration_min": 1,
                 "controller": {"u_max_mg_min": 1e300, "kp": 1e300, "nominal_e0": 93.1}}
# ce ** gamma stays finite, but emax * ce ** gamma overflows: the Hill curve
# reads -inf from step 130 on.
HILL_NON_FINITE = {"patient": {"id": 5, "age": 38, "height_cm": 169, "weight_kg": 65, "sex": "F",
                               "ce50": 1.0, "gamma": 2.0, "e0": 95.0, "emax": 94.0},
                   "duration_min": 5,
                   "controller": {"kp": 1e300, "u_max_mg_min": 1e156, "nominal_e0": 80.0}}
# Patient 10's awake BIS is 83.1, below the target; patients 1-9 reach it.
UNREACHABLE = {"duration_min": 1, "controller": {"target_bis": 85}}
P13 = {"id": 13, "age": 38, "height_cm": 169, "weight_kg": 65, "sex": "F",
       "ce50": 7.42, "gamma": 2, "e0": 93.1, "emax": 96.58}


def run_python(*args: str, **kwargs) -> subprocess.CompletedProcess:
    """A child interpreter run with this bisloop's src/ on its path."""
    src = str(Path(bisloop.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          **kwargs)


@pytest.fixture
def scenario_file(tmp_path):
    def make(doc, name="scenario.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)
    return make


class TestListPatients:
    def test_stdout(self, capsys):
        assert main(["list-patients"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert len(lines) == 14
        assert lines[0].startswith("id,age")

    def test_to_file(self, tmp_path):
        out = tmp_path / "cohort.csv"
        assert main(["list-patients", "--out", str(out)]) == 0
        assert out.read_text().startswith("id,age")


class TestSimulate:
    def test_nominal_run(self, scenario_file, tmp_path, capsys):
        path = scenario_file({"patient_id": 13, "duration_min": 2})
        out = tmp_path / "traj.csv"
        plot = tmp_path / "bis.svg"
        rc = main(["simulate", "--scenario", path, "--out", str(out),
                   "--plot", str(plot)])
        assert rc == 0
        text = out.read_text()
        assert text.startswith(TRAJECTORY_CSV_HEADER)
        assert len(text.strip().split("\n")) == 121
        assert plot.read_text().count("<polyline") == 3

    def test_stdout_default(self, scenario_file, capsys):
        path = scenario_file({"patient_id": 13, "duration_min": 0.1})
        assert main(["simulate", "--scenario", path]) == 0
        assert capsys.readouterr().out.startswith(TRAJECTORY_CSV_HEADER)

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["simulate", "--scenario", str(bad)]) == 2

    def test_integer_of_too_many_digits_exit_code(self, tmp_path, capsys):
        huge = tmp_path / "huge.json"
        huge.write_text('{"duration_min": 1' + "0" * 5000 + "}")
        assert main(["simulate", "--scenario", str(huge)]) == 2

    def test_unknown_patient_exit_code(self, scenario_file, capsys):
        path = scenario_file({"patient_id": 14})
        assert main(["simulate", "--scenario", path]) == 2

    def test_unknown_key_exit_code(self, scenario_file, capsys):
        path = scenario_file({"patient_id": 13, "bogus": 1})
        assert main(["simulate", "--scenario", path]) == 2

    def test_model_error_exit_code(self, scenario_file, capsys):
        # the as-published coefficient set cannot build this patient
        path = scenario_file({"patient_id": 13, "pk_preset": "as_published",
                              "duration_min": 1})
        assert main(["simulate", "--scenario", path]) == 3

    def test_controller_error_exit_code(self, scenario_file, capsys):
        # target above the nominal baseline is an invalid loop configuration
        path = scenario_file({"patient_id": 13, "duration_min": 1,
                              "controller": {"target_bis": 98.0}})
        assert main(["simulate", "--scenario", path]) == 4

    @pytest.mark.parametrize("doc", [
        {"duration_min": float("nan")},
        {"h_min": float("inf")},
        {"disturbance": [{"start_min": 1, "duration_min": 1,
                          "amplitude_bis": float("nan")}]},
        {"patient": {"id": 1, "age": 30, "height_cm": 170, "weight_kg": 70, "sex": "M",
                     "ce50": float("nan"), "gamma": 2, "e0": 95, "emax": 90}},
        {"seed": -1},
    ])
    def test_bad_number_exit_code(self, scenario_file, capsys, doc):
        assert main(["simulate", "--scenario", scenario_file(doc)]) == 2

    def test_hill_overflow_exits_3(self, scenario_file, capsys):
        assert main(["simulate", "--scenario", scenario_file(HILL_OVERFLOW)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: step 1 (t=0.0167 min): Hill curve overflows: ce=")

    def test_non_finite_hill_curve_exits_3(self, scenario_file, capsys):
        assert main(["simulate", "--scenario", scenario_file(HILL_NON_FINITE)]) == 3
        assert capsys.readouterr().err == ("error: step 130 (t=2.1667 min): Hill curve overflows: "
                                           "ce=1.38427e+153 mg/L, gamma=2\n")

    @pytest.mark.parametrize("patient", [{"ce50": 1e200}, {"ce50": 1e-200}, {"age": 10**400}])
    def test_patient_beyond_the_float_range_exits_2(self, scenario_file, capsys, patient):
        doc = {"patient": {**P13, **patient}, "duration_min": 1}
        assert main(["simulate", "--scenario", scenario_file(doc)]) == 2
        assert capsys.readouterr().err.startswith("error: patient: ")

    def test_unreachable_target_exits_4_before_the_run(self, scenario_file, capsys):
        # e0 - emax = 93.1 - 87.5 for the nominal curve of patient 13
        path = scenario_file({"patient_id": 13, "controller": {"target_bis": 3}})
        assert main(["simulate", "--scenario", path]) == 4
        err = capsys.readouterr().err
        assert "target_bis=3.0 is below the nominal curve's reach e0 - emax = 93.1 - 87.5" in err
        assert "step" not in err

    def test_nominal_e0_above_the_monitor_range_exits_2(self, scenario_file, capsys):
        # a monitor reads at most 100, so no measured awake BIS lies above it
        path = scenario_file({"duration_min": 1, "controller": {"nominal_e0": 120}})
        assert main(["simulate", "--scenario", path]) == 2
        assert "controller.nominal_e0: e0 must be in (0, 100], got 120" in capsys.readouterr().err

    def test_run_without_steps_exits_2(self, scenario_file, capsys):
        path = scenario_file({"h_min": 2, "duration_min": 1})
        assert main(["simulate", "--scenario", path]) == 2
        assert "h=2.0 min, duration=1.0 min" in capsys.readouterr().err

    def test_missing_file_exit_code(self, capsys):
        assert main(["simulate", "--scenario", "/nonexistent/x.json"]) == 2


class TestOpenLoopCommand:
    def test_runs(self, tmp_path):
        out = tmp_path / "ol.csv"
        rc = main(["open-loop", "--patient", "13", "--rate", "10",
                   "--duration", "1", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 61
        assert lines[1].split(",")[3] == ""  # bis_filtered empty

    @pytest.mark.parametrize("flag, value", [("--rate", "-5"), ("--rate", "nan"),
                                             ("--duration", "nan")])
    def test_bad_input_exits_2(self, capsys, flag, value):
        # argparse keeps the last value given for a repeated flag
        assert main(["open-loop", "--patient", "13", "--rate", "10", "--duration", "1",
                     flag, value]) == 2


    @pytest.mark.parametrize("flag", ["--duration", "--rate"])
    def test_infinite_input_exits_2(self, capsys, flag):
        assert main(["open-loop", "--patient", "13", "--rate", "10", "--duration", "1",
                     flag, "inf"]) == 2
        assert "must be" in capsys.readouterr().err


# Any JSON value a scenario key may meet: every JSON type, and numbers at and
# beyond the float range, NaN and the infinities (json reads NaN and Infinity).
ANY_VALUE = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4), st.floats(), st.integers(),
    st.sampled_from([10**400, -10**400, 2**64, 5e-324, 1.7976931348623157e308]),
    st.lists(st.integers(), max_size=2), st.dictionaries(st.text(max_size=2), st.integers(),
                                                         max_size=1))
# A time value the parser or Scenario rejects whatever the other one is.
BAD_TIME = st.one_of(ANY_VALUE.filter(lambda v: not (isinstance(v, (int, float))
                                                     and not isinstance(v, bool) and v > 0)),
                     st.sampled_from([math.inf, 10**400]))
ABSENT = object()
# Every document that runs runs at most this many steps (the default 60 min
# at the default 1-s step); the others are rejected before their first step.
MAX_DOC_STEPS = 3600


@st.composite
def _entries(draw, spec: dict, absent: int = 15) -> dict:
    """An object with each key of spec absent (absent in 50), any JSON value
    (1 in 50) or else drawn from its strategy."""
    out = {}
    for key, plausible in spec.items():
        roll = draw(st.integers(0, 49))
        if roll >= absent:
            out[key] = draw(plausible if roll < 49 else ANY_VALUE)
    return out


@st.composite
def _run_window(draw) -> dict:
    """h_min and duration_min: a run of at most MAX_DOC_STEPS steps, a run
    beyond MAX_STEPS, or a rejected value; each may be absent (a default)."""
    kind = draw(st.sampled_from(["runs"] * 4 + ["over_budget", "bad"]))
    if kind == "runs":
        h = draw(st.one_of(st.just(ABSENT), st.floats(1e-3, 30.0)))
        h_eff = 1 / 60 if h is ABSENT else h
        steps = st.floats(0.0, MAX_DOC_STEPS).map(lambda k: k * h_eff)
        duration = draw(st.one_of(st.just(ABSENT), steps) if h_eff >= 1 / 60 else steps)
    elif kind == "over_budget":
        h = draw(st.floats(5e-324, 1e-6))
        duration = draw(st.one_of(st.just(ABSENT), st.floats(60.0, 1e308)))
    else:
        h, duration = draw(st.one_of(
            st.tuples(BAD_TIME, st.one_of(st.just(ABSENT), st.floats(0.0, 60.0), ANY_VALUE)),
            st.tuples(st.one_of(st.just(ABSENT), st.floats(1e-3, 30.0), ANY_VALUE), BAD_TIME)))
    return {k: v for k, v in (("h_min", h), ("duration_min", duration)) if v is not ABSENT}


_PATIENT = _entries({
    "id": st.integers(0, 20), "age": st.integers(1, 100), "height_cm": st.floats(150.0, 200.0),
    "weight_kg": st.floats(40.0, 120.0),
    "sex": st.sampled_from(["F", "M", "female", "male", "F", "M", "x"]),
    "ce50": st.floats(0.5, 20.0), "gamma": st.floats(0.5, 8.0), "e0": st.floats(50.0, 100.0),
    "emax": st.floats(10.0, 160.0)}, absent=0)
_CONTROLLER = _entries({
    "target_bis": st.one_of(st.floats(30.0, 70.0), st.floats(0.0, 100.0)),
    "tf1_min": st.floats(0.0, 2.0), "tf2_min": st.floats(0.0, 20.0),
    "kp": st.one_of(st.floats(0.0, 100.0), st.floats(0.0)), "ki": st.floats(0.0, 20.0),
    "u_max_mg_min": st.one_of(st.floats(1.0, 1000.0), st.floats(0.0)),
    "nominal_e0": st.floats(50.0, 100.0)})
_NOISE = _entries({"kind": st.sampled_from(["none", "gaussian", "gaussian", "GAUSSIAN", "pink"]),
                   "sigma_bis": st.one_of(st.floats(0.0, 20.0), st.floats(0.0))})
_PULSE = _entries({"start_min": st.floats(0.0, 60.0), "duration_min": st.floats(0.0, 10.0),
                   "amplitude_bis": st.floats(-200.0, 200.0)}, absent=0)


@st.composite
def scenario_documents(draw) -> dict:
    """A scenario document, valid or not, that runs at most MAX_DOC_STEPS steps."""
    doc = draw(_entries({
        "pk_preset": st.sampled_from(["schnider_corrected"] * 8 + ["as_published", "bogus"]),
        "controller": _CONTROLLER, "noise": _NOISE,
        "disturbance": st.lists(_PULSE, max_size=3), "seed": st.integers(-1, 2**64)}))
    # One of the two ways to name a patient, neither, or (rejected) both.
    for key in draw(st.sampled_from([("patient_id",)] * 3 + [("patient",)] * 3 + [()] * 2
                                    + [("patient_id", "patient")])):
        doc[key] = draw(st.one_of(st.integers(1, 13), st.integers()) if key == "patient_id"
                        else _PATIENT)
    return {**doc, **draw(_run_window())}


class TestAnyDocument:
    """Any scenario document either runs or fails with its documented exit
    code, never with exit 1 or an uncaught error."""

    @settings(max_examples=150, deadline=None)
    @given(doc=scenario_documents())
    def test_simulate_exits_0_2_3_or_4(self, tmp_path_factory, doc):
        path = tmp_path_factory.getbasetemp() / "any_document.json"
        path.write_text(json.dumps(doc))
        plot = tmp_path_factory.getbasetemp() / "any_document.svg"
        assert main(["simulate", "--scenario", str(path), "--out", os.devnull,
                     "--plot", str(plot)]) in (0, 2, 3, 4)


class TestCohortCommand:
    def test_metrics_table(self, scenario_file, tmp_path):
        path = scenario_file({"duration_min": 10})
        out = tmp_path / "metrics.csv"
        rc = main(["cohort", "--scenario", path, "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("patient_id,iae")
        assert len(lines) == 14
        assert [int(l.split(",")[0]) for l in lines[1:]] == list(range(1, 14))

    def test_noisy_pulsed_cohort_bytes_pinned(self, scenario_file, capsys):
        path = scenario_file({
            "duration_min": 30, "seed": 11,
            "noise": {"kind": "gaussian", "sigma_bis": 2.0},
            "disturbance": [{"start_min": 10, "duration_min": 2, "amplitude_bis": 10},
                            {"start_min": 20, "duration_min": 1, "amplitude_bis": -8}]})
        assert main(["cohort", "--scenario", path]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "3c96ffeab42886d7efefb11a68ad39f6f8dd6818dddabdc4a32024fd1e5bac9b"

    def test_hill_overflow_exits_3_with_one_stderr_line(self, scenario_file):
        # a child process, so that a numpy RuntimeWarning would reach its stderr
        proc = run_python("-c", "import sys; from bisloop.cli import main; "
                          "sys.exit(main(sys.argv[1:]))", "cohort", "--scenario",
                          scenario_file(HILL_OVERFLOW))
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: patient 1, tf2=0.163118 min: "
                                      "step 1 (t=0.0167 min): Hill curve overflows: ce=")
        assert proc.stderr.count("\n") == 1

    def test_run_failing_before_its_first_step_is_named(self, scenario_file, capsys):
        assert main(["cohort", "--scenario", scenario_file(UNREACHABLE)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: patient 10, ")
        assert err.count("\n") == 1

    def test_unreachable_target_starts_no_run(self, scenario_file, capsys, monkeypatch):
        # Patients 1-9 reach target 85; patient 10's error comes before any run.
        unreachable = bisloop.ControllerConfig(target_bis=85.0)
        with pytest.raises(bisloop.ControllerError) as scalar:
            bisloop.run_closed_loop(bisloop.Scenario(patient=10, controller=unreachable))
        runs = []
        real_run = bisloop.engine._run
        monkeypatch.setattr(bisloop.engine, "_run",
                            lambda *args: runs.append(args) or real_run(*args))
        path = scenario_file({"duration_min": 60, "controller": {"target_bis": 85}})
        assert main(["cohort", "--scenario", path]) == 4
        assert capsys.readouterr().err == \
            f"error: patient 10, tf2=0.163118 min: {scalar.value}\n"
        assert runs == []


class TestTuneCommand:
    def test_single_point_grid(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        plot = tmp_path / "sweep.svg"
        rc = main(["tune-tf2", "--grid", "0.25:0.25:0.25",
                   "--out", str(out), "--plot", str(plot)])
        assert rc == 0
        text = out.read_text()
        assert text.startswith("tf2_min,degradation_ratio")
        assert "selected_tf2_min=0.25" in text
        assert plot.exists()

    def test_bad_grid_spec(self, capsys):
        for spec in ("nope", "0:inf:1", "nan:1:0.1", "0:1:nan", "0:1:inf"):
            assert main(["tune-tf2", "--grid", spec]) == 2, spec
            assert "--grid expects" in capsys.readouterr().err

    def test_grid_without_a_finite_point_count_exits_2(self, capsys):
        # (B - A) / STEP overflows to inf
        assert main(["tune-tf2", "--grid", "0:1e308:1e-308"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --grid expects a finite point count")
        assert err.count("\n") == 1

    def test_grid_above_max_steps_exits_2_before_the_sweep(self, capsys, monkeypatch):
        # One point above the budget, so that a grid built before the check
        # stays small; the CI step runs a grid of 10**12 points.
        def sweep(grid, **kwargs):
            raise AssertionError(f"a sweep of {len(grid)} points started")
        monkeypatch.setattr(cli, "tune_tf2", sweep)
        assert main(["tune-tf2", "--grid", f"0:{cli.MAX_STEPS}:1"]) == 2
        assert capsys.readouterr().err == (f"error: --grid 0:{cli.MAX_STEPS}:1 makes "
                                           f"{cli.MAX_STEPS + 1} points, above "
                                           f"MAX_STEPS={cli.MAX_STEPS}\n")
        # MAX_STEPS points are within the budget and reach the sweep.
        with pytest.raises(AssertionError, match=f"a sweep of {cli.MAX_STEPS} points"):
            main(["tune-tf2", "--grid", f"0:{cli.MAX_STEPS - 1}:1"])

    def test_controller_failure_in_a_lane_exits_4(self, scenario_file, capsys):
        path = scenario_file({"duration_min": 30, "h_min": 5.0})
        assert main(["tune-tf2", "--grid", "0.5:0.5:0.5", "--scenario", path]) == 4
        err = capsys.readouterr().err
        assert "patient 1, tf2=0 min: step 1 (t=5.0000 min): " in err

    def test_lane_failing_before_its_first_step_is_named(self, scenario_file, capsys):
        path = scenario_file(UNREACHABLE)
        assert main(["tune-tf2", "--grid", "0.5:0.5:0.5", "--scenario", path]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: patient 10, ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("h", [40.0, 29.999])
    def test_template_shorter_than_two_steps_exits_2(self, scenario_file, capsys, h):
        path = scenario_file({"duration_min": 30, "h_min": h})
        assert main(["tune-tf2", "--grid", "0.5:0.5:0.5", "--scenario", path]) == 2
        assert f"h={h} min, duration=30.0 min" in capsys.readouterr().err

    @pytest.mark.parametrize("threshold", ["nan", "-inf"])
    def test_threshold_no_ratio_meets_exits_2_before_the_sweep(self, capsys, monkeypatch,
                                                                threshold):
        monkeypatch.setattr(metrics, "_closed_loop_lanes", None)   # a sweep would raise TypeError
        assert main(["tune-tf2", "--grid", "0.25:0.25:0.25", f"--threshold={threshold}"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: threshold must be a number above -inf, got {threshold}\n"

    def test_infeasible_threshold(self, capsys):
        rc = main(["tune-tf2", "--grid", "5:5:1", "--threshold", "0.000001"])
        assert rc == 1


class TestCurveCommand:
    def test_single_patient(self, tmp_path):
        out = tmp_path / "curve.csv"
        rc = main(["curve", "--patient", "13", "--points", "11",
                   "--ce-max", "15", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "patient_id,ce_mg_l,bis"
        assert len(lines) == 12
        assert lines[1] == "13,0,93.1"

    def test_all_patients_with_plot(self, tmp_path):
        out = tmp_path / "curves.csv"
        plot = tmp_path / "curves.svg"
        rc = main(["curve", "--patient", "all", "--points", "5",
                   "--out", str(out), "--plot", str(plot)])
        assert rc == 0
        assert plot.read_text().count("<polyline") == 13

    def test_unknown_patient(self, capsys):
        assert main(["curve", "--patient", "21"]) == 3

    def test_patient_neither_id_nor_all_exits_2(self, capsys):
        assert main(["curve", "--patient", "abc"]) == 2
        assert capsys.readouterr().err == "error: --patient expects an id or 'all', got 'abc'\n"

    def test_ce_max_overflowing_the_hill_curve_exits_3(self, capsys):
        assert main(["curve", "--patient", "13", "--ce-max", "1e200"]) == 3
        assert "Hill curve overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("points", ["1", "0", "-3"])
    def test_fewer_than_two_points_exits_2(self, capsys, points):
        assert main(["curve", "--patient", "13", "--points", points]) == 2
        assert capsys.readouterr().err == f"error: --points expects at least 2, got {points}\n"

    def test_more_samples_than_max_steps_exits_2_before_any_point(self, capsys, monkeypatch):
        # 13 patients x 76924 points = 1 000 012 samples, just above MAX_STEPS
        def ce_bis_curve(*args):
            raise AssertionError("a point was computed")

        monkeypatch.setattr(cli, "ce_bis_curve", ce_bis_curve)
        assert main(["curve", "--patient", "all", "--points", "76924"]) == 2
        assert capsys.readouterr().err == ("error: --points 76924 for 13 patients makes "
                                           "1000012 samples, above MAX_STEPS=1000000\n")

    @pytest.mark.parametrize("ce_max", ["nan", "inf"])
    def test_non_finite_ce_max_exits_1(self, capsys, ce_max):
        assert main(["curve", "--patient", "13", "--ce-max", ce_max]) == 1
        assert "ce_max must be finite and positive" in capsys.readouterr().err


class TestNumpyStaysUnloaded:
    """Only array work loads numpy: import, the cohort table, the curve and
    noise-free runs stay scalar.  Each case runs in a fresh interpreter."""

    @pytest.mark.parametrize("code, loads_numpy", [
        ("import bisloop, bisloop.cli; bisloop.builtin_cohort()", False),
        ("assert main(['list-patients', '--out', 'out.csv']) == 0", False),
        ("assert main(['curve', '--patient', '13', '--out', 'out.csv']) == 0", False),
        ("assert main(['simulate', '--scenario', 'quiet.json', '--out', 'out.csv']) == 0", False),
        ("assert main(['open-loop', '--patient', '13', '--rate', '10', '--duration', '60', "
         "'--out', 'out.csv']) == 0", False),
        # the control: a noisy run draws its noise with numpy
        ("assert main(['simulate', '--scenario', 'noisy.json', '--out', 'out.csv']) == 0", True),
    ], ids=["import", "list-patients", "curve", "simulate-quiet", "open-loop",
            "simulate-noisy"])
    def test_numpy_loaded_only_by_array_work(self, tmp_path, code, loads_numpy):
        (tmp_path / "quiet.json").write_text("{}")
        (tmp_path / "noisy.json").write_text(
            '{"duration_min": 1, "noise": {"kind": "gaussian", "sigma_bis": 2.0}}')
        proc = run_python("-c", f"import sys\nfrom bisloop.cli import main\n{code}\n"
                          "print('numpy' in sys.modules)", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{loads_numpy}\n"
