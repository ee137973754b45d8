import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bisloop
from bisloop.cli import main
from bisloop.scenario_io import TRAJECTORY_CSV_HEADER

# The first bolus drives ce ** gamma beyond the float range at step 1.
HILL_OVERFLOW = {"patient_id": 13, "duration_min": 1,
                 "controller": {"u_max_mg_min": 1e300, "kp": 1e300, "nominal_e0": 93.1}}
P13 = {"id": 13, "age": 38, "height_cm": 169, "weight_kg": 65, "sex": "F",
       "ce50": 7.42, "gamma": 2, "e0": 93.1, "emax": 96.58}


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


class TestCohortCommand:
    def test_metrics_table(self, scenario_file, tmp_path):
        path = scenario_file({"duration_min": 10})
        out = tmp_path / "metrics.csv"
        rc = main(["cohort", "--scenario", path, "--workers", "1",
                   "--out", str(out)])
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
        src = str(Path(bisloop.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from bisloop.cli import main; "
             "sys.exit(main(sys.argv[1:]))", "cohort", "--scenario",
             scenario_file(HILL_OVERFLOW)], capture_output=True, text=True, env=env)
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: step 1 (t=0.0167 min): patient 1, "
                                      "tf2=0.163118 min: Hill curve overflows: ce=")
        assert proc.stderr.count("\n") == 1


class TestTuneCommand:
    def test_single_point_grid(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        plot = tmp_path / "sweep.svg"
        rc = main(["tune-tf2", "--grid", "0.25:0.25:0.25", "--workers", "1",
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

    def test_controller_failure_in_a_lane_exits_4(self, scenario_file, capsys):
        path = scenario_file({"duration_min": 30, "h_min": 5.0})
        assert main(["tune-tf2", "--grid", "0.5:0.5:0.5", "--scenario", path]) == 4
        err = capsys.readouterr().err
        assert "step 1 (t=5.0000 min): patient" in err

    @pytest.mark.parametrize("h", [40.0, 29.999])
    def test_template_shorter_than_two_steps_exits_2(self, scenario_file, capsys, h):
        path = scenario_file({"duration_min": 30, "h_min": h})
        assert main(["tune-tf2", "--grid", "0.5:0.5:0.5", "--scenario", path]) == 2
        assert f"h={h} min, duration=30.0 min" in capsys.readouterr().err

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

    def test_ce_max_overflowing_the_hill_curve_exits_3(self, capsys):
        assert main(["curve", "--patient", "13", "--ce-max", "1e200"]) == 3
        assert "Hill curve overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("ce_max", ["nan", "inf"])
    def test_non_finite_ce_max_exits_1(self, capsys, ce_max):
        assert main(["curve", "--patient", "13", "--ce-max", ce_max]) == 1
        assert "ce_max must be finite and positive" in capsys.readouterr().err
