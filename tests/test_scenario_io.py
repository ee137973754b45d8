import hashlib
import json
import math

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from bisloop import (ControllerConfig, Demographics, DisturbancePulse, HillParams,
                     ModelError, PkPreset, Scenario, ScenarioError,
                     Sex, Trajectory, VirtualPatient, cohort_member, parse_scenario,
                     run_closed_loop, run_open_loop, scenario_to_dict,
                     write_trajectory_csv)
from bisloop.engine import TRAJECTORY_FIELDS
from bisloop.scenario_io import TRAJECTORY_CSV_HEADER, _fmt, cohort_csv


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def csv_reference(traj: Trajectory) -> str:
    """write_trajectory_csv as one _fmt call per field."""
    rows = zip(*(getattr(traj, name) for name in TRAJECTORY_FIELDS))
    return "\n".join([TRAJECTORY_CSV_HEADER, *(",".join(map(_fmt, row)) for row in rows)]) + "\n"


# Values whose 6-significant-digit text has an edge: signed zero, the smallest
# subnormal, exponents at both ends, non-finite values, ints, and halfway cases
# of the sixth digit.
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300, 1.7976931348623157e308,
               math.inf, -math.inf, math.nan, 0, 7, -12, 10**20, 999999.5, 9999995.0,
               999999.4999, 0.1 + 0.2, 1 / 3, 123456789.0, 1e-5, 1e-4, 99.99995, 100.0]


@st.composite
def _explicit_patients(draw):
    """A patient inside the ranges of the cohort table's 12 individual rows,
    under either preset; draws whose PK is non-physical are discarded."""
    demo = (draw(st.integers(28, 50)), draw(st.floats(163.0, 187.0)),
            draw(st.floats(50.0, 83.0)), draw(st.sampled_from(Sex)))
    hill = (draw(st.floats(83.1, 98.8)), draw(st.floats(63.8, 151.0)),
            draw(st.floats(4.82, 13.7)), draw(st.floats(1.65, 6.89)))
    try:
        return VirtualPatient(draw(st.integers(0, 10**6)), Demographics(*demo),
                              HillParams(*hill), draw(st.sampled_from(PkPreset)))
    except ModelError:
        assume(False)


SCENARIOS = st.builds(
    Scenario,
    patient=st.one_of(st.integers(1, 13), _explicit_patients()),
    controller=st.builds(ControllerConfig, nominal_e0=st.one_of(
        st.none(), st.floats(50.0, 100.0, exclude_min=True))),
    noise=st.floats(0.0, 8.0),
    disturbance=st.lists(st.builds(DisturbancePulse, st.floats(0.0, 60.0),
                                   st.floats(0.01, 10.0), st.floats(-50.0, 50.0)),
                         max_size=2).map(tuple),
    seed=st.integers(0, 2**32))


class TestParseScenario:
    def test_minimal_document_gets_defaults(self):
        s = parse_scenario('{"patient_id": 13, "duration_min": 60}')
        assert s.patient.id == 13
        assert s.duration == 60.0
        assert s.h == pytest.approx(1 / 60)
        assert s.seed == 0
        assert s.patient.pk_preset is PkPreset.SCHNIDER_CORRECTED
        assert s.controller.target_bis == 50.0
        assert s.noise == 0.0
        assert s.disturbance == ()

    def test_empty_document_is_all_defaults(self):
        s = parse_scenario("{}")
        assert s.patient.id == 13

    def test_noise_free_spellings_are_one_scenario(self):
        # kind "none" is sigma 0 whatever its sigma_bis, so every noise-free
        # document names one run
        scenarios = [parse_scenario(doc) for doc in (
            "{}", '{"noise": {"kind": "none", "sigma_bis": 3}}',
            '{"noise": {"kind": "gaussian", "sigma_bis": 0}}',
            '{"noise": {"kind": "gaussian", "sigma_bis": -0.0}}')]
        assert all(s == scenarios[0] for s in scenarios)
        assert len({json.dumps(scenario_to_dict(s)) for s in scenarios}) == 1
        assert scenario_to_dict(scenarios[0])["noise"] == {"kind": "none", "sigma_bis": 0.0}

    def test_unknown_patient_id(self):
        with pytest.raises(ScenarioError, match="unknown patient id"):
            parse_scenario('{"patient_id": 14}')

    def test_controller_tf2_echoed_exactly(self):
        s = parse_scenario('{"controller": {"tf2_min": 9.7871}}')
        assert s.controller.tf2 == 9.7871

    def test_unknown_key_rejected(self):
        with pytest.raises(ScenarioError, match="unknown key"):
            parse_scenario('{"patient_id": 13, "duratoin_min": 60}')

    def test_nested_unknown_key_rejected(self):
        with pytest.raises(ScenarioError, match="controller.*unknown key|unknown key"):
            parse_scenario('{"controller": {"Kp": 10}}')

    def test_constraint_violation_names_key(self):
        with pytest.raises(ScenarioError, match="h_min"):
            parse_scenario('{"h_min": 0}')
        with pytest.raises(ScenarioError, match="duration_min"):
            parse_scenario('{"duration_min": -5}')
        with pytest.raises(ScenarioError, match="sigma_bis"):
            parse_scenario('{"noise": {"kind": "gaussian", "sigma_bis": -1}}')

    @pytest.mark.parametrize("doc, key", [
        ('{"duration_min": NaN}', "duration_min"),
        ('{"h_min": Infinity}', "h_min"),
        ('{"h_min": -Infinity}', "h_min"),
        ('{"noise": {"kind": "none", "sigma_bis": NaN}}', "sigma_bis"),
        ('{"duration_min": 1' + "0" * 400 + '}', "duration_min"),
        ('{"disturbance": [{"start_min": 1, "duration_min": 1, "amplitude_bis": NaN}]}',
         "amplitude_bis"),
        ('{"patient": {"id": 1, "age": 30, "height_cm": 170, "weight_kg": 70, "sex": "M",'
         ' "ce50": NaN, "gamma": 2, "e0": 95, "emax": 90}}', "ce50"),
    ])
    def test_non_finite_number_names_key(self, doc, key):
        with pytest.raises(ScenarioError, match=f"{key}: must be finite"):
            parse_scenario(doc)

    def test_step_budget_enforced(self):
        with pytest.raises(ScenarioError, match=r"6e\+13 steps .* exceeds MAX_STEPS"):
            parse_scenario('{"duration_min": 1e12}')

    def test_negative_seed_rejected(self):
        with pytest.raises(ScenarioError, match="seed: must be >= 0"):
            parse_scenario('{"seed": -1}')

    def test_malformed_json(self):
        with pytest.raises(ScenarioError, match="malformed"):
            parse_scenario("{not json")

    def test_explicit_patient(self):
        doc = {
            "patient": {"id": 99, "age": 30, "height_cm": 190, "weight_kg": 95,
                        "sex": "M", "ce50": 5.0, "gamma": 2.0, "e0": 95.0,
                        "emax": 90.0},
            "pk_preset": "as_published",
        }
        s = parse_scenario(json.dumps(doc))
        p = s.patient
        assert p.id == 99
        assert p.pk.v3 == 2.38

    def test_patient_and_id_conflict(self):
        doc = {"patient_id": 1,
               "patient": {"id": 2, "age": 30, "height_cm": 190, "weight_kg": 95,
                           "sex": "M", "ce50": 5.0, "gamma": 2.0, "e0": 95.0,
                           "emax": 90.0}}
        with pytest.raises(ScenarioError, match="not both"):
            parse_scenario(json.dumps(doc))

    def test_disturbance_parsing(self):
        doc = {"disturbance": [
            {"start_min": 30, "duration_min": 1, "amplitude_bis": 10},
            {"start_min": 45, "duration_min": 2, "amplitude_bis": -5},
        ]}
        s = parse_scenario(json.dumps(doc))
        assert len(s.disturbance) == 2
        assert s.disturbance[0].amplitude == 10.0
        assert s.disturbance[1].amplitude == -5.0

    def test_bad_preset(self):
        with pytest.raises(ScenarioError, match="pk_preset"):
            parse_scenario('{"pk_preset": "minto"}')

    def test_round_trip_is_lossless(self):
        doc = {"patient_id": 7, "duration_min": 12.5, "h_min": 0.025, "seed": 42,
               "controller": {"target_bis": 45.0, "tf2_min": 0.5, "kp": 10.0,
                              "nominal_e0": 91.0},
               "noise": {"kind": "gaussian", "sigma_bis": 1.5},
               "disturbance": [{"start_min": 5, "duration_min": 1,
                                "amplitude_bis": 8}]}
        s1 = parse_scenario(json.dumps(doc))
        s2 = parse_scenario(json.dumps(scenario_to_dict(s1)))
        assert s1 == s2

    # The example's preset differs from the default one: the document must
    # carry the preset of the patient that runs.
    @example(scenario=Scenario(patient=VirtualPatient(
        5, Demographics(30, 190.0, 95.0, Sex.MALE), HillParams(95, 90, 5, 2),
        PkPreset.AS_PUBLISHED)))
    @given(scenario=SCENARIOS)
    def test_round_trip_property(self, scenario):
        assert parse_scenario(json.dumps(scenario_to_dict(scenario))) == scenario

    @pytest.mark.parametrize("ints, floats", [
        (dict(duration=60), dict(duration=60.0)),
        (dict(h=1, duration=30), dict(h=1.0, duration=30.0)),
        (dict(noise=2), dict(noise=2.0)),
        (dict(controller=ControllerConfig(kp=16)), dict()),
        (dict(controller=ControllerConfig(target_bis=45, nominal_e0=91)),
         dict(controller=ControllerConfig(target_bis=45.0, nominal_e0=91.0))),
        (dict(disturbance=(DisturbancePulse(10, 2, -8),)),
         dict(disturbance=(DisturbancePulse(10.0, 2.0, -8.0),))),
        (dict(patient=VirtualPatient(5, Demographics(30, 190, 95, Sex.MALE),
                                     HillParams(95, 90, 5, 2))),
         dict(patient=VirtualPatient(5, Demographics(30, 190.0, 95.0, Sex.MALE),
                                     HillParams(95.0, 90.0, 5.0, 2.0)))),
    ], ids=["duration", "h", "noise", "kp", "target_and_nominal_e0", "pulse", "patient"])
    def test_int_and_float_spellings_are_one_document(self, ints, floats):
        a, b = Scenario(**ints), Scenario(**floats)
        assert a == b
        assert json.dumps(scenario_to_dict(a)) == json.dumps(scenario_to_dict(b))

    def test_cohort_id_is_its_member(self):
        assert Scenario(patient=7) == Scenario(patient=cohort_member(7))


class TestTrajectoryCsv:
    def test_empty_trajectory_header_only(self):
        assert write_trajectory_csv(Trajectory()) == TRAJECTORY_CSV_HEADER + "\n"

    def test_single_record_two_lines(self):
        traj = run_closed_loop(Scenario(patient=13, duration=1 / 60))
        text = write_trajectory_csv(traj)
        lines = text.strip().split("\n")
        assert len(lines) == 2
        assert lines[0] == TRAJECTORY_CSV_HEADER

    def test_round_trip_six_significant_digits(self):
        traj = run_closed_loop(Scenario(patient=13, duration=0.5))
        lines = write_trajectory_csv(traj).strip().split("\n")
        header = lines[0].split(",")
        for i, line in enumerate(lines[1:]):
            fields = dict(zip(header, line.split(",")))
            assert float(fields["bis_true"]) == pytest.approx(traj.bis_true[i], rel=1e-5)
            assert float(fields["u_mg_min"]) == pytest.approx(traj.u[i], rel=1e-5)
            assert float(fields["ce_true"]) == pytest.approx(traj.ce_true[i], rel=1e-5)
            # emitted text is exactly the 6-significant-digit rendering
            assert fields["c1"] == format(traj.c1[i], ".6g")

    def test_open_loop_controller_columns_empty(self):
        p = cohort_member(13)
        traj = run_open_loop(p, 10.0, duration=0.5)
        lines = write_trajectory_csv(traj).strip().split("\n")
        row = lines[1].split(",")
        header = TRAJECTORY_CSV_HEADER.split(",")
        for col in ("bis_filtered", "ce_model", "i_t", "ce_ref"):
            assert row[header.index(col)] == ""
        assert row[header.index("u_mg_min")] == "10"

    def test_header_has_one_column_per_field_in_order(self):
        columns = TRAJECTORY_CSV_HEADER.split(",")
        assert len(columns) == len(TRAJECTORY_FIELDS)
        for column, name in zip(columns, TRAJECTORY_FIELDS):
            assert column == name or column.startswith(name + "_")

    @pytest.mark.parametrize("columns", [
        # every column numeric, each cycling through the edge values
        {name: EDGE_VALUES[i:] + EDGE_VALUES[:i] for i, name in enumerate(TRAJECTORY_FIELDS)},
        # the open-loop shape: controller columns all None
        {name: ([None] * len(EDGE_VALUES) if name in ("bis_filtered", "ce_model", "i_t", "ce_ref")
                else EDGE_VALUES) for name in TRAJECTORY_FIELDS},
        # a column mixing None and numbers, next to all-None and numeric ones
        {name: ([None, 1.5, None, -0.0, math.nan, None] if name == "u"
                else [None] * 6 if name == "ce_ref" else [0.25 * i for i in range(6)])
         for name in TRAJECTORY_FIELDS},
        # every column None
        {name: [None] * 3 for name in TRAJECTORY_FIELDS},
        {},
    ], ids=["numeric", "open-loop", "mixed", "all-none", "empty"])
    def test_equals_reference_writer(self, columns):
        traj = Trajectory(**columns)
        assert write_trajectory_csv(traj) == csv_reference(traj)

    # The digests pin the CSV bytes of a noisy, pulsed closed-loop run and of
    # a multi-breakpoint open-loop run under the exact zero-order-hold PK step.
    def test_closed_loop_csv_bytes_pinned(self):
        s = Scenario(patient=7, duration=10.0, seed=3,
                     noise=2.0,
                     disturbance=(DisturbancePulse(2.0, 1.0, 10.0),
                                  DisturbancePulse(6.0, 1.5, -8.0)))
        text = write_trajectory_csv(run_closed_loop(s))
        assert _sha256(text) == \
            "7c488551ec5157af471aafdad3629b6408ac30d0c0764728576a84c67e23ad36"

    def test_open_loop_csv_bytes_pinned(self):
        profile = ((0.0, 40.0), (1.0, 12.5), (4.0, 0.0), (6.5, 25.0))
        traj = run_open_loop(cohort_member(4), profile, duration=10.0,
                             noise=1.5,
                             disturbance=(DisturbancePulse(3.0, 2.0, -6.0),), seed=5)
        text = write_trajectory_csv(traj)
        assert _sha256(text) == \
            "a12aafc4d4ed99add40a02114e72a9d4c3bbfe9e34b0a82352a8f8be97662706"


class TestCohortCsv:
    def test_format_matches_source_precision(self):
        lines = cohort_csv().strip().split("\n")
        assert lines[0] == "id,age,height_cm,weight_kg,sex,ce50,gamma,e0,emax"
        assert lines[1] == "1,40,163,54,F,6.33,2.24,98.8,94.10"
        assert lines[6] == "6,43,163,59,F,12.00,2.42,90.2,147.00"
        assert lines[13] == "13,38,169,65,F,7.42,3.00,93.1,96.58"
        assert len(lines) == 14
