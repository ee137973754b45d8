"""Propofol PK/PD virtual patient model.

Plasma kinetics follow a linear three-compartment mammillary model plus a
first-order effect-site compartment, with rate constants derived from the
patient's demographics (Schnider-style covariate model).  The clinical
effect is the BIS depth-of-anesthesia index, produced from the effect-site
concentration by a sigmoid Hill curve.

Units: concentrations in mg/L, volumes in L, clearances in L/min, rate
constants in 1/min, infusion rates in mg/min, time in minutes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .errors import ModelError, NonPhysicalParameterError, is_integer, number_error, require

# Effect-site equilibration constant: drug transfer into the effect site is
# taken equal to elimination out of it, so Ce tracks C1 with no steady-state
# offset.
KE0_PER_MIN = 0.456

_CENTRAL_VOLUME_L = 4.27


class Sex(str, Enum):
    FEMALE = "F"
    MALE = "M"


class PkPreset(str, Enum):
    """Covariate coefficient set used to derive the PK rate constants.

    SCHNIDER_CORRECTED is the standard Schnider adult parameter set
    (weight/height clearance coefficients 0.0456 and 0.0264, deep
    compartment volume 238 L) and is the default.

    AS_PUBLISHED keeps the coefficient set exactly as printed in the source
    parameter table this model was transcribed from (0.456, 0.264, deep
    volume 2.38 L).  Those coefficients produce a negative elimination
    clearance for most adults; the preset is retained for auditing and
    raises NonPhysicalParameterError whenever the result is non-physical.
    """

    SCHNIDER_CORRECTED = "schnider_corrected"
    AS_PUBLISHED = "as_published"


@dataclass(frozen=True)
class Demographics:
    """Patient covariates used to personalize the PK model."""

    age: int            # years
    height_cm: float
    weight_kg: float
    sex: Sex

    def __post_init__(self):
        require(self, "age height_cm weight_kg", "positive", ModelError)
        # Reject body habitus outside the validity region of the LBM formula.
        lean_body_mass(self.sex, self.weight_kg, self.height_cm)


def lean_body_mass(sex: Sex | str, weight_kg: float, height_cm: float) -> float:
    """James lean body mass estimate in kg.

    Male:   1.1*w - 128*w^2/h^2
    Female: 1.07*w - 148*w^2/h^2

    Raises ModelError when the quadratic term dominates and the estimate
    turns non-positive (demographics outside the formula's domain).
    """
    if number_error(weight_kg, "positive") or number_error(height_cm, "positive"):
        raise ModelError("weight and height must be finite and positive")
    # A height whose square underflows to 0 gives an infinite ratio.
    h2 = height_cm * height_cm
    ratio = weight_kg * weight_kg / h2 if h2 else math.inf
    if Sex(sex) is Sex.MALE:
        lbm = 1.1 * weight_kg - 128.0 * ratio
    else:
        lbm = 1.07 * weight_kg - 148.0 * ratio
    if not lbm > 0:   # NaN too, when both squares overflow to inf
        raise NonPhysicalParameterError(
            f"non-physical LBM {lbm:.4g} kg for weight={weight_kg} kg, "
            f"height={height_cm} cm", value=lbm)
    return lbm


@dataclass(frozen=True)
class PkParams:
    """Compartment volumes and clearances, and the rate constants they imply.

    Only volumes, clearances and ke0 are given; the rate constants are
    clearance/volume ratios set once at construction (k1e = ke0), so the two
    representations cannot disagree.
    """

    v1: float
    v2: float
    v3: float
    cl1: float
    cl2: float
    cl3: float
    ke0: float = KE0_PER_MIN
    k10: float = field(init=False)
    k12: float = field(init=False)
    k13: float = field(init=False)
    k21: float = field(init=False)
    k31: float = field(init=False)
    k1e: float = field(init=False)

    def __post_init__(self):
        require(self, "v1 v2 v3", "positive", ModelError)
        if number_error(self.cl1, "positive"):
            raise NonPhysicalParameterError(
                f"non-physical PK parameters: cl1={self.cl1} L/min", value=self.cl1)
        require(self, "cl2 cl3 ke0", "non_negative", ModelError)
        # Plain attributes, not properties: pk_derivatives reads them when a
        # DiscretePk is built.
        for name, value in (("k10", self.cl1 / self.v1), ("k12", self.cl2 / self.v1),
                            ("k13", self.cl3 / self.v1), ("k21", self.cl2 / self.v2),
                            ("k31", self.cl3 / self.v3), ("k1e", self.ke0)):
            object.__setattr__(self, name, value)


def derive_pk_params(demo: Demographics,
                     preset: PkPreset = PkPreset.SCHNIDER_CORRECTED) -> PkParams:
    """Derive the PK parameter set from demographics.

    Pure and deterministic: identical inputs give bit-identical outputs.
    Raises NonPhysicalParameterError when the covariate model produces a
    non-positive elimination clearance or shallow-compartment volume
    (expected for AS_PUBLISHED on most adults).
    """
    preset = PkPreset(preset)
    lbm = lean_body_mass(demo.sex, demo.weight_kg, demo.height_cm)
    v1 = _CENTRAL_VOLUME_L
    v2 = 18.9 - 0.391 * (demo.age - 53)
    if preset is PkPreset.SCHNIDER_CORRECTED:
        v3 = 238.0
        cl1 = (1.89 + 0.0456 * (demo.weight_kg - 77)
               - 0.0681 * (lbm - 59) + 0.0264 * (demo.height_cm - 177))
    else:
        v3 = 2.38
        cl1 = (1.89 + 0.456 * (demo.weight_kg - 77)
               - 0.0681 * (lbm - 59) + 0.264 * (demo.height_cm - 177))
    cl2 = 1.29 - 0.024 * (demo.age - 53)
    cl3 = 0.836
    if number_error(cl1, "positive"):
        raise NonPhysicalParameterError(
            f"non-physical PK parameters: cl1={cl1:.6g} L/min "
            f"(preset={preset.value}, age={demo.age}, height={demo.height_cm}, "
            f"weight={demo.weight_kg}, sex={demo.sex.value})", value=cl1)
    if number_error(v2, "positive"):
        raise NonPhysicalParameterError(
            f"non-physical PK parameters: v2={v2:.6g} L (age={demo.age})", value=v2)
    return PkParams(v1=v1, v2=v2, v3=v3, cl1=cl1, cl2=cl2, cl3=cl3)


@dataclass(frozen=True)
class HillParams:
    """Sigmoid concentration-effect parameters mapping Ce to BIS.

    c50g, ce50 ** gamma, is derived once at construction, and every
    evaluation of the curve reads it.
    """

    e0: float      # awake baseline BIS
    emax: float    # maximal BIS depression
    ce50: float    # mg/L at half effect
    gamma: float   # curve steepness
    c50g: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if number_error(self.e0, "positive") or not self.e0 <= 100:
            raise ModelError(f"e0 must be in (0, 100], got {self.e0!r}")
        require(self, "emax ce50 gamma", "positive", ModelError)
        # hill_bis and both step loops divide by ce ** gamma + c50g, whose
        # second term may neither overflow nor underflow to 0.
        try:
            c50g = self.ce50 ** self.gamma
        except OverflowError:
            c50g = math.inf
        if number_error(c50g, "positive"):
            raise ModelError(f"ce50 ** gamma must be a positive finite float, got "
                             f"ce50={self.ce50}, gamma={self.gamma}")
        object.__setattr__(self, "c50g", c50g)


def hill_bis(ce: float, hill: HillParams) -> float:
    """BIS produced by effect-site concentration ce (mg/L).

    Returns the raw sigmoid value e0 - emax*ce^g/(ce^g + ce50^g), which can
    leave [0, 100] when emax > e0; clamping to the monitor range is a
    sensor-stage concern, not a model one.  A result that is not finite
    raises ModelError: ce ** gamma beyond the float range, or emax * x or
    x + c50g overflowing (-inf or NaN).
    """
    if ce <= 0.0:
        return hill.e0
    try:
        x = ce ** hill.gamma
        bis = hill.e0 - hill.emax * x / (x + hill.c50g)
    except OverflowError:
        bis = math.inf
    if not math.isfinite(bis):
        raise ModelError(f"Hill curve overflows: ce={ce:.6g} mg/L, gamma={hill.gamma:.6g}")
    return bis


class PatientState(NamedTuple):
    """Compartment concentrations (mg/L): central, shallow, deep, effect site."""

    c1: float
    c2: float
    c3: float
    ce: float


ZERO_STATE = PatientState(0.0, 0.0, 0.0, 0.0)


def pk_derivatives(state: PatientState, u: float, pk: PkParams) -> PatientState:
    """Time derivatives of the compartment concentrations (mg/L/min).

    u is the infusion rate into the central compartment in mg/min.
    """
    c1, c2, c3, ce = state
    return PatientState(
        -(pk.k10 + pk.k12 + pk.k13) * c1 + pk.k21 * c2 + pk.k31 * c3 + u / pk.v1,
        pk.k12 * c1 - pk.k21 * c2,
        pk.k13 * c1 - pk.k31 * c3,
        pk.k1e * c1 - pk.ke0 * ce,
    )


def _matmul(x: list[list[float]], y: list[list[float]]) -> list[list[float]]:
    """x @ y, each entry summed left to right from 0.0 (a loop: sum() rounds
    differently from Python 3.12 on)."""
    cols = list(zip(*y))
    out = []
    for row in x:
        out_row = []
        for col in cols:
            total = 0.0
            for a, b in zip(row, col):
                total += a * b
            out_row.append(total)
        out.append(out_row)
    return out


def _expm(m: list[list[float]]) -> list[list[float]]:
    """exp(m) by scaling and squaring (Higham 2005): m is scaled by 2^-s to a
    1-norm <= 1/2, where 18 Taylor terms err below 1e-21, then squared s times."""
    norm = 0.0
    for col in zip(*m):
        total = 0.0
        for v in col:
            total += abs(v)
        norm = max(norm, total)
    s = max(0, math.frexp(norm)[1] + 1)
    a = [[math.ldexp(v, -s) for v in row] for row in m]
    n = len(m)
    term = out = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    for k in range(1, 19):
        term = [[v / k for v in row] for row in _matmul(term, a)]
        out = [[p + q for p, q in zip(r, t)] for r, t in zip(out, term)]
    for _ in range(s):
        out = _matmul(out, out)
    return out


@dataclass(frozen=True)
class DiscretePk:
    """The PK model advanced exactly over steps of h minutes, u held per step.

    The model is linear, dx/dt = A x + B u, so x(t + h) = phi x(t) + gamma u,
    where [[phi, gamma], [0, 1]] = exp([[A, B], [0, 0]] h) (Van Loan 1978).
    A and B are read off pk_derivatives, the one statement of the model's
    right-hand side.  Any h is stable.
    """

    pk: PkParams
    h: float    # min
    phi: tuple[tuple[float, ...], ...] = field(init=False)
    gamma: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        if number_error(self.h, "positive"):
            raise ModelError(f"step size must be finite and positive, got {self.h}")
        # Columns of [[A, B], [0, 0]]: the derivatives at each unit state, u = 0,
        # then at the zero state under u = 1.
        units = [PatientState(*(float(i == j) for i in range(4))) for j in range(4)]
        columns = [pk_derivatives(x, 0.0, self.pk) for x in units]
        columns.append(pk_derivatives(ZERO_STATE, 1.0, self.pk))
        e = _expm([[v * self.h for v in row] for row in zip(*columns)] + [[0.0] * 5])
        object.__setattr__(self, "phi", tuple(tuple(row[:4]) for row in e[:4]))
        object.__setattr__(self, "gamma", tuple(row[4] for row in e[:4]))

    def step(self, state: PatientState, u: float) -> PatientState:
        """The state h minutes on under the rate u (mg/min).  Round-off negatives
        are clamped to zero; a non-finite result raises ModelError."""
        c1, c2, c3, ce = state
        (p11, p12, p13, p14), (p21, p22, p23, p24), (p31, p32, p33, p34), \
            (p41, p42, p43, p44) = self.phi
        g1, g2, g3, g4 = self.gamma
        # Written out for speed; each row sums in the order phi[i] . x + gamma[i] u.
        x1 = p11 * c1 + p12 * c2 + p13 * c3 + p14 * ce + g1 * u
        x2 = p21 * c1 + p22 * c2 + p23 * c3 + p24 * ce + g2 * u
        x3 = p31 * c1 + p32 * c2 + p33 * c3 + p34 * ce + g3 * u
        x4 = p41 * c1 + p42 * c2 + p43 * c3 + p44 * ce + g4 * u
        if not (math.isfinite(x1) and math.isfinite(x2) and math.isfinite(x3)
                and math.isfinite(x4)):
            raise ModelError(f"integration diverged: state={(x1, x2, x3, x4)}, u={u}, "
                             f"h={self.h}")
        return PatientState(0.0 if x1 < 0.0 else x1, 0.0 if x2 < 0.0 else x2,
                            0.0 if x3 < 0.0 else x3, 0.0 if x4 < 0.0 else x4)


@dataclass(frozen=True)
class VirtualPatient:
    """A simulated patient: demographics, individual Hill curve, and the PK
    derived from the demographics under pk_preset."""

    id: int
    demographics: Demographics
    hill: HillParams
    pk_preset: PkPreset = PkPreset.SCHNIDER_CORRECTED
    pk: PkParams = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "pk_preset", PkPreset(self.pk_preset))
        object.__setattr__(self, "pk", derive_pk_params(self.demographics, self.pk_preset))


# Identified adult cohort used throughout: (id, age, height_cm, weight_kg,
# sex, ce50, gamma, e0, emax).  Row 13 is a fictitious individual whose
# parameters are the arithmetic average of rows 1-12 (as published, i.e.
# rounded to the table's precision).
_COHORT_ROWS: tuple[tuple, ...] = (
    (1, 40, 163, 54, Sex.FEMALE, 6.33, 2.24, 98.8, 94.10),
    (2, 36, 163, 50, Sex.FEMALE, 6.76, 4.29, 98.6, 86.00),
    (3, 28, 164, 52, Sex.FEMALE, 8.44, 4.10, 91.2, 80.70),
    (4, 50, 163, 83, Sex.FEMALE, 6.44, 2.18, 95.9, 102.00),
    (5, 28, 164, 60, Sex.MALE, 4.93, 2.46, 94.7, 85.30),
    (6, 43, 163, 59, Sex.FEMALE, 12.00, 2.42, 90.2, 147.00),
    (7, 37, 187, 75, Sex.MALE, 8.02, 2.10, 92.0, 104.00),
    (8, 38, 174, 80, Sex.FEMALE, 6.56, 4.12, 95.5, 76.40),
    (9, 41, 170, 70, Sex.FEMALE, 6.15, 6.89, 89.2, 63.80),
    (10, 37, 167, 58, Sex.FEMALE, 13.70, 1.65, 83.1, 151.00),
    (11, 42, 179, 78, Sex.MALE, 4.82, 1.85, 91.8, 77.90),
    (12, 34, 172, 58, Sex.FEMALE, 4.95, 1.84, 96.2, 90.80),
    (13, 38, 169, 65, Sex.FEMALE, 7.42, 3.00, 93.1, 96.58),
)

AVERAGE_PATIENT_ID = 13


def _member(row: tuple, preset: PkPreset) -> VirtualPatient:
    pid, age, height, weight, sex, ce50, gamma, e0, emax = row
    demo = Demographics(age=age, height_cm=float(height), weight_kg=float(weight), sex=sex)
    hill = HillParams(e0=e0, emax=emax, ce50=ce50, gamma=gamma)
    return VirtualPatient(pid, demo, hill, preset)


def builtin_cohort(preset: PkPreset = PkPreset.SCHNIDER_CORRECTED) -> list[VirtualPatient]:
    """The built-in 13-patient cohort with PK derived under the given preset.

    Raises NonPhysicalParameterError for presets that cannot produce a valid
    PK set for every member (AS_PUBLISHED does not).
    """
    return [_member(row, preset) for row in _COHORT_ROWS]


def cohort_member(patient_id: int,
                  preset: PkPreset = PkPreset.SCHNIDER_CORRECTED) -> VirtualPatient:
    """Single cohort member by id (1-13)."""
    # An int, as the parser reads ids: True and 13.0 compare equal to ids too.
    if is_integer(patient_id):
        for row in _COHORT_ROWS:
            if row[0] == patient_id:
                return _member(row, preset)
    raise ModelError(f"unknown patient id {patient_id} (cohort has 1-13)")
