import pytest
from hypothesis import settings

from bisloop import Scenario, builtin_cohort, run_closed_loop

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def cohort():
    return builtin_cohort()


@pytest.fixture(scope="session")
def p13_nominal_traj():
    """Noise-free 60-min closed-loop run of the average patient at defaults."""
    return run_closed_loop(Scenario(patient=13))
