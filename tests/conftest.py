import math

import pytest
from hypothesis import settings

from beamcap import AntennaModel, RadioParams

# `pytest --hypothesis-profile=ci` runs five times the default example count
# where a test scales its count with examples()
settings.register_profile("ci", max_examples=500)


def examples(n):
    """n under the default Hypothesis profile, scaled with the loaded profile's count."""
    return n * settings.default.max_examples // 100


@pytest.fixture()
def baseline_radio() -> RadioParams:
    """Baseline 60 GHz link budget used throughout the numeric examples."""
    return RadioParams(p_tx_dbm=10.0, n_thr_dbm=-78.0, theta=math.radians(52.0),
                       kappa=2.0, c_const=6.3e6)


@pytest.fixture()
def analytic_antenna() -> AntennaModel:
    return AntennaModel()
