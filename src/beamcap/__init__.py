"""Capacity analysis for dynamic networks of directionally paired devices.

Two engines over one system model: an aggregated birth-death chain with a
Lambert-W closed form, and a spatial discrete-event simulator with
interference-based admission.  A throughput layer optimizes transmit power
for area rate, and a CLI binds everything to declarative scenarios.
"""

from .queueing import (ChainParams, NonConvergenceError, SteadyState, Variant,
                       acceptance_prob, lambert_w0, mean_pairs, mean_pairs_closed_form,
                       steady_state)
from .radio import (AntennaModel, RadioParams, beam_area, coverage_radius, dbm_to_mw,
                    max_directivity, received_power_mw)
from .simulator import (CheckMode, CuboidProjection, DeploymentParams, FixedDistance,
                        PairPlacement, SimStats, UniformDistance, admission_check,
                        place_pair, run, run_replication)
from .throughput import MeanEngine, link_rate, noise_power, optimize_power, rate_components
from .scenario import Scenario, ScenarioError, load_scenario

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
