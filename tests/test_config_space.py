"""Whole-key-space property: every config either runs to finite rows or is
refused with one line that names its keys, among them a key it set to an
extreme value (`validate` excepted: its arrival budget refuses its 3 km base).

A config sets one to four float or integer keys to extreme values, plus a random
rejection shape, check mode and mean engine.  `analyze`, `sweep-power` and
`simulate` run in process with `--jobs 1`; `validate` runs only up to its
first check, so only its refusal paths are covered.  No worker process is
started.  `simulate` starts from a 2-s horizon on a 3 m disk, or on a 30 m
disk at a hundredth of the density (SIM_LOADS), and its arrival budget is
lowered to SIM_ARRIVALS for the run: a config that expects more arrivals is
refused by the budget check, so no example simulates long.
"""

import contextlib
import csv
import io
import math
import re
import signal
import tempfile
import warnings
from datetime import timedelta
from pathlib import Path
from unittest import mock

from conftest import examples
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beamcap import CheckMode, MeanEngine, Variant, scenario, validation
from beamcap.cli import main
from beamcap.scenario import KEYS, _float, _int

FLOAT_KEYS = tuple(key for key, (_, parse, _) in KEYS.items() if parse is _float)
INT_KEYS = tuple(key for key, (_, parse, _) in KEYS.items() if parse is _int)
EXTREMES = ("0", "-1", "5e-324", "1e-300", "1e-150", "1e-30", "180", "1e30", "1e300")
DB_EXTREMES = EXTREMES + ("300", "-300")
# the last is past the floats, but an int in Python
INT_EXTREMES = ("0", "-1", "180", "1e30", "9" * 401)
# the message after the key list does not start with another key list
ERROR_LINE = re.compile(r"beamcap: error: (\w+(?:, \w+)*): (?!\w+(?:, \w+)*: ).+\n")
# a hang fails the example here; the Hypothesis deadline reports a slow one
HANG_S = 15
SIM_ARRIVALS = 2000
# 113 arrivals at the default 1 /s/m2
SIM_BASE = {"r_d_m": "3", "replications": "2", "warmup_s": "1", "horizon_s": "2"}
SIM_REPLICATIONS = ("1", "2")
# a simulate config starts from SIM_BASE with one of these before its extremes:
# the same 113 arrivals and an offered load of 28 pairs, at lambda/mu * reach^2
# of 1,980 and 20 under the default link budget (reach 44.5 m), on both sides of
# the load from which a replication's admission cells take half the reach
SIM_LOADS = ({}, {"lambda_per_m2": "0.01", "r_d_m": "30"})
# non-finite by design: a CI from one replication is infinite, and p_accept is
# NaN, flagged undefined, where no replication saw an arrival
OPEN_COLUMNS = {"ci_mean_pairs", "ci_p_accept"}


class _Accepted(Exception):
    """validate accepted the config and reached its first check."""


def extreme_values(draw, pool):
    keys = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True))
    return {k: draw(st.sampled_from(INT_EXTREMES if k in INT_KEYS else
                                    DB_EXTREMES if k.endswith(("_dbm", "_db")) else EXTREMES))
            for k in keys}


@st.composite
def configs(draw):
    engine = draw(st.sampled_from([e.value for e in MeanEngine]))
    # a series sweep walks about one state per pair at each of some 500 powers;
    # on a 3 m disk each walk is short, and a load past the state limit is
    # refused before any walk
    kv = extreme_values(draw, [k for k in FLOAT_KEYS + INT_KEYS
                               if engine == "closed" or k != "r_d_m"])
    if engine == "series":
        kv["r_d_m"] = SIM_BASE["r_d_m"]
    kv["variant"] = draw(st.sampled_from([v.value for v in Variant]))
    kv["check_mode"] = draw(st.sampled_from([m.value for m in CheckMode]))
    kv["mean_engine"] = engine
    return kv


@st.composite
def sim_configs(draw):
    kv = dict(SIM_BASE, **draw(st.sampled_from(SIM_LOADS)),
              replications=draw(st.sampled_from(SIM_REPLICATIONS)))
    kv.update(extreme_values(draw, FLOAT_KEYS + INT_KEYS))
    kv["check_mode"] = draw(st.sampled_from([m.value for m in CheckMode]))
    return kv


def _on_alarm(signum, frame):
    raise TimeoutError(f"no exit within {HANG_S} s")


def run_cli(command, kv):
    """(exit code or None where validate accepted, stdout, stderr) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(HANG_S)
    try:
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(), \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err), \
                mock.patch.object(validation, "check_telescoping", side_effect=_Accepted):
            warnings.simplefilter("error", RuntimeWarning)
            cfg = Path(tmp, "extreme.cfg")
            cfg.write_text("".join(f"{k} = {v}\n" for k, v in kv.items()))
            code = main([command, "--config", str(cfg), "--jobs", "1"])
    except _Accepted:
        code = None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=examples(40), deadline=timedelta(seconds=10))
@given(command=st.sampled_from(["analyze", "sweep-power", "validate"]), kv=configs())
# loads past the state limit: these used to exit 2 naming no key
@example(command="analyze", kv={"n_thr_dbm": "1e-150", "mean_engine": "closed"})
@example(command="analyze", kv={"kappa": "1e30", "variant": "logistic", "mean_engine": "closed"})
@example(command="sweep-power",
         kv={"p_tx_min_dbm": "1e-30", "variant": "piecewise-linear", "mean_engine": "series"})
# a range end whose footprint ratio overflows: this used to name r_d_m twice
@example(command="sweep-power",
         kv={"r_d_m": "1e-153", "pair_model": "fixed:1e-300", "mean_engine": "closed"})
# a load of 2.8e307 that the footprint caps, and a link rate past the floats
@example(command="sweep-power", kv={"mu_per_s": "1e-300", "mean_engine": "closed"})
@example(command="sweep-power", kv={"bandwidth_hz": "1e308", "mean_engine": "closed"})
# a coverage radius so large that the footprint ratio overflows: this used to name
# only r_d_m, a key not set
@example(command="analyze", kv={"kappa": "0.5", "c_const": "1e-80"})
@example(command="sweep-power", kv={"kappa": "0.5", "c_const": "1e-80"})
# a subnormal load under a footprint ratio past 709: this used to exit 2 with
# "math domain error"
@example(command="sweep-power", kv={"lambda_per_m2": "5e-324", "mu_per_s": "180",
                                    "p_tx_max_dbm": "180", "check_mode": "one-way"})
# an SNR cap past the floats, a load the footprint caps, an infinite link rate,
# a 3e-300 m^2 disk, and an infinite link rate times no pairs
@example(command="analyze", kv={"snr_max_db": "1e6"})
@example(command="analyze", kv={"mu_per_s": "1e-300"})
@example(command="analyze", kv={"bandwidth_hz": "1e308"})
@example(command="analyze", kv={"r_d_m": "1e-150", "lambda_per_m2": "89.9", "check_mode": "one-way",
                                "p_tx_max_dbm": "10", "p_tx_step_db": "10"})
@example(command="analyze", kv={"bandwidth_hz": "1e308", "lambda_per_m2": "0"})
@example(command="sweep-power", kv={"bandwidth_hz": "1e308", "lambda_per_m2": "0"})
# a power range of 1e-9 dB, some 560,000 floats wide: the optimizer must end
@example(command="sweep-power", kv={"p_tx_min_dbm": "10", "p_tx_max_dbm": "10.000000001"})
# integers past the floats: these used to overflow with a traceback
@example(command="sweep-power", kv={"k_neighbors": "9" * 401, "mean_engine": "closed"})
@example(command="validate", kv={"replications": "9" * 401, "mean_engine": "closed"})
def test_exits_with_finite_rows_or_names_its_keys(command, kv):
    check_outcome(command, *run_cli(command, kv), extreme_keys(kv))


@settings(max_examples=examples(40), deadline=timedelta(seconds=10))
@given(kv=sim_configs())
# a pair model that does not fit a 3e-150 m disk: this used to exit 2 naming no key
@example(kv={**SIM_BASE, "r_d_m": "1e-150", "lambda_per_m2": "1e300", "check_mode": "two-way"})
# past the arrival budget, which used to leave out r_d_m, and a horizon of 1e-30 s
@example(kv={**SIM_BASE, "r_d_m": "180", "check_mode": "two-way"})
@example(kv={**SIM_BASE, "horizon_s": "1e-30", "warmup_s": "1e-300", "check_mode": "one-way"})
# link budgets from a reach of 1.1e-145 m to one past the floats (kappa 1e-3),
# d^kappa underflowing close in
@example(kv={**SIM_BASE, "kappa": "1e-3"})
@example(kv={**SIM_BASE, "kappa": "0.5"})
@example(kv={**SIM_BASE, "kappa": "300"})
@example(kv={**SIM_BASE, "c_const": "1e-200"})
@example(kv={**SIM_BASE, "c_const": "1e300"})
@example(kv={**SIM_BASE, "p_tx_dbm": "3000"})
@example(kv={**SIM_BASE, "p_tx_dbm": "-300", "n_thr_dbm": "-310"})
@example(kv={**SIM_BASE, "n_thr_dbm": "-3000"})
@example(kv={**SIM_BASE, "n_thr_dbm": "9.999"})
@example(kv={**SIM_BASE, "replications": "9" * 401, "check_mode": "two-way"})
def test_simulate_exits_with_finite_rows_or_names_its_keys(kv):
    with mock.patch.object(scenario, "MAX_SIM_ARRIVALS", SIM_ARRIVALS):
        check_outcome("simulate", *run_cli("simulate", kv), extreme_keys(kv))


def test_simulate_refuses_a_sweep_past_the_budget_at_once():
    # each point expects fewer than 1e9 arrivals, the two 1.15e9 together: a
    # check per point would let this run for hours
    kv = {**scenario.PRESETS["desk-fig5"], "sweep_values": "0.8,0.9", "horizon_s": "120",
          "replications": "20"}
    code, out, err = run_cli("simulate", kv)
    assert code == 2
    check_outcome("simulate", code, out, err, {"sweep_values"})


def extreme_keys(kv):
    """The float and integer keys kv sets away from every base its strategy starts from."""
    bases = [dict(SIM_BASE, **load, replications=n) for load in SIM_LOADS for n in SIM_REPLICATIONS]
    return {k for k, v in kv.items()
            if k in FLOAT_KEYS + INT_KEYS and all(v != b.get(k) for b in bases)}


def check_outcome(command, code, out, err, extremes):
    if code is None:
        assert command == "validate" and out == err == ""
    elif code == 0:
        assert command != "validate" and err == ""
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows
        for row in rows:
            undefined = "undefined" in row.get("flags", "")
            for column, cell in row.items():
                if column in OPEN_COLUMNS or (column == "p_accept" and undefined):
                    continue
                try:
                    value = float(cell)
                except ValueError:   # a row type, a flag or an empty sweep column
                    continue
                assert math.isfinite(value), f"{column} = {cell} in {out}"
    else:
        assert code == 2 and out == ""
        line = ERROR_LINE.fullmatch(err)
        assert line, err
        keys = set(line.group(1).split(", "))
        assert keys <= set(KEYS), err
        assert command == "validate" or keys & extremes, err
