"""The sweep benchmark's wrappers still read what the solvers return.

``sweepbench/tracing.py`` wraps the harness's solver entry points from
outside the program and duck-types their results: a pursuit's SolverReport
through ``.estimate``, FISTA's result as ``result[0]`` when it is a tuple.
A return type that breaks either would otherwise show only when the
benchmark runs.  The benchmark's modules are imported as they are.
"""

import contextlib
import sys
from pathlib import Path

import numpy as np
import pytest

from onebitcs.harness import ExperimentConfig, run_experiment

BENCH = str(Path(__file__).resolve().parent.parent / "sweepbench")

CONFIG = ExperimentConfig(
    m=4, n=4, t=6, l=1, b_rx=8, b_tx=8, snr_db=(10.0,), trials=2, master_seed=3,
    algorithms=("fista", "bmsgrasp-debias", "grahtp"),
)


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, BENCH)
    try:
        import tracing
        yield tracing
    finally:
        sys.path.remove(BENCH)


@pytest.mark.parametrize("traced", [False, True])
def test_every_row_is_captured_with_its_estimate(tracing, traced):
    capture = tracing.Capture(CONFIG)
    tracer = tracing.Tracer()
    with tracer.installed() if traced else contextlib.nullcontext(), capture.installed():
        records = run_experiment(CONFIG)
    rows, problems = capture.rows(records)
    assert problems == []
    assert len(rows) == len(records) == 6
    for row, record in zip(rows, records):
        assert (row.algorithm, row.trial, row.iterations) == (
            record.algorithm, record.trial, record.iterations)
        assert row.support.size > 0 and row.values.shape == row.support.shape
        assert np.all(row.values != 0)
        assert (row.gamma is not None) == (row.algorithm == "fista")
    if traced:
        for name in ("run_fista", "run_grasp", "run_grahtp", "restricted_maximize",
                     "tune_gamma", "bms_threshold", "hard_threshold"):
            assert tracer.calls.get(name, 0) > 0, name
        solves = sum(v for (_, name), v in tracer.counters.items() if name == "fista.solves")
        assert solves == tracer.calls["run_fista"]
