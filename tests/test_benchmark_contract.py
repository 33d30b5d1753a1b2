"""The sweep benchmark still builds its workloads and reads what the solvers return.

``sweepbench/run.py`` builds each workload's ExperimentConfig from keyword
arguments and its reference check calls ``build_operator(..., mode="fft")``;
a field or option it sets that the program drops would otherwise show only
when the benchmark runs.  ``sweepbench/tracing.py`` wraps the harness's
solver entry points from outside the program and duck-types their results:
a pursuit's SolverReport through ``.estimate``, FISTA's result as
``result[0]`` when it is a tuple.  The benchmark's modules are imported as
they are.
"""

import contextlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from onebitcs import build_operator, dft_dictionary, zc_training
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


@pytest.fixture(scope="module")
def bench_run():
    saved = list(sys.path)
    sys.path.insert(0, BENCH)
    try:
        spec = importlib.util.spec_from_file_location("sweepbench_run", Path(BENCH) / "run.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module     # its dataclasses resolve their module
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop("sweepbench_run", None)
        sys.path[:] = saved


def test_benchmark_workloads_build(bench_run):
    assert sorted(bench_run.WORKLOADS) == ["desk-fista", "desk-pursuit", "full-bms"]
    for name, workload in bench_run.WORKLOADS.items():
        config = workload.config
        assert isinstance(config, ExperimentConfig), name
        for dims in {config.dims_for(algo) for algo in config.algorithms}:
            op = build_operator(zc_training(config.n, config.t).S,
                                dft_dictionary(config.m, dims[0]),
                                dft_dictionary(config.n, dims[1]), mode="fft")
            assert op.B == dims[0] * dims[1], name


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
