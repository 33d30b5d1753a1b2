#!/usr/bin/env python3
"""Sweep benchmark for onebitcs.

Runs one workload per process through the program's own sweep entry point,
``run_experiment(config, workers=1)``, and prints one JSON line with the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``):

    python3 sweepbench/run.py --workload desk-pursuit --seed 1 --seconds 20 --trace 0

It needs only numpy and scipy: the program is imported from ``src/`` of the
checkout the script sits in, with no install step.  See README.md in this
directory for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from onebitcs import build_operator, dft_dictionary  # noqa: E402
from onebitcs.harness import ExperimentConfig, run_experiment  # noqa: E402

import reference  # noqa: E402
from tracing import SOLVER_ENTRIES, Capture, Tracer  # noqa: E402

OUT_DIR = HERE / "out"

DESK = dict(
    m=16, n=16, t=20, l=2, b_rx=64, b_tx=64,
    b_rx_overrides={"grasp": 16, "grahtp": 16},
    b_tx_overrides={"grasp": 16, "grahtp": 16},
    eta="auto", operator_mode="auto", max_outer_iters=50, inner_tol=1e-8,
)
FULL = dict(
    m=64, n=64, t=80, l=4, b_rx=256, b_tx=256,
    b_rx_overrides={"grasp": 64, "grahtp": 64},
    b_tx_overrides={"grasp": 64, "grahtp": 64},
    eta="auto", operator_mode="fft", max_outer_iters=50, inner_tol=1e-8,
)


@dataclass(frozen=True)
class Workload:
    name: str
    config: ExperimentConfig
    # Trials per SNR point run per second of --seconds.  Fixed, so that the
    # rows a run attempts, and their digest, depend only on seed and length.
    trials_per_second: float
    # Set-ups timed per run, the main sweep's own included.  desk-fista
    # times two: each is about 12 s of gamma tuning.
    setups: int
    # Untimed set-up-only sweeps that warm the process before the main sweep.
    warmups: int
    # SNR points where each band-maximum variant must beat its plain pursuit.
    bms_snrs: tuple = ()
    # Median NMSE below 0 dB at every SNR >= 0 dB.
    below_0db: bool = False

    def trials(self, seconds: float) -> int:
        return max(2, round(seconds * self.trials_per_second))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk-pursuit",
            ExperimentConfig(
                snr_db=(-10.0, 0.0, 10.0, 20.0, 30.0), trials=1,
                algorithms=("bmsgrasp", "bmsgrasp-debias", "bmsgrahtp", "grasp", "grahtp"),
                **DESK),
            trials_per_second=5.5, setups=7, warmups=5, bms_snrs=(10.0, 20.0),
        ),
        Workload(
            "desk-fista",
            ExperimentConfig(snr_db=(10.0,), trials=1, algorithms=("fista",), **DESK),
            trials_per_second=3.0, setups=2, warmups=0, below_0db=True,
        ),
        Workload(
            "full-bms",
            ExperimentConfig(
                snr_db=(0.0, 10.0, 20.0), trials=1,
                algorithms=("bmsgrasp-debias", "bmsgrahtp"), **FULL),
            trials_per_second=1.4, setups=3, warmups=1, below_0db=True,
        ),
    )
}


def row_key(record):
    """A result row without its wall-clock field."""
    return (record.algorithm, repr(record.snr_db), record.trial, record.seed,
            repr(record.nmse), record.iterations, record.support_hit)


def digest(records) -> str:
    text = "\n".join(",".join(map(str, row_key(r))) for r in records)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Sweep:
    """One timed sweep.  Each stamp is (perf_counter, process_time)."""

    records: list
    capture: Capture
    tracer: Tracer | None
    start: tuple
    first_end: tuple  # the second trial starts: set-up is over
    end: tuple

    @property
    def setup_s(self) -> float:
        return self.first_end[0] - self.start[0]

    @property
    def rows_after_setup(self) -> int:
        return len(self.records) - len(self.capture.config.algorithms)

    @property
    def wall_after_setup(self) -> float:
        return self.end[0] - self.first_end[0]

    @property
    def cpu_after_setup(self) -> float:
        return self.end[1] - self.first_end[1]


def run_sweep(config: ExperimentConfig, trace: bool) -> Sweep:
    tracer = Tracer() if trace else None
    marks = {}

    def on_second_trial(stamp):
        marks["first_end"] = stamp
        if tracer is not None:
            tracer.phase = "rows"

    capture = Capture(config, on_second_trial)
    with tracer.installed() if tracer else contextlib.nullcontext(), capture.installed():
        start = (time.perf_counter(), time.process_time())
        records = run_experiment(config, workers=1)
        end = (time.perf_counter(), time.process_time())
    return Sweep(records, capture, tracer, start, marks["first_end"], end)


def end_to_end(sweep: Sweep, setup_times):
    rows = sweep.rows_after_setup
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "cells_per_s": (rows / sweep.wall_after_setup, "1/s"),
        "cpu_ms_per_cell": (sweep.cpu_after_setup * 1e3 / rows, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(sweep: Sweep):
    rows = sweep.rows_after_setup
    trials = len(sweep.capture.trial_starts) - 1
    wall, cpu = sweep.wall_after_setup, sweep.cpu_after_setup
    t = sweep.tracer

    def per_call_us(name):
        calls = t.n_calls(name)
        return t.total(name) / calls * 1e6 if calls else 0.0

    def counter(name, phase="rows"):
        return t.counters.get((phase, name), 0)

    def ratio(a, b):
        return a / b if b else 0.0

    solver_time = sum(t.total(name) for name in SOLVER_ENTRIES)
    metrics = {
        "operator.apply.calls_per_cell": (t.n_calls("apply") / rows, "calls/cell"),
        "operator.apply.us": (per_call_us("apply"), "us"),
        "operator.apply_adjoint.calls_per_cell": (t.n_calls("apply_adjoint") / rows, "calls/cell"),
        "operator.apply_adjoint.us": (per_call_us("apply_adjoint"), "us"),
        "operator.columns.ms_per_cell": (t.total("columns") * 1e3 / rows, "ms/cell"),
        "operator.build.ms": (t.sweep_total("build_operator") * 1e3, "ms"),
        "operator.bands.ms": ((t.sweep_total("select_eta") + t.sweep_total("coherence_bands"))
                              * 1e3, "ms"),
        "operator.spectral_norm.ms": (t.sweep_total("spectral_norm_estimate") * 1e3, "ms"),
        "objective.grad_h.self_ms_per_cell": (t.self_time("grad_h") * 1e3 / rows, "ms/cell"),
        "objective.f_loglik.calls_per_cell": (t.n_calls("f_loglik") / rows, "calls/cell"),
        "objective.f_loglik.self_ms_per_cell": (t.self_time("f_loglik") * 1e3 / rows, "ms/cell"),
        "solvers.restricted_maximize.calls_per_cell": (
            t.n_calls("restricted_maximize") / rows, "calls/cell"),
        "solvers.restricted_maximize.self_ms_per_cell": (
            t.self_time("restricted_maximize") * 1e3 / rows, "ms/cell"),
        "solvers.bms_threshold.ms_per_cell": (t.total("bms_threshold") * 1e3 / rows, "ms/cell"),
        "solvers.hard_threshold.ms_per_cell": (t.total("hard_threshold") * 1e3 / rows, "ms/cell"),
        "solvers.pursuit.outer_iters_per_cell": (
            ratio(counter("pursuit.outer_iters"), counter("pursuit.solves")), "iters/cell"),
        "solvers.pursuit.unsettled_halts": (counter("pursuit.unsettled_halts"), "count"),
        "solvers.fista.iters_per_solve": (
            ratio(counter("fista.iters"), counter("fista.solves")), "iters/solve"),
        "solvers.fista.cap_hits": (counter("fista.cap_hits"), "count"),
        "solvers.fista.self_ms_per_cell": (t.self_time("run_fista") * 1e3 / rows, "ms/cell"),
        "solvers.tune_gamma.s": (t.sweep_total("tune_gamma"), "s"),
        "solvers.tune_gamma.fista_solves": (counter("tune_gamma.fista_solves", "setup"), "count"),
        "model.synthesize.ms_per_trial": (
            (t.total("draw_channel") + t.total("synthesize_measurement")) * 1e3 / trials,
            "ms/trial"),
        "harness.self_ms_per_cell": ((wall - solver_time) * 1e3 / rows, "ms/cell"),
        "harness.cpu_per_wall": (cpu / wall, "ratio"),
    }
    return metrics


def check(workload: Workload, config, records, capture, setup_records):
    """Check every row and the method properties; returns (failed rows, problems)."""
    rows, problems = capture.rows(records)
    training = capture.training

    first_cell = sorted(row_key(r) for r in records
                        if r.snr_db == config.snr_db[0] and r.trial == 0)
    for extra in setup_records:
        if sorted(map(row_key, extra)) != first_cell:
            problems.append("a set-up sweep's rows differ from the same cell of the main sweep")

    refs = {dims: reference.ReferenceOperator(S, config.m, *dims) for dims, S in training.items()}
    failed = set()
    for row in rows:
        key = (row.algorithm, row.snr_db, row.trial)
        if row.salvaged:
            failed.add(key)
            continue
        found = reference.check_row(row, refs[row.dims], config.l)
        if found:
            failed.add(key)
            problems += [f"{row.algorithm} {row.snr_db} dB trial {row.trial}: {p}" for p in found]
    good = [row for row in rows if (row.algorithm, row.snr_db, row.trial) not in failed]
    problems += reference.check_properties(good, workload.bms_snrs, workload.below_0db)

    rng = np.random.default_rng(0)
    mode = "fft" if config.operator_mode == "auto" else config.operator_mode
    for dims, op in refs.items():
        S = training[dims]
        if not np.allclose(S @ S.conj().T, config.t * np.eye(config.n), atol=1e-9):
            problems.append("training block does not satisfy S S^H = T I")
        program_op = build_operator(S, dft_dictionary(config.m, dims[0]),
                                    dft_dictionary(config.n, dims[1]), mode=mode)
        mismatch = reference.operator_mismatch(program_op, op, rng)
        if not mismatch <= reference.OPERATOR_RTOL:
            problems.append(f"operator {dims} differs from the reference by {mismatch:.3e}")
    return failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    config = replace(workload.config, master_seed=args.seed,
                     trials=workload.trials(args.seconds))
    setup_config = replace(config, trials=1, snr_db=config.snr_db[:1])

    # Set-up-only sweeps first warm the process (its first second or so can
    # run at half speed) and then, after the main sweep, add timed set-ups;
    # a traced run reports no set-up time and skips those.
    setup_records = []

    def setup_sweeps(count):
        times = []
        for _ in range(count):
            start = time.perf_counter()
            setup_records.append(run_experiment(setup_config, workers=1))
            times.append(time.perf_counter() - start)
        return times

    setup_sweeps(workload.warmups)
    sweep = run_sweep(config, bool(args.trace))
    setup_times = setup_sweeps(0 if args.trace else workload.setups - 1)
    records = sweep.records
    setup_times.append(sweep.setup_s)
    metrics = per_layer(sweep) if args.trace else end_to_end(sweep, setup_times)
    cells_per_s = sweep.rows_after_setup / sweep.wall_after_setup

    failed, problems = check(workload, config, records, sweep.capture, setup_records)
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }

    rows_digest = digest(records)
    summary = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "trials": config.trials, "digest": rows_digest,
        "setup_samples_s": setup_times, "cells_per_s": cells_per_s,
        "trial_starts_s": [t - sweep.start[0] for t, _ in sweep.capture.trial_starts],
        "end_s": sweep.end[0] - sweep.start[0],
        "problems": problems, "result": result,
    }
    if sweep.tracer is not None:
        summary["layers"] = sweep.tracer.table()
        summary["spans"] = sweep.tracer.spans
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(summary, indent=1) + "\n")

    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"{workload.name} seed={args.seed} trials={config.trials} rows={len(records)} "
          f"digest={rows_digest} cells_per_s={cells_per_s:.4g} "
          f"setup_samples_s={[round(s, 4) for s in setup_times]}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
