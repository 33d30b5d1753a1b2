#!/usr/bin/env python3
"""Work and page faults per row of one benchmark workload's main sweep.

Runs a workload the way ``sweepbench/run.py`` does (its set-up-only warm-up
sweeps, then the main sweep through ``run_sweep``, one BLAS thread) and
counts, per solver call of the main sweep after its first trial (the rows
the benchmark's ``cells_per_s`` times):

* minor page faults (``ru_minflt``);
* full operator products: ``apply``, ``apply_adjoint`` and ``apply_gram``;
* restricted products: the column sets ``restricted`` was built on, with
  their summed sizes |W| and the summed sizes |Tb|*|R| of the sub-grids of
  distinct transmit and receive bins they touch, and the ``image`` and
  ``adjoint`` calls of the ``RestrictedOperator`` it returns;
* likelihood kernel passes: ``sign_terms`` and ``loglik`` calls, the
  ``loglik`` calls alone (the step-size trials of GraHTP and FISTA), and the
  passes made inside the pursuits' ``_gradient_at``;
* restricted solves (``restricted_maximize`` calls), and their Newton steps,
  one negative-Hessian assembly each, by the size 2q of the block, with
  the ``pair_products`` calls that the Hessians are formed from;
* ``bms_threshold`` calls, and the ``np.partition`` calls made inside them;
* the iterations each report gives, and for FISTA how they split: its
  proximal iterations, the Newton steps of its finishes (accepted or not),
  its finish attempts and its accepted finishes, and of those the attempts
  that grew their set by the certificate's violators and the finishes
  accepted after such a growth.

It prints one JSON object: the means per row, overall and per algorithm,
and the same counts per ``tune_gamma`` call of the main sweep's set-up,
with the FISTA solves that tuning ran.  Each also gives the mean |W| and
mean |Tb|*|R| per restricted column set.  For each ``tune_gamma`` call it
also lists its evaluations (the gammas it solved problems at), how many of
them stopped before the last problem, and its FISTA solves.  Every count
but the faults is a pure function of the workload and seed.

    python3 scripts/row_work.py --workload full-bms --seed 1 --seconds 20

The program is imported from ``src/`` of the checkout the script sits in,
so a copy of the script in another checkout counts that checkout's work.
It is not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "sweepbench"))

import run as bench  # noqa: E402  (puts this checkout's src/ on the path)
from onebitcs import harness, objective, operator, solvers  # noqa: E402

COUNTS = ("faults", "apply", "apply_adjoint", "apply_gram", "restricted_sets",
          "restricted_columns", "restricted_grid", "restricted_image", "restricted_adjoint",
          "kernel_passes", "loglik",
          "gradient_passes", "restricted_solves", "hessians", "pair_products", "bms_threshold",
          "partitions", "iterations", "fista_solves", "proximal_iterations", "newton_steps",
          "finish_attempts", "finishes_accepted", "finishes_grown", "grown_finishes_accepted")
TUNING_COUNTS = ("evaluations", "stopped_evaluations")


class Counter:
    def __init__(self):
        self.now = dict.fromkeys(COUNTS, 0)
        self.rows = []           # (algorithm, counts of one solver call)
        self.tunings = []        # counts of one tune_gamma call
        self.tuning_solves = None    # the problem of each FISTA solve of the running tune_gamma
        self.in_bms = False
        self.in_gradient = False
        self.in_finish = False
        self.finish_loops = []   # the set sizes of the running finish's Newton loops
        self.finish_steps = 0    # Newton steps of the accepted finish of the current solve

    def counted(self, names, fn):
        def wrapper(*args, **kwargs):
            for name in names:
                self.now[name] += 1
            if "kernel_passes" in names:
                self.now["gradient_passes"] += self.in_gradient
            return fn(*args, **kwargs)
        return wrapper

    def restricted(self, fn):
        def restricted(op, idx):
            part = fn(op, idx)
            bt, br = np.divmod(part.idx, op.B_RX)
            self.now["restricted_sets"] += 1
            self.now["restricted_columns"] += part.idx.size
            self.now["restricted_grid"] += np.unique(bt).size * np.unique(br).size
            return part
        return restricted

    def gradient(self, fn):
        def _gradient_at(*args, **kwargs):
            self.in_gradient = True
            try:
                return fn(*args, **kwargs)
            finally:
                self.in_gradient = False
        return _gradient_at

    def hessian(self, fn):
        def assembly(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.now["hessians"] += 1
            self.now["newton_steps"] += self.in_finish
            key = f"hessians_{out.shape[0]}"
            self.now[key] = self.now.get(key, 0) + 1
            return out
        return assembly

    def newton_loop(self, fn):
        def _newton_loop(ctx, support, *args, **kwargs):
            if self.in_finish:
                self.finish_loops.append(len(support))
            return fn(ctx, support, *args, **kwargs)
        return _newton_loop

    def finish(self, fn):
        def _fista_finish(*args, **kwargs):
            self.now["finish_attempts"] += 1
            self.in_finish = True
            self.finish_loops = []
            try:
                out = fn(*args, **kwargs)
            finally:
                self.in_finish = False
            # Only a growth makes a loop's set larger than the one before.
            grown = any(b > a for a, b in zip(self.finish_loops, self.finish_loops[1:]))
            self.now["finishes_grown"] += grown
            if out is not None:
                self.now["finishes_accepted"] += 1
                self.now["grown_finishes_accepted"] += grown
                self.finish_steps = len(out[-1])
            return out
        return _fista_finish

    def fista(self, fn):
        def run_fista(ctx, *args, **kwargs):
            if self.tuning_solves is not None:
                self.tuning_solves.append(ctx)
            self.finish_steps = 0
            report = fn(ctx, *args, **kwargs)
            self.now["fista_solves"] += 1
            self.now["proximal_iterations"] += report.iterations - self.finish_steps
            return report
        return run_fista

    def tune(self, fn):
        def tune_gamma(ctxs, *args, **kwargs):
            before = dict(self.now)
            self.tuning_solves = []
            try:
                return fn(ctxs, *args, **kwargs)
            finally:
                counts = {k: self.now[k] - before.get(k, 0) for k in self.now}
                # An evaluation solves a prefix of ctxs, so each starts at the first problem.
                starts = [i for i, ctx in enumerate(self.tuning_solves) if ctx is ctxs[0]]
                lengths = np.diff(starts + [len(self.tuning_solves)])
                counts["evaluations"] = len(starts)
                counts["stopped_evaluations"] = int(np.sum(lengths < len(ctxs)))
                self.tunings.append(counts)
                self.tuning_solves = None
        return tune_gamma

    def bms(self, fn):
        def bms_threshold(*args, **kwargs):
            self.now["bms_threshold"] += 1
            self.in_bms = True
            try:
                return fn(*args, **kwargs)
            finally:
                self.in_bms = False
        return bms_threshold

    def partition(self, fn):
        def partition(*args, **kwargs):
            self.now["partitions"] += self.in_bms
            return fn(*args, **kwargs)
        return partition

    def row(self, algo, fn):
        def solver(*args, **kwargs):
            before = dict(self.now)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            report = None
            try:
                report = fn(*args, **kwargs)
                return report
            finally:
                counts = {k: self.now[k] - before.get(k, 0) for k in self.now}
                counts["faults"] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
                counts["iterations"] = report.iterations if report is not None else 0
                self.rows.append((algo, counts))
        return solver


def install(counter):
    """Wrap every name the counts need; returns the undo list."""
    undo = []

    def patch(owner, name, value):
        undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    cls = operator.SensingOperator
    for name in ("apply", "apply_adjoint", "apply_gram", "pair_products"):
        patch(cls, name, counter.counted((name,), getattr(cls, name)))
    patch(cls, "restricted", counter.restricted(cls.restricted))
    for name in ("image", "adjoint"):
        method = getattr(operator.RestrictedOperator, name)
        patch(operator.RestrictedOperator, name, counter.counted((f"restricted_{name}",), method))
    for name, counts in (("sign_terms", ("kernel_passes",)),
                         ("loglik", ("kernel_passes", "loglik"))):
        original = getattr(objective, name)
        wrapper = counter.counted(counts, original)
        for module in (objective, solvers):
            if getattr(module, name, None) is original:
                patch(module, name, wrapper)
    patch(solvers, "restricted_maximize",
          counter.counted(("restricted_solves",), solvers.restricted_maximize))
    patch(solvers, "_gradient_at", counter.gradient(solvers._gradient_at))
    patch(solvers, "_neg_hessian", counter.hessian(solvers._neg_hessian))
    patch(solvers, "bms_threshold", counter.bms(solvers.bms_threshold))
    patch(solvers, "_fista_finish", counter.finish(solvers._fista_finish))
    patch(solvers, "_newton_loop", counter.newton_loop(solvers._newton_loop))
    # Rows and tuning both reach FISTA through the solvers module's name.
    patch(solvers, "run_fista", counter.fista(solvers.run_fista))
    patch(harness, "run_fista", solvers.run_fista)
    patch(harness, "tune_gamma", counter.tune(harness.tune_gamma))
    patch(np, "partition", counter.partition(np.partition))
    solvers_table = dict(harness._SOLVERS)
    patch(harness, "_SOLVERS", {algo: counter.row(algo, fn) for algo, fn in solvers_table.items()})
    return undo


def summary(rows, counts=COUNTS):
    n = len(rows)
    out = {"rows": n}
    sizes = sorted({k for c in rows for k in c if k.startswith("hessians_")},
                   key=lambda k: int(k.split("_")[1]))
    for key in counts + tuple(sizes):
        out[key] = round(sum(c.get(key, 0) for c in rows) / n, 3) if n else 0.0
    sets = sum(c["restricted_sets"] for c in rows)
    for key in ("columns", "grid"):
        out[f"{key}_per_restricted_set"] = round(
            sum(c[f"restricted_{key}"] for c in rows) / sets, 1) if sets else 0.0
    calls = sum(c["bms_threshold"] for c in rows)
    out["partitions_per_bms_threshold"] = round(
        sum(c["partitions"] for c in rows) / calls, 3) if calls else 0.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="full-bms", choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)

    workload = bench.WORKLOADS[args.workload]
    config = replace(workload.config, master_seed=args.seed,
                     trials=workload.trials(args.seconds))
    setup_config = replace(config, trials=1, snr_db=config.snr_db[:1])
    for _ in range(workload.warmups):
        harness.run_experiment(setup_config, workers=1)

    counter = Counter()
    undo = install(counter)
    try:
        sweep = bench.run_sweep(config, trace=False)
    finally:
        for owner, name, value in reversed(undo):
            setattr(owner, name, value)
    # The first trial's rows are the benchmark's set-up, not its timed rows.
    rows = counter.rows[len(config.algorithms):]
    result = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "digest": bench.digest(sweep.records),
        "per_row": summary([c for _, c in rows]),
        "per_algorithm": {algo: summary([c for a, c in rows if a == algo])
                          for algo in config.algorithms},
        "per_tuning": summary(counter.tunings, COUNTS + TUNING_COUNTS),
        "tunings": [{k: c[k] for k in TUNING_COUNTS + ("fista_solves",)}
                    for c in counter.tunings],
    }
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
