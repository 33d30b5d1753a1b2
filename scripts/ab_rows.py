#!/usr/bin/env python3
"""In-process A/B timing of one benchmark workload on two checkouts.

Loads ``src/onebitcs`` of two trees under two package names, builds the
workload's ``ExperimentConfig`` for each from ``sweepbench/run.py``'s
``WORKLOADS`` (of the checkout this script sits in), and alternates
``run_experiment(config, workers=1)`` of the two on the same seeds in one
process, the order flipping every round.  It prints, per round, the CPU
time of each side and their ratio (change / base), then the median ratio,
and compares the rows: iterations and supports hit must agree, and it
gives the largest relative NMSE change per algorithm.

    python3 scripts/ab_rows.py --base ../parent --change . --workload desk-pursuit \\
        --seeds 101 102 103 104 105 --rounds 10 --seconds 20

Both sides share one process, one heap and one BLAS, so the machine's load
moves both alike: separate benchmark runs of one pair of trees read time
ratios from 0.92 to 1.37 on desk-pursuit, where this resolved about 2%.
It is not part of the test suite.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "sweepbench"))

import run as bench  # noqa: E402


def load_package(name: str, tree: Path):
    """The onebitcs package of tree, imported as `name`."""
    pkg_dir = Path(tree).resolve() / "src" / "onebitcs"
    spec = importlib.util.spec_from_file_location(
        name, pkg_dir / "__init__.py", submodule_search_locations=[str(pkg_dir)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def config_for(pkg, workload, seed: int, trials: int):
    """The workload's config rebuilt from the tree's own ExperimentConfig."""
    base = workload.config
    fields = {f.name: getattr(base, f.name) for f in dataclasses.fields(base)}
    fields.update(master_seed=seed, trials=trials)
    return pkg.harness.ExperimentConfig(**fields)


def timed(pkg, config):
    start = time.process_time()
    records = pkg.harness.run_experiment(config, workers=1)
    return time.process_time() - start, records


def compare(base_rows, change_rows, worst):
    """Fold one round's row differences into worst; returns the rows that disagree."""
    disagree = 0
    for a, b in zip(base_rows, change_rows, strict=True):
        if (a.algorithm, a.snr_db, a.trial) != (b.algorithm, b.snr_db, b.trial):
            raise SystemExit("the two trees ran different cells")
        if (a.iterations, a.support_hit) != (b.iterations, b.support_hit):
            disagree += 1
        rel = abs(b.nmse - a.nmse) / max(abs(a.nmse), 1e-300)
        worst[a.algorithm] = max(worst.get(a.algorithm, 0.0), rel)
    return disagree


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, type=Path, help="the reference checkout")
    parser.add_argument("--change", default=ROOT, type=Path, help="the checkout under test")
    parser.add_argument("--workload", default="desk-pursuit", choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seeds", type=int, nargs="+", default=[101, 102, 103, 104, 105])
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="sets the trials per SNR point as sweepbench/run.py does")
    args = parser.parse_args(argv)

    workload = bench.WORKLOADS[args.workload]
    trials = workload.trials(args.seconds)
    sides = {"base": load_package("onebitcs_base", args.base),
             "change": load_package("onebitcs_change", args.change)}
    for pkg in sides.values():     # warm both, untimed
        timed(pkg, config_for(pkg, workload, args.seeds[0], 1))

    ratios, worst, disagree = [], {}, 0
    for r in range(args.rounds):
        seed = args.seeds[r % len(args.seeds)]
        order = ("base", "change") if r % 2 == 0 else ("change", "base")
        cpu, rows = {}, {}
        for side in order:
            pkg = sides[side]
            cpu[side], rows[side] = timed(pkg, config_for(pkg, workload, seed, trials))
        ratios.append(cpu["change"] / cpu["base"])
        disagree += compare(rows["base"], rows["change"], worst)
        print(f"round {r} seed {seed}: base {cpu['base']:.3f} s, change {cpu['change']:.3f} s, "
              f"ratio {ratios[-1]:.4f}", flush=True)
    print(json.dumps({
        "workload": workload.name, "trials": trials, "rounds": args.rounds,
        "median_ratio": round(statistics.median(ratios), 4),
        "ratios": [round(x, 4) for x in ratios],
        "rows_with_other_iterations_or_hits": disagree,
        "max_rel_nmse_change": {k: float(f"{v:.3g}") for k, v in sorted(worst.items())},
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
