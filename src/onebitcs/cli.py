"""Command-line front end: run sweeps, self-test, dump coherence diagnostics."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .harness import (
    emit_csv,
    emit_curve,
    load_config,
    parse_config_text,
    run_experiment,
)
from .model import dft_dictionary, zc_training
from .operator import build_operator, coherence_bands, select_eta
from .selftest import run_selftest

USAGE_ERROR = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onebitcs",
        description="One-bit quantized channel estimation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an NMSE-vs-SNR sweep")
    run_p.add_argument("--config", required=True, help="sweep config file")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--seed", type=int, help="override master seed")
    run_p.add_argument("--algos", help="override algorithm list (comma separated)")
    run_p.add_argument("--snr", help="override SNR grid in dB (comma separated)")
    run_p.add_argument("--trials", type=int, help="override trial count")
    run_p.add_argument("--workers", type=int, default=1, help="parallel worker processes")

    sub.add_parser("selftest", help="run the built-in invariant battery")

    gram_p = sub.add_parser("gram", help="dump coherence/eta diagnostics for a config")
    gram_p.add_argument("--config", required=True, help="sweep config file")
    return parser


def _apply_overrides(config, args):
    updates = {}
    if args.seed is not None:
        updates["master_seed"] = args.seed
    if args.algos is not None:
        updates["algorithms"] = tuple(a.strip() for a in args.algos.split(","))
    if args.snr is not None:
        updates["snr_db"] = tuple(float(v) for v in args.snr.split(","))
    if args.trials is not None:
        updates["trials"] = args.trials
    return replace(config, **updates) if updates else config


def _cmd_run(args) -> int:
    with open(args.config) as fh:
        config_text = fh.read()
    config = _apply_overrides(parse_config_text(config_text), args)
    os.makedirs(args.out, exist_ok=True)

    info: dict = {}
    records = run_experiment(config, workers=max(1, args.workers), info=info)
    csv_path = os.path.join(args.out, "results.csv")
    curve_path = os.path.join(args.out, "curve.csv")
    emit_csv(records, csv_path)
    emit_curve(records, curve_path)

    meta_path = os.path.join(args.out, "metadata.txt")
    with open(meta_path, "w") as fh:
        fh.write("# config (verbatim)\n")
        fh.write(config_text)
        if not config_text.endswith("\n"):
            fh.write("\n")
        fh.write("# resolved\n")
        fh.write(f"master_seed = {config.master_seed}\n")
        fh.write(f"algorithms = {','.join(config.algorithms)}\n")
        fh.write(f"snr_db = {','.join(repr(s) for s in config.snr_db)}\n")
        fh.write(f"trials = {config.trials}\n")
        fh.write(f"zc_root = {info.get('zc_root')}\n")
        fh.write(f"zc_shifts = {info.get('zc_shifts')}\n")
        for snr, (gamma, mean_support) in sorted(info.get("fista_gamma", {}).items()):
            fh.write(f"fista_gamma[{snr!r}] = {gamma!r}  # mean support {mean_support}\n")
    print(f"wrote {csv_path}, {curve_path}, {meta_path}")
    return 0


def _cmd_gram(args) -> int:
    config = load_config(args.config)
    training = zc_training(config.n, config.t)
    mode = "fft" if config.operator_mode == "auto" else config.operator_mode
    seen = set()
    for algo in config.algorithms:
        dims = config.dims_for(algo)
        if dims in seen:
            continue
        seen.add(dims)
        op = build_operator(
            training.S,
            dft_dictionary(config.m, dims[0]),
            dft_dictionary(config.n, dims[1]),
            mode=mode,
        )
        print(f"dims B_rx={dims[0]} B_tx={dims[1]} (B={op.B}):")
        norms = op.column_norms
        print(f"  column norms: min={norms.min():.6g} max={norms.max():.6g}")
        selection = select_eta(op)
        if selection.eta is None:
            print("  eta: not applicable (all columns orthogonal); "
                  "band thresholding degenerates to plain hard thresholding")
            continue
        flag = " (clamped)" if selection.clamped else ""
        print(f"  eta: {selection.eta:.6g}{flag}")
        bands = coherence_bands(op, selection.eta)
        sizes = np.diff(bands.indptr)
        print(f"  band sizes: min={sizes.min()} median={int(np.median(sizes))} "
              f"max={sizes.max()}")
    return 0


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR

    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "selftest":
            return run_selftest()
        if args.command == "gram":
            return _cmd_gram(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"error: {err!r}", file=sys.stderr)
        return 1
    return USAGE_ERROR  # pragma: no cover - unreachable with required subparsers


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
