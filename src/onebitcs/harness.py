"""Seeded Monte-Carlo sweeps: NMSE vs SNR over a bank of estimators.

Every (snr, trial) cell derives its own RNG stream from the master seed, so
results are a pure function of the configuration, trials can run in any
order (or in parallel), and adding an algorithm to a sweep never perturbs
the measurements the other algorithms see.  In parallel, one process pool
tunes FISTA at every SNR point and then runs the trials.  Wall-clock
runtime is the one recorded field that is not reproducible.
"""

from __future__ import annotations

import ctypes
import math
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConvergenceError
from .model import draw_channel, synthesize_measurement, zc_training, dft_dictionary
from .objective import ObjectiveContext
from .operator import build_operator
from .solvers import (
    ORACLE_BUDGET,
    SolverConfig,
    brute_force_map,
    run_fista,
    run_grahtp,
    run_grasp,
    tune_gamma,
)

__all__ = [
    "ALGORITHMS",
    "ExperimentConfig",
    "TrialRecord",
    "nmse",
    "reconstruct_channel",
    "child_seed",
    "tuning_seed",
    "run_experiment",
    "sweep_operators",
    "emit_csv",
    "parse_csv",
    "emit_curve",
    "parse_config_text",
    "load_config",
]

# Solver per algorithm name: (ctx, solver config, FISTA gamma) -> SolverReport.
# Each entry looks its solver up among this module's globals when it runs, so
# a wrapper installed on the module sees every solve.
_SOLVERS = {
    "bmsgrasp": lambda ctx, cfg, gamma: run_grasp(ctx, cfg, use_bms=True),
    "bmsgrasp-debias": lambda ctx, cfg, gamma: run_grasp(
        ctx, replace(cfg, debias=True), use_bms=True),
    "bmsgrahtp": lambda ctx, cfg, gamma: run_grahtp(ctx, cfg, use_bms=True),
    "grasp": lambda ctx, cfg, gamma: run_grasp(ctx, cfg, use_bms=False),
    "grahtp": lambda ctx, cfg, gamma: run_grahtp(ctx, cfg, use_bms=False),
    "fista": lambda ctx, cfg, gamma: run_fista(ctx, gamma),
    "oracle": lambda ctx, cfg, gamma: brute_force_map(ctx, cfg.sparsity),
}

ALGORITHMS = tuple(_SOLVERS)

CSV_HEADER = "algorithm,snr_db,trial,seed,nmse,iterations,runtime_ms,support_hit"
CURVE_HEADER = "algorithm,snr_db,trials,mean_nmse_db,median_nmse_db,p10_nmse_db,p90_nmse_db"

FISTA_TUNING_TRIALS = 6


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one NMSE-vs-SNR sweep."""

    m: int
    n: int
    t: int
    l: int
    b_rx: int
    b_tx: int
    snr_db: tuple
    trials: int
    master_seed: int = 0
    algorithms: tuple = ("bmsgrasp-debias",)
    eta: object = SolverConfig.eta
    operator_mode: str = "auto"
    max_outer_iters: int = SolverConfig.max_outer_iters
    inner_tol: float = SolverConfig.inner_tol
    b_rx_overrides: dict = field(default_factory=dict)
    b_tx_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if min(self.m, self.n, self.t, self.l, self.trials) < 1:
            raise ValueError("M, N, T, L, trials must all be positive")
        if self.n > self.t:
            raise ValueError(f"need N <= T, got N={self.n}, T={self.t}")
        if not self.snr_db:
            raise ValueError("snr_db grid is empty")
        if any(math.isnan(s) or s == math.inf for s in self.snr_db):
            raise ValueError(f"snr_db points must be finite or -inf, got {self.snr_db}")
        if not self.algorithms:
            raise ValueError("algorithms list is empty")
        if len(set(self.snr_db)) != len(self.snr_db):
            raise ValueError(f"snr_db grid repeats a point: {self.snr_db}")
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ValueError(f"algorithms list repeats a name: {self.algorithms}")
        for algo in self.algorithms:
            if algo not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {algo!r}; choose from {ALGORITHMS}")
        for algo in list(self.b_rx_overrides) + list(self.b_tx_overrides):
            if algo not in ALGORITHMS:
                raise ValueError(f"override for unknown algorithm {algo!r}")
        for algo in self.algorithms:
            brx, btx = self.dims_for(algo)
            if brx < self.m or btx < self.n:
                raise ValueError(
                    f"{algo}: need B_rx >= M and B_tx >= N, got ({brx}, {btx})"
                )
        if self.operator_mode not in ("auto", "fft"):
            raise ValueError(f"operator_mode must be auto or fft, got {self.operator_mode!r}")
        if "oracle" in self.algorithms:
            brx, btx = self.dims_for("oracle")
            if math.comb(brx * btx, self.l) > ORACLE_BUDGET:
                raise ValueError(
                    "oracle enumerates all size-L supports and is limited to "
                    f"C(B, L) <= {ORACLE_BUDGET}; got C({brx * btx}, {self.l})"
                )
        self.solver_config()      # checks eta, max_outer_iters and inner_tol

    def solver_config(self) -> SolverConfig:
        """The pursuit settings of this sweep; only `bmsgrasp-debias` debiases."""
        return SolverConfig(
            sparsity=self.l,
            eta=self.eta,
            max_outer_iters=self.max_outer_iters,
            inner_tol=self.inner_tol,
        )

    def dims_for(self, algo: str) -> tuple[int, int]:
        """Dictionary sizes for one algorithm, applying per-algo overrides."""
        return (
            int(self.b_rx_overrides.get(algo, self.b_rx)),
            int(self.b_tx_overrides.get(algo, self.b_tx)),
        )


@dataclass(frozen=True)
class TrialRecord:
    """One (algorithm, snr, trial) result row.

    iterations is -1 when the solver failed and the row holds a salvaged
    estimate.  support_hit is None in every sweep row; the field keeps the
    CSV schema's last column.
    """

    algorithm: str
    snr_db: float
    trial: int
    seed: int
    nmse: float
    iterations: int
    runtime_ms: float
    support_hit: bool | None = None


def nmse(H_hat: np.ndarray, H: np.ndarray) -> float:
    """Squared Frobenius error of H_hat normalized by the energy of H."""
    H = np.asarray(H)
    H_hat = np.asarray(H_hat)
    if H_hat.shape != H.shape:
        raise ValueError(f"shape mismatch: {H_hat.shape} vs {H.shape}")
    denom = np.linalg.norm(H) ** 2
    if denom == 0.0:
        raise ValueError("reference channel has zero energy")
    return float(np.linalg.norm(H_hat - H) ** 2 / denom)


def reconstruct_channel(op, x_hat: np.ndarray) -> np.ndarray:
    """Channel matrix synthesized from a virtual-channel estimate.

    Uses the same transform that defines the virtual representation,
    H = A_RX X A_TX^H, summed over the nonzero entries of X only: an
    estimate has a few of them, and the dense product costs O(M*B).
    """
    x_hat = np.asarray(x_hat)
    if x_hat.shape != (op.B,):
        raise ValueError(f"expected length-{op.B} estimate, got shape {x_hat.shape}")
    idx = np.flatnonzero(x_hat)
    br, bt = idx % op.B_RX, idx // op.B_RX
    return (op.A_RX[:, br] * x_hat[idx]) @ op.A_TX[:, bt].conj().T


# -- seeding -----------------------------------------------------------------

_M64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return (z ^ (z >> 31)) & _M64


def child_seed(master_seed: int, snr_index: int, trial_index: int) -> int:
    """Per-(snr, trial) RNG seed; independent of the algorithm list."""
    s = _splitmix64(master_seed & _M64)
    s = _splitmix64(s ^ snr_index)
    return _splitmix64(s ^ trial_index)


def tuning_seed(master_seed: int, snr_index: int, k: int) -> int:
    """Seed stream reserved for hyperparameter tuning trials."""
    return child_seed(master_seed ^ 0xA5A5A5A5A5A5A5A5, snr_index, k)


# -- sweep execution ---------------------------------------------------------


def sweep_operators(config: ExperimentConfig):
    """The training block and one operator per distinct dictionary size pair.

    Returns (training, ops), with ops keyed by ``config.dims_for(algo)`` in
    the order the algorithms first use them.  Every operator is the factored
    one; both operator_mode values select it.
    """
    training = zc_training(config.n, config.t)
    ops = {}
    for algo in config.algorithms:
        dims = config.dims_for(algo)
        if dims not in ops:
            ops[dims] = build_operator(
                training.S,
                dft_dictionary(config.m, dims[0]),
                dft_dictionary(config.n, dims[1]),
            )
    return training, ops


class _SweepState:
    """Training, operators and solver config shared by a sweep's tuning and trials."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.training, self.ops = sweep_operators(config)
        self.solver_config = config.solver_config()

    def _problem(self, seed: int, snr_index: int):
        """The channel and its quantized measurement drawn from `seed`."""
        config = self.config
        rng = np.random.default_rng(seed)
        rho = 10.0 ** (config.snr_db[snr_index] / 10.0)
        channel = draw_channel(config.l, config.m, config.n, rng)
        return channel, synthesize_measurement(channel.H, self.training.S, rho, rng)

    def tune(self, snr_index: int):
        """FISTA's (gamma, achieved mean support) at one SNR point, targeting 3L."""
        config = self.config
        op = self.ops[config.dims_for("fista")]
        seeds = (tuning_seed(config.master_seed, snr_index, k) for k in range(FISTA_TUNING_TRIALS))
        ctxs = [ObjectiveContext(op, self._problem(seed, snr_index)[1]) for seed in seeds]
        return tune_gamma(ctxs, config.l)

    def run_trial(self, snr_index: int, trial: int, gamma) -> list:
        config = self.config
        seed = child_seed(config.master_seed, snr_index, trial)
        snr_db = config.snr_db[snr_index]
        channel, measurement = self._problem(seed, snr_index)

        # One context per operator: the algorithms on it share its cached
        # gradient at 0.
        ctxs = {dims: ObjectiveContext(op, measurement) for dims, op in self.ops.items()}
        records = []
        for algo in config.algorithms:
            ctx = ctxs[config.dims_for(algo)]
            op = ctx.op
            start = time.perf_counter()
            try:
                report = _SOLVERS[algo](ctx, self.solver_config, gamma)
                x_hat, iterations = report.estimate.x_hat, report.iterations
            except ConvergenceError as err:
                x_hat = err.best if err.best is not None else np.zeros(op.B, dtype=complex)
                iterations = -1
                print(
                    f"warning: {algo} failed at snr={snr_db} trial={trial}: {err}",
                    file=sys.stderr,
                )
            runtime_ms = (time.perf_counter() - start) * 1e3
            records.append(
                TrialRecord(
                    algorithm=algo,
                    snr_db=float(snr_db),
                    trial=trial,
                    seed=seed,
                    nmse=nmse(reconstruct_channel(op, x_hat), channel.H),
                    iterations=int(iterations),
                    runtime_ms=runtime_ms,
                )
            )
        return records


# Thread-count functions of the OpenBLAS that numpy's wheels bundle (the
# scipy-openblas build with 64-bit integers).
_BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_")


def _blas_threads(count: int | None = None) -> int | None:
    """The thread count of numpy's OpenBLAS, set to `count` when one is given.

    Returns the count in force before the call, or None, changing nothing,
    where numpy's extension module resolves no _BLAS_THREAD_SYMBOLS (another
    BLAS, or other names).  Sweeps pin one thread: a second one saves their
    products little wall time for a second core's worth of CPU, and pool
    workers would each start one thread per core.
    """
    try:
        from numpy._core import _multiarray_umath

        lib = ctypes.CDLL(_multiarray_umath.__file__)
        get, set_ = (getattr(lib, name) for name in _BLAS_THREAD_SYMBOLS)
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    previous = get()
    if count is not None:
        set_(count)
    return previous


# glibc's mallopt parameters M_TRIM_THRESHOLD and M_MMAP_THRESHOLD, and the
# values _keep_heap gives them.
_HEAP_SETTINGS = ((-3, 32 << 20), (-1, 1 << 30))


def _keep_heap() -> bool | None:
    """Keep freed memory in the heap, for the rest of the process.

    Blocks up to 32 MiB come from the heap instead of their own mmap, and
    the heap is trimmed only above 1 GiB, which no sweep reaches.  glibc's
    defaults return a pursuit step's 1-2 MB temporaries to the OS, so each
    full-scale step faulted them in again, at 2-5.5 us a 4 KiB page on
    2-vCPU Xeon hosts.  glibc
    has no getter for these values, so nothing restores them.  Returns
    True, or None, changing nothing, where libc has no mallopt or rejects
    the values (musl's accepts none).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return None
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return all([mallopt(param, value) for param, value in _HEAP_SETTINGS]) or None


_WORKER_STATE = None


def _init_worker(config):
    global _WORKER_STATE
    _blas_threads(1)
    _keep_heap()
    _WORKER_STATE = _SweepState(config)


def _worker_tune(snr_index):
    return _WORKER_STATE.tune(snr_index)


def _worker_trial(task):
    return _WORKER_STATE.run_trial(*task)


def _trial_tasks(config: ExperimentConfig, tuned: list) -> list:
    """(snr_index, trial, FISTA gamma) for every cell of the sweep.

    `tuned` holds one (gamma, achieved mean support) per SNR point, or
    nothing when the sweep does not run FISTA.
    """
    gammas = [gamma for gamma, _ in tuned] or [None] * len(config.snr_db)
    return [
        (snr_index, trial, gammas[snr_index])
        for snr_index in range(len(config.snr_db))
        for trial in range(config.trials)
    ]


def run_experiment(config: ExperimentConfig, workers: int = 1, info: dict | None = None):
    """Run the configured sweep and return records in canonical order.

    Rows are sorted by (algorithm, snr_db, trial) regardless of execution
    order.  FISTA's weight is tuned at every SNR point before any trial
    runs; each point draws its problems from its own tuning_seed stream.
    With workers > 1 one process pool, started with the platform's default
    method, tunes the points and then runs the trials, and the rows are the
    serial ones.  Where that method is not ``fork`` (Windows, macOS, and
    Linux from Python 3.14), a script that calls this with workers > 1 must
    do so under an ``if __name__ == "__main__":`` guard.  Each process of
    the sweep runs numpy's BLAS on one thread, and the caller's thread
    count is back when this returns or raises.  Each also keeps its freed
    memory in its heap (see _keep_heap), and keeps doing so after the
    sweep.  workers below 1 raise ValueError.  When an `info` dict is
    supplied, a finished sweep records its resolved metadata there
    (training root, tuned FISTA weights, blas_threads: 1, or "unpinned"
    where the count cannot be set, and heap: "kept", or "unpinned" where
    libc does not take the setting).
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    state = _SweepState(config)
    tuning = range(len(config.snr_db)) if "fista" in config.algorithms else ()
    previous = _blas_threads(1)
    heap = _keep_heap()
    try:
        if workers > 1:
            # Imported here, so that serial runs never load multiprocessing.
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(
                max_workers=workers, initializer=_init_worker, initargs=(config,)
            ) as pool:
                tuned = list(pool.map(_worker_tune, tuning))
                blocks = list(pool.map(_worker_trial, _trial_tasks(config, tuned), chunksize=8))
        else:
            tuned = [state.tune(i) for i in tuning]
            blocks = [state.run_trial(*task) for task in _trial_tasks(config, tuned)]
    finally:
        if previous is not None:
            _blas_threads(previous)

    if info is not None:
        info["zc_root"] = state.training.root
        info["zc_shifts"] = state.training.shifts
        info["blas_threads"] = "unpinned" if previous is None else 1
        info["heap"] = "unpinned" if heap is None else "kept"
        if tuned:
            info["fista_gamma"] = {float(snr): result for snr, result in zip(config.snr_db, tuned)}
    records = [record for block in blocks for record in block]
    records.sort(key=lambda r: (r.algorithm, r.snr_db, r.trial))
    return records


# -- serialization -----------------------------------------------------------


def _format_float(value: float) -> str:
    return repr(float(value))


def emit_csv(records, path) -> None:
    """Write trial records with the fixed 8-column schema."""
    if not records:
        raise ValueError("no records to emit")
    with open(path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in records:
            hit = "" if r.support_hit is None else ("1" if r.support_hit else "0")
            fh.write(
                f"{r.algorithm},{_format_float(r.snr_db)},{r.trial},{r.seed},"
                f"{_format_float(r.nmse)},{r.iterations},"
                f"{_format_float(r.runtime_ms)},{hit}\n"
            )


def parse_csv(path):
    """Exact inverse of :func:`emit_csv`."""
    records = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header: {header!r}")
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            algo, snr, trial, seed, err, iters, runtime, hit = line.split(",")
            records.append(
                TrialRecord(
                    algorithm=algo,
                    snr_db=float(snr),
                    trial=int(trial),
                    seed=int(seed),
                    nmse=float(err),
                    iterations=int(iters),
                    runtime_ms=float(runtime),
                    support_hit=None if hit == "" else hit == "1",
                )
            )
    return records


def curve_rows(records):
    """Aggregate rows (algorithm, snr_db, n, mean/median/p10/p90 NMSE in dB)."""
    groups = {}
    for r in records:
        groups.setdefault((r.algorithm, r.snr_db), []).append(r.nmse)

    def to_db(value):
        return 10.0 * np.log10(value) if value > 0 else -np.inf

    rows = []
    for (algo, snr), values in sorted(groups.items()):
        arr = np.array(values)
        rows.append(
            (
                algo,
                snr,
                arr.size,
                to_db(float(np.mean(arr))),
                to_db(float(np.median(arr))),
                to_db(float(np.percentile(arr, 10))),
                to_db(float(np.percentile(arr, 90))),
            )
        )
    return rows


def emit_curve(records, path) -> None:
    """Write per-(algorithm, snr) NMSE aggregates in dB."""
    if not records:
        raise ValueError("no records to emit")
    with open(path, "w", newline="") as fh:
        fh.write(CURVE_HEADER + "\n")
        for algo, snr, count, mean_db, med_db, p10_db, p90_db in curve_rows(records):
            fh.write(
                f"{algo},{_format_float(snr)},{count},{_format_float(mean_db)},"
                f"{_format_float(med_db)},{_format_float(p10_db)},{_format_float(p90_db)}\n"
            )


# -- config files ------------------------------------------------------------

_CONFIG_SCALARS = {
    "M": ("m", int),
    "N": ("n", int),
    "T": ("t", int),
    "L": ("l", int),
    "B_rx": ("b_rx", int),
    "B_tx": ("b_tx", int),
    "trials": ("trials", int),
    "seed": ("master_seed", int),
    "operator_mode": ("operator_mode", str),
    "max_outer_iters": ("max_outer_iters", int),
    "inner_tol": ("inner_tol", float),
}


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse the flat key-value sweep description.

    Recognized keys: M, N, T, L, B_rx, B_tx, B_rx.<algo>, B_tx.<algo>,
    snr_db, trials, seed, algorithms, eta, operator_mode, max_outer_iters,
    inner_tol.  Each key may appear once.  Lists are comma-separated; '#'
    starts a comment.
    """
    values = {}
    rx_overrides = {}
    tx_overrides = {}
    set_on = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in set_on:
            raise ValueError(f"line {lineno}: key {key!r} is already set on line {set_on[key]}")
        set_on[key] = lineno
        if key in _CONFIG_SCALARS:
            attr, conv = _CONFIG_SCALARS[key]
            values[attr] = conv(value)
        elif key == "snr_db":
            values["snr_db"] = tuple(float(v) for v in value.split(","))
        elif key == "algorithms":
            values["algorithms"] = tuple(v.strip() for v in value.split(","))
        elif key == "eta":
            values["eta"] = "auto" if value == "auto" else float(value)
        elif key.startswith("B_rx.") or key.startswith("B_tx."):
            prefix, algo = key.split(".", 1)
            target = rx_overrides if prefix == "B_rx" else tx_overrides
            target[algo] = int(value)
        else:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")

    required = ("m", "n", "t", "l", "snr_db", "trials", "algorithms")
    missing = [k for k in required if k not in values]
    if missing:
        raise ValueError(f"config missing required keys: {missing}")
    values.setdefault("b_rx", values["m"])
    values.setdefault("b_tx", values["n"])
    return ExperimentConfig(
        b_rx_overrides=rx_overrides, b_tx_overrides=tx_overrides, **values
    )


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config_text(fh.read())
