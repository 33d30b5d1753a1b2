"""Wrappers installed around onebitcs from outside the program.

Two layers of wrapping, both undone on exit:

* ``Capture`` (every run) wraps the names the sweep harness looks up in its
  own namespace: ``draw_channel`` and the solver entry points ``run_grasp``,
  ``run_grahtp`` and ``run_fista``.  It keeps each trial's channel and
  measurement and each solver's estimate for the checks, and timestamps the
  start of every trial so that the end of the first one, where set-up ends,
  is known.  Its cost is a few microseconds per row.
* ``Tracer`` (``--trace 1`` only) wraps the public layer functions of every
  module, under every module-level name they are looked up by (``grad_h``
  inside ``onebitcs.solvers`` as well as in ``onebitcs.objective``), plus
  the public methods of ``SensingOperator``.  It aggregates call counts,
  total and self time per layer and phase, and keeps spans of the coarse
  layers for the trace file.
"""

from __future__ import annotations

import inspect
import sys
import time
from contextlib import contextmanager

import numpy as np

from reference import CapturedRow, channel_matrix

# Functions traced per module.  The elementwise helpers (vec, unvec,
# real_form, complex_form, log_ndtr, inv_mills, g_logprior, quantize,
# steering_vector) are left out: they run inside the kernels that call them,
# where a wrapper would cost as much as the call, so their time counts as
# their caller's self time.
TRACED = {
    "onebitcs.model": ("draw_channel", "synthesize_measurement", "zc_training", "dft_dictionary"),
    "onebitcs.operator": ("build_operator", "select_eta", "coherence_bands"),
    "onebitcs.objective": ("f_loglik", "h_objective", "grad_h"),
    "onebitcs.solvers": ("hard_threshold", "bms_threshold", "restricted_maximize", "run_grasp",
                         "run_grahtp", "run_fista", "tune_gamma", "brute_force_map"),
    "onebitcs.harness": ("nmse", "reconstruct_channel"),
}
TRACED_METHODS = ("apply", "apply_adjoint", "columns", "spectral_norm_estimate")
SOLVER_ENTRIES = ("run_grasp", "run_grahtp", "run_fista", "brute_force_map")
# Layers whose individual spans are written to the trace file.
COARSE = {"build_operator", "select_eta", "coherence_bands", "tune_gamma",
          "run_grasp", "run_grahtp", "run_fista", "brute_force_map", "draw_channel"}


class _Patches:
    def __init__(self):
        self._undo = []

    def set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self):
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()


class Capture:
    """Collects channels, measurements and estimates of one sweep, row by row.

    Only compact data is kept (path parameters, sign bits, sparse estimates),
    so that holding a whole run adds little to the process's peak memory.
    """

    def __init__(self, config, on_second_trial=None):
        from onebitcs.harness import child_seed

        self.config = config
        self.on_second_trial = on_second_trial
        # gamma tuning draws channels too, from its own seed stream; a trial
        # is recognised by the seed of the generator it draws from.
        self.cell_seeds = {child_seed(config.master_seed, i, k)
                           for i in range(len(config.snr_db)) for k in range(config.trials)}
        self.trial_starts = []      # (perf_counter, process_time) at each trial's draw
        self.channels = {}          # cell seed -> (gains, aoas, aods)
        self.measurements = {}      # cell seed -> (sign bits of Re, of Im, rho)
        self.calls = {}             # cell seed -> [solver call captures]
        self.training = {}          # (B_RX, B_TX) -> training block S
        self._seed = None

    def _draw_channel(self, fn):
        def draw_channel(L, M, N, rng, *args, **kwargs):
            seed = rng.bit_generator.seed_seq.entropy
            if seed not in self.cell_seeds:
                return fn(L, M, N, rng, *args, **kwargs)
            stamp = (time.perf_counter(), time.process_time())
            self.trial_starts.append(stamp)
            if len(self.trial_starts) == 2 and self.on_second_trial is not None:
                self.on_second_trial(stamp)
            self._seed = seed
            self.calls[seed] = []
            channel = fn(L, M, N, rng, *args, **kwargs)
            self.channels[seed] = (channel.gains.copy(), channel.aoas.copy(), channel.aods.copy())
            return channel
        return draw_channel

    def _solver(self, fn, fista):
        def solver(ctx, *args, **kwargs):
            entry = {"dims": (ctx.op.B_RX, ctx.op.B_TX), "result": None, "gamma": None}
            self.training.setdefault(entry["dims"], np.array(ctx.op.S))
            if self._seed not in self.measurements:
                y = ctx.y_hat.y_hat
                self.measurements[self._seed] = (y.real < 0, y.imag < 0, float(ctx.rho))
            self.calls[self._seed].append(entry)
            result = fn(ctx, *args, **kwargs)
            if fista:
                estimate = result[0] if isinstance(result, tuple) else result
                entry["gamma"] = float(args[0] if args else kwargs["gamma"])
            else:
                estimate = result.estimate
            support = np.asarray(estimate.support, dtype=int)
            entry["result"] = (support, estimate.x_hat[support].copy())
            return result
        return solver

    @contextmanager
    def installed(self):
        from onebitcs import harness

        patches = _Patches()
        patches.set(harness, "draw_channel", self._draw_channel(harness.draw_channel))
        patches.set(harness, "run_grasp", self._solver(harness.run_grasp, fista=False))
        patches.set(harness, "run_grahtp", self._solver(harness.run_grahtp, fista=False))
        patches.set(harness, "run_fista", self._solver(harness.run_fista, fista=True))
        try:
            yield self
        finally:
            patches.restore()

    def rows(self, records) -> tuple[list, list]:
        """Pair result records with their captures.

        The channel matrix is rebuilt from the captured path parameters by
        the reference steering vectors.  Returns (rows, problems); a record
        without a matching capture is a problem, not a row.
        """
        config = self.config
        algorithms = list(config.algorithms)
        rows, problems = [], []
        for rec in records:
            calls = self.calls.get(rec.seed)
            if calls is None or len(calls) != len(algorithms):
                problems.append(f"no capture for {rec.algorithm} seed {rec.seed}")
                continue
            entry = calls[algorithms.index(rec.algorithm)]
            if entry["result"] is None:
                support, values = np.zeros(0, dtype=int), np.zeros(0, dtype=complex)
            else:
                support, values = entry["result"]
            neg_re, neg_im, rho = self.measurements[rec.seed]
            rows.append(CapturedRow(
                algorithm=rec.algorithm, snr_db=rec.snr_db, trial=rec.trial,
                nmse=rec.nmse, iterations=rec.iterations, dims=entry["dims"],
                H=channel_matrix(*self.channels[rec.seed], config.m, config.n),
                y_hat=np.where(neg_re, -1.0, 1.0) + 1j * np.where(neg_im, -1.0, 1.0),
                rho=rho, support=support, values=values, gamma=entry["gamma"],
            ))
        return rows, problems


class _Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Per-layer call counts and times, split into set-up and row phases."""

    def __init__(self):
        self.phase = "setup"
        self.stats = {}              # (phase, name) -> _Stat
        self.calls = {}              # name -> calls in any phase
        self.counters = {}           # (phase, name) -> number
        self.spans = []              # (name, phase, start, end, parent span index)
        self._stack = [[0.0, -1]]    # per open call: [child time, coarse span index]
        self.t0 = time.perf_counter()

    def count(self, name, value=1):
        key = (self.phase, name)
        self.counters[key] = self.counters.get(key, 0) + value

    def _wrap(self, name, fn, after=None):
        stack, stats, calls, spans = self._stack, self.stats, self.calls, self.spans
        coarse = name in COARSE

        def traced(*args, **kwargs):
            parent = stack[-1][1]
            frame = [0.0, len(spans) if coarse else parent]
            if coarse:
                spans.append(None)
            token = after and after.before(args, kwargs)
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                elapsed = end - start
                stack[-1][0] += elapsed
                calls[name] = calls.get(name, 0) + 1
                stat = stats.get((self.phase, name))
                if stat is None:
                    stat = stats[(self.phase, name)] = _Stat()
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - frame[0]
                if coarse:
                    spans[frame[1]] = (name, self.phase, start - self.t0, end - self.t0, parent)
            if after is not None:
                after.after(token, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        from onebitcs import operator as op_module
        from onebitcs import solvers

        hooks = {
            "run_fista": _FistaHook(self, solvers.run_fista),
            "run_grasp": _PursuitHook(self),
            "run_grahtp": _PursuitHook(self),
            "tune_gamma": _TuneHook(self),
        }
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "onebitcs" or n.startswith("onebitcs.")]
        patches = _Patches()
        for module_name, names in TRACED.items():
            home = sys.modules[module_name]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(name, original, hooks.get(name))
                for module in modules:
                    if module.__dict__.get(name) is original:
                        patches.set(module, name, wrapper)
        cls = op_module.SensingOperator
        for name in TRACED_METHODS:
            patches.set(cls, name, self._wrap(name, cls.__dict__[name]))
        try:
            yield self
        finally:
            patches.restore()

    def total(self, name, phase="rows"):
        stat = self.stats.get((phase, name))
        return stat.total if stat else 0.0

    def n_calls(self, name, phase="rows"):
        stat = self.stats.get((phase, name))
        return stat.calls if stat else 0

    def self_time(self, name, phase="rows"):
        stat = self.stats.get((phase, name))
        return stat.self_time if stat else 0.0

    def sweep_total(self, name):
        return self.total(name, "setup") + self.total(name, "rows")

    def table(self):
        """All aggregates, for the trace file."""
        return [{"phase": phase, "layer": name, "calls": s.calls,
                 "total_s": s.total, "self_s": s.self_time}
                for (phase, name), s in sorted(self.stats.items())]


class _FistaHook:
    """Iterations per FISTA solve: one grad_h call per iteration."""

    def __init__(self, tracer, fn):
        self.tracer = tracer
        self.signature = inspect.signature(fn)

    def before(self, args, kwargs):
        return self.tracer.calls.get("grad_h", 0)

    def after(self, token, args, kwargs, result):
        iters = self.tracer.calls.get("grad_h", 0) - token
        bound = self.signature.bind(*args, **kwargs)
        bound.apply_defaults()
        self.tracer.count("fista.solves")
        self.tracer.count("fista.iters", iters)
        if iters >= bound.arguments["max_iters"]:
            self.tracer.count("fista.cap_hits")


class _PursuitHook:
    """Outer iterations and halting reason from the returned SolverReport."""

    def __init__(self, tracer):
        self.tracer = tracer

    def before(self, args, kwargs):
        return None

    def after(self, token, args, kwargs, report):
        self.tracer.count("pursuit.solves")
        self.tracer.count("pursuit.outer_iters", report.iterations)
        if report.halted_by != "support-fixed":
            self.tracer.count("pursuit.unsettled_halts")


class _TuneHook:
    """FISTA solves run inside gamma tuning."""

    def __init__(self, tracer):
        self.tracer = tracer

    def before(self, args, kwargs):
        return self.tracer.calls.get("run_fista", 0)

    def after(self, token, args, kwargs, result):
        self.tracer.count("tune_gamma.fista_solves", self.tracer.calls.get("run_fista", 0) - token)
