"""Tests for the sweep runner, serialization, config parsing, and CLI."""

import multiprocessing
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import onebitcs
import onebitcs.operator as operator_module
import onebitcs.solvers as solvers_module
from onebitcs import harness
from onebitcs.cli import cli_main
from onebitcs.harness import (
    ALGORITHMS,
    ExperimentConfig,
    TrialRecord,
    child_seed,
    curve_rows,
    emit_csv,
    emit_curve,
    load_config,
    nmse,
    parse_config_text,
    parse_csv,
    reconstruct_channel,
    run_experiment,
    tuning_seed,
)
from onebitcs.model import dft_dictionary, zc_training
from onebitcs.operator import build_operator
from onebitcs.solvers import SolverReport

SHIPPED_CONFIGS = Path(__file__).resolve().parent.parent / "configs"

TINY = ExperimentConfig(
    m=4, n=4, t=6, l=1, b_rx=8, b_tx=8,
    snr_db=(0.0, 10.0, 20.0), trials=2, master_seed=7,
    algorithms=("bmsgrasp", "grasp"),
)


def run_python(*args):
    """Run a fresh interpreter that imports this checkout's onebitcs."""
    src = os.path.dirname(os.path.dirname(onebitcs.__file__))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=300)


class TestNmse:
    def test_trivial_values(self):
        H = np.ones((3, 3), dtype=complex)
        assert nmse(H, H) == 0.0
        assert nmse(np.zeros_like(H), H) == 1.0
        assert abs(nmse(2 * H, H) - 1.0) < 1e-15

    def test_rejects_zero_reference_and_shape_mismatch(self):
        with pytest.raises(ValueError):
            nmse(np.ones((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            nmse(np.ones((2, 3)), np.ones((2, 2)))

    def test_on_grid_reconstruction_is_exact(self):
        tr = zc_training(4, 6)
        a_rx, a_tx = dft_dictionary(4, 8), dft_dictionary(4, 8)
        op = build_operator(tr.S, a_rx, a_tx, "fft")
        x = np.zeros(op.B, dtype=complex)
        x[13] = 2.0 - 0.5j
        H = a_rx @ x.reshape(8, 8, order="F") @ a_tx.conj().T
        assert nmse(reconstruct_channel(op, x), H) < 1e-25

    @pytest.mark.parametrize("nonzeros", [0, 1, 3, 64])
    def test_reconstruction_matches_dense_product(self, nonzeros):
        tr = zc_training(4, 6)
        op = build_operator(tr.S, dft_dictionary(4, 8), dft_dictionary(4, 8), "fft")
        rng = np.random.default_rng(nonzeros)
        x = np.zeros(op.B, dtype=complex)
        idx = rng.choice(op.B, size=nonzeros, replace=False)
        x[idx] = rng.standard_normal(nonzeros) + 1j * rng.standard_normal(nonzeros)
        dense = op.A_RX @ x.reshape(op.B_RX, op.B_TX, order="F") @ op.A_TX.conj().T
        assert np.max(np.abs(reconstruct_channel(op, x) - dense)) <= 1e-12
        with pytest.raises(ValueError):
            reconstruct_channel(op, x[:-1])


class TestSeeding:
    def test_child_seeds_are_distinct(self):
        seeds = {child_seed(7, s, t) for s in range(8) for t in range(64)}
        assert len(seeds) == 8 * 64

    def test_streams_do_not_collide_with_tuning(self):
        sweep = {child_seed(7, s, t) for s in range(4) for t in range(32)}
        tune = {tuning_seed(7, s, t) for s in range(4) for t in range(32)}
        assert not sweep & tune

    def test_deterministic(self):
        assert child_seed(123, 4, 5) == child_seed(123, 4, 5)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(master=st.integers(-2**80, 2**80), snr=st.integers(0, 2**16), k=st.integers(0, 2**16))
    def test_tuning_stream_matches_its_own_derivation(self, master, snr, k):
        # tuning_seed once chained splitmix64 itself over the masked master.
        s = harness._splitmix64((master ^ 0xA5A5A5A5A5A5A5A5) & harness._M64)
        s = harness._splitmix64(s ^ snr)
        assert tuning_seed(master, snr, k) == harness._splitmix64(s ^ k)


class TestRunExperiment:
    def test_record_cardinality_and_order(self):
        records = run_experiment(TINY)
        assert len(records) == 2 * 3 * 2      # algorithms x snrs x trials
        keys = [(r.algorithm, r.snr_db, r.trial) for r in records]
        assert keys == sorted(keys)

    def test_pure_function_of_seed(self):
        a = run_experiment(TINY)
        b = run_experiment(TINY)
        for ra, rb in zip(a, b):
            assert (ra.algorithm, ra.snr_db, ra.trial, ra.seed) == (
                rb.algorithm, rb.snr_db, rb.trial, rb.seed)
            assert ra.nmse == rb.nmse and ra.iterations == rb.iterations

    def test_adding_algorithms_preserves_existing_rows(self):
        solo = run_experiment(replace(TINY, algorithms=("grasp",)))
        both = run_experiment(TINY)
        grasp_rows = [r for r in both if r.algorithm == "grasp"]
        for ra, rb in zip(solo, grasp_rows):
            assert ra.seed == rb.seed and ra.nmse == rb.nmse

    def test_both_operator_modes_give_identical_rows(self):
        config = replace(TINY, algorithms=("bmsgrasp", "fista"), snr_db=(10.0,))
        auto, fft = ([replace(r, runtime_ms=0.0)
                      for r in run_experiment(replace(config, operator_mode=mode))]
                     for mode in ("auto", "fft"))
        assert auto == fft

    def test_each_operator_resolves_its_bands_once(self, monkeypatch):
        # Two BMS pursuits share the 8x8 operator and a third has its own:
        # every row reads its operator's bands, and each operator selects
        # eta and builds its bands once.
        calls = {"select_eta": [], "coherence_bands": []}
        for name, seen in calls.items():
            def counted(op, *args, _real=getattr(operator_module, name), _seen=seen):
                _seen.append(id(op))
                return _real(op, *args)

            monkeypatch.setattr(operator_module, name, counted)
        config = replace(TINY, algorithms=("bmsgrasp", "bmsgrahtp", "bmsgrasp-debias"),
                         b_rx_overrides={"bmsgrasp-debias": 16})
        assert len(run_experiment(config)) == 3 * 3 * 2
        for seen in calls.values():
            assert len(seen) == len(set(seen)) == 2

    def test_workers_match_serial(self):
        serial = run_experiment(TINY)
        parallel = run_experiment(TINY, workers=2)
        for ra, rb in zip(serial, parallel):
            assert ra.nmse == rb.nmse and ra.seed == rb.seed

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_workers_below_one(self, monkeypatch, workers):
        def no_state(*args, **kwargs):
            raise RuntimeError("the sweep started")

        monkeypatch.setattr(harness, "_SweepState", no_state)
        with pytest.raises(ValueError, match="workers must be at least 1"):
            run_experiment(TINY, workers=workers)

    def test_pooled_tuning_matches_serial(self):
        config = replace(TINY, algorithms=("fista",), snr_db=(0.0, 10.0), trials=1)
        serial, pooled = {}, {}
        serial_rows = run_experiment(config, info=serial)
        pooled_rows = run_experiment(config, workers=2, info=pooled)
        assert set(serial["fista_gamma"]) == {0.0, 10.0}
        assert pooled["fista_gamma"] == serial["fista_gamma"]
        assert [r.nmse for r in pooled_rows] == [r.nmse for r in serial_rows]

    @pytest.mark.skipif(multiprocessing.get_all_start_methods()[0] != "fork",
                        reason="scripts need a __main__ guard where workers do not fork")
    def test_pooled_sweep_runs_from_an_unguarded_script(self, tmp_path):
        config = replace(TINY, algorithms=("fista",), snr_db=(0.0, 10.0), trials=1)
        script = tmp_path / "unguarded.py"
        script.write_text(
            "from onebitcs.harness import ExperimentConfig, run_experiment\n"
            f"config = {config!r}\n"
            "for r in run_experiment(config, workers=2):\n"
            "    print(r.algorithm, r.snr_db, r.trial, r.seed, repr(r.nmse), r.iterations)\n"
        )
        proc = run_python(str(script))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            f"{r.algorithm} {r.snr_db} {r.trial} {r.seed} {r.nmse!r} {r.iterations}"
            for r in run_experiment(config)
        ]

    def test_serial_sweep_does_not_load_multiprocessing(self):
        # Loading it costs peak memory that no serial run needs.
        config = replace(TINY, algorithms=("fista", "bmsgrasp"), snr_db=(10.0,), trials=1)
        proc = run_python("-c", (
            "import sys\n"
            "from onebitcs.harness import ExperimentConfig, run_experiment\n"
            f"assert len(run_experiment({config!r})) == 2\n"
            "print('multiprocessing' in sys.modules)\n"
        ))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_nmse_finite_and_nonnegative(self):
        for r in run_experiment(TINY):
            assert np.isfinite(r.nmse) and r.nmse >= 0

    def test_info_collects_training_metadata(self):
        info = {}
        run_experiment(replace(TINY, trials=1, snr_db=(0.0,)), info=info)
        assert info["zc_root"] >= 2
        assert len(info["zc_shifts"]) == TINY.n

    def test_per_algorithm_dictionary_override(self):
        config = replace(
            TINY,
            algorithms=("bmsgrasp", "grasp"),
            b_rx_overrides={"grasp": 4},
            b_tx_overrides={"grasp": 4},
            trials=1,
            snr_db=(10.0,),
        )
        records = run_experiment(config)
        assert len(records) == 2

    def test_solvers_are_looked_up_when_called(self, monkeypatch):
        # Wrappers installed on the harness module after import must see
        # every solve, so the table may not hold the solver functions.
        calls = []

        def spy(name, fn):
            def wrapped(ctx, *args, **kwargs):
                calls.append(name)
                return fn(ctx, *args, **kwargs)
            return wrapped

        for name in ("run_grasp", "run_fista"):
            monkeypatch.setattr(harness, name, spy(name, getattr(harness, name)))
        config = replace(TINY, algorithms=("bmsgrasp", "grasp", "fista"), trials=1,
                         snr_db=(10.0,))
        run_experiment(config)
        assert calls == ["run_grasp", "run_grasp", "run_fista"]

    def test_fista_rows_carry_the_reported_iterations(self, monkeypatch):
        reports = []
        run_fista = harness.run_fista

        def recorded(ctx, gamma):
            reports.append(run_fista(ctx, gamma))
            return reports[-1]

        monkeypatch.setattr(harness, "run_fista", recorded)
        records = run_experiment(replace(TINY, algorithms=("fista",)))
        # One algorithm, run serially: the rows come in the order of the solves.
        # Every solve here ends by its certified Newton finish, whose steps
        # the iterations count.
        assert [r.iterations for r in records] == [rep.iterations for rep in reports]
        assert all(rep.halted_by == "newton" for rep in reports)

    def test_grahtp_row_is_salvaged_when_no_gradient_step_passes(self, monkeypatch, capsys):
        # Every step-size trial fails, so the first GraHTP step search raises
        # ConvergenceError; the pursuit adds the zero start, which the row keeps.
        monkeypatch.setattr(solvers_module, "loglik", lambda ctx, u: -np.inf)
        records = run_experiment(replace(TINY, algorithms=("grahtp", "grasp")))
        grahtp = [r for r in records if r.algorithm == "grahtp"]
        assert grahtp and all(r.iterations == -1 and r.nmse == 1.0 for r in grahtp)
        assert all(r.iterations > 0 for r in records if r.algorithm == "grasp")
        assert "passes the Armijo test" in capsys.readouterr().err

    def test_salvaged_pursuit_row_keeps_at_most_l_entries(self, monkeypatch, capsys):
        # A warm-started restricted solve gets one Newton iteration and
        # fails, so every GraSP solve fails in its second merged-support
        # solve, and the row keeps the first iterate: L entries, not the
        # merged support's 2L or more.
        real_solve = solvers_module.restricted_maximize
        cap = solvers_module.NEWTON_MAX_ITERS
        estimates = []
        real_reconstruct = harness.reconstruct_channel

        def solve(ctx, support, x0=None, **kwargs):
            warm = x0 is not None and np.any(x0)
            monkeypatch.setattr(solvers_module, "NEWTON_MAX_ITERS", 1 if warm else cap)
            return real_solve(ctx, support, x0=x0, **kwargs)

        def reconstruct(op, x_hat):
            estimates.append(x_hat)
            return real_reconstruct(op, x_hat)

        monkeypatch.setattr(solvers_module, "restricted_maximize", solve)
        monkeypatch.setattr(harness, "reconstruct_channel", reconstruct)
        config = replace(TINY, algorithms=("grasp",), l=2)
        records = run_experiment(config)
        assert all(r.iterations == -1 for r in records)
        assert len(estimates) == len(records)
        assert all(0 < np.count_nonzero(x) <= config.l for x in estimates)
        assert "restricted maximize did not reach tol" in capsys.readouterr().err

    def test_every_row_is_read_from_a_solver_report(self, monkeypatch):
        assert ALGORITHMS == ("bmsgrasp", "bmsgrasp-debias", "bmsgrahtp", "grasp", "grahtp",
                              "fista", "oracle")
        reports, estimates = [], []
        real_reconstruct = harness.reconstruct_channel

        def recorded(fn):
            def solver(*args, **kwargs):
                reports.append(fn(*args, **kwargs))
                return reports[-1]
            return solver

        def reconstruct(op, x_hat):
            estimates.append(x_hat)
            return real_reconstruct(op, x_hat)

        for name in ("run_grasp", "run_grahtp", "run_fista", "brute_force_map"):
            monkeypatch.setattr(harness, name, recorded(getattr(harness, name)))
        monkeypatch.setattr(harness, "reconstruct_channel", reconstruct)
        records = run_experiment(replace(TINY, algorithms=ALGORITHMS, snr_db=(10.0,), trials=1))
        # One trial, run serially: the solves come in the order of ALGORITHMS.
        assert len(reports) == len(estimates) == len(records) == len(ALGORITHMS)
        iterations = {r.algorithm: r.iterations for r in records}
        for algo, report, x_hat in zip(ALGORITHMS, reports, estimates):
            assert isinstance(report, SolverReport), algo
            assert x_hat is report.estimate.x_hat, algo
            assert iterations[algo] == report.iterations > 0, algo


@pytest.fixture
def blas_threads():
    """Two BLAS threads for the test; the count in force before is restored after."""
    previous = harness._blas_threads(2)
    if previous is None:
        pytest.skip("numpy's BLAS exposes no thread control")
    yield
    harness._blas_threads(previous)


class TestBlasThreads:
    def spied_grasp(self, monkeypatch, seen, fail=False):
        run_grasp = harness.run_grasp

        def spy(*args, **kwargs):
            seen.append(harness._blas_threads())
            if fail:
                raise RuntimeError("solver failed")
            return run_grasp(*args, **kwargs)

        monkeypatch.setattr(harness, "run_grasp", spy)

    def test_serial_sweep_runs_on_one_thread_and_restores_the_count(
            self, monkeypatch, blas_threads):
        seen = []
        self.spied_grasp(monkeypatch, seen)
        info = {}
        run_experiment(TINY, info=info)
        assert seen and set(seen) == {1}
        assert info["blas_threads"] == 1
        assert harness._blas_threads() == 2

    def test_count_is_restored_when_the_sweep_raises(self, monkeypatch, blas_threads):
        seen = []
        self.spied_grasp(monkeypatch, seen, fail=True)
        with pytest.raises(RuntimeError, match="solver failed"):
            run_experiment(TINY)
        assert seen == [1]
        assert harness._blas_threads() == 2

    def test_worker_initializer_leaves_one_thread(self, monkeypatch, blas_threads):
        monkeypatch.setattr(harness, "_WORKER_STATE", None)
        harness._init_worker(replace(TINY, trials=1))
        assert harness._blas_threads() == 1

    def test_sweep_without_thread_control_gives_the_same_rows(self, monkeypatch):
        pinned = run_experiment(TINY)
        monkeypatch.setattr(harness, "_BLAS_THREAD_SYMBOLS", ("no_such_get", "no_such_set"))
        assert harness._blas_threads(1) is None
        info = {}
        unpinned = run_experiment(TINY, info=info)
        assert info["blas_threads"] == "unpinned"
        assert [replace(r, runtime_ms=0.0) for r in unpinned] == [
            replace(r, runtime_ms=0.0) for r in pinned]


def without_runtime(records):
    return [replace(r, runtime_ms=0.0) for r in records]


class TestKeepHeap:
    def test_sweep_records_the_heap_setting(self, monkeypatch):
        info = {}
        run_experiment(TINY, info=info)
        assert info["heap"] == ("unpinned" if harness._keep_heap() is None else "kept")
        monkeypatch.setattr(harness, "_keep_heap", lambda: None)
        run_experiment(TINY, info=info)
        assert info["heap"] == "unpinned"

    def test_libc_without_mallopt_changes_nothing(self, monkeypatch):
        monkeypatch.setattr(harness.ctypes, "CDLL", lambda name: object())
        assert harness._keep_heap() is None

    def test_serial_and_pooled_rows_agree_with_the_heap_kept(self):
        serial = run_experiment(TINY, workers=1)
        pooled = run_experiment(TINY, workers=2)
        assert without_runtime(pooled) == without_runtime(serial)

    def test_worker_initializer_keeps_the_heap(self, monkeypatch):
        kept = []
        monkeypatch.setattr(harness, "_keep_heap", lambda: kept.append(None))
        monkeypatch.setattr(harness, "_WORKER_STATE", None)
        harness._init_worker(replace(TINY, trials=1))
        assert kept == [None]


class TestConfigValidation:
    def test_rejects_undersized_dictionary(self):
        with pytest.raises(ValueError):
            replace(TINY, b_rx=2)

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError):
            replace(TINY, algorithms=("bmsgrasp", "mystery"))

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            replace(TINY, trials=0)

    def test_rejects_bad_eta(self):
        with pytest.raises(ValueError):
            replace(TINY, eta=1.5)
        with pytest.raises(ValueError):
            replace(TINY, eta="blah")

    def test_rejects_repeated_snr_points_and_algorithms(self):
        # Each would write two rows per (algorithm, snr_db, trial) key.
        with pytest.raises(ValueError, match="snr_db"):
            replace(TINY, snr_db=(0.0, 0.0))
        with pytest.raises(ValueError, match="snr_db"):
            replace(TINY, snr_db=(0.0, 10.0, -0.0))
        with pytest.raises(ValueError, match="algorithms"):
            replace(TINY, algorithms=("grasp", "bmsgrasp", "grasp"))

    def test_rejects_dense_operator_mode(self):
        # The dense matrix is only the tests' reference, formed from the
        # factors in tests/oracles.py; sweeps run the factored operator.
        with pytest.raises(ValueError, match="operator_mode"):
            replace(TINY, operator_mode="dense")

    @pytest.mark.parametrize("name, value", [
        ("max_outer_iters", 0), ("inner_tol", 0.0), ("inner_tol", -1.0)])
    def test_rejects_bad_solver_field(self, name, value):
        with pytest.raises(ValueError):
            replace(TINY, **{name: value})

    def test_solver_config_carries_the_sweep_settings(self):
        config = replace(TINY, l=2, eta=0.4, max_outer_iters=7, inner_tol=1e-6)
        solver = config.solver_config()
        assert (solver.sparsity, solver.eta, solver.max_outer_iters,
                solver.inner_tol) == (2, 0.4, 7, 1e-6)
        state = harness._SweepState(config)
        assert state.solver_config == solver

    def test_rejects_oracle_beyond_enumeration_budget(self):
        with pytest.raises(ValueError, match="oracle"):
            replace(TINY, algorithms=("oracle",), l=4)    # C(64, 4) > 1e5

    def test_oracle_runs_at_tiny_scale(self):
        config = ExperimentConfig(
            m=4, n=2, t=4, l=1, b_rx=4, b_tx=2,
            snr_db=(10.0,), trials=2, master_seed=3,
            algorithms=("oracle", "bmsgrasp"),
        )
        records = run_experiment(config)
        assert len(records) == 4
        by_algo = {}
        for r in records:
            by_algo.setdefault(r.algorithm, []).append(r.nmse)
        assert all(np.isfinite(v) for v in by_algo["oracle"])


class TestSerialization:
    def make_records(self):
        return [
            TrialRecord("grasp", 0.0, t, 1000 + t, nmse=0.01 * (t + 1),
                        iterations=3, runtime_ms=1.25, support_hit=None)
            for t in range(4)
        ] + [
            TrialRecord("fista", 10.0, t, 2000 + t, nmse=0.5,
                        iterations=100, runtime_ms=7.5, support_hit=(t % 2 == 0))
            for t in range(4)
        ]

    def test_csv_line_count(self, tmp_path):
        path = tmp_path / "r.csv"
        emit_csv(self.make_records(), path)
        assert len(path.read_text().splitlines()) == 9

    def test_round_trip(self, tmp_path):
        path = tmp_path / "r.csv"
        records = self.make_records()
        emit_csv(records, path)
        assert parse_csv(path) == records

    def test_curve_db_values(self, tmp_path):
        records = [
            TrialRecord("grasp", 0.0, t, t, nmse=0.01, iterations=1, runtime_ms=0.0)
            for t in range(5)
        ]
        path = tmp_path / "c.csv"
        emit_curve(records, path)
        line = path.read_text().splitlines()[1].split(",")
        assert line[0] == "grasp"
        assert abs(float(line[3]) + 20.0) < 1e-12    # mean
        assert abs(float(line[4]) + 20.0) < 1e-12    # median

    def test_curve_matches_independent_recompute(self, tmp_path):
        records = run_experiment(TINY)
        csv_path, curve_path = tmp_path / "r.csv", tmp_path / "c.csv"
        emit_csv(records, csv_path)
        emit_curve(records, curve_path)
        reparsed = parse_csv(csv_path)
        lines = curve_path.read_text().splitlines()[1:]
        for line, row in zip(lines, curve_rows(reparsed)):
            algo, snr, count, mean_db, med_db, p10_db, p90_db = line.split(",")
            assert algo == row[0]
            assert float(snr) == row[1] and int(count) == row[2]
            assert float(mean_db) == row[3]
            assert float(med_db) == row[4]
            assert float(p10_db) == row[5]
            assert float(p90_db) == row[6]

    def test_emit_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv([], tmp_path / "no.csv")


CONFIG_TEXT = """\
# tiny sweep
M = 4
N = 4
T = 6
L = 1
B_rx = 8
B_tx = 8
B_rx.grasp = 4          # plain solver runs critically sampled
B_tx.grasp = 4
snr_db = 0, 10
trials = 2
seed = 7
algorithms = bmsgrasp, grasp
eta = auto
operator_mode = auto
max_outer_iters = 50
inner_tol = 1e-8
"""


class TestConfigParsing:
    def test_full_grammar(self):
        config = parse_config_text(CONFIG_TEXT)
        assert (config.m, config.n, config.t, config.l) == (4, 4, 6, 1)
        assert config.snr_db == (0.0, 10.0)
        assert config.algorithms == ("bmsgrasp", "grasp")
        assert config.dims_for("grasp") == (4, 4)
        assert config.dims_for("bmsgrasp") == (8, 8)
        assert config.master_seed == 7
        assert config.eta == "auto"

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config_text(CONFIG_TEXT + "\nmystery = 3\n")

    def test_debias_is_not_a_config_key(self):
        # The algorithm name alone picks the estimator: bmsgrasp-debias is
        # the one way a sweep debiases, and no key changes what a name means.
        with pytest.raises(ValueError, match="unknown config key 'debias'"):
            parse_config_text(CONFIG_TEXT + "debias = true\n")

    @pytest.mark.parametrize("key", ["M", "B_rx.grasp"])
    def test_repeated_key_rejected(self, key):
        # Otherwise the later line would silently win over the earlier one.
        text = CONFIG_TEXT + f"{key} = 8\n"
        first = 1 + next(i for i, line in enumerate(text.splitlines())
                         if line.startswith(f"{key} "))
        last = len(text.splitlines())
        with pytest.raises(ValueError,
                           match=f"line {last}: key '{key}' is already set on line {first}"):
            parse_config_text(text)

    def test_missing_required_key_rejected(self):
        with pytest.raises(ValueError, match="missing required"):
            parse_config_text("M = 4\nN = 4\n")

    def test_dictionary_sizes_default_to_array_sizes(self):
        config = parse_config_text(
            "M = 4\nN = 4\nT = 6\nL = 1\nsnr_db = 0\ntrials = 1\nalgorithms = grasp\n"
        )
        assert (config.b_rx, config.b_tx) == (4, 4)

    def test_explicit_eta_parsed_as_float(self):
        config = parse_config_text(CONFIG_TEXT.replace("eta = auto", "eta = 0.75"))
        assert config.eta == 0.75

    def test_load_config(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(CONFIG_TEXT)
        assert load_config(path) == parse_config_text(CONFIG_TEXT)

    @pytest.mark.parametrize("path", sorted(SHIPPED_CONFIGS.glob("*.cfg")), ids=lambda p: p.name)
    def test_shipped_config_loads(self, path):
        config = load_config(path)
        assert config.algorithms and set(config.algorithms) <= set(ALGORITHMS)


class TestCli:
    def write_config(self, tmp_path):
        path = tmp_path / "tiny.cfg"
        path.write_text(CONFIG_TEXT)
        return str(path)

    def test_run_produces_outputs(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out = str(tmp_path / "results")
        code = cli_main(["run", "--config", cfg, "--out", out, "--trials", "1"])
        assert code == 0
        assert os.path.exists(os.path.join(out, "results.csv"))
        assert os.path.exists(os.path.join(out, "curve.csv"))
        meta = open(os.path.join(out, "metadata.txt")).read()
        assert "zc_root" in meta and "# config (verbatim)" in meta

    def test_metadata_records_blas_threads(self, tmp_path, monkeypatch):
        cfg = self.write_config(tmp_path)

        def metadata(out):
            assert cli_main(["run", "--config", cfg, "--out", str(out), "--trials", "1"]) == 0
            return (out / "metadata.txt").read_text().splitlines()

        want = "unpinned" if harness._blas_threads() is None else "1"
        assert f"blas_threads = {want}" in metadata(tmp_path / "default")
        monkeypatch.setattr(harness, "_BLAS_THREAD_SYMBOLS", ("no_such_get", "no_such_set"))
        assert "blas_threads = unpinned" in metadata(tmp_path / "unresolved")

    def test_metadata_records_the_heap_setting(self, tmp_path, monkeypatch):
        cfg = self.write_config(tmp_path)

        def metadata(out):
            assert cli_main(["run", "--config", cfg, "--out", str(out), "--trials", "1"]) == 0
            return (out / "metadata.txt").read_text().splitlines()

        want = "unpinned" if harness._keep_heap() is None else "kept"
        assert f"heap = {want}" in metadata(tmp_path / "default")
        monkeypatch.setattr(harness, "_keep_heap", lambda: None)
        assert "heap = unpinned" in metadata(tmp_path / "unkept")

    def test_zero_trials_is_usage_error(self, tmp_path):
        cfg = self.write_config(tmp_path)
        code = cli_main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                         "--trials", "0"])
        assert code == 2

    @pytest.mark.parametrize("flag, value", [("--snr", "0,0"), ("--algos", "grasp,grasp")])
    def test_repeated_override_is_usage_error(self, tmp_path, flag, value):
        out = tmp_path / "o"
        code = cli_main(["run", "--config", self.write_config(tmp_path), "--out", str(out),
                         flag, value])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("snr", ["nan", "inf"])
    def test_nan_or_inf_snr_fails_before_output(self, tmp_path, capsys, snr):
        # -inf dB is a valid point (no signal); NaN and +inf are not.
        out = tmp_path / "o"
        code = cli_main(["run", "--config", self.write_config(tmp_path), "--out", str(out),
                         "--snr", snr])
        assert code == 2
        assert "finite or -inf" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_nonpositive_workers_is_usage_error(self, tmp_path, workers):
        out = tmp_path / "o"
        code = cli_main(["run", "--config", self.write_config(tmp_path), "--out", str(out),
                         "--workers", workers])
        assert code == 2
        assert not out.exists()

    def test_bad_solver_field_fails_before_output_and_tuning(self, tmp_path, monkeypatch):
        def no_tuning(*args, **kwargs):
            raise RuntimeError("gamma tuning ran")

        monkeypatch.setattr(harness, "tune_gamma", no_tuning)
        path = tmp_path / "bad.cfg"
        path.write_text(CONFIG_TEXT.replace("max_outer_iters = 50", "max_outer_iters = 0")
                        .replace("bmsgrasp, grasp", "bmsgrasp, grasp, fista"))
        out = tmp_path / "o"
        assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_tuning_error_fails_before_any_trial(self, tmp_path, monkeypatch, capsys, workers):
        # At -inf dB the signs carry no signal, so no gamma gives a nonzero
        # FISTA estimate and tuning that point raises TuningError.
        marker = tmp_path / "trial-ran"
        real_run_trial = harness._SweepState.run_trial

        def marked_run_trial(self, *args):
            marker.touch()
            return real_run_trial(self, *args)

        monkeypatch.setattr(harness._SweepState, "run_trial", marked_run_trial)
        out = tmp_path / "o"
        code = cli_main(["run", "--config", self.write_config(tmp_path), "--out", str(out),
                         "--algos", "fista", "--snr", "10,-inf", "--workers", workers])
        assert code == 1
        assert "TuningError" in capsys.readouterr().err
        assert not (out / "results.csv").exists()
        assert not marker.exists()

    def test_malformed_config_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("M = 4\nmystery = 1\n")
        code = cli_main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_debias_key_fails_before_output(self, tmp_path, capsys):
        path = tmp_path / "debias.cfg"
        path.write_text(CONFIG_TEXT + "debias = true\n")
        out = tmp_path / "o"
        assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert "unknown config key 'debias'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        CONFIG_TEXT + "M = 8\n",
        CONFIG_TEXT.replace("operator_mode = auto", "operator_mode = dense"),
        CONFIG_TEXT.replace("inner_tol = 1e-8", "inner_tol = nan"),
        CONFIG_TEXT.replace("inner_tol = 1e-8", "inner_tol = inf"),
    ], ids=["repeated-key", "dense-operator-mode", "nan-inner-tol", "inf-inner-tol"])
    def test_rejected_config_fails_before_output(self, tmp_path, text):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        out = tmp_path / "o"
        assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()

    def test_missing_subcommand_is_usage_error(self):
        assert cli_main([]) == 2

    def test_gram_reports_eta(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        assert cli_main(["gram", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "eta:" in out and "band sizes:" in out

    @pytest.mark.parametrize("path", sorted(SHIPPED_CONFIGS.glob("*.cfg")), ids=lambda p: p.name)
    def test_gram_column_norms_are_the_kron_extremes(self, path, capsys):
        assert cli_main(["gram", "--config", str(path)]) == 0
        lines = [line.strip() for line in capsys.readouterr().out.splitlines()
                 if "column norms:" in line]
        ops = harness.sweep_operators(load_config(path))[1].values()
        want = []
        for op in ops:
            norms = np.kron(op.g_norms, op.rx_norms)
            # Products of nonnegative factors: the extremes agree bit for bit.
            assert norms.min() == op.g_norms.min() * op.rx_norms.min()
            assert norms.max() == op.g_norms.max() * op.rx_norms.max()
            want.append(f"column norms: min={norms.min():.6g} max={norms.max():.6g}")
        assert lines == want

    def test_gram_reports_configured_eta(self, tmp_path, capsys):
        path = tmp_path / "eta.cfg"
        path.write_text(CONFIG_TEXT.replace("eta = auto", "eta = 0.3"))
        assert cli_main(["gram", "--config", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        etas = [line.split()[1] for line in lines if line.strip().startswith("eta:")]
        assert etas == ["0.3", "0.3"]      # one per dictionary size pair

    def test_selftest_passes(self, capsys):
        assert cli_main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and "PASS" in out

    def test_selftest_fails_under_optimize(self):
        # python -O strips assert statements; a failing check must still fail.
        code = (
            "import sys; import onebitcs.selftest as st; "
            "st.sign_terms = lambda v: (0.0, 0.0 * v); "
            "st.CHECKS[:] = [c for c in st.CHECKS if c[0] == 'stable special functions']; "
            "sys.exit(st.run_selftest())"
        )
        proc = run_python("-O", "-c", code)
        assert proc.returncode == 1
        assert proc.stdout.startswith("FAIL stable special functions")
