"""Static rules for the library source, and one for the tests' oracles."""

import ast
import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import onebitcs
from onebitcs import harness, objective, solvers

SOURCES = sorted(Path(onebitcs.__file__).parent.glob("*.py"))

# The solvers' public parameters and SolverConfig's fields.  ROADMAP counts
# the settable solver values among them (11): SolverConfig's five fields,
# restricted_maximize's x0, inner_tol, keep (set only by debiased GraSP) and
# start (the likelihood terms at x0, which the pursuit steps hand on),
# run_fista's max_iters, and tune_gamma's L.  A new knob fails here until
# both are edited.
SOLVER_PARAMETERS = {
    "run_grasp": ("ctx", "config", "use_bms"),
    "run_grahtp": ("ctx", "config", "use_bms"),
    "run_fista": ("ctx", "gamma", "max_iters"),
    "restricted_maximize": ("ctx", "support", "x0", "inner_tol", "keep", "start"),
    "tune_gamma": ("ctxs", "L"),
    "brute_force_map": ("ctx", "L"),
}
SOLVER_CONFIG_FIELDS = ("sparsity", "eta", "max_outer_iters", "inner_tol", "debias")
# The solvers' module constants: values that no caller sets.  FISTA's Newton
# finish added FINISH_STABLE_ITERS, FINISH_MAX_SUPPORT and FINISH_TOL.  A
# new constant, or one turned into a knob, fails here until this is edited.
SOLVER_CONSTANTS = {
    "FISTA_SUPPORT_EPS": 1e-8, "FISTA_TOL": 1e-6, "FINISH_STABLE_ITERS": 5,
    "FINISH_MAX_SUPPORT": 32, "FINISH_TOL": 1e-8, "ARMIJO_SHRINK": 0.5, "ARMIJO_SLOPE": 0.1,
    "ARMIJO_MAX_STEPS": 50, "NEWTON_MAX_ITERS": 100, "TUNE_MAX_BISECT": 60,
    "ORACLE_BUDGET": 10**5, "ORACLE_TIE_TOL": 1e-12,
}

# A sweep's knobs: ExperimentConfig's fields (16, as ROADMAP counts them) and
# the config keys that set one scalar field (11 of ROADMAP's 16 keys).  A new
# knob fails here until both are edited.
EXPERIMENT_CONFIG_FIELDS = (
    "m", "n", "t", "l", "b_rx", "b_tx", "snr_db", "trials", "master_seed", "algorithms",
    "eta", "operator_mode", "max_outer_iters", "inner_tol", "b_rx_overrides",
    "b_tx_overrides",
)
CONFIG_SCALAR_KEYS = ("M", "N", "T", "L", "B_rx", "B_tx", "trials", "seed", "operator_mode",
                      "max_outer_iters", "inner_tol")

# The names the package exports (47) and a SensingOperator's public members:
# one entry per quantity, so a second public way in fails here until the pin
# is edited.
PACKAGE_EXPORTS = (
    "ALGORITHMS", "CapacityError", "ChannelRealization", "CoherenceStructure",
    "ConvergenceError", "DegenerateOperatorError", "EtaSelection", "ExperimentConfig",
    "ObjectiveContext", "QuantizedMeasurement", "SensingOperator", "SolverConfig",
    "SolverReport", "SparseEstimate", "TrainingSequence", "TrialRecord", "TuningError",
    "bms_threshold", "brute_force_map", "build_operator", "coherence_bands",
    "dft_dictionary", "draw_channel", "emit_csv", "emit_curve", "f_loglik", "g_logprior",
    "grad_h", "h_objective", "hard_threshold", "load_config", "nmse", "parse_config_text",
    "parse_csv", "quantize", "reconstruct_channel", "restricted_maximize",
    "run_experiment", "run_fista", "run_grahtp", "run_grasp", "select_eta", "sign_terms",
    "steering_vector", "synthesize_measurement", "tune_gamma", "zc_training",
)
# The fixed data of one problem, with one sign array, laid out as the float
# view of a complex image.
OBJECTIVE_CONTEXT_FIELDS = ("op", "y_hat", "rho", "interleaved_signs")
SENSING_OPERATOR_MEMBERS = (
    "A_RX", "A_TX", "B", "B_RX", "B_TX", "G", "M", "N", "S", "T", "apply", "apply_adjoint",
    "apply_gram", "bands_at", "columns", "g_norms", "pair_products",
    "restricted", "rx_norms", "spectral_norm_estimate",
)


def test_library_has_no_assert():
    # python -O strips assert statements, so library checks must raise.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found


def private_imports(path):
    """Names starting with an underscore that path imports from the package."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("onebitcs")):
            names = (node.module or "").split(".") + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [part for alias in node.names if alias.name.startswith("onebitcs")
                     for part in alias.name.split(".")]
        else:
            continue
        found += [f"{path.name}:{node.lineno} {name}" for name in names if name.startswith("_")]
    return found


def test_front_ends_import_no_private_name():
    # Every module, the command line and the self-test among them, uses the
    # others as any caller would: a private name stays in its own module.
    assert {"cli.py", "selftest.py", "solvers.py"} <= {path.name for path in SOURCES}
    assert [found for path in SOURCES for found in private_imports(path)] == []


def test_solver_surface_is_pinned():
    got = {name: tuple(inspect.signature(getattr(solvers, name)).parameters)
           for name in SOLVER_PARAMETERS}
    assert got == SOLVER_PARAMETERS
    fields = tuple(field.name for field in dataclasses.fields(solvers.SolverConfig))
    assert fields == SOLVER_CONFIG_FIELDS
    constants = {name: value for name, value in vars(solvers).items()
                 if name.isupper() and not name.startswith("_")}
    assert constants == SOLVER_CONSTANTS


def test_sweep_surface_is_pinned():
    fields = tuple(field.name for field in dataclasses.fields(harness.ExperimentConfig))
    assert fields == EXPERIMENT_CONFIG_FIELDS
    assert tuple(harness._CONFIG_SCALARS) == CONFIG_SCALAR_KEYS


def test_public_surface_is_pinned():
    exported = sorted(name for name, value in vars(onebitcs).items()
                      if not name.startswith("_") and not inspect.ismodule(value))
    assert tuple(exported) == PACKAGE_EXPORTS
    S = onebitcs.zc_training(2, 2).S
    op = onebitcs.build_operator(S, onebitcs.dft_dictionary(2, 2), onebitcs.dft_dictionary(2, 2))
    members = sorted(name for name in dir(op) if not name.startswith("_"))
    assert tuple(members) == SENSING_OPERATOR_MEMBERS
    assert tuple(inspect.signature(onebitcs.SensingOperator).parameters) == ("S", "A_RX", "A_TX")


def named(path):
    """Every name path's code uses or defines: variables, attributes, imported
    names and the names of functions and classes."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
    return found


def test_the_likelihood_has_one_layout():
    # The library lays the likelihood out as u.view(float) only and applies
    # A only through its factors: no module converts to or from the real
    # form or keeps the dense matrix, and the context keeps one sign array.
    # tests/oracles.py forms both where they are checked.
    assert len(SOURCES) > 2
    banned = ("real_form", "complex_form", "dense_A", "DENSE_CACHE_LIMIT")
    assert [(path.name, name) for path in SOURCES for name in banned
            if name in named(path)] == []
    fields = tuple(field.name for field in dataclasses.fields(objective.ObjectiveContext))
    assert fields == OBJECTIVE_CONTEXT_FIELDS


def test_a_sweep_leaves_scipy_linalg_unimported():
    # scipy.linalg brings its own OpenBLAS: importing it adds about 5.3 MB to
    # a sweep process's peak memory, more than a LAPACK call could save.
    code = (
        "import sys\n"
        "import onebitcs\n"
        "config = onebitcs.ExperimentConfig(m=4, n=4, t=6, l=2, b_rx=8, b_tx=8, snr_db=(10.0,),\n"
        "                                   trials=1, master_seed=3, algorithms=onebitcs.ALGORITHMS)\n"
        "assert len(onebitcs.run_experiment(config, workers=1)) == len(onebitcs.ALGORITHMS)\n"
        "print(sorted(name for name in sys.modules if name.startswith('scipy.linalg')))\n"
    )
    src = os.path.dirname(os.path.dirname(onebitcs.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_oracles_live_only_in_the_oracles_module():
    # A replaced implementation stays in tests/ as an oracle once, in
    # tests/oracles.py with a note of what it stood for; tests import it.
    tests = sorted(Path(__file__).parent.glob("test_*.py"))
    found = [f"{path.name}:{node.lineno} {node.name}" for path in tests
             for node in ast.parse(path.read_text(), filename=str(path)).body
             if isinstance(node, ast.FunctionDef) and node.name.startswith(("oracle", "_oracle"))
             or isinstance(node, ast.ClassDef) and node.name.startswith("Oracle")]
    assert len(tests) > 10 and found == [], found
