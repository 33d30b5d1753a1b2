"""Gradient-pursuit channel estimation from one-bit quantized measurements.

Public surface: measurement synthesis (:mod:`onebitcs.model`), the
Kronecker-structured sensing operator and its coherence bands
(:mod:`onebitcs.operator`), the penalized sign likelihood
(:mod:`onebitcs.objective`), sparse solvers (:mod:`onebitcs.solvers`), and
the Monte-Carlo harness (:mod:`onebitcs.harness`).
"""

from .errors import (
    CapacityError,
    ConvergenceError,
    DegenerateOperatorError,
    TuningError,
)
from .harness import (
    ALGORITHMS,
    ExperimentConfig,
    TrialRecord,
    emit_csv,
    emit_curve,
    load_config,
    nmse,
    parse_config_text,
    parse_csv,
    reconstruct_channel,
    run_experiment,
)
from .model import (
    ChannelRealization,
    QuantizedMeasurement,
    TrainingSequence,
    dft_dictionary,
    draw_channel,
    quantize,
    steering_vector,
    synthesize_measurement,
    zc_training,
)
from .objective import (
    ObjectiveContext,
    f_loglik,
    g_logprior,
    grad_h,
    h_objective,
    sign_terms,
)
from .operator import (
    CoherenceStructure,
    EtaSelection,
    SensingOperator,
    build_operator,
    coherence_bands,
    select_eta,
)
from .solvers import (
    SolverConfig,
    SolverReport,
    SparseEstimate,
    bms_threshold,
    brute_force_map,
    hard_threshold,
    restricted_maximize,
    run_fista,
    run_grahtp,
    run_grasp,
    tune_gamma,
)

__version__ = "0.1.0"
