"""Genetic improvement of compiler optimization pass sequences.

Evolves insertion/deletion/replacement patches over a baseline pass pipeline
and scores candidates by compiling and timing a target program (or through a
deterministic simulated landscape for toolchain-free experiments).
"""

from .catalog import (
    PassCatalog,
    PassSequence,
    builtin_baseline,
    builtin_catalog,
    load_catalog,
    load_sequence,
    search_space_order,
    serialize_catalog,
    serialize_sequence,
)
from .errors import ExecutionError, PassEvoError, ValidationError
from .evolution import GAConfig, GenerationRecord, evolve
from .config import ExperimentConfig
from .experiment import TrialResult, measure_baseline, run_trials
from .fitness import (
    PENALTY,
    BackendConfig,
    EvaluationCache,
    EvaluationRecord,
    EvaluationStatus,
    SimModel,
    evaluate,
    sequence_digest,
    simulated_fitnesses,
    time_execution,
)
from .patches import (
    Individual,
    Patch,
    PatchType,
    apply_individual,
    apply_patch,
    parse_individual,
    serialize_individual,
)
from .stats import SummaryStats, percent_improvement, student_t_sf, summarize

__version__ = "0.1.0"
