"""Collatz step maps, fixed-point classification, and exhaustive class censuses.

The base map sends odd n to 3n+1 and even n to n/2; its accelerated variant
sends odd n to (3n+1)/2. Their triple and double compositions have genuine
fixed points (1, 2, 4 and 1, 2 respectively), which partition the positive
integers into classes. This package classifies numbers by those fixed
points, counts the classes exhaustively over [1, S] in one ascending pass
over ordered chunks, and tracks how the class fractions evolve as S grows.
"""

from .census import (
    CHECKPOINT_VERSION,
    CensusAbortError,
    CensusConfig,
    CensusInterrupted,
    CensusResult,
    Checkpoint,
    CheckpointError,
    ClassCounts,
    EngineInfo,
    census_chunk,
    decimal_fraction,
    load_checkpoint,
    merge,
    run_census,
    run_series,
    save_checkpoint,
)
from .classifier import ResidueCache, build_residue_cache, classify_fast, verify_range
from .kernel import (
    DEFAULT_STEP_BUDGET,
    NAT_MAX,
    ClassLabel,
    ClassificationOutcome,
    MapKind,
    NatOverflowError,
    NatRangeError,
    StepBudgetExceeded,
    StoppingTime,
    Termination,
    Trajectory,
    basis_for,
    basis_modulus,
    cr3_step,
    cr_step,
    iterate,
    labels_for,
    pdcr2_step,
    pdcr_step,
    step_function,
    stopping_time,
    validate_nat,
)
from .oracle import classify_direct

__version__ = "0.1.0"

__all__ = [
    "CHECKPOINT_VERSION",
    "DEFAULT_STEP_BUDGET",
    "NAT_MAX",
    "CensusAbortError",
    "CensusConfig",
    "CensusInterrupted",
    "CensusResult",
    "Checkpoint",
    "CheckpointError",
    "ClassCounts",
    "ClassLabel",
    "ClassificationOutcome",
    "EngineInfo",
    "MapKind",
    "NatOverflowError",
    "NatRangeError",
    "ResidueCache",
    "StepBudgetExceeded",
    "StoppingTime",
    "Termination",
    "Trajectory",
    "basis_for",
    "basis_modulus",
    "build_residue_cache",
    "census_chunk",
    "classify_direct",
    "classify_fast",
    "cr3_step",
    "cr_step",
    "decimal_fraction",
    "iterate",
    "labels_for",
    "load_checkpoint",
    "merge",
    "pdcr2_step",
    "pdcr_step",
    "run_census",
    "run_series",
    "save_checkpoint",
    "step_function",
    "stopping_time",
    "validate_nat",
    "verify_range",
]
