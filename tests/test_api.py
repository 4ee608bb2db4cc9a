import collatz_census

# The whole public surface, sorted: adding, removing or renaming a public
# name is a change to this list.
PUBLIC = [
    "CHECKPOINT_VERSION",
    "CensusAbortError",
    "CensusConfig",
    "CensusInterrupted",
    "CensusResult",
    "Checkpoint",
    "CheckpointError",
    "ClassCounts",
    "ClassLabel",
    "ClassificationOutcome",
    "DEFAULT_STEP_BUDGET",
    "EngineInfo",
    "MapKind",
    "NAT_MAX",
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


def test_public_surface_is_pinned():
    assert sorted(collatz_census.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in PUBLIC:
        assert hasattr(collatz_census, name), name
