import collatz_census
from collatz_census import classifier, kernel, oracle

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


# the literal route, defined in the oracle alone
LITERAL_ROUTE = [
    "classify_direct",
    "_direct_block",
    "_composite_step",
    "_direct_label",
    "_u64_span",
    "_LOCKSTEP",
    "_DIRECT_PASS_MAX",
    "_MEMO_PASSES",
    "_POOL_LANES",
]


def test_each_shared_name_has_one_home():
    for name in ("ClassLabel", "ClassificationOutcome", "labels_for", "basis_for"):
        assert getattr(collatz_census, name) is getattr(kernel, name), name
    assert collatz_census.classify_direct is oracle.classify_direct


def test_the_classifier_defines_no_literal_route_name():
    # verify_range imports the oracle's block; no other literal-route name is there
    assert [n for n in LITERAL_ROUTE if hasattr(classifier, n)] == ["_direct_block"]
    assert classifier._direct_block is oracle._direct_block
    for name in ("_walk", "_U64_LIMIT", "ClassificationOutcome", "labels_for", "basis_for"):
        assert getattr(classifier, name) is getattr(kernel, name), name
