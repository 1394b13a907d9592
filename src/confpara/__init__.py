"""Configuration sets of group actions, bounded configuration equivalence,
coset recovery, and countable paradoxical decompositions."""

from .actions import (
    LeftTranslation,
    ProductAction,
    TableAction,
    TrivialAction,
)
from .configurations import (
    ConfigPair,
    CountablePair,
    EquivVerdict,
    Partition,
    PrefixResult,
    RefinementReport,
    SplitPair,
    config_equiv_bounded,
    configurations_finite,
    configurations_with_cells,
    countable_config_prefixes,
    merge_blocks,
    set_partitions,
    singleton_split,
    verify_refinement,
    windowed_configuration_set,
)
from .errors import (
    ConfparaError,
    InputError,
    MalformedOracleError,
    PreconditionError,
    ResourceCapExceeded,
    UnsupportedOperationError,
)
from .groups import (
    CayleyTableGroup,
    EnumeratedGroup,
    FreeAbelianGroup,
    FreeGroup,
    Window,
    closure,
    direct_product,
    is_generating,
    is_normal,
    normal_subgroups,
    permutation_group,
    quotient_group,
    subgroups,
)
from .paradox import (
    CompressionResult,
    Decomposition,
    EquidecompositionWitness,
    OrbitStructure,
    PieceFamily,
    RefutationWitness,
    SubgroupWitness,
    Verdict,
    compress_translators,
    countable_paradox_of_infinite,
    even_integers_witness,
    f2_standard_decomposition,
    generator_power_witness,
    glue_orbit_decompositions,
    identity_witness,
    lift_via_transversal,
    product_orbit_structure,
    refine_to_singletons,
    restrict_to_orbit,
    singleton_decomposition,
    transitive_orbit_structure,
    verify_equidecomposable,
    verify_paradoxical,
)
from .reconstruction import (
    CosetFamily,
    IsoReport,
    MultiplicationIndexTable,
    RefinementSearchReport,
    multiplication_index_table,
    q_group_refinement_check,
    quotient_recovery_roundtrip,
    recover_cosets,
    refined_partition_of,
    table_from_canonical_enumeration,
    table_from_configurations,
    validate_table,
    verify_normal_and_iso,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
