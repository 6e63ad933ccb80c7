"""Partial assignment systems, polymorphism minions, and reductions between
promise constraint satisfaction problems, with brute-force oracles throughout.
"""

from .core import (
    Assignment,
    Constraint,
    Instance,
    PcspTemplate,
    Relation,
    RelationalStructure,
    all_solutions,
    brute_force_solve,
    check_homomorphism,
    complete_graph,
    evaluate,
    structure,
)
from .errors import (
    InputError,
    InvariantError,
    ParameterError,
    PcspkitError,
    PromiseViolationError,
    ResourceError,
    StructuralError,
)
from .labelcover import (
    DAssignment,
    LlcInstance,
    combinatorial_layered_value,
    csp_value_oracle,
    d_assignment_to_pas,
    enumerate_chains,
    reduce_mcsp_to_llc,
    weakly_satisfies,
)
from .minion import (
    ExplicitDrTable,
    FiniteFunction,
    IdentityDrTable,
    LazyPolymorphismSlice,
    MinionSlice,
    check_dr_homomorphism,
    check_minor_closure,
    decode_partial_map_constraint,
    dictator,
    enumerate_polymorphisms,
    free_relation,
    is_polymorphism,
    minor,
    polymorphism_slice,
)
from .pas import (
    GapParameters,
    LocalProperty,
    Pas,
    PasSequence,
    check_consistent,
    extract_solution,
    find_extendable_assignment,
    gap_parameters,
    has_property,
    is_m_solution,
    pas_from_assignment,
    pas_value,
    refine,
    solve_value_one,
    split_to_value_one,
)
from .reduction import (
    AuxiliaryInstance,
    CloudLayout,
    build_auxiliary,
    decode_relaxed_solution,
    find_unsolvable_gadget,
    lift_strict_solution,
    longcode_reduce,
    pipeline_reduce,
    read_cloud_functions,
    recover_source_solution,
)

__version__ = "0.1.0"
