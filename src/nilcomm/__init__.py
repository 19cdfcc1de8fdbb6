"""Chain invariants and generic Jordan types for nilpotent commutators.

Given an integer partition, the package builds the poset on the standard
Jordan basis, computes the classical chain invariant and the anchored
("U-chain") invariant, enumerates the recursive removal processes that
realize it, and cross-validates everything against random elements of the
triangular part of the centralizer over a large prime field.
"""
from .errors import NilcommError
from .partitions import (
    Partition,
    all_partitions,
    conjugate,
    dominance_leq,
    format_partition,
    from_parts,
    is_almost_rectangular,
    parse_partition,
    partition_count,
    r_of,
)
from .poset import Poset, Vertex, build_poset, export_dot, export_json
from .greene import (
    ChainUnionProfile,
    chain_union_profile,
    greene_lambda,
    oracle_max_k_chain_union,
)
from .uchains import (
    ReplacementResult,
    UChainInstance,
    UChainSpec,
    cardinality_closed_form,
    check_replacement,
    iter_specs,
    lambda_u,
    materialize,
    max_simple_u_chains,
    max_u_chain_cardinality,
    simple_cardinality,
)
from .uprocess import (
    ProcessTrace,
    canonical_process,
    count_full_processes,
    enumerate_full_processes,
    prefix_families,
    q_of_trace,
    remove_simple_chain,
    trace_to_json,
    union_as_uchain,
)
from .matrixlab import (
    DEFAULT_PRIME,
    GenericTypeEstimate,
    OrderCheckReport,
    PrimeField,
    generic_jordan_type,
    jordan_type_from_ranks,
    order_criterion_check,
)

__version__ = "0.1.0"
