"""Numerical toolkit for reversibility-preserving higher-order quantum maps:
labeled tensor algebra, subspace calculus, operator representations of maps,
causal-order verification, and the constructive decompositions of reversible
combs (staircase form) and two-slot maps (direct sum of ordered blocks)."""

from .errors import VerificationError
from .layouts import SlotLayout, TwoSlotLayout
from .spaces import (
    TOL,
    LinOp,
    Spaces,
    Vec,
    adjoint,
    apply_op,
    compose,
    contract_bra,
    identity,
    is_unitary,
    kron,
    partial_trace,
    permute_systems,
    phase_distance,
)
from .subspaces import (
    Subspace,
    complement,
    from_spanning,
    image,
    intersect,
    is_subset,
    orthogonality_residual,
    product_subspace,
    reduced_subspace,
    subset_residual,
    sum_subspaces,
)
from .families import spanning_family
from .choi import ChoiOp, choi_of_unitary, choi_vector, link_product, plug_unitaries
from .combs import (
    CombCircuit,
    Verdict,
    ancilla_chain,
    compose_staircase,
    staircase_decompose,
    verify_comb_choi,
    verify_pure_comb_unitary,
)
from .twoslot import (
    DirectSumDecomp,
    SubspaceTriple,
    TraceFutureReport,
    assemble,
    direct_sum_decompose,
    global_f_decomposition,
    global_p_decomposition,
    trace_future_check,
    verify_pure_superchannel,
)
from .builders import (
    build_d3d_example,
    build_direct_sum,
    build_quantum_switch,
    d3d_layout,
    haar_unitary,
    random_pure_comb,
    random_staircase_circuit,
    switch_layout,
)

__version__ = "0.1.0"
