"""ternlab: finite-dimensional C*-ternary rings, computationally.

Block-presented ternary rings of operators (and their sign-twisted
counterparts), standard embeddings with the linking or twisted product,
Zettl decomposition, Jacobson radicals, ideals and quotients, and
numeric Wedderburn isomorphisms.
"""

__version__ = "0.1.0"

from .errors import (
    BorderlineWarning,
    DecompositionInconclusive,
    InvalidInput,
    NormUnavailable,
    NotAnIdeal,
    NotHermitian,
    PreconditionFailed,
    ShapeError,
    TernlabError,
)
from .matkernel import op_norm, solve_linear
from .ternary import (
    AxiomReport,
    SignedBlock,
    SpectrumReport,
    StructureConstants,
    TernaryElement,
    TernarySpace,
    ZettlSplit,
    check_axioms,
    cube_root,
    diagonal_space,
    direct_sum,
    full_matrix_space,
    jbstar_box_check,
    opposite,
    scalar_space,
    structure_constants_of,
    ternary_closure,
    triple,
    zettl_decompose,
)
from .embedding import (
    BoundsReport,
    PeirceCorners,
    PiOperator,
    StandardEmbedding,
    build_embedding,
    cstar_identity_witness,
    emb_mul,
    emb_star,
    identity_of,
    peirce_split,
    pi_norm_lower_bounds,
    pi_represent,
)
from .radical import (
    AssocAlgebra,
    QuasiInverseCertificate,
    assoc_of_embedding,
    check_corner_qi_equivalence,
    check_shifting_principle,
    check_symmetry_principle,
    corner_compressions,
    jacobson_radical,
    matrix_algebra,
    quasi_inverse_assoc,
    quasi_inverse_ternary,
    structure_envelope,
    ternary_radical,
)
from .ideals import (
    QuotientNormResult,
    TernaryIdeal,
    embed_ideal,
    generated_ideal,
    is_ideal,
    quotient,
    quotient_norm,
    quotient_zettl_dims,
)
from .wedderburn import (
    IsomorphismReport,
    WedderburnSolution,
    det_invertibility,
    m2_closed_form,
    solve_wedderburn,
    star_obstruction,
    verify_isomorphism,
)
