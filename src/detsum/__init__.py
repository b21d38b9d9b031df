"""Exact subset-sum determinant identities over commutative rings.

The library evaluates and symbolically proves the alternating
subset-sum determinant identity, searches families of matrices (or ring
elements) for invertible subset sums with the tight small-subset bound,
computes the stabilizing chain of determinant ideals over Z and Z/N,
and constructs the counterexample families that appear once a ring
stops being local (or a semilocal ring mixes residue characteristics).
All arithmetic is exact; nothing here floats.
"""

from .errors import (
    ArityMismatch,
    ContractViolation,
    DetsumError,
    HypothesisViolation,
    InvalidParameters,
    MaskOutOfRange,
    MixedComponentFields,
    NotHomogeneous,
    RingMismatch,
    SearchSpaceTooLarge,
    ShapeMismatch,
    SizeLimit,
    TooManyElements,
    TooManyMatrices,
    UnsupportedRing,
)
from .rings import (
    INTEGERS,
    RATIONALS,
    IntegerRing,
    IntPolyRing,
    ModRing,
    PrimeField,
    ProductRing,
    Ring,
    RingElement,
    SparsePoly,
    poly_eval,
    random_homogeneous_poly,
    random_poly,
)
from .subsets import SubsetMask, masks_in_search_order, masks_of_cardinality
from .matrices import (
    SquareMatrix,
    det,
    is_invertible,
    random_matrix,
    subset_sum,
)
from .identities import (
    IdentityReport,
    SimplexReport,
    alternating_subset_det_sum,
    check_alternating_det_identity,
    check_alternating_product_identity,
    det_expansion_certificate,
    find_perturbing_subset,
    generic_matrix_family,
    homogeneous_alternating_sum,
    monomial_coefficient_check,
    perturbation_identity_residual,
    simplex_centroid_check,
)
from .search import (
    IdealChain,
    SemilocalInstance,
    embed_product_to_matrices,
    find_invertible_subsum,
    ideal_chain,
    local_counterexample_matrices,
    mixed_char_counterexample_search,
    semilocal_counterexample_instances,
    semilocal_find_unit_subsum,
)

__version__ = "0.1.0"
