"""Exact superalgebra via the functor of points.

Grassmann algebras over the rationals, Lambda-points of super vector spaces,
lifting and reconstruction of even multilinear maps, supertraces, supergroup
matrix inversion, and skeleton-encoded supersmooth morphisms -- everything
exact, with functoriality under base change as the machine-checkable
correctness criterion throughout.
"""

from .errors import (
    DimensionError,
    DomainError,
    NotInvertibleError,
    ParityError,
    ParseError,
    ReconstructionError,
    SchemaError,
)
from .grassmann import (
    GrassmannElement,
    GrassmannMorphism,
    MAX_GENERATORS,
    Parity,
    body,
    even_part,
    format_element,
    gr_add,
    gr_inv,
    gr_mul,
    gr_scale,
    morphism_apply,
    morphism_compose,
    nil_part,
    odd_part,
    parity_of,
)
from .parser import parse_element, parse_expr, parse_poly, parse_superfunction
from .points import (
    CandidateModule,
    LambdaPoint,
    N_MAX_DEFAULT,
    NaturalityReport,
    NaturalityViolation,
    PointFamily,
    SuperrepVerdict,
    base_change,
    check_naturality,
    decompose_point,
    identity_family,
    injected_constant_family,
    lift_family,
    lift_multilinear,
    morphism_to_point,
    point_to_morphism,
    reconstruct_multilinear,
    reversal_sign,
    scale_point,
    superrep_check,
    vbar_module,
    vnil_module,
)
from .poly import PolyCoeff, format_poly
from .skeleton import (
    Skeleton,
    Superfunction,
    SupersmoothVerdict,
    check_supersmooth,
    cs_structure,
    element_to_point,
    identity_skeleton,
    point_to_element,
    skeleton_compose,
    skeleton_eval,
    skeleton_to_superfunction,
    superfunction_eval,
    superfunction_mul,
    superfunction_to_skeleton,
)
from .superlinear import (
    MultilinearMap,
    SuperSpace,
    SuperVector,
    apply_multilinear,
    braid_swap,
    dual_space,
    pi_reverse,
    symmetrize_check,
)
from .supermatrix import (
    GLReport,
    SuperMatrix,
    body_matrix,
    gl_group_check,
    is_invertible,
    mat_add,
    mat_base_change,
    mat_inv,
    mat_mul,
    supertrace,
    supertrace_via_braiding,
)

__version__ = "0.1.0"
