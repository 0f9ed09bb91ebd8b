"""Exact-arithmetic toolkit for the flat model of conformal geometry.

Everything is computed over the quadratic field Q(sqrt(d)) with no floating
point anywhere: null lines and their orbits relative to removed points,
the family of conformal symmetries s_Z and the exact solution sets of the
preserve/swap conditions, the graded model algebra, algebraic Weyl tensors
with their annihilators and first prolongation, and extensions of
homogeneous pairs with curvature and involution criteria.
"""

from .flatmodel import (
    MinkowskiForm,
    MobiusSpace,
    NullLine,
    OrbitLabel,
    Signature,
    classify_orbit,
    transitive_witness,
)
from .liealg import (
    CoElement,
    StructureAlgebra,
    bracket,
    degrade,
    exp_nilpotent,
    killing_form,
    realize,
    upsilon_action,
    upsilon_bracket_constant,
)
from .linalg import AffineSubspace, Matrix, Vector, kernel, rank, solve_affine
from .scalars import FieldMismatchError, Scalar, parse_scalar
from .symmetry import (
    SymmetryReport,
    apply_to_line,
    conjugate_symmetry,
    find_symmetries,
    is_involutive,
    make_symmetry,
    solve_preserve,
    solve_swap,
    tangent_is_minus_id,
)
from .weyl import (
    WeylBasis,
    WeylTensor,
    annihilator,
    co_action,
    prolongation,
    random_weyl,
    weyl_space_basis,
)
from .extension import (
    Extension,
    HomogeneousPair,
    SymmetricPair,
    curvature,
    flat_model_extension,
    metrizability_check,
    symmetry_criterion,
    symmetry_criterion_search,
    validate_extension,
)

__version__ = "0.1.0"
