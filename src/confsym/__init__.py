"""Exact-arithmetic toolkit for the flat model of conformal geometry.

Everything is computed over the quadratic field Q(sqrt(d)) with no floating
point anywhere: null lines and their orbits relative to removed points,
the family of conformal symmetries s_Z and the exact solution sets of the
preserve/swap conditions, the graded model algebra, algebraic Weyl tensors
with their annihilators and first prolongation, and extensions of
homogeneous pairs with curvature and involution criteria.

`import confsym` loads no submodule.  Each public name, and each submodule
that defines one (`confsym.weyl`), is resolved on first access by a module
`__getattr__` (PEP 562), so a process loads only the layers that it uses.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# The public names, by the submodule that defines them.
_SOURCES = {
    "flatmodel": (
        "MinkowskiForm",
        "MobiusSpace",
        "NullLine",
        "OrbitLabel",
        "Signature",
        "classify_orbit",
        "transitive_witness",
    ),
    "liealg": (
        "CoElement",
        "StructureAlgebra",
        "bracket",
        "degrade",
        "exp_nilpotent",
        "killing_form",
        "realize",
        "upsilon_action",
        "upsilon_bracket_constant",
    ),
    "linalg": ("AffineSubspace", "Matrix", "Vector", "kernel", "rank", "solve_affine"),
    "scalars": ("FieldMismatchError", "Scalar", "parse_scalar"),
    "symmetry": (
        "SymmetryReport",
        "apply_to_line",
        "conjugate_symmetry",
        "find_symmetries",
        "is_involutive",
        "make_symmetry",
        "solve_preserve",
        "solve_swap",
        "tangent_is_minus_id",
    ),
    "weyl": (
        "WeylBasis",
        "WeylTensor",
        "annihilator",
        "co_action",
        "prolongation",
        "random_weyl",
        "weyl_space_basis",
    ),
    "extension": (
        "Extension",
        "HomogeneousPair",
        "SymmetricPair",
        "curvature",
        "flat_model_extension",
        "metrizability_check",
        "symmetry_criterion",
        "symmetry_criterion_search",
        "validate_extension",
    ),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _MODULE_OF:
        value = getattr(_import_module("." + _MODULE_OF[name], __name__), name)
    elif name in _SOURCES:
        value = _import_module("." + name, __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
