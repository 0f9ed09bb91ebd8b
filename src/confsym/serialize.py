"""Structured-text (JSON) forms of the toolkit's values.

All scalars travel as literals of the grammar in confsym.scalars; dictionaries
are dumped with sorted keys so that parsing a machine report and re-serializing
it is the identity.
"""

from __future__ import annotations

import json

from .extension import Extension, HomogeneousPair, SymmetricPair
from .flatmodel import MobiusSpace, NullLine, OrbitLabel
from .liealg import StructureAlgebra
from .linalg import AffineSubspace, Matrix, Vector
from .scalars import Scalar, parse_scalar
from .symmetry import SymmetryReport
from .weyl import WeylTensor, _ConstraintSystem, _orbits, _unflat


def dump_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def vector_to_literals(v: Vector) -> list[str]:
    return [str(e) for e in v]


def _literal(x, d: int, zero: Scalar) -> Scalar:
    """One literal of a file: the exact string "0" is the literal of zero
    and needs no parse; every other literal goes through the grammar."""
    text = str(x)
    return zero if text == "0" else parse_scalar(text, d)


def vector_from_literals(items, d: int) -> Vector:
    zero = Scalar(0, 0, 1, d)
    return Vector._of_scalars([_literal(x, d, zero) for x in items])


def matrix_to_literals(M: Matrix) -> list[list[str]]:
    return [[str(e) for e in row] for row in M.rows]


def matrix_from_literals(rows, d: int) -> Matrix:
    zero = Scalar(0, 0, 1, d)
    return Matrix._of_scalars([_literal(x, d, zero) for x in row] for row in rows)


def subspace_to_dict(s: AffineSubspace) -> dict:
    if s.is_empty:
        return {"empty": True, "ambient": s.ambient}
    return {
        "empty": False,
        "ambient": s.ambient,
        "dim": s.dim,
        "base": vector_to_literals(s.base),
        "dirs": [vector_to_literals(v) for v in s.directions],
    }


def subspace_from_dict(data: dict, d: int) -> AffineSubspace:
    if data["empty"]:
        return AffineSubspace.empty(data["ambient"])
    return AffineSubspace(
        data["ambient"],
        vector_from_literals(data["base"], d),
        [vector_from_literals(v, d) for v in data["dirs"]],
    )


def orbit_to_dict(label: OrbitLabel) -> dict:
    return {"iso_u": label.iso_u, "iso_v": label.iso_v, "in_span": label.in_span}


def orbit_from_dict(data: dict) -> OrbitLabel:
    return OrbitLabel(bool(data["iso_u"]), bool(data["iso_v"]), bool(data["in_span"]))


def report_to_dict(space: MobiusSpace, report: SymmetryReport) -> dict:
    return {
        "p": space.signature.p,
        "q": space.signature.q,
        "d": space.d,
        "base_point": vector_to_literals(report.base_point.representative),
        "witness": matrix_to_literals(report.witness),
        "orbit": orbit_to_dict(report.orbit),
        "preserving": subspace_to_dict(report.preserving),
        "swapping": subspace_to_dict(report.swapping),
        "preserve_first": subspace_to_dict(report.preserve_first),
        "preserve_second": subspace_to_dict(report.preserve_second),
    }


def report_from_dict(data: dict) -> tuple[MobiusSpace, SymmetryReport]:
    """Rejects p, q and d that are not JSON integers."""
    space = MobiusSpace(*(_json_int(data[key], key) for key in ("p", "q", "d")))
    d = space.d
    report = SymmetryReport(
        base_point=NullLine(space.form, vector_from_literals(data["base_point"], d)),
        witness=matrix_from_literals(data["witness"], d),
        orbit=orbit_from_dict(data["orbit"]),
        preserving=subspace_from_dict(data["preserving"], d),
        swapping=subspace_from_dict(data["swapping"], d),
        preserve_first=subspace_from_dict(data["preserve_first"], d),
        preserve_second=subspace_from_dict(data["preserve_second"], d),
    )
    return space, report


# -- Weyl tensors ------------------------------------------------------------


def _weyl_keys(n: int, orbits) -> list[str]:
    """The 1-based "i,j,k,l" key of each orbit's canonical component."""
    return [",".join(str(x + 1) for x in _unflat(n, members[0][0])) for members in orbits]


def weyl_to_dict(W: WeylTensor) -> dict:
    """Lists the value of each orbit of `weyl._orbits` when it is nonzero,
    keyed by its canonical component (i<j, k<l, (i,j) <= (k,l)); the other
    members of its orbit are that value times their signs."""
    keys = _weyl_keys(W.n, _orbits(W.n)[0])
    comps = {keys[u]: str(x) for u, x in W.terms}
    return {"p": W.p, "q": W.q, "d": W.d, "components": comps}


def weyl_from_dict(data: dict) -> WeylTensor:
    """Inverse of `weyl_to_dict`: each value is the value of its key's orbit.
    Rejects a key that `weyl_to_dict` would not write, p, q and d that are
    not JSON integers, and a tensor that fails `WeylTensor.validate`."""
    p, q, d = (_json_int(data[key], key) for key in ("p", "q", "d"))
    system = _ConstraintSystem(p, q)
    slots = {key: u for u, key in enumerate(_weyl_keys(p + q, system.orbits))}
    values = [Scalar(0, 0, 1, d)] * len(system.orbits)
    for key, lit in data["components"].items():
        if key not in slots:
            raise ValueError(f"non-canonical component key {key!r}")
        values[slots[key]] = parse_scalar(lit, d)
    W = WeylTensor._from_values(p, q, values, d)
    W.validate(system)
    return W


# -- structure algebras and extensions ---------------------------------------


def structure_algebra_to_dict(alg: StructureAlgebra) -> dict:
    """Each nonzero [b_i, b_j] with i < j, in lexicographic order, as its
    dense list of dim literals."""
    brackets = []
    for i in range(alg.dim):
        row = alg.row(i)
        for j in sorted(j for j in row if j > i):
            literals = ["0"] * alg.dim
            for k, c in row[j]:
                literals[k] = str(c)
            brackets.append([i, j, literals])
    return {"dim": alg.dim, "brackets": brackets}


def _json_int(value, key: str) -> int:
    """A JSON integer read from a file; a bool, float or string is refused,
    never truncated."""
    if type(value) is not int:
        raise ValueError(f"{key!r} must be an integer, got {value!r}")
    return value


def structure_algebra_from_dict(data: dict, d: int) -> StructureAlgebra:
    """Rejects a dim that is not an integer, any bracket entry whose indices
    are not integers 0 <= i < j < dim, a repeated (i, j), and a coefficient
    list whose length is not dim.  Only the nonzero coefficients are kept,
    so the work grows with the number of literals, not with dim^2."""
    dim = _json_int(data["dim"], "dim")
    zero = Scalar(0, 0, 1, d)
    brackets = {}
    for i, j, coeffs in data["brackets"]:
        if not (type(i) is int and type(j) is int and 0 <= i < j < dim):
            raise ValueError(f"bracket entry {[i, j]!r} needs integers 0 <= i < j < {dim}")
        if (i, j) in brackets:
            raise ValueError(f"bracket entry {[i, j]!r} is repeated")
        if len(coeffs) != dim:
            raise ValueError(
                f"bracket entry {[i, j]!r} has {len(coeffs)} coefficients, expected {dim}"
            )
        terms = []
        for k, x in enumerate(coeffs):
            c = _literal(x, d, zero)
            if c:
                terms.append((k, c))
        brackets[i, j] = terms
        brackets[j, i] = [(k, -c) for k, c in terms]
    return StructureAlgebra(dim, brackets)


def extension_to_dict(ext: Extension) -> dict:
    def indices(basis):
        out = []
        for v in basis:
            nz = [i for i, e in enumerate(v) if e]
            if len(nz) != 1 or v[nz[0]] != Scalar(1):
                raise ValueError("only unit-vector h/m bases serialize to index lists")
            out.append(nz[0])
        return out

    return {
        "p": ext.space.signature.p,
        "q": ext.space.signature.q,
        "d": ext.space.d,
        "algebra": structure_algebra_to_dict(ext.pair.alg),
        "h": indices(ext.pair.h_basis),
        "m": indices(ext.pair.m_basis),
        "alpha": matrix_to_literals(ext.alpha),
        "symmetric": isinstance(ext.pair, SymmetricPair),
    }


def extension_signature(data: dict) -> tuple[int, int, int]:
    """(p, q, d) of an extension file, d defaulting to 2; each must be a JSON
    integer."""
    p = _json_int(data["p"], "p")
    q = _json_int(data["q"], "q")
    return p, q, _json_int(data.get("d", 2), "d")


def extension_from_dict(data: dict) -> Extension:
    """Rejects non-integer p, q, d and dim, an m of other than p + q
    indices, and h or m indices that are not integers 0 <= i < dim."""
    space = MobiusSpace(*extension_signature(data))
    # The lists of the file bound dim before anything of size dim is built.
    dim = _json_int(data["algebra"]["dim"], "dim")
    if dim != len(data["alpha"]) or dim != len(data["h"]) + len(data["m"]):
        raise ValueError(
            f"algebra dim {dim} does not match {len(data['alpha'])} alpha rows "
            f"and {len(data['h'])} + {len(data['m'])} h and m indices"
        )
    if len(data["m"]) != space.n:
        raise ValueError(f"'m' has {len(data['m'])} indices, expected p + q = {space.n}")
    alg = structure_algebra_from_dict(data["algebra"], space.d)

    for key in ("h", "m"):
        for i in data[key]:
            if not (type(i) is int and 0 <= i < dim):
                raise ValueError(f"{key!r} index {i!r} needs an integer 0 <= i < {dim}")
    pair_cls = SymmetricPair if data.get("symmetric") else HomogeneousPair
    pair = pair_cls(alg, data["h"], data["m"])
    alpha = matrix_from_literals(data["alpha"], space.d)
    return Extension(space, pair, alpha)
