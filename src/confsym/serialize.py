"""Structured-text (JSON) forms of the toolkit's values.

All scalars travel as literals of the grammar in confsym.scalars; dictionaries
are dumped with sorted keys so that parsing a machine report and re-serializing
it is the identity.

`dump_canonical` writes the text itself, by a small recursive writer over
dicts with str keys, lists, tuples, strings, ints, bools and None, and prints
exactly `json.dumps(obj, sort_keys=True, indent=2)`: `json` with an indent
runs its pure-Python encoder.  Strings go through json's own
`encode_basestring_ascii`, and any other value (a float, a non-str key, a
Scalar) is a TypeError rather than a text that could differ from json's.
`json` stays the reader.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote

from .flatmodel import MobiusSpace, NullLine, OrbitLabel, checked_space
from .linalg import AffineSubspace, Matrix, Vector
from .scalars import ZERO, parse_scalar

# The readers and writers of symmetry reports, Weyl tensors and extensions
# import their layer when called, so that writing one kind of value loads
# none of the others.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .extension import Extension
    from .liealg import StructureAlgebra
    from .symmetry import SymmetryReport
    from .weyl import WeylTensor


def dump_canonical(obj) -> str:
    """The text `json.dumps(obj, sort_keys=True, indent=2)` would print."""
    return _dump(obj, "\n")


def _dump(obj, newline: str) -> str:
    """obj as json writes it at the depth whose line break and indent is
    `newline`; the type tests run in json's order.  A plain str member,
    most of a report, is quoted in place."""
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = newline + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_quote(x) if x.__class__ is str else _dump(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        items = [
            _quote(key) + ": " + (_quote(x) if x.__class__ is str else _dump(x, inner))
            for key, x in sorted(obj.items())
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def vector_to_literals(v: Vector) -> list[str]:
    return [str(e) for e in v]


def _literal_list(items) -> list:
    """A literal list of a file.  A JSON string is iterable too, and would be
    read one character per entry, so only a JSON array passes."""
    if not isinstance(items, list):
        raise ValueError(f"expected a JSON array of scalar literals, got {type(items).__name__}")
    return items


def _scalars(items, d: int) -> list:
    """The Scalars of a literal list: the exact string "0" is the literal of
    zero and is read as it stands; every other literal goes through the
    grammar."""
    return [ZERO if x == "0" else parse_scalar(str(x), d) for x in _literal_list(items)]


def vector_from_literals(items, d: int) -> Vector:
    return Vector._of_scalars(_scalars(items, d))


def matrix_to_literals(M: Matrix) -> list[list[str]]:
    return [[str(e) for e in row] for row in M.rows]


def matrix_from_literals(rows, d: int) -> Matrix:
    return Matrix._of_scalars(_scalars(row, d) for row in _literal_list(rows))


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
    """Rejects an `empty` flag that is not a JSON boolean, an `ambient` that
    is not a JSON integer, and a `dim` that is not the number of `dirs`."""
    empty = _json_bool(data["empty"], "empty")
    ambient = _json_int(data["ambient"], "ambient")
    if empty:
        return AffineSubspace.empty(ambient)
    dirs = data["dirs"]
    if _json_int(data["dim"], "dim") != len(dirs):
        raise ValueError(f"'dim' {data['dim']} does not match the {len(dirs)} 'dirs'")
    return AffineSubspace(
        ambient,
        vector_from_literals(data["base"], d),
        [vector_from_literals(v, d) for v in dirs],
    )


def orbit_to_dict(label: OrbitLabel) -> dict:
    return {"iso_u": label.iso_u, "iso_v": label.iso_v, "in_span": label.in_span}


def orbit_from_dict(data: dict) -> OrbitLabel:
    """Rejects flags that are not JSON booleans."""
    return OrbitLabel(*(_json_bool(data[key], key) for key in ("iso_u", "iso_v", "in_span")))


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
    """Rejects p, q and d that are not JSON integers, and a signature or
    field that `checked_space` refuses."""
    from .symmetry import SymmetryReport

    p, q, d = (_json_int(data[key], key) for key in ("p", "q", "d"))
    space = checked_space(p, q, d)
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


def _weyl_key_indices(key, index: dict) -> tuple[int, int, int, int]:
    """The canonical component (i, j, k, l) of a key as `weyl_to_dict` writes
    it.  `index` maps the texts "1" .. str(n) to 0 .. n - 1, so only four
    such texts joined by commas pass: no sign, space, leading zero,
    non-ASCII digit or index out of range.  They must also have i < j, k < l
    and (i, j) <= (k, l); any other key is a ValueError."""
    parts = key.split(",") if isinstance(key, str) else ()
    try:
        i, j, k, l = [index[x] for x in parts]
    except (KeyError, ValueError):
        pass
    else:
        if i < j and k < l and (i, j) <= (k, l):
            return i, j, k, l
    raise ValueError(f"non-canonical component key {key!r}")


def weyl_to_dict(W: WeylTensor) -> dict:
    """Lists the value of each orbit of `weyl._orbits` when it is nonzero,
    keyed by the 1-based "i,j,k,l" of its canonical component (i<j, k<l,
    (i,j) <= (k,l)); the other members of its orbit are that value times
    their signs (`weyl._SIGNS`).  Only the keys of `W.terms` are formatted."""
    from .weyl import _orbits, _unflat

    n = W.n
    orbits = _orbits(n)
    comps = {",".join(str(x + 1) for x in _unflat(n, orbits[u][0])): str(x) for u, x in W.terms}
    return {"p": W.p, "q": W.q, "d": W.d, "components": comps}


def weyl_from_dict(data: dict) -> WeylTensor:
    """Inverse of `weyl_to_dict`: each value is the value of its key's orbit.
    Rejects a key that `weyl_to_dict` would not write, `components` that is
    not a JSON object and a value in it that is not a string literal, p, q
    and d that are not JSON integers, a signature or field that
    `checked_space` refuses, and a tensor that fails `WeylTensor.validate`."""
    from .weyl import WeylTensor, _orbit_of

    p, q, d = (_json_int(data[key], key) for key in ("p", "q", "d"))
    n = checked_space(p, q, d).n
    components = data["components"]
    if not isinstance(components, dict):
        kind = type(components).__name__
        raise ValueError(f"'components' must be a JSON object of scalar literals, got {kind}")
    index = {str(x + 1): x for x in range(n)}
    terms = []
    for key, lit in components.items():
        # The orbit is found without the orbit table.
        u = _orbit_of(*_weyl_key_indices(key, index))
        if type(lit) is not str:
            raise ValueError(f"component {key!r} must be a string literal, got {lit!r}")
        x = parse_scalar(lit, d)
        if x:
            terms.append((u, x))
    W = WeylTensor._from_terms(p, q, sorted(terms), d)
    W.validate()
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


def _json_bool(value, key: str) -> bool:
    """A JSON boolean read from a file; any other value is refused, never
    read by its truth value."""
    if type(value) is not bool:
        raise ValueError(f"{key!r} must be a JSON boolean, got {value!r}")
    return value


def structure_algebra_from_dict(data: dict, d: int) -> StructureAlgebra:
    """Rejects a dim that is not an integer, any bracket entry whose indices
    are not integers 0 <= i < j < dim, a repeated (i, j), and a coefficient
    list whose length is not dim.  Only the nonzero coefficients are kept,
    so the work grows with the number of literals, not with dim^2: the
    literal "0" is skipped as it stands, and every other literal goes through
    the grammar once.  The file states only the i < j half, each pair once,
    which is what `StructureAlgebra` takes and mirrors."""
    from .liealg import StructureAlgebra

    dim = _json_int(data["dim"], "dim")
    brackets = {}
    for i, j, coeffs in data["brackets"]:
        if not (type(i) is int and type(j) is int and 0 <= i < j < dim):
            raise ValueError(f"bracket entry {[i, j]!r} needs integers 0 <= i < j < {dim}")
        if (i, j) in brackets:
            raise ValueError(f"bracket entry {[i, j]!r} is repeated")
        if len(_literal_list(coeffs)) != dim:
            raise ValueError(
                f"bracket entry {[i, j]!r} has {len(coeffs)} coefficients, expected {dim}"
            )
        terms = []
        for k, x in enumerate(coeffs):
            if x != "0":
                c = parse_scalar(str(x), d)
                if c:
                    terms.append((k, c))
        brackets[i, j] = terms
    return StructureAlgebra(dim, brackets)


def extension_to_dict(ext: Extension) -> dict:
    from .extension import SymmetricPair

    return {
        "p": ext.space.signature.p,
        "q": ext.space.signature.q,
        "d": ext.space.d,
        "algebra": structure_algebra_to_dict(ext.pair.alg),
        "h": list(ext.pair.h),
        "m": list(ext.pair.m),
        "alpha": matrix_to_literals(ext.alpha),
        "symmetric": isinstance(ext.pair, SymmetricPair),
    }


def extension_from_dict(data: dict, d: int = 2) -> Extension:
    """Rejects non-integer p, q, d (the argument `d` when absent) and dim, a
    signature or field that `checked_space` refuses, an m of other than
    p + q indices, and h or m indices that are not integers 0 <= i < dim."""
    from .extension import Extension, HomogeneousPair, SymmetricPair

    p = _json_int(data["p"], "p")
    q = _json_int(data["q"], "q")
    space = checked_space(p, q, _json_int(data.get("d", d), "d"))
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
    symmetric = _json_bool(data.get("symmetric", False), "symmetric")
    pair_cls = SymmetricPair if symmetric else HomogeneousPair
    pair = pair_cls(alg, data["h"], data["m"])
    alpha = matrix_from_literals(data["alpha"], space.d)
    return Extension(space, pair, alpha)
