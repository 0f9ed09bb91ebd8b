import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confsym.cli import SessionConfig
from confsym.extension import flat_model_extension, validate_extension
from confsym.flatmodel import MAX_DIMENSION, MobiusSpace
from confsym.liealg import StructureAlgebra, graded_dim
from confsym.linalg import AffineSubspace, Vector
from confsym.scalars import Scalar, parse_scalar
from confsym.serialize import (
    dump_canonical,
    extension_from_dict,
    extension_to_dict,
    orbit_from_dict,
    report_from_dict,
    report_to_dict,
    structure_algebra_from_dict,
    structure_algebra_to_dict,
    subspace_from_dict,
    subspace_to_dict,
    vector_from_literals,
    weyl_from_dict,
    weyl_to_dict,
)
from confsym.symmetry import find_symmetries
from confsym.weyl import _orbits, _unflat, random_weyl, weyl_space_basis

from conftest import (
    dense_table,
    reference_antisymmetry_failure,
    reference_jacobi_failure,
    reference_validate_extension,
    sl2_pair,
    sparse_brackets,
)
from test_liealg import _TABLE_ENTRY, _antisymmetric_tables


def test_subspace_round_trip():
    s = AffineSubspace(3, Vector(["1", "0", "1*r"]), [Vector(["0", "1", "-1/2"])])
    assert subspace_from_dict(subspace_to_dict(s), 2) == s
    empty = AffineSubspace.empty(4)
    assert subspace_from_dict(subspace_to_dict(empty), 2) == empty


def test_vector_literals_accept_the_bare_radical():
    v = vector_from_literals(["1", "r", "0", "0", "-1"], 2)
    assert v == Vector(["1", "1*r", "0", "0", "-1"])


def test_report_round_trip_is_identity(space21):
    u = space21.line(["1", "1*r", "0", "0", "-1"])
    v = space21.line(["1", "0", "0", "-1*r", "1"])
    report = find_symmetries(space21, u, v, space21.origin)
    data = report_to_dict(space21, report)
    text = dump_canonical(data)
    # parse -> re-serialize is the identity on canonical text
    assert dump_canonical(json.loads(text)) == text
    space2, report2 = report_from_dict(json.loads(text))
    assert report2.preserving == report.preserving
    assert report2.swapping == report.swapping
    assert report2.orbit == report.orbit
    assert report2.base_point == report.base_point
    assert dump_canonical(report_to_dict(space2, report2)) == text


@pytest.mark.parametrize("p, q", [(4, 0), (3, 1), (2, 2), (5, 0), (3, 2), (12, 0), (6, 6)])
@pytest.mark.parametrize("d", [2, 3])
def test_weyl_round_trip(p, q, d):
    W = random_weyl(p, q, seed=13, d=d)
    for T in (W, W.scale(Scalar(1, 1, 1, d))):
        data = weyl_to_dict(T)
        back = weyl_from_dict(data)
        assert back == T and back.d == d
        text = dump_canonical(data)
        assert dump_canonical(json.loads(text)) == text


def test_weyl_from_dict_rejects_non_canonical_keys():
    W = random_weyl(4, 0, seed=13)
    data = weyl_to_dict(W)
    key, value = next(iter(data["components"].items()))
    i, j, k, l = key.split(",")
    data["components"][f"{j},{i},{k},{l}"] = value
    with pytest.raises(ValueError, match="canonical"):
        weyl_from_dict(data)


@pytest.mark.parametrize(
    "key",
    ["01,2,1,2", "1, 2,1,2", "1,2,1,2 ", "١,2,1,2", "0,2,1,2", "1,2,1,5", "2,1,1,2", "3,4,1,2", "1,2,1,2,1"],
)
def test_weyl_from_dict_refuses_a_key_that_weyl_to_dict_would_not_write(key):
    """A leading zero, a space, a non-ASCII digit, index 0 or n + 1, i > j,
    (i, j) > (k, l) and five fields: each key alone is refused by name."""
    data = {"p": 4, "q": 0, "d": 2, "components": {key: "1"}}
    message = f"non-canonical component key {key!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        weyl_from_dict(data)


@pytest.mark.parametrize("p, q", [(4, 0), (2, 2), (3, 3), (7, 1)])
def test_weyl_to_dict_matches_the_full_key_form(p, q):
    """The keys of the nonzero values only, formatted as the full list of
    orbit keys gives them, in the same order and to the same text."""
    n = p + q
    keys = [",".join(str(x + 1) for x in _unflat(n, m[0])) for m in _orbits(n)]
    tensors = [random_weyl(p, q, seed=5), *weyl_space_basis(p, q).elements[:20]]
    for W in tensors:
        want = {"p": p, "q": q, "d": 2, "components": {keys[u]: str(x) for u, x in W.terms}}
        got = weyl_to_dict(W)
        assert list(got["components"].items()) == list(want["components"].items())
        assert json.dumps(got) == json.dumps(want)


@pytest.mark.parametrize("literal", [5, True])
def test_weyl_from_dict_refuses_a_literal_that_is_not_a_string(literal):
    data = {"p": 4, "q": 0, "d": 2, "components": {"1,2,1,2": literal}}
    message = f"component '1,2,1,2' must be a string literal, got {literal!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        weyl_from_dict(data)


def test_weyl_from_dict_refuses_components_that_are_not_an_object():
    data = {"p": 4, "q": 0, "d": 2, "components": []}
    message = "'components' must be a JSON object of scalar literals, got list"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        weyl_from_dict(data)


def test_weyl_from_dict_rejects_invalid_tensors():
    data = {"p": 4, "q": 0, "d": 2, "components": {"1,2,1,2": "1"}}
    # a single plane component has a nonzero trace
    with pytest.raises(ValueError, match="trace"):
        weyl_from_dict(data)


@pytest.mark.parametrize("key, value", [("p", 4.9), ("q", "0"), ("d", 2.0), ("p", True)])
def test_weyl_from_dict_rejects_non_integer_signature_and_field(key, value):
    data = {"p": 4, "q": 0, "d": 2, "components": {}, key: value}
    with pytest.raises(ValueError, match=f"{key!r} must be an integer"):
        weyl_from_dict(data)


@pytest.mark.parametrize(
    "p, q, message",
    [
        (-1, 5, "need p >= 0 and q >= 0, got (-1, 5)"),
        (2, 0, "need p + q >= 3"),
        (MAX_DIMENSION, 1, f"need p + q <= {MAX_DIMENSION}, got {MAX_DIMENSION + 1}"),
        # 43 bytes that used to build a 30^4-entry table.
        (30, 0, f"need p + q <= {MAX_DIMENSION}, got 30"),
    ],
)
def test_weyl_from_dict_refuses_a_signature_out_of_range(p, q, message):
    data = {"p": p, "q": q, "d": 2, "components": {}}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        weyl_from_dict(data)


@pytest.mark.parametrize("key, value", [("p", 2.0), ("q", "1"), ("d", 2.5), ("d", False)])
def test_report_from_dict_rejects_non_integer_signature_and_field(space21, key, value):
    u = space21.line(["1", "1*r", "0", "0", "-1"])
    v = space21.line(["1", "0", "0", "-1*r", "1"])
    data = report_to_dict(space21, find_symmetries(space21, u, v, space21.origin))
    with pytest.raises(ValueError, match=f"{key!r} must be an integer"):
        report_from_dict({**data, key: value})


_NOT_A_FIELD = "field parameter must be a square-free integer"


@pytest.mark.parametrize("d", [4, 1])
def test_weyl_from_dict_refuses_a_field_parameter_that_is_not_square_free(d):
    data = {**weyl_to_dict(random_weyl(4, 0, seed=13)), "d": d}
    with pytest.raises(ValueError, match=_NOT_A_FIELD):
        weyl_from_dict(data)


@pytest.mark.parametrize("d", [4, 1])
def test_report_from_dict_refuses_a_field_parameter_that_is_not_square_free(space21, d):
    u = space21.line(["1", "1*r", "0", "0", "-1"])
    v = space21.line(["1", "0", "0", "-1*r", "1"])
    data = report_to_dict(space21, find_symmetries(space21, u, v, space21.origin))
    with pytest.raises(ValueError, match=_NOT_A_FIELD):
        report_from_dict({**data, "d": d})


def test_extension_from_dict_refuses_a_field_parameter_that_is_not_square_free(space21):
    """Under d = 4 the literal 2-r is 2 - sqrt 4 = 0.  Written into the
    X-block of an m row of a flat-model file, it used to pass the quotient
    condition with rank 3, where the same entry written as 0 gives rank 2.
    The reader now refuses the file instead."""
    data = extension_to_dict(flat_model_extension(space21))
    row = data["alpha"][data["m"][0]]
    j = next(j for j in range(1, space21.n + 1) if row[j] != "0")
    row[j] = "0"
    zeroed = validate_extension(extension_from_dict(data)).quotient_condition
    assert not zeroed.passed and zeroed.witnesses == [2]
    row[j] = "2-r"
    for d in (4, 1):
        with pytest.raises(ValueError, match=_NOT_A_FIELD):
            extension_from_dict({**data, "d": d})


def _reader_files(space21) -> dict:
    """A valid file for each of the three readers."""
    u = space21.line(["1", "1*r", "0", "0", "-1"])
    v = space21.line(["1", "0", "0", "-1*r", "1"])
    return {
        "weyl": (weyl_from_dict, weyl_to_dict(random_weyl(4, 0, seed=13))),
        "report": (
            lambda data: report_from_dict(data)[1],
            report_to_dict(space21, find_symmetries(space21, u, v, space21.origin)),
        ),
        "extension": (extension_from_dict, extension_to_dict(flat_model_extension(space21))),
    }


@pytest.mark.parametrize("reader", ["weyl", "report", "extension"])
@pytest.mark.parametrize(
    "p, q, d",
    [
        (MAX_DIMENSION, 1, 2),
        (MAX_DIMENSION // 2, MAX_DIMENSION // 2 + 1, 2),
        # A bad signature or p + q is named before a bad field.
        (MAX_DIMENSION, 1, 4),
        (-1, 5, 4),
        (2, 0, 4),
        (2, 1, 4),
    ],
)
def test_every_reader_gates_a_file_as_the_global_flags_do(space21, reader, p, q, d):
    """Each reader refuses a (p, q, d) that the global flags refuse, with
    the same message, before anything of its size is built."""
    read, data = _reader_files(space21)[reader]
    with pytest.raises(ValueError) as flags:
        SessionConfig(p, q, d)
    with pytest.raises(ValueError) as file:
        read({**data, "p": p, "q": q, "d": d})
    assert str(file.value) == str(flags.value)


def test_structure_algebra_round_trip():
    alg, _, _ = sl2_pair()
    data = structure_algebra_to_dict(alg)
    back = structure_algebra_from_dict(data, 2)
    assert back.dim == alg.dim
    assert dense_table(back) == dense_table(alg)


def test_extension_round_trip(space21):
    ext = flat_model_extension(space21)
    data = extension_to_dict(ext)
    text = dump_canonical(data)
    back = extension_from_dict(json.loads(text))
    assert validate_extension(back).passed
    assert back.alpha == ext.alpha
    assert dump_canonical(extension_to_dict(back)) == text


# -- the sparse reader against the dense reference ----------------------------


def _algebra_dict(dim, table):
    """The file form of a dense table: each nonzero [b_i, b_j], i < j."""
    brackets = [
        [i, j, [str(c) for c in table[i][j]]]
        for i in range(dim)
        for j in range(i + 1, dim)
        if not table[i][j].is_zero()
    ]
    return {"dim": dim, "brackets": brackets}


def _over(table, d):
    """The same literals read over Q(sqrt d)."""
    return [[Vector(parse_scalar(str(c), d) for c in v) for v in row] for row in table]


def _reference_closed(dim, table, h):
    """Whether every [b_i, b_j] with i, j in h has all its terms in h."""
    return all(not table[i][j][k] for i in h for j in h for k in range(dim) if k not in h)


@given(_antisymmetric_tables(), st.sampled_from([2, 3]), st.data())
@settings(max_examples=150, deadline=None)
def test_sparse_reader_matches_the_dense_reference(case, d, data):
    dim, table = case
    table = _over(table, d)
    algebra = _algebra_dict(dim, table)
    failure = reference_jacobi_failure(dim, sparse_brackets(table))
    if failure is not None:
        with pytest.raises(ValueError, match=re.escape(f"Jacobi identity fails at {failure}")):
            structure_algebra_from_dict(algebra, d)
        return
    alg = structure_algebra_from_dict(algebra, d)
    # The reader's algebra is the constructor's: the same numerators,
    # and the Scalar rows it builds on first read, by bracket and by row.
    ref = StructureAlgebra(dim, sparse_brackets(table))
    assert alg._integer == ref._integer
    entry = _TABLE_ENTRY.map(lambda c: parse_scalar(str(c), d))
    vectors = st.lists(entry, min_size=dim, max_size=dim).map(Vector)
    for _ in range(3):
        x, y = data.draw(vectors), data.draw(vectors)
        got, want = alg.bracket(x, y), ref.bracket(x, y)
        assert got == want and [str(e) for e in got] == [str(e) for e in want]
    assert all(alg.row(i) == ref.row(i) for i in range(dim))
    assert structure_algebra_to_dict(alg) == algebra
    assert dense_table(alg) == table
    if dim < 3:
        return

    # an extension over the algebra: h a random subset, alpha random literals
    n = data.draw(st.integers(3, dim))
    p = data.draw(st.integers(0, n))
    h = sorted(data.draw(st.permutations(range(dim)))[: dim - n])
    cols = graded_dim(MobiusSpace(p, n - p))
    entry = _TABLE_ENTRY.map(str)
    alpha = [data.draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(dim)]
    ext_data = {
        "p": p,
        "q": n - p,
        "d": d,
        "algebra": algebra,
        "h": h,
        "m": [i for i in range(dim) if i not in h],
        "alpha": alpha,
        "symmetric": False,
    }
    if not _reference_closed(dim, table, h):
        with pytest.raises(ValueError, match="h is not a subalgebra"):
            extension_from_dict(ext_data)
        return
    ext = extension_from_dict(ext_data)
    assert extension_to_dict(ext) == ext_data
    assert validate_extension(ext) == reference_validate_extension(ext)


_FILE_LITERAL = st.sampled_from(
    ["0", "0", "0", "1", "-1", "1/2", "r", "-2/3*r", "1-r", "0/4", "-0"]
)


@st.composite
def _bracket_files(draw):
    """Algebra files as anyone might write them: up to four entries on any
    ordered pairs, the diagonal, reversed and repeated pairs included, with
    mostly zero literals, among them zeros that are not the literal "0"."""
    dim = draw(st.integers(1, 4))
    pair = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1))
    coeffs = st.lists(_FILE_LITERAL, min_size=dim, max_size=dim)
    entries = draw(st.lists(st.tuples(pair, coeffs), max_size=4))
    return {"dim": dim, "brackets": [[i, j, c] for (i, j), c in entries]}


@given(_bracket_files(), st.sampled_from([2, 3]))
@settings(max_examples=200, deadline=None)
def test_no_file_states_a_table_that_is_not_antisymmetric(algebra, d):
    """The reader takes only i < j, each pair once, and the algebra mirrors
    it, so the integer rows of every file it accepts pass the reference
    antisymmetry check."""
    try:
        alg = structure_algebra_from_dict(algebra, d)
    except ValueError:
        return
    rows = alg._integer[2]
    assert reference_antisymmetry_failure(rows) is None
    # Each entry is the bracket it states, and no other bracket is nonzero.
    for i, j, coeffs in algebra["brackets"]:
        assert alg.row(i).get(j, ()) == tuple(_terms_of(coeffs, d))
    stated = [ij for ij, terms in _mapping_of(algebra, d).items() if terms]
    nonzero = {(i, j) for i, row in enumerate(rows) for j in row}
    assert nonzero == {*stated, *((j, i) for i, j in stated)}


def _terms_of(coeffs, d):
    """The nonzero (k, c) of a coefficient list of a file."""
    return [(k, c) for k, c in ((k, parse_scalar(x, d)) for k, x in enumerate(coeffs)) if c]


def _mapping_of(algebra, d):
    """The i < j half, (i, j) -> nonzero (k, c), of a file's algebra, as the
    constructor and the reference take it."""
    return {(i, j): _terms_of(coeffs, d) for i, j, coeffs in algebra["brackets"]}


@pytest.mark.parametrize("d, literal", [(2, "2"), (3, "1/2*r")])
@pytest.mark.parametrize("entry", [0, 5, -1])
def test_jacobi_breaking_file_names_the_reference_triple_on_both_paths(d, literal, entry):
    """One coefficient of a bracket of the (3,1) flat file: its first
    nonzero one set to 2, or its first zero one set to 1/2*r over Q(sqrt 3).
    The reader and the constructor name the reference triple."""
    algebra = extension_to_dict(flat_model_extension(MobiusSpace(3, 1, d)))["algebra"]
    coeffs = algebra["brackets"][entry][2]
    if literal == "2":
        coeffs[next(k for k, x in enumerate(coeffs) if x != "0")] = literal
    else:
        coeffs[coeffs.index("0")] = literal
    dim = algebra["dim"]
    brackets = _mapping_of(algebra, d)
    failure = reference_jacobi_failure(dim, brackets)
    assert failure is not None
    with pytest.raises(ValueError) as by_reader:
        structure_algebra_from_dict(algebra, d)
    with pytest.raises(ValueError) as by_mapping:
        StructureAlgebra(dim, brackets)
    assert str(by_reader.value) == str(by_mapping.value) == f"Jacobi identity fails at {failure}"


@given(
    pq=st.sampled_from([(2, 1), (3, 1), (2, 2)]),
    d=st.sampled_from([2, 3]),
    data=st.data(),
)
@settings(max_examples=30, deadline=None)
def test_reports_on_flat_and_perturbed_files_match_the_reference(pq, d, data):
    flat = extension_to_dict(flat_model_extension(MobiusSpace(*pq, d)))
    ext = extension_from_dict(json.loads(dump_canonical(flat)))
    assert validate_extension(ext) == reference_validate_extension(ext)
    assert validate_extension(ext).passed
    bent = json.loads(dump_canonical(flat))
    dim = len(bent["alpha"])
    shift = st.sampled_from(["1", "-1/2", "r", "1-r", "-3/2+r"])
    for _ in range(data.draw(st.integers(1, 4))):
        i = data.draw(st.integers(0, dim - 1))
        j = data.draw(st.integers(0, len(bent["alpha"][i]) - 1))
        value = parse_scalar(bent["alpha"][i][j], d) + parse_scalar(data.draw(shift), d)
        bent["alpha"][i][j] = str(value)
    ext = extension_from_dict(bent)
    assert validate_extension(ext) == reference_validate_extension(ext)
    assert dump_canonical(extension_to_dict(ext)) == dump_canonical(bent)


@pytest.mark.parametrize("path", [("base_point",), ("witness", 0), ("swapping", "base")])
def test_report_from_dict_refuses_a_string_for_a_literal_list(space21, path):
    u = space21.line(["1", "1*r", "0", "0", "-1"])
    v = space21.line(["1", "0", "0", "-1*r", "1"])
    data = report_to_dict(space21, find_symmetries(space21, u, v, space21.origin))
    holder = data
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = "".join(holder[path[-1]])
    with pytest.raises(ValueError, match="expected a JSON array of scalar literals, got str"):
        report_from_dict(data)


# -- flags are JSON booleans ---------------------------------------------------


@pytest.mark.parametrize(
    "key, value", [("iso_u", "false"), ("iso_v", 0), ("in_span", []), ("in_span", None)]
)
def test_orbit_flags_must_be_json_booleans(key, value):
    data = {"iso_u": True, "iso_v": False, "in_span": True, key: value}
    message = f"{key!r} must be a JSON boolean, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        orbit_from_dict(data)


def test_subspace_empty_flag_must_be_a_json_boolean():
    point = {"empty": "false", "ambient": 3, "dim": 0, "base": ["0", "0", "0"], "dirs": []}
    with pytest.raises(ValueError, match="'empty' must be a JSON boolean, got 'false'"):
        subspace_from_dict(point, 2)
    assert subspace_from_dict({**point, "empty": False}, 2) == AffineSubspace(3, Vector.zero(3), [])


@pytest.mark.parametrize("value", ["3", 3.0, True, None])
@pytest.mark.parametrize("empty", [True, False])
def test_subspace_ambient_must_be_a_json_integer(value, empty):
    data = {"empty": empty, "ambient": value, "dim": 0, "base": ["0", "0", "0"], "dirs": []}
    with pytest.raises(ValueError, match=re.escape(f"'ambient' must be an integer, got {value!r}")):
        subspace_from_dict(data, 2)


@pytest.mark.parametrize("dim", [7, 0, 2, "1", 1.0, True])
def test_subspace_dim_must_be_the_number_of_directions(dim):
    data = {"empty": False, "ambient": 3, "dim": 1, "base": ["0", "0", "0"], "dirs": [["1", "0", "0"]]}
    assert subspace_from_dict(data, 2) == AffineSubspace(3, Vector.zero(3), [Vector.unit(3, 0)])
    with pytest.raises(ValueError, match="'dim'"):
        subspace_from_dict({**data, "dim": dim}, 2)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("ambient", "5", "'ambient' must be an integer, got '5'"),
        ("dim", 7, "'dim' 7 does not match the 0 'dirs'"),
    ],
)
@pytest.mark.parametrize("field", ["preserving", "preserve_first"])
def test_report_from_dict_checks_each_subspace_ambient_and_dim(space21, field, key, value, message):
    u = space21.line(["1", "1*r", "0", "0", "-1"])
    v = space21.line(["1", "0", "0", "-1*r", "1"])
    data = report_to_dict(space21, find_symmetries(space21, u, v, space21.origin))
    data[field] = {"empty": False, "ambient": 5, "dim": 0, "base": ["0"] * 5, "dirs": [], key: value}
    with pytest.raises(ValueError, match=re.escape(message)):
        report_from_dict(data)


@pytest.mark.parametrize(
    "path, value",
    [
        (("orbit", "iso_u"), "false"),
        (("orbit", "in_span"), 1),
        (("preserving", "empty"), "true"),
        (("swapping", "empty"), 0),
    ],
)
def test_report_from_dict_refuses_flags_that_are_not_booleans(space21, path, value):
    u = space21.line(["1", "1*r", "0", "0", "-1"])
    v = space21.line(["1", "0", "0", "-1*r", "1"])
    data = report_to_dict(space21, find_symmetries(space21, u, v, space21.origin))
    data[path[0]][path[1]] = value
    message = f"{path[1]!r} must be a JSON boolean, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        report_from_dict(data)
