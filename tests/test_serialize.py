import json

import pytest

from confsym.extension import flat_model_extension, validate_extension
from confsym.linalg import AffineSubspace, Vector
from confsym.scalars import Scalar
from confsym.serialize import (
    dump_canonical,
    extension_from_dict,
    extension_to_dict,
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
from confsym.weyl import random_weyl

from conftest import sl2_pair


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


@pytest.mark.parametrize("p, q", [(4, 0), (3, 1), (2, 2), (5, 0), (3, 2)])
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


@pytest.mark.parametrize("key, value", [("p", 2.0), ("q", "1"), ("d", 2.5), ("d", False)])
def test_report_from_dict_rejects_non_integer_signature_and_field(space21, key, value):
    u = space21.line(["1", "1*r", "0", "0", "-1"])
    v = space21.line(["1", "0", "0", "-1*r", "1"])
    data = report_to_dict(space21, find_symmetries(space21, u, v, space21.origin))
    with pytest.raises(ValueError, match=f"{key!r} must be an integer"):
        report_from_dict({**data, key: value})


def test_structure_algebra_round_trip():
    alg, _, _ = sl2_pair()
    data = structure_algebra_to_dict(alg)
    back = structure_algebra_from_dict(data, 2)
    assert back.dim == alg.dim
    for i in range(alg.dim):
        for j in range(alg.dim):
            assert back.table[i][j] == alg.table[i][j]


def test_extension_round_trip(space21):
    ext = flat_model_extension(space21)
    data = extension_to_dict(ext)
    text = dump_canonical(data)
    back = extension_from_dict(json.loads(text))
    assert validate_extension(back).passed
    assert back.alpha == ext.alpha
    assert dump_canonical(extension_to_dict(back)) == text
