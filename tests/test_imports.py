"""What a one-shot process imports, and the public namespace that loads it.

`import confsym` loads no submodule: each public name resolves on first
access.  Each command imports only the layers that it runs, and no path
imports `dataclasses` (which imports `inspect`).  The import sets are read in
a fresh interpreter per case, since this process has loaded every layer.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import confsym
from confsym.cli import SessionConfig, fixture_cases, main, run_fixture_case
from confsym.extension import ConditionReport, ExtensionReport, MetrizabilityReport
from confsym.flatmodel import OrbitLabel, Signature
from confsym.liealg import CoElement
from confsym.linalg import Matrix
from confsym.scalars import Scalar
from confsym.symmetry import SymmetryReport
from confsym.weyl import WeylBasis, weyl_space_basis

# The public names of the package, as the eager namespace bound them.
PUBLIC_NAMES = sorted(
    """
    AffineSubspace CoElement Extension FieldMismatchError HomogeneousPair Matrix
    MinkowskiForm MobiusSpace NullLine OrbitLabel Scalar Signature
    StructureAlgebra SymmetricPair SymmetryReport Vector WeylBasis WeylTensor
    annihilator apply_to_line bracket classify_orbit co_action
    conjugate_symmetry curvature degrade exp_nilpotent find_symmetries
    flat_model_extension is_involutive kernel killing_form make_symmetry
    metrizability_check parse_scalar prolongation random_weyl rank realize
    solve_affine solve_preserve solve_swap symmetry_criterion
    symmetry_criterion_search tangent_is_minus_id transitive_witness
    upsilon_action upsilon_bracket_constant validate_extension
    weyl_space_basis
    """.split()
)

# Prints the confsym submodules loaded after `main(argv)`, and whether
# `dataclasses` and `inspect` were.
_PROBE = """
import contextlib, io, json, sys
from confsym.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps({
    "code": code,
    "layers": sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("confsym.")),
    "dataclasses": "dataclasses" in sys.modules,
    "inspect": "inspect" in sys.modules,
}))
"""


def _subprocess_env() -> dict:
    """This environment, with the tested package first on PYTHONPATH."""
    src = str(Path(confsym.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def _probe(argv: list) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(argv)],
        capture_output=True,
        env=_subprocess_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def flat_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("imports") / "flat31.json"
    assert main(["--p", "3", "--q", "1", "extension", "make-flat", "-o", str(path)]) == 0
    return str(path)


LINES = ["--u", "1,1*r,0,0,-1", "--v", "1,0,0,-1*r,1"]

# The human mode builds no machine object, so a command that reads no file
# leaves the serializer unloaded as well.
HUMAN = {"serialize"}

# (argv after the global flags, the layers that must stay unloaded, the
# further layers that the human mode leaves unloaded)
COMMANDS = [
    (["--p", "4", "--q", "0", "weyl", "basis-dim"], {"extension", "symmetry"}, HUMAN),
    (["--p", "4", "--q", "0", "weyl", "prolongation", "--seed", "1"], {"extension", "symmetry"}, HUMAN),
    (["solve", *LINES], {"extension", "weyl"}, HUMAN),
    (["classify", *LINES], {"extension", "weyl"}, HUMAN),
    (["reproduce-paper"], {"extension", "weyl"}, HUMAN),
    (["extension", "make-flat"], {"symmetry", "weyl"}, set()),
    (["extension", "validate", "--file", "FLAT"], {"symmetry", "weyl"}, set()),
    (["extension", "curvature", "--file", "FLAT"], {"symmetry", "weyl"}, set()),
    (["extension", "criterion", "--file", "FLAT", "--y=1,0,0,0"], {"symmetry", "weyl"}, set()),
]


@pytest.mark.parametrize("machine", [False, True])
@pytest.mark.parametrize("argv, unloaded, human_unloaded", COMMANDS, ids=[" ".join(a[:3]) for a, _, _ in COMMANDS])
def test_each_command_imports_only_its_layers(flat_file, argv, unloaded, human_unloaded, machine):
    argv = [flat_file if x == "FLAT" else x for x in argv]
    got = _probe((["--machine"] if machine else []) + argv)
    assert got["code"] == 0
    if not machine:
        unloaded = unloaded | human_unloaded
    assert unloaded.isdisjoint(got["layers"]), got["layers"]
    assert not got["dataclasses"]
    assert not got["inspect"]


def test_import_confsym_loads_no_submodule():
    code = "import sys, confsym; print(sorted(m for m in sys.modules if m.startswith('confsym.')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=_subprocess_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().strip() == "[]"


def test_every_public_name_resolves():
    assert sorted(confsym.__all__) == PUBLIC_NAMES
    namespace = {}
    exec("from confsym import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == PUBLIC_NAMES
    listed = dir(confsym)
    for name in PUBLIC_NAMES:
        assert name in listed
        assert getattr(confsym, name) is namespace[name]
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        confsym.nonexistent


# -- the slotted records --------------------------------------------------------

def test_frozen_records_keep_equality_hash_repr_and_immutability():
    """Equal by fields, hashed as the tuple of fields, immutable, and the
    repr texts recorded while these classes were generated dataclasses."""
    report = run_fixture_case(fixture_cases()[0]).report
    fields = ("base_point", "witness", "orbit", "preserving", "swapping", "preserve_first", "preserve_second")
    cases = [
        (Signature(2, 1), Signature(2, 1), Signature(1, 2), (2, 1), "Signature(p=2, q=1)"),
        (
            OrbitLabel(True, False, True),
            OrbitLabel(True, False, True),
            OrbitLabel(True, True, True),
            (True, False, True),
            "OrbitLabel(iso_u=True, iso_v=False, in_span=True)",
        ),
        (
            CoElement(Scalar(1), Matrix.zero(2, 2)),
            CoElement(Scalar(1), Matrix.zero(2, 2)),
            CoElement(Scalar(2), Matrix.zero(2, 2)),
            (Scalar(1), Matrix.zero(2, 2)),
            "CoElement(a=Scalar('1', d=0), A=[0, 0; 0, 0])",
        ),
        (weyl_space_basis(3, 0), WeylBasis(3, 0, ()), WeylBasis(0, 3, ()), (3, 0, ()), "WeylBasis(p=3, q=0, elements=())"),
        (
            report,
            SymmetryReport(*(getattr(report, f) for f in fields)),
            run_fixture_case(fixture_cases()[1]).report,
            tuple(getattr(report, f) for f in fields),
            "SymmetryReport(base_point=<(1, 0, 0, 0, 0)>, witness=[1, 0, 0, 0, 0; 0, 1, 0, 0, 0; "
            "0, 0, 1, 0, 0; 0, 0, 0, 1, 0; 0, 0, 0, 0, 1], orbit=OrbitLabel(iso_u=False, iso_v=False, "
            "in_span=False), preserving=EMPTY, swapping=dim 0: base (-1*r, 0, 1*r), "
            "preserve_first=dim 0: base (-2*r, 0, 0), preserve_second=dim 0: base (0, 0, 2*r))",
        ),
    ]
    for value, same, other, fields_tuple, text in cases:
        assert value == same and not value != same
        assert value != other
        assert value != fields_tuple
        assert hash(value) == hash(same) == hash(fields_tuple)
        assert repr(value) == text
        name = text[text.index("(") + 1 : text.index("=")]
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(other, name))
        with pytest.raises(AttributeError):
            value.extra = 1
        assert repr(value) == text


def test_mutable_records_keep_equality_and_repr_and_stay_unhashable():
    cond = ConditionReport(True, "ok")
    assert cond == ConditionReport(True, "ok", []) and cond.witnesses == []
    assert cond != ConditionReport(False, "ok")
    assert ConditionReport(True, "ok").witnesses is not cond.witnesses
    assert repr(cond) == "ConditionReport(passed=True, detail='ok', witnesses=[])"
    report = ExtensionReport(cond, cond, ConditionReport(False, "bad", [1]))
    assert report == ExtensionReport(cond, cond, ConditionReport(False, "bad", [1]))
    assert not report.passed
    assert repr(report) == (
        "ExtensionReport(stabilizer_condition=ConditionReport(passed=True, detail='ok', witnesses=[]), "
        "quotient_condition=ConditionReport(passed=True, detail='ok', witnesses=[]), "
        "equivariance_condition=ConditionReport(passed=False, detail='bad', witnesses=[1]))"
    )
    metric = MetrizabilityReport(True, [(0, 1)], [])
    assert metric == MetrizabilityReport(True, [(0, 1)], [])
    assert repr(metric) == "MetrizabilityReport(passed=True, checked_pairs=[(0, 1)], failures=[])"
    for value in (cond, report, metric):
        with pytest.raises(TypeError):
            hash(value)
    cond.passed = False
    assert cond == ConditionReport(False, "ok")


def test_cli_records_are_slotted_with_their_defaults():
    """`SessionConfig` keeps its defaults, and no CLI record takes a field it
    does not declare.  Its checks are tested with the file readers'."""
    config = SessionConfig(3, 1)
    assert (config.p, config.q, config.d, config.machine) == (3, 1, 2, False)
    result = run_fixture_case(fixture_cases()[0])
    assert (result.case.case_id, result.match) == ("orbit-A", True)
    for value in (config, result.case, result):
        with pytest.raises(AttributeError):
            value.extra = 1
