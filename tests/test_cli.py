import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import confsym
from confsym import extension, liealg
from confsym.cli import EXIT_CLOSED_PIPE, MAX_DIMENSION, main, fixture_cases, run_fixture_case
from confsym.linalg import Vector
from confsym.scalars import Scalar
from confsym.serialize import dump_canonical


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_reproduce_paper_all_match(capsys):
    code, out = run(capsys, "reproduce-paper")
    assert code == 0
    assert "6/6 cases match" in out


def test_reproduce_paper_machine_mode_round_trips(capsys):
    code, out = run(capsys, "--machine", "reproduce-paper")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 6
    assert all(entry["match"] for entry in data)
    assert {entry["case_id"] for entry in data} == {
        "orbit-A",
        "orbit-B",
        "orbit-C",
        "orbit-D",
        "example-2",
        "example-3",
    }
    assert dump_canonical(data) == out.strip()


def test_each_case_individually():
    for case in fixture_cases():
        result = run_fixture_case(case)
        assert result.match, case.case_id


@pytest.mark.parametrize("d", ["3", "5"])
@pytest.mark.parametrize("machine", [[], ["--machine"]])
def test_reproduce_paper_rejects_other_fields(capsys, d, machine):
    # The desk cases are Q(sqrt 2) data: under another d their lines are not null.
    err = _bad_input(capsys, "--d", d, *machine, "reproduce-paper")
    assert "Q(sqrt 2) only" in err


def test_classify_command(capsys):
    code, out = run(
        capsys, "classify", "--u", "1,1*r,0,0,-1", "--v", "1,0,0,-1*r,1"
    )
    assert code == 0
    assert "iso_u=False iso_v=False in_span=False" in out


def _bad_input(capsys, *argv):
    """Run a command that must exit 2 with one `error:` line and no output."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


def test_classify_rejects_removed_point(capsys):
    err = _bad_input(capsys, "classify", "--u", "0,1,0,1,0", "--v", "0,0,0,0,1", "--w", "0,1,0,1,0")
    assert "removed point" in err


def test_classify_rejects_bad_literal(capsys):
    err = _bad_input(capsys, "classify", "--u", "1,oops,0,0,-1", "--v", "0,0,0,0,1")
    assert "bad vector" in err


def test_classify_rejects_zero_denominator(capsys):
    err = _bad_input(
        capsys, "--p", "2", "--q", "1", "classify", "--u", "1/0,0,0,0,0", "--v", "0,0,0,0,1"
    )
    assert "bad scalar literal '1/0'" in err


def test_solve_human_output(capsys):
    code, out = run(capsys, "solve", "--u", "0,1,0,1,0", "--v", "0,0,0,0,1")
    assert code == 0
    assert "preserving both lines: unique Z = (0, 0, 0)" in out
    assert "swapping the lines:   EMPTY" in out


def test_solve_machine_round_trip(capsys):
    code, out = run(capsys, "--machine", "solve", "--u", "0,1,0,1,0", "--v", "0,0,0,0,1")
    assert code == 0
    assert dump_canonical(json.loads(out)) == out.strip()


@pytest.mark.parametrize("machine", [[], ["--machine"]])
@pytest.mark.parametrize(
    "command, flags",
    [
        ("solve", [("--u", "-1,0,0,1*r,1"), ("--v", "1,0,0,1*r,-1")]),
        ("solve", [("--u", "-r,0,0,2,1*r"), ("--v", "1,0,0,1*r,-1"), ("--w", "-1/2,1,0,0,1")]),
        ("classify", [("--u", "-1,0,0,1*r,1"), ("--v", "1,0,0,1*r,-1"), ("--w", "-2,0,2,0,1")]),
    ],
)
def test_list_flag_value_may_start_with_a_minus(capsys, machine, command, flags):
    head = [*machine, "--p", "3", "--q", "0", command]
    code, spaced = run(capsys, *head, *[x for flag in flags for x in flag])
    assert code == 0
    assert run(capsys, *head, *[f"{flag}={value}" for flag, value in flags]) == (0, spaced)


@pytest.mark.parametrize("flag, value", [("--y", "-1,0,0"), ("--candidates", "-1,0,0;0,1,0")])
def test_criterion_list_value_may_start_with_a_minus(tmp_path, capsys, flag, value):
    path = tmp_path / "flat21.json"
    run(capsys, "--p", "2", "--q", "1", "extension", "make-flat", "-o", str(path))
    head = ["--machine", "extension", "criterion", "--file", str(path)]
    code, spaced = run(capsys, *head, flag, value)
    assert code in (0, 1) and spaced
    assert run(capsys, *head, f"{flag}={value}") == (code, spaced)


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--u", "--v", "0,0,0,0,1"],
        ["solve", "--v", "0,0,0,0,1", "--u"],
        ["classify", "--u", "-h"],
        ["solve", "--u", "--machine", "--v", "0,0,0,0,1"],
    ],
)
def test_list_flag_without_a_value_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def test_solve_reads_input_file(tmp_path, capsys):
    payload = {
        "p": 2,
        "q": 1,
        "d": 2,
        "u": ["1", "r", "0", "0", "-1"],
        "v": ["1", "0", "0", "-r", "1"],
        "w": ["1", "0", "0", "0", "0"],
    }
    path = tmp_path / "lines.json"
    path.write_text(json.dumps(payload))
    code, out = run(capsys, "--machine", "solve", "--file", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["swapping"]["dim"] == 0
    assert data["swapping"]["base"] == ["-1*r", "0", "1*r"]


def test_weyl_basis_dim(capsys):
    code, out = run(capsys, "--p", "4", "--q", "0", "weyl", "basis-dim")
    assert code == 0
    assert "10" in out
    code, out = run(capsys, "--p", "3", "--q", "0", "weyl", "basis-dim")
    assert code == 0
    assert "0" in out


def test_weyl_prolongation(capsys):
    code, out = run(capsys, "--p", "4", "--q", "0", "weyl", "prolongation", "--seed", "7")
    assert code == 0
    assert "prolongation dimension: 0" in out


def test_weyl_prolongation_on_trivial_space_errors(capsys):
    err = _bad_input(capsys, "--p", "3", "--q", "0", "weyl", "prolongation")
    assert "trivial" in err


# SHA-256 of the exit codes and stdout of `weyl prolongation`, human and
# --machine, for seeds 0, 1 and 2, and of `weyl basis-dim` on (n, 0), human
# and --machine, recorded before Weyl tensors were stored by component orbit.
WEYL_PROLONGATION_SHA256 = {
    (4, 0, 2): "2531eb791822c57f080de302d04999a0485c8ec96725b458e56db5a1897af180",
    (4, 0, 3): "565224551b57685f39c614dd77fcaf3a0ee118410098a36431105d2cd1d1ea49",
    (3, 1, 2): "a890db0ecccf2fc997a4e930fb4b2630d401ca467b37faa7bafb9a3281eddb0b",
    (3, 1, 3): "2d2a6a748c11f69b99d36835a82986f4bb41e36663f1a90544b1194c09678a93",
    (2, 2, 2): "964e1368aab4c1e1e217b6ef531e184829a8ab939ff0016d8e67a439cf22d1c9",
    (2, 2, 3): "7d702390c95c4febac9a94407f3c669d8fe06d01521fcd72fcf94936581b617f",
    (5, 0, 2): "426f6a666321f5a29d6c7905870ea8282d1b0327214031d9eaa59e1cc35a1679",
    (5, 0, 3): "0cb493de4dbd84e0575d8f7a9e8dd9e0211c574d0a729f3c3c4a78ef3cba07a7",
    (3, 2, 2): "fba0f27fd51d079c34ddc38a14f00f31cc1cd4ad3013ce4c2dd6c8d9bcd2baa7",
    (3, 2, 3): "f25f4e5134a815b77738c55904951783e726370ecc32645509f7d298de37a271",
}
WEYL_BASIS_DIM_SHA256 = {
    3: "596312cfd92068c9edefabd8c9f79f01c69889c9acc65fa01c0642cd64afbd15",
    4: "210d6cebce81a2e22a6e12d542a8aebbdb1f8e007f0254b65c285594e73ac262",
    5: "57edcf685a557e0b2219acd5d932c98990977cddd3639df5d5dd3b220bb2d188",
    6: "6093251e1f76a85cad34983027de1aeb44b124b79eef7b4aecefbf14eb0a5e5c",
}


def _transcript(capsys, runs):
    out = "".join("{}\n{}".format(*run(capsys, *argv)) for argv in runs)
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("p, q, d", sorted(WEYL_PROLONGATION_SHA256))
def test_weyl_prolongation_output_is_pinned(capsys, p, q, d):
    runs = [
        ["--p", str(p), "--q", str(q), "--d", str(d), *mode, "weyl", "prolongation", "--seed", str(seed)]
        for seed in range(3)
        for mode in ([], ["--machine"])
    ]
    assert _transcript(capsys, runs) == WEYL_PROLONGATION_SHA256[p, q, d]


@pytest.mark.parametrize("n", sorted(WEYL_BASIS_DIM_SHA256))
def test_weyl_basis_dim_output_is_pinned(capsys, n):
    runs = [["--p", str(n), "--q", "0", *mode, "weyl", "basis-dim"] for mode in ([], ["--machine"])]
    assert _transcript(capsys, runs) == WEYL_BASIS_DIM_SHA256[n]


def test_make_flat_into_a_missing_directory_exits_2(tmp_path, capsys):
    err = _bad_input(capsys, "extension", "make-flat", "-o", str(tmp_path / "missing" / "x.json"))
    assert "cannot write" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["validate", "--file", "FLAT", "--y", "1,0,0"], "--y"),
        (["validate", "--file", "FLAT", "--candidates", "1,0,0"], "--candidates"),
        (["curvature", "--file", "FLAT", "--y", "1,0,0"], "--y"),
        (["curvature", "--file", "FLAT", "--candidates", "1,0,0"], "--candidates"),
        (["make-flat", "--y", "1,0,0"], "--y"),
        (["make-flat", "--candidates", "1,0,0"], "--candidates"),
        (["make-flat", "--file", "FLAT"], "--file"),
        (["validate", "--file", "FLAT", "-o", "OUT"], "--output"),
        (["curvature", "--file", "FLAT", "-o", "OUT"], "--output"),
        (["criterion", "--file", "FLAT", "-o", "OUT"], "--output"),
    ],
)
def test_extension_refuses_a_flag_its_subcommand_does_not_read(tmp_path, capsys, argv, flag):
    # Each flag used to be dropped silently, with exit 0.
    flat = tmp_path / "flat21.json"
    out = tmp_path / "out.json"
    run(capsys, "--p", "2", "--q", "1", "extension", "make-flat", "-o", str(flat))
    argv = [{"FLAT": str(flat), "OUT": str(out)}.get(x, x) for x in argv]
    err = _bad_input(capsys, "extension", *argv)
    assert err == f"error: extension {argv[0]} takes no {flag}\n"
    assert not out.exists()


def test_weyl_basis_dim_refuses_a_seed(capsys):
    err = _bad_input(capsys, "--p", "4", "--q", "0", "weyl", "basis-dim", "--seed", "3")
    assert err == "error: weyl basis-dim takes no --seed\n"


def test_weyl_prolongation_seed_defaults_to_0(capsys):
    argv = ["--p", "4", "--q", "0", "--machine", "weyl", "prolongation"]
    assert run(capsys, *argv) == run(capsys, *argv, "--seed", "0")


@pytest.mark.parametrize(
    "argv, read, unbuffered",
    [
        (["--p", "4", "--q", "3", "extension", "make-flat"], 10, False),
        (["--p", "4", "--q", "3", "extension", "make-flat"], 10, True),
        (["--p", "4", "--q", "0", "weyl", "basis-dim"], 0, False),
        (["--p", "4", "--q", "0", "weyl", "basis-dim"], 0, True),
        # Unbuffered, argparse itself ignores the failed write of --help.
        (["--help"], 0, False),
    ],
)
def test_closed_pipe_exits_quietly(argv, read, unbuffered):
    """The reader of a real pipe closes it after `read` bytes: after 10 of
    the 166 KB of make-flat, or before basis-dim or --help writes anything.
    The command ends with EXIT_CLOSED_PIPE and an empty stderr, where it used
    to show a BrokenPipeError traceback.  With buffered output the short
    texts reach the pipe only when the command flushes."""
    src = str(Path(confsym.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with subprocess.Popen(
        [sys.executable, "-m", "confsym.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        assert len(proc.stdout.read(read)) == read
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == EXIT_CLOSED_PIPE
    assert err == b""


def test_extension_flow(tmp_path, capsys):
    path = tmp_path / "flat.json"
    code, _ = run(capsys, "extension", "make-flat", "-o", str(path))
    assert code == 0
    code, out = run(capsys, "extension", "validate", "--file", str(path))
    assert code == 0
    assert out.count("pass") == 3
    code, out = run(capsys, "extension", "curvature", "--file", str(path))
    assert code == 0
    assert "identically zero" in out
    code, out = run(capsys, "extension", "criterion", "--file", str(path))
    assert code == 0
    assert "True" in out
    code, out = run(capsys, "extension", "criterion", "--file", str(path), "--candidates", "0,0,0;1,0,0")
    assert code == 0
    assert "first passing Y" in out


def test_extension_validate_machine(tmp_path, capsys):
    path = tmp_path / "flat.json"
    run(capsys, "extension", "make-flat", "-o", str(path))
    code, out = run(capsys, "--machine", "extension", "validate", "--file", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["stabilizer"]["passed"]
    assert data["quotient"]["passed"]
    assert data["equivariance"]["passed"]
    assert dump_canonical(data) == out.strip()


# SHA-256 of the make-flat output before its table came from `so_table`.
MAKE_FLAT_SHA256 = {
    (2, 1, 2): "5c5973f12cd6c700d4886f29b82082864d07d11b979c28dd1b9866c1a27ad929",
    (3, 1, 2): "926e1bb1d3e5e1f013b78fcde702f3996691979b8c8075bcd3248ff2d647eca7",
    (2, 2, 2): "d5debdb28c321505aa76a88449732d7189c5be7c9279a4e2947aec31ebc8149e",
    (2, 1, 3): "97e4364d8207b3e101b89405f371b5c8b5fe1594ce1e0ed6b4491bb002d4910f",
}


@pytest.mark.parametrize("p, q, d", sorted(MAKE_FLAT_SHA256))
def test_make_flat_output_is_pinned(capsys, p, q, d):
    code, out = run(capsys, "--p", str(p), "--q", str(q), "--d", str(d), "extension", "make-flat")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == MAKE_FLAT_SHA256[p, q, d]


# SHA-256 of the exit codes and stdout of `extension validate`, `curvature`,
# `criterion --y` and `criterion --candidates`, machine and human, on the
# flat model and on two perturbations of it, recorded before the extension
# layer moved to graded coordinates throughout.  "scaling" shifts the scaling
# coordinate of one h row, which breaks equivariance only; "bent" shifts two
# m rows, which makes the curvature nonzero, and drops the image of one
# h basis element, which makes the criterion fail for some Y.
EXTENSION_SHA256 = {
    (2, 1, 2, 'flat'): "85fbd654fdc232b3f6bd53a95d215dd311b9924402134e1430ce23537040aee1",
    (2, 1, 2, 'scaling'): "c80f241540d2c4cea4b1addc360e9a8eb9c89a5e97822f2405a36089d77266c2",
    (2, 1, 2, 'bent'): "22e432f19fac513d5087fccfd61a8a370fe039f6c4d890c5e0f64c38326f7d4e",
    (2, 1, 3, 'flat'): "85fbd654fdc232b3f6bd53a95d215dd311b9924402134e1430ce23537040aee1",
    (2, 1, 3, 'scaling'): "c80f241540d2c4cea4b1addc360e9a8eb9c89a5e97822f2405a36089d77266c2",
    (2, 1, 3, 'bent'): "8061c0e73a58737a39b2f9a9d71a20c7296453ebf6d4ee01e7f2a699b5a84e8a",
    (3, 1, 2, 'flat'): "f43cf9156ec0b206032a4cf0e122b829a8fe83a28ab70c11c6d182548c471fd8",
    (3, 1, 2, 'scaling'): "079753ea814fd9437994441f485ddd3cba5190a8a005a1da18744bea119f2c08",
    (3, 1, 2, 'bent'): "375f4c8e6fb1b67f8c67d41d2ba217c8b7de4eec20e91cfcde31eaab63b3cd2b",
    (3, 1, 3, 'flat'): "f43cf9156ec0b206032a4cf0e122b829a8fe83a28ab70c11c6d182548c471fd8",
    (3, 1, 3, 'scaling'): "079753ea814fd9437994441f485ddd3cba5190a8a005a1da18744bea119f2c08",
    (3, 1, 3, 'bent'): "e5822d108f2eaab7e4acb8b4a8d1a25fd9a8298c9caec49f5d3814f39759e820",
    (2, 2, 2, 'flat'): "f43cf9156ec0b206032a4cf0e122b829a8fe83a28ab70c11c6d182548c471fd8",
    (2, 2, 2, 'scaling'): "079753ea814fd9437994441f485ddd3cba5190a8a005a1da18744bea119f2c08",
    (2, 2, 2, 'bent'): "375f4c8e6fb1b67f8c67d41d2ba217c8b7de4eec20e91cfcde31eaab63b3cd2b",
    (2, 2, 3, 'flat'): "f43cf9156ec0b206032a4cf0e122b829a8fe83a28ab70c11c6d182548c471fd8",
    (2, 2, 3, 'scaling'): "079753ea814fd9437994441f485ddd3cba5190a8a005a1da18744bea119f2c08",
    (2, 2, 3, 'bent'): "e5822d108f2eaab7e4acb8b4a8d1a25fd9a8298c9caec49f5d3814f39759e820",
}


def _extension_file(tmp_path, capsys, p, q, d, kind):
    path = tmp_path / f"{kind}.json"
    run(capsys, "--p", str(p), "--q", str(q), "--d", str(d), "extension", "make-flat", "-o", str(path))
    data = json.loads(path.read_text())
    if kind == "scaling":
        data["alpha"][p + q + 1][0] = "1-1/2*r"
    elif kind == "bent":
        data["alpha"][1][0] = "1/2+r"
        data["alpha"][2][-2] = "-r"
        data["alpha"][-2] = ["0"] * len(data["alpha"][-2])
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("p, q, d, kind", sorted(EXTENSION_SHA256))
def test_extension_outputs_are_pinned(tmp_path, capsys, p, q, d, kind):
    path = str(_extension_file(tmp_path, capsys, p, q, d, kind))
    n = p + q
    y = ",".join(["1", "-1/2", "r"] + ["0"] * (n - 3))
    candidates = ";".join([",".join(["r"] * n), y, ",".join(["0"] * n)])
    transcript = []
    for mode in ([], ["--machine"]):
        for command in (
            ["validate"],
            ["curvature"],
            ["criterion", f"--y={y}"],
            ["criterion", f"--candidates={candidates}"],
        ):
            code, out = run(capsys, *mode, "extension", *command, "--file", path)
            transcript.append(f"{code}\n{out}")
    digest = hashlib.sha256("".join(transcript).encode()).hexdigest()
    assert digest == EXTENSION_SHA256[p, q, d, kind]


@pytest.mark.parametrize(
    "flag",
    ["--y=1,0", "--y=1,0,0,0", "--candidates=1,0;0,1", "--candidates=0,0,0;1,0"],
)
def test_criterion_rejects_a_covector_of_the_wrong_length(tmp_path, capsys, flag):
    path = tmp_path / "flat21.json"
    run(capsys, "--p", "2", "--q", "1", "extension", "make-flat", "-o", str(path))
    err = _bad_input(capsys, "extension", "criterion", "--file", str(path), flag)
    assert "expected 3" in err


@pytest.mark.parametrize("joined", [False, True])
@pytest.mark.parametrize(
    "flags, message",
    [
        ([("--y", "")], "--y needs a value"),
        ([("--candidates", "")], "--candidates needs a value"),
        ([("--y", "1,0,0"), ("--candidates", "1,0,0;0,1,0")], "not both"),
        ([("--candidates", "-1,0,0"), ("--y", "0,0,0")], "not both"),
    ],
)
def test_criterion_refuses_an_empty_or_a_second_covector_flag(
    tmp_path, capsys, joined, flags, message
):
    # Both used to run the criterion at Y = 0, or ignore --y, and exit 0.
    path = tmp_path / "flat21.json"
    run(capsys, "--p", "2", "--q", "1", "extension", "make-flat", "-o", str(path))
    if joined:
        argv = [f"{flag}={value}" for flag, value in flags]
    else:
        argv = [x for pair in flags for x in pair]
    err = _bad_input(capsys, "--machine", "extension", "criterion", "--file", str(path), *argv)
    assert message in err


@pytest.mark.parametrize("command", ["validate", "curvature", "criterion"])
def test_extension_file_whose_m_does_not_match_the_signature(tmp_path, capsys, command):
    # An empty h and all ten indices in m: validate used to end in a traceback.
    def edit(data):
        data["h"], data["m"] = [], list(range(10))

    path = _edited_flat_file(tmp_path, capsys, edit)
    err = _bad_input(capsys, "--machine", "extension", command, "--file", str(path))
    assert "'m' has 10 indices, expected p + q = 3" in err


def test_extension_file_with_non_list_alpha(tmp_path, capsys):
    path = tmp_path / "flat.json"
    run(capsys, "extension", "make-flat", "-o", str(path))
    path.write_text(json.dumps({**json.loads(path.read_text()), "alpha": 5}))
    err = _bad_input(capsys, "extension", "validate", "--file", str(path))
    assert "cannot load extension" in err


def _edited_flat_file(tmp_path, capsys, edit):
    path = tmp_path / "flat.json"
    run(capsys, "--p", "2", "--q", "1", "extension", "make-flat", "-o", str(path))
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize(
    "entry",
    [
        [0, 99],  # past the dimension
        [-1, 2],  # would wrap to the last basis element
        [3, 1],  # not i < j
        [2, 2],
        [0, "1"],  # not an integer
        [0, 1.0],
    ],
)
def test_extension_file_with_bad_bracket_indices(tmp_path, capsys, entry):
    def edit(data):
        coeffs = data["algebra"]["brackets"][0][2]
        data["algebra"]["brackets"].append(entry + [coeffs])

    path = _edited_flat_file(tmp_path, capsys, edit)
    err = _bad_input(capsys, "extension", "validate", "--file", str(path))
    assert "bracket entry" in err


@pytest.mark.parametrize("command", ["validate", "curvature", "criterion"])
def test_extension_file_with_zero_denominator(tmp_path, capsys, command):
    def edit(data):
        data["alpha"][0][1] = "1/0"

    path = _edited_flat_file(tmp_path, capsys, edit)
    err = _bad_input(capsys, "extension", command, "--file", str(path))
    assert "bad scalar literal '1/0'" in err


@pytest.mark.parametrize("delta", [-1, 1])
def test_extension_file_with_wrong_coefficient_count(tmp_path, capsys, delta):
    def edit(data):
        coeffs = data["algebra"]["brackets"][0][2]
        data["algebra"]["brackets"][0][2] = coeffs[:-1] if delta < 0 else coeffs + ["0"]

    path = _edited_flat_file(tmp_path, capsys, edit)
    err = _bad_input(capsys, "extension", "validate", "--file", str(path))
    assert "coefficients" in err


def test_extension_file_with_repeated_bracket_entry(tmp_path, capsys):
    def edit(data):
        data["algebra"]["brackets"].append(data["algebra"]["brackets"][0])

    path = _edited_flat_file(tmp_path, capsys, edit)
    err = _bad_input(capsys, "extension", "validate", "--file", str(path))
    assert "repeated" in err


@pytest.mark.parametrize("literal", ["0.0", "O", "0/0", "--0", "0*s"])
@pytest.mark.parametrize("where", ["bracket", "alpha"])
def test_bad_literal_among_zeros_exits_2(tmp_path, capsys, literal, where):
    def edit(data):
        coeffs = data["algebra"]["brackets"][0][2] if where == "bracket" else data["alpha"][0]
        coeffs[coeffs.index("0")] = literal

    path = _edited_flat_file(tmp_path, capsys, edit)
    err = _bad_input(capsys, "extension", "validate", "--file", str(path))
    assert f"bad scalar literal {literal!r}" in err


def _hostile_file(path, dim, brackets):
    """p = 2, q = 1, dim - 3 h indices, all-zero alpha: the pair is fine but
    the quotient condition fails."""
    data = {
        "p": 2,
        "q": 1,
        "d": 2,
        "algebra": {"dim": dim, "brackets": brackets},
        "h": list(range(3, dim)),
        "m": [0, 1, 2],
        "alpha": [["0"] * 10 for _ in range(dim)],
    }
    path.write_text(json.dumps(data))
    return path


def _count_double_brackets(monkeypatch, counts):
    """Count the double brackets [b_x, [b_y, b_z]] that `_check_jacobi`
    visits: one for each key of each row m it reads."""
    jacobi = liealg._check_jacobi

    class Rows(list):
        def __getitem__(self, m):
            row = super().__getitem__(m)
            counts["double brackets"] += len(row)
            return row

    monkeypatch.setattr(liealg, "_check_jacobi", lambda d, rows: jacobi(d, Rows(rows)))


@pytest.mark.parametrize("one_bracket", [False, True])
@pytest.mark.parametrize("dim", [100, 400])
def test_large_sparse_extension_file_takes_linear_work(tmp_path, capsys, monkeypatch, dim, one_bracket):
    # [b_3, b_4] = b_5 stays in h and satisfies Jacobi.
    brackets = [[3, 4, ["0"] * 5 + ["1"] + ["0"] * (dim - 6)]] if one_bracket else []
    path = _hostile_file(tmp_path / "big.json", dim, brackets)
    # Jacobi double brackets visited, bracket-table lookups, sides compared
    # by the equivariance check, Scalars built and entries of the Vectors
    # built (a unit vector per h index would make these dim^2).
    counts = {"double brackets": 0, "lookups": 0, "sides": 0, "scalars": 0, "entries": 0}
    row = liealg.StructureAlgebra.row
    scaled = extension._scaled
    init = Scalar.__init__
    vector_init = Vector.__init__
    of_scalars = Vector._of_scalars

    def counting_row(self, i):
        counts["lookups"] += 1
        return row(self, i)

    def counting_scaled(acc, f):
        counts["sides"] += 1
        return scaled(acc, f)

    def counting_init(self, *args):
        counts["scalars"] += 1
        init(self, *args)

    def counting_vector_init(self, entries):
        vector_init(self, entries)
        counts["entries"] += len(self)

    def counting_of_scalars(cls, entries):
        v = of_scalars(entries)
        counts["entries"] += len(v)
        return v

    _count_double_brackets(monkeypatch, counts)
    monkeypatch.setattr(Vector, "__init__", counting_vector_init)
    monkeypatch.setattr(Vector, "_of_scalars", classmethod(counting_of_scalars))
    monkeypatch.setattr(liealg.StructureAlgebra, "row", counting_row)
    monkeypatch.setattr(extension, "_scaled", counting_scaled)
    monkeypatch.setattr(Scalar, "__init__", counting_init)
    code, out = run(capsys, "--machine", "extension", "validate", "--file", str(path))
    assert code == 1
    report = json.loads(out)
    assert not report["quotient"]["passed"]
    assert report["stabilizer"]["passed"] and report["equivariance"]["passed"]
    # b_5 has no nonzero bracket, so [b_3, b_4] = b_5 has no outer bracket.
    assert counts["double brackets"] == 0
    assert counts["lookups"] <= 2 * dim
    assert counts["sides"] == (4 if one_bracket else 0)
    assert counts["scalars"] <= 2 * dim
    assert counts["entries"] <= 2 * dim


def test_derivation_algebra_file_takes_linear_jacobi_work(tmp_path, capsys, monkeypatch):
    """[b_0, b_j] = b_j for every j >= 1: dim - 1 nonzero brackets, which
    reach about dim^2 / 2 triples, but only dim - 1 double brackets."""
    dim = 1000
    path = _hostile_file(
        tmp_path / "derivation.json",
        dim,
        [[0, j, ["0"] * j + ["1"] + ["0"] * (dim - j - 1)] for j in range(1, dim)],
    )
    data = json.loads(path.read_text())
    data["h"], data["m"] = [0] + list(range(4, dim)), [1, 2, 3]
    path.write_text(json.dumps(data))
    counts = {"double brackets": 0}
    _count_double_brackets(monkeypatch, counts)
    code, out = run(capsys, "--machine", "extension", "validate", "--file", str(path))
    assert code == 1
    assert not json.loads(out)["quotient"]["passed"]
    assert 0 < counts["double brackets"] <= 2 * dim


@pytest.mark.parametrize("dim", [10**9, 11, 9])
def test_extension_file_dim_is_bounded_by_its_lists(tmp_path, capsys, dim):
    def edit(data):
        data["algebra"]["dim"] = dim

    path = _edited_flat_file(tmp_path, capsys, edit)
    err = _bad_input(capsys, "extension", "validate", "--file", str(path))
    assert f"algebra dim {dim} does not match" in err


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("p", MAX_DIMENSION, f"need p + q <= {MAX_DIMENSION}, got {MAX_DIMENSION + 1}"),
        ("d", 4, "square-free"),
    ],
)
def test_extension_file_signature_and_field_are_checked(tmp_path, capsys, key, value, message):
    def edit(data):
        data[key] = value

    path = _edited_flat_file(tmp_path, capsys, edit)
    err = _bad_input(capsys, "extension", "validate", "--file", str(path))
    assert message in err


@pytest.mark.parametrize(
    "field, value",
    [
        (["p"], 2.9),  # was read as 2
        (["p"], "2"),
        (["q"], True),
        (["d"], 2.0),
        (["algebra", "dim"], 10.7),  # was read as 10
        (["algebra", "dim"], "10"),
        (["h", 0], 1.5),  # was read as 1
        (["h", 0], -1),
        (["m", 0], 10),
        (["m", 0], "1"),
    ],
)
def test_extension_file_fields_must_be_integers(tmp_path, capsys, field, value):
    def edit(data):
        *keys, last = field
        for key in keys:
            data = data[key]
        data[last] = value

    path = _edited_flat_file(tmp_path, capsys, edit)
    err = _bad_input(capsys, "extension", "validate", "--file", str(path))
    key = field[0] if field[0] in ("h", "m") else field[-1]
    assert f"{key!r}" in err and f"{value!r}" in err


def test_commands_are_deterministic(capsys):
    args = ["--machine", "solve", "--u", "0,1,0,1,0", "--v", "1,1,0,1,0"]
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second
    args = ["--machine", "classify", "--u", "0,1,0,1,0", "--v", "1,1,0,1,0"]
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


def test_bad_signature_rejected(capsys):
    code = main(["--p", "1", "--q", "1", "weyl", "basis-dim"])
    assert code == 2
    assert "p + q" in capsys.readouterr().err


def test_bad_field_parameter_rejected(capsys):
    code = main(["--d", "4", "weyl", "basis-dim"])
    assert code == 2


def test_huge_field_parameter_rejected(capsys):
    assert main(["--d", str(10**18 + 9), "weyl", "basis-dim"]) == 2
    assert "limit" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["weyl", "basis-dim"], ["extension", "make-flat"]])
def test_dimension_flag_is_bounded(capsys, command):
    err = _bad_input(capsys, "--p", str(MAX_DIMENSION), "--q", "1", *command)
    assert err == f"error: need p + q <= {MAX_DIMENSION}, got {MAX_DIMENSION + 1}\n"


def test_negative_signature_part_rejected(capsys):
    code = main(["--p", "-1", "--q", "5", "weyl", "basis-dim"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: need p >= 0 and q >= 0") and err.count("\n") == 1


_LINES = {"p": 2, "q": 1, "u": ["1", "r", "0", "0", "-1"], "v": ["1", "0", "0", "-r", "1"]}


def _solve_file(tmp_path, capsys, payload):
    path = tmp_path / "lines.json"
    path.write_text(json.dumps(payload))
    code = main(["solve", "--file", str(path)])
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err


@pytest.mark.parametrize("key", ["u", "v", "p", "q"])
def test_input_file_missing_field(tmp_path, capsys, key):
    payload = {k: v for k, v in _LINES.items() if k != key}
    code, err = _solve_file(tmp_path, capsys, payload)
    assert code == 2
    assert err == f"error: input file has no {key!r}\n"


@pytest.mark.parametrize("key, value", [("p", "two"), ("q", 1.5), ("p", None), ("q", True)])
def test_input_file_non_integer_signature(tmp_path, capsys, key, value):
    code, err = _solve_file(tmp_path, capsys, {**_LINES, key: value})
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(key) in err


def test_input_file_dimension_is_bounded(tmp_path, capsys):
    code, err = _solve_file(tmp_path, capsys, {**_LINES, "p": MAX_DIMENSION})
    assert code == 2
    assert err == f"error: need p + q <= {MAX_DIMENSION}, got {MAX_DIMENSION + 1}\n"


def test_input_file_small_signature(tmp_path, capsys):
    code, err = _solve_file(tmp_path, capsys, {**_LINES, "p": 1, "q": 1})
    assert code == 2
    assert err == "error: need p + q >= 3\n"


@pytest.mark.parametrize("key", ["u", "v", "w"])
def test_input_file_vector_must_be_an_array(tmp_path, capsys, key):
    # "01010" would otherwise be read one character per entry.
    payload = {**_LINES, "w": ["1", "0", "0", "0", "0"], key: "01010"}
    code, err = _solve_file(tmp_path, capsys, payload)
    assert code == 2
    assert err.startswith(f"error: bad vector {key!r}") and err.count("\n") == 1
