import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import confsym
import confsym.cli as cli_module
from conftest import reference_parser
from confsym import extension, liealg, serialize
from confsym.cli import EXIT_CLOSED_PIPE, main, fixture_cases, run_fixture_case
from confsym.flatmodel import MAX_DIMENSION
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


@pytest.mark.parametrize("machine, described", [([], 4), (["--machine"], 0)])
def test_solve_describes_subspaces_only_for_the_human_output(monkeypatch, capsys, machine, described):
    """The human lines are formatted only when they are printed: the four
    subspaces of a report are described once each, and never under
    --machine."""
    calls = []
    describe = cli_module._describe_subspace
    monkeypatch.setattr(cli_module, "_describe_subspace", lambda s: calls.append(s) or describe(s))
    code, _ = run(capsys, *machine, "solve", "--u", "0,1,0,1,0", "--v", "0,0,0,0,1")
    assert code == 0
    assert len(calls) == described


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


@pytest.mark.parametrize(
    "flag, value",
    [("--y", "-1,0,0"), ("--candidates", "-1,0,0;0,1,0"), ("--candidates", "-r,1,0;0,1,0")],
)
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


# -- parsing: the global flags and the command, then the command's parser ----

COMMAND_NAMES = ["classify", "solve", "weyl", "extension", "reproduce-paper"]


def _usage_exit(capsys, argv) -> tuple[int, str, str]:
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("command", COMMAND_NAMES)
def test_command_help_names_the_command(capsys, command):
    code, out, err = _usage_exit(capsys, [command, "--help"])
    assert code == 0
    assert out.startswith(f"usage: confsym {command} ")
    assert err == ""


def test_unknown_command_is_a_usage_error(capsys):
    code, out, err = _usage_exit(capsys, ["bogus"])
    assert (code, out) == (2, "")
    assert "invalid choice: 'bogus'" in err


@pytest.mark.parametrize("argv", [[], ["--machine"], ["--p", "3", "--q", "0"]])
def test_missing_command_is_a_usage_error(capsys, argv):
    code, out, err = _usage_exit(capsys, argv)
    assert (code, out) == (2, "")
    assert "the following arguments are required: command" in err


def test_global_flag_after_the_command_is_refused(capsys):
    code, out, err = _usage_exit(capsys, ["solve", "--p", "3", "--u", "1,1*r,0,0,-1", "--v", "1,0,0,-1*r,1"])
    assert (code, out) == (2, "")
    assert err.endswith("confsym: error: unrecognized arguments: --p 3\n")


def test_abbreviated_global_flag_selects_machine_mode(capsys):
    lines = ["solve", "--u", "1,1*r,0,0,-1", "--v", "1,0,0,-1*r,1"]
    code, out = run(capsys, "--mach", *lines)
    assert code == 0
    assert (code, out) == run(capsys, "--machine", *lines)
    json.loads(out)


# Each fails inside the parser, or prints a help text other than the global one.
_PARSE_EXITS = [
    *([name, "--help"] for name in COMMAND_NAMES),
    ["solve", "-h", "--u", "1"],
    [],
    ["--machine"],
    ["bogus"],
    ["--p", "x", "solve"],
    ["solve", "--mach"],
    ["--", "solve"],
    ["solve", "--p", "3"],
    ["--bogus", "solve", "--bad", "1"],
    ["solve", "--", "--u", "1"],
    ["solve", "extra"],
    ["solve", "--u"],
    ["weyl"],
    ["weyl", "bogus"],
    ["weyl", "basis-dim", "--seed", "x"],
    ["extension"],
    ["extension", "make-flat", "-o"],
    ["extension", "validate", "validate"],
    ["reproduce-paper", "x"],
    ["reproduce-paper", "--machine"],
]


@pytest.mark.parametrize("argv", _PARSE_EXITS, ids=[" ".join(a) or "-" for a in _PARSE_EXITS])
def test_parse_exits_match_one_parser_with_subparsers(capsys, monkeypatch, argv):
    """Status, stdout and stderr equal those of the command line built as
    one parser with subparsers, for every help except the global one."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        reference_parser().parse_args(argv)
    want = (exc.value.code, *capsys.readouterr())
    assert _usage_exit(capsys, argv) == want


def test_global_help_lists_every_command(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = _usage_exit(capsys, ["--help"])
    assert (code, err) == (0, "")
    reference_parser().print_usage()
    assert out.startswith(capsys.readouterr().out)
    for name, text in cli_module._COMMANDS:
        assert f"\n  {name:<17} {text}\n" in out


@pytest.mark.parametrize(
    "argv, command",
    [
        (["solve", "--u", "1,1*r,0,0,-1", "--v", "1,0,0,-1*r,1"], "solve"),
        (["--p", "4", "--q", "0", "weyl", "basis-dim"], "weyl"),
        (["extension", "validate", "--file", "missing.json"], "extension"),
    ],
)
def test_a_call_builds_two_parsers(capsys, monkeypatch, argv, command):
    """The global parser and the command's: no other command's parser is
    built, and none is kept for the next call."""
    built = []
    init = cli_module._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs["prog"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli_module._Parser, "__init__", counting_init)
    for _ in range(2):
        main(argv)
        capsys.readouterr()
        assert built == ["confsym", f"confsym {command}"]
        built.clear()


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
# and --machine, recorded before Weyl tensors were stored by component orbit;
# the n = 6 entries were recorded before upsilon_action, co_action and
# random_weyl left the Scalar path.
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
    (6, 0, 2): "595ecf496469cb26e95b3eb28cb54880f02ff8524ed3725ab320429ac7f12d05",
    (6, 0, 3): "630d836fd4349bc0ca7193e75aecdbfd82d25a6647cb6ff412812b5402afde5e",
    (3, 3, 2): "7c75d4d8fa094cd35100596c579a6dc5cabf173bb0097ce8b118cca5f2359389",
    (3, 3, 3): "6c72888ae7447bbf8624bf2e422513bf013d092ec0a48cbc92cf399b9aa8560a",
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


# SHA-256 of the exit codes and stdout of `solve` and `classify`, human and
# --machine, keyed by (p, q, d, command), and of `reproduce-paper`, human and
# --machine, recorded while `solve_preserve` had a case tree of its own and
# `classify_orbit` ranked two matrices.  The lines are the six desk cases,
# the CI's commands and one (1, 3) case; a command with an "r" entry runs
# only under d = 2, where its lines are null.
LINE_COMMAND_SHA256 = {
    (2, 1, 2, "solve --u 1,1*r,0,0,-1 --v 1,0,0,-1*r,1"):
        "886bc21959dcf2784e401a04239e3e784ca7f771ef35cca6d35c38cbebd7ff3b",
    (2, 1, 2, "solve --u 0,1,0,1,0 --v 0,0,0,0,1"):
        "b93d8ef7390ce12540c08629b7d3ae3122c7421c91b9ef095f59729575c78f35",
    (2, 1, 3, "solve --u 0,1,0,1,0 --v 0,0,0,0,1"):
        "abe1a7f384e89597c10f7f561bd8dccbbcdd99ec10d72aa132fd03d4cb100110",
    (2, 1, 2, "solve --u 0,1,0,1,0 --v 1,1,0,1,0"):
        "126562e0edf86618fe335a5ad4a3351edec443137fcc73ec65f80d2fc8573af7",
    (2, 1, 3, "solve --u 0,1,0,1,0 --v 1,1,0,1,0"):
        "6775b5a53eebebdd0629edc4d07a958f7946fd3180182e475a404808f49d7385",
    (2, 2, 2, "solve --u 0,1,0,0,1,0 --v 0,0,1,1,0,0"):
        "d8a9c2081f185ed8f2717c506b51cff8345f34668d842bead4b76a36a3d8f377",
    (2, 2, 3, "solve --u 0,1,0,0,1,0 --v 0,0,1,1,0,0"):
        "2b91228f02d84c3c8d3f944fe777e0f74d275ef06ac04d87c91e044958c83c53",
    (2, 1, 2, "solve --u 0,0,0,0,1 --v 1,1,0,1,0"):
        "f23f62cfbc7c5606f277914636e59d513a544f09174ef35be8a71d55dc88f73a",
    (2, 1, 3, "solve --u 0,0,0,0,1 --v 1,1,0,1,0"):
        "5af40bac8fc3f7a3a2e53883d7a51e4a7511b8a6cd2596eb43f20fda80eaa71a",
    (3, 0, 2, "solve --u -1,0,0,1*r,1 --v 1,0,0,1*r,-1"):
        "02d88c8ef1b35d8ce02febf5ffbc32d26c9b98eb6689d7fbcc5d5b198e5d8774",
    (2, 1, 2, "solve --u 0,1,0,1,0 --v 1,1,0,1,0 --w 1,1*r,0,0,-1"):
        "42b8509ce173200d541bf7619a6a287d328b1875b0e0d39b88866ad1c2009c93",
    (2, 2, 2, "solve --u 0,1,0,0,1,0 --v 0,0,1,1,0,0 --w 0,1,0,0,-1,0"):
        "5abcfe2dbdfd35367f373e5f6e9f7bc6f9f36c941d8b4d2d30ddd13d8a8e2572",
    (2, 2, 3, "solve --u 0,1,0,0,1,0 --v 0,0,1,1,0,0 --w 0,1,0,0,-1,0"):
        "792684134cc80c108c4e8f0c1f1c60e427843d8f236472c01183f0f55487655f",
    (1, 3, 2, "solve --u 0,1,1,0,0,0 --v 0,0,0,0,0,1 --w 1,0,0,0,1,1/2"):
        "188c75a0bce9cd4dba00f7715c397892f42e26e28a6b4c7b2e54460f5a83e3b4",
    (1, 3, 3, "solve --u 0,1,1,0,0,0 --v 0,0,0,0,0,1 --w 1,0,0,0,1,1/2"):
        "dd08424346a189a0568961fbabb92fb22d57297d2f86d10de03ff20000f282a8",
    (2, 1, 2, "classify --u 1,1*r,0,0,-1 --v 1,0,0,-1*r,1"):
        "17906270acd8cb444fe09bd423e8fea659ca6ad1d7a79accd8b58bd6b13daab3",
    (2, 1, 2, "classify --u 0,1,0,1,0 --v 1,1,0,1,0 --w 1,2,0,2,0"):
        "798acf9ce9ec899cb157026fb63d1a314d458ec51dbcea3cb285d004064d8d3d",
    (2, 1, 3, "classify --u 0,1,0,1,0 --v 1,1,0,1,0 --w 1,2,0,2,0"):
        "798acf9ce9ec899cb157026fb63d1a314d458ec51dbcea3cb285d004064d8d3d",
    (1, 3, 2, "classify --u 0,1,1,0,0,0 --v 0,0,0,0,0,1 --w 1,0,0,0,1,1/2"):
        "b25416fa9b11c54004252359487532a0f58a9db4d1598500cf902fbe53909ef0",
}
REPRODUCE_PAPER_SHA256 = "85cb1e80432f5a4045c014028437a8d467b9db47b97ba38e82cc3fc122f17e4e"


@pytest.mark.parametrize("p, q, d, command", sorted(LINE_COMMAND_SHA256))
def test_line_command_output_is_pinned(capsys, p, q, d, command):
    head = ["--p", str(p), "--q", str(q), "--d", str(d)]
    runs = [[*head, *mode, *command.split()] for mode in ([], ["--machine"])]
    assert _transcript(capsys, runs) == LINE_COMMAND_SHA256[p, q, d, command]


def test_reproduce_paper_output_is_pinned(capsys):
    runs = [[*mode, "reproduce-paper"] for mode in ([], ["--machine"])]
    assert _transcript(capsys, runs) == REPRODUCE_PAPER_SHA256


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


def _subprocess_env() -> dict:
    """This environment, with the tested package first on PYTHONPATH."""
    src = str(Path(confsym.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_python_m_confsym_prints_what_main_prints(capsys):
    """`python -m confsym` runs the console script's `main`: the same exit
    status and the same bytes."""
    code, out = run(capsys, "--machine", "reproduce-paper")
    proc = subprocess.run(
        [sys.executable, "-m", "confsym", "--machine", "reproduce-paper"],
        capture_output=True,
        env=_subprocess_env(),
        timeout=120,
    )
    assert code == proc.returncode == 0
    assert proc.stdout == out.encode()
    assert proc.stderr == b""


@pytest.mark.parametrize(
    "argv, read, unbuffered",
    [
        (["--p", "4", "--q", "3", "extension", "make-flat"], 10, False),
        (["--p", "4", "--q", "3", "extension", "make-flat"], 10, True),
        (["--p", "4", "--q", "0", "weyl", "basis-dim"], 0, False),
        (["--p", "4", "--q", "0", "weyl", "basis-dim"], 0, True),
        (["--help"], 0, False),
        (["--help"], 0, True),
        (["solve", "--help"], 0, True),
    ],
)
def test_closed_pipe_exits_quietly(argv, read, unbuffered):
    """The reader of a real pipe closes it after `read` bytes: after 10 of
    the 166 KB of make-flat, or before basis-dim or --help writes anything.
    The command ends with EXIT_CLOSED_PIPE and an empty stderr, where it used
    to show a BrokenPipeError traceback.  With buffered output the short
    texts reach the pipe only when the command flushes."""
    env = _subprocess_env()
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


@pytest.mark.parametrize("machine, formatted", [([], 0), (["--machine"], 6)])
def test_extension_curvature_formats_literals_only_for_the_machine_output(
    tmp_path, monkeypatch, capsys, machine, formatted
):
    """The X and Z literals of each of the three (2,1) m-basis pairs are
    formatted only under --machine, where they are printed."""
    path = tmp_path / "flat.json"
    run(capsys, "extension", "make-flat", "-o", str(path))
    calls = []
    literals = serialize.vector_to_literals
    monkeypatch.setattr(serialize, "vector_to_literals", lambda v: calls.append(v) or literals(v))
    code, _ = run(capsys, *machine, "extension", "curvature", "--file", str(path))
    assert code == 0
    assert len(calls) == formatted


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


def test_extension_file_without_d_is_read_over_the_d_flag(tmp_path, capsys):
    """`--d` is the field of an extension file that states none, as it is of
    a solve input file.  The bent file's curvature depends on the field (a
    value -2 - r/2 over Q(sqrt 2) is -3 - r/2 over Q(sqrt 3)); once its "d"
    is removed, it used to be read over Q(sqrt 2) whatever `--d` said."""
    commands = (["curvature"], ["criterion", "--y=1,-1/2,r,0"])
    outputs = {}
    for d in (2, 3):
        stamped = _extension_file(tmp_path, capsys, 2, 2, d, "bent")
        data = json.loads(stamped.read_text())
        del data["d"]
        bare = tmp_path / f"bare{d}.json"
        bare.write_text(json.dumps(data))
        for path, flags in ((stamped, []), (bare, ["--d", str(d)])):
            outputs[d, path.name] = [
                run(capsys, *flags, "--machine", "extension", *command, "--file", str(path)) for command in commands
            ]
        assert outputs[d, bare.name] == outputs[d, stamped.name]
    assert outputs[2, "bent.json"][0] != outputs[3, "bent.json"][0]
    # Without --d, a file that states no field is read over the default, 2.
    bare3 = str(tmp_path / "bare3.json")
    assert run(capsys, "--machine", "extension", "curvature", "--file", bare3) == outputs[2, "bent.json"][0]


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


_NOT_AN_ARRAY = "expected a JSON array of scalar literals, got str"


@pytest.mark.parametrize(
    "where, value, message",
    [
        ("alpha", None, _NOT_AN_ARRAY),
        ("bracket", None, _NOT_AN_ARRAY),
        ("symmetric", "false", "'symmetric' must be a JSON boolean, got 'false'"),
        ("symmetric", 1, "'symmetric' must be a JSON boolean, got 1"),
    ],
    ids=["alpha", "bracket", "symmetric-string", "symmetric-number"],
)
@pytest.mark.parametrize("command", ["validate", "curvature", "criterion"])
def test_extension_file_literal_lists_are_arrays_and_symmetric_a_boolean(
    tmp_path, capsys, where, value, message, command
):
    # A list of one-character literals given as the string that joins them
    # used to pass, read one character per entry.
    def edit(data):
        if where == "symmetric":
            data["symmetric"] = value
            return
        if where == "alpha":
            slots = [(data["alpha"], k) for k in range(len(data["alpha"]))]
        else:
            slots = [(entry, 2) for entry in data["algebra"]["brackets"]]
        holder, k = next((h, k) for h, k in slots if all(len(x) == 1 for x in h[k]))
        holder[k] = "".join(holder[k])

    path = _edited_flat_file(tmp_path, capsys, edit)
    err = _bad_input(capsys, "extension", command, "--file", str(path))
    assert message in err


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
@pytest.mark.parametrize("value", [True, False])
def test_input_file_vector_entry_may_not_be_a_boolean(tmp_path, capsys, key, value):
    vector = ["1", "0", "0", "0", "0"] if key == "w" else list(_LINES[key])
    payload = {**_LINES, "w": ["1", "0", "0", "0", "0"], key: vector[:1] + [value] + vector[2:]}
    code, err = _solve_file(tmp_path, capsys, payload)
    assert code == 2
    assert err == f"error: bad vector {key!r}: cannot interpret {value} as a scalar\n"


@pytest.mark.parametrize("key", ["u", "v", "w"])
def test_input_file_vector_must_be_an_array(tmp_path, capsys, key):
    # "01010" would otherwise be read one character per entry.
    payload = {**_LINES, "w": ["1", "0", "0", "0", "0"], key: "01010"}
    code, err = _solve_file(tmp_path, capsys, payload)
    assert code == 2
    assert err.startswith(f"error: bad vector {key!r}") and err.count("\n") == 1


# A file nested 100000 deep, an integer of more than 4300 digits (Python's
# limit on converting one) and bytes that are not UTF-8.
_HOSTILE_FILES = {
    "deep": b"[" * 100000 + b"]" * 100000,
    "long-integer": b'{"p": ' + b"9" * 5000 + b"}",
    "not-utf8": b'{"p": "\xff\xfe"}',
}


@pytest.mark.parametrize("kind", sorted(_HOSTILE_FILES))
@pytest.mark.parametrize(
    "argv, prefix",
    [
        (("solve",), "cannot read"),
        (("classify",), "cannot read"),
        (("extension", "validate"), "cannot load extension from"),
    ],
    ids=["solve", "classify", "extension-validate"],
)
def test_hostile_json_file_is_one_error_line(tmp_path, capsys, kind, argv, prefix):
    path = tmp_path / f"{kind}.json"
    path.write_bytes(_HOSTILE_FILES[kind])
    err = _bad_input(capsys, *argv, "--file", str(path))
    assert err.startswith(f"error: {prefix} {path}: ")
