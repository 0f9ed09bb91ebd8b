"""Command-line front end.

    confsym [--p P] [--q Q] [--d D] [--machine] <command> ...

Commands: classify, solve, weyl, extension, reproduce-paper.  Vectors are
given inline as comma-separated scalar literals ("1,1*r,0,0,-1") or through a
JSON input file with fields p, q, d, u, v, w.  A list may start with a minus
sign: "--u -1,0,0,1*r,1" reads as "--u=-1,0,0,1*r,1".  Machine mode emits
canonical JSON (sorted keys) whose parse/re-serialize round trip is the
identity.
Exit status is 0 exactly when every check made by the invoked command passed,
1 when one failed, 2 on bad input (one `error:` line on stderr, also for a
flag that the subcommand does not read) and EXIT_CLOSED_PIPE when standard
output closes before everything is written.

Each command imports the layers that it runs when it runs, so a process
loads only those: `weyl` reads neither the symmetry solver nor the
extensions, `solve`, `classify` and `reproduce-paper` neither the Weyl layer
nor the extensions, and `extension` neither the solver nor the Weyl layer.
The human mode builds no machine object, so it does not load the serializer
unless the command reads a file.

Parsing builds two parsers on every call: `build_parser` reads the global
flags and the command name, and then `build_command_parser` builds only that
command's parser for the tokens after it.  Help, usage and error texts are
those of one parser with a subparser per command, except the layout of the
global --help, which lists the commands in its epilog.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# The flat model, and with it the linear algebra and scalars, is all that
# parsing and `SessionConfig` need; every other layer is imported by the
# command that runs it.
from .flatmodel import MobiusSpace, NullLine, checked_space, classify_orbit
from .linalg import AffineSubspace, Matrix, Vector, solve_affine
from .scalars import parse_scalar

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .symmetry import SymmetryReport


# Exit status when standard output closes before everything is written, the
# status a shell reports for a process that SIGPIPE ends (128 + 13).
EXIT_CLOSED_PIPE = 141


class SessionConfig:
    __slots__ = ("p", "q", "d", "machine")

    def __init__(self, p: int, q: int, d: int = 2, machine: bool = False):
        checked_space(p, q, d)
        self.p = p
        self.q = q
        self.d = d
        self.machine = machine

    def space(self) -> MobiusSpace:
        return MobiusSpace(self.p, self.q, self.d)


class InputError(Exception):
    """Bad input; `main` reports it on one line and exits 2."""


def _parse_vector_arg(text: str, d: int) -> Vector:
    try:
        return Vector._of_scalars(parse_scalar(part.strip(), d) for part in text.split(","))
    except ValueError as exc:
        raise InputError(f"bad vector {text!r}: {exc}") from None


def _int_field(data: dict, key: str, default=None) -> int:
    from .serialize import _json_int

    value = data.get(key, default)
    if value is None:
        raise InputError(f"input file has no {key!r}")
    try:
        return _json_int(value, key)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _file_vector(space: MobiusSpace, data: dict, key: str) -> Vector:
    if key not in data:
        raise InputError(f"input file has no {key!r}")
    # A JSON string is iterable too, and would be read one character per entry.
    if not isinstance(data[key], list):
        raise InputError(f"bad vector {key!r}: expected a JSON array of scalar literals")
    try:
        return space.vector(data[key])
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad vector {key!r}: {exc}") from None


def _read_json(path: str, prefix: str):
    """The JSON value of a file.  ValueError covers bad JSON, bytes that are
    not UTF-8 and an integer past the conversion limit; RecursionError, a
    file nested too deep."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"{prefix} {path}: {exc}") from None


def _load_lines(config: SessionConfig, args) -> tuple[MobiusSpace, NullLine, NullLine, NullLine]:
    if args.file:
        data = _read_json(args.file, "cannot read")
        if not isinstance(data, dict):
            raise InputError("input file must hold a JSON object")
        p, q = _int_field(data, "p"), _int_field(data, "q")
        d = _int_field(data, "d", config.d)
        try:
            config = SessionConfig(p=p, q=q, d=d, machine=config.machine)
        except ValueError as exc:
            raise InputError(str(exc)) from None
        space = config.space()
        u = _file_vector(space, data, "u")
        v = _file_vector(space, data, "v")
        w = _file_vector(space, data, "w") if "w" in data else space.basis_vector(0)
    else:
        if not (args.u and args.v):
            raise InputError("provide --file or both --u and --v")
        space = config.space()
        u = _parse_vector_arg(args.u, config.d)
        v = _parse_vector_arg(args.v, config.d)
        w = _parse_vector_arg(args.w, config.d) if args.w else space.basis_vector(0)
    try:
        return space, space.line(u), space.line(v), space.line(w)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _emit(config: SessionConfig, machine_obj, human_lines):
    """Print the canonical JSON of `machine_obj()` under --machine, else the
    lines returned by `human_lines()`: each mode builds only its own output."""
    if config.machine:
        from .serialize import dump_canonical

        print(dump_canonical(machine_obj()))
    else:
        for line in human_lines():
            print(line)


def _describe_subspace(s: AffineSubspace) -> str:
    if s.is_empty:
        return "EMPTY"
    if s.dim == 0:
        return f"unique Z = {s.base}"
    return f"dim {s.dim} affine set, base {s.base}, directions " + ", ".join(
        str(v) for v in s.directions
    )


def cmd_classify(config: SessionConfig, args) -> int:
    space, u, v, w = _load_lines(config, args)
    try:
        label = classify_orbit(space, w, u, v)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    pair_u = space.pairing(w.representative, u.representative)
    pair_v = space.pairing(w.representative, v.representative)

    def machine_obj():
        from .serialize import orbit_to_dict

        return {"orbit": orbit_to_dict(label), "pairing_u": str(pair_u), "pairing_v": str(pair_v)}

    _emit(
        config,
        machine_obj,
        lambda: [
            f"m(w, u) = {pair_u}   m(w, v) = {pair_v}",
            f"orbit label: iso_u={label.iso_u} iso_v={label.iso_v} in_span={label.in_span}",
        ],
    )
    return 0


def cmd_solve(config: SessionConfig, args) -> int:
    from .symmetry import find_symmetries

    space, u, v, w = _load_lines(config, args)
    try:
        report = find_symmetries(space, u, v, w)
    except ValueError as exc:
        raise InputError(str(exc)) from None

    def machine_obj():
        from .serialize import report_to_dict

        return report_to_dict(space, report)

    _emit(
        config,
        machine_obj,
        lambda: [
            f"base point: {report.base_point}",
            f"orbit: iso_u={report.orbit.iso_u} iso_v={report.orbit.iso_v} in_span={report.orbit.in_span}",
            f"preserving both lines: {_describe_subspace(report.preserving)}",
            f"swapping the lines:   {_describe_subspace(report.swapping)}",
            f"preserving first only: {_describe_subspace(report.preserve_first)}",
            f"preserving second only: {_describe_subspace(report.preserve_second)}",
        ],
    )
    return 0


def cmd_weyl(config: SessionConfig, args) -> int:
    from .weyl import prolongation, random_weyl, weyl_space_basis

    if args.weyl_command == "basis-dim":
        if args.seed is not None:
            raise InputError("weyl basis-dim takes no --seed")
        basis = weyl_space_basis(config.p, config.q, config.d)
        _emit(
            config,
            lambda: {"p": config.p, "q": config.q, "dimension": basis.dimension},
            lambda: [f"dim of the algebraic Weyl space for ({config.p}, {config.q}): {basis.dimension}"],
        )
        return 0
    seed = 0 if args.seed is None else args.seed
    try:
        W = random_weyl(config.p, config.q, seed, config.d)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    pro = prolongation(W)

    def machine_obj():
        from .serialize import vector_to_literals, weyl_to_dict

        return {
            "p": config.p,
            "q": config.q,
            "seed": seed,
            "prolongation_dimension": len(pro),
            "prolongation_basis": [vector_to_literals(y) for y in pro],
            "tensor": weyl_to_dict(W),
        }

    _emit(
        config,
        machine_obj,
        lambda: [
            f"random nonzero Weyl-type tensor (seed {seed}) on ({config.p}, {config.q})",
            f"prolongation dimension: {len(pro)}",
        ]
        + [f"  basis covector: {y}" for y in pro],
    )
    return 0


# The extension flags that only some subcommands read: (attribute, flag, the
# subcommands that read it).  Any other subcommand refuses the flag.
_EXTENSION_FLAGS = (
    ("file", "--file", ("validate", "curvature", "criterion")),
    ("y", "--y", ("criterion",)),
    ("candidates", "--candidates", ("criterion",)),
    ("output", "--output", ("make-flat",)),
)


def cmd_extension(config: SessionConfig, args) -> int:
    from .extension import (
        curvature,
        flat_model_extension,
        symmetry_criterion,
        symmetry_criterion_search,
        validate_extension,
    )
    from .serialize import dump_canonical, extension_from_dict, extension_to_dict, vector_to_literals

    for attr, flag, readers in _EXTENSION_FLAGS:
        if getattr(args, attr) is not None and args.ext_command not in readers:
            raise InputError(f"extension {args.ext_command} takes no {flag}")
    if args.ext_command == "make-flat":
        ext = flat_model_extension(config.space())
        payload = dump_canonical(extension_to_dict(ext))
        if args.output:
            try:
                with open(args.output, "w") as fh:
                    fh.write(payload + "\n")
            except OSError as exc:
                raise InputError(f"cannot write {args.output}: {exc}") from None
            if not config.machine:
                print(f"wrote flat-model extension to {args.output}")
        else:
            print(payload)
        return 0

    if not args.file:
        raise InputError(f"extension {args.ext_command} needs --file")
    data = _read_json(args.file, "cannot load extension from")
    try:
        ext = extension_from_dict(data, config.d)
    except (TypeError, ValueError, KeyError) as exc:
        raise InputError(f"cannot load extension from {args.file}: {exc}") from None

    if args.ext_command == "validate":
        report = validate_extension(ext)
        conditions = [
            ("stabilizer", report.stabilizer_condition),
            ("quotient", report.quotient_condition),
            ("equivariance", report.equivariance_condition),
        ]
        _emit(
            config,
            lambda: {
                name: {"passed": c.passed, "detail": c.detail, "witnesses": c.witnesses}
                for name, c in conditions
            },
            lambda: [
                f"condition {name}: {'pass' if c.passed else 'FAIL'} ({c.detail})"
                + (f" witnesses: {c.witnesses}" if not c.passed else "")
                for name, c in conditions
            ],
        )
        return 0 if report.passed else 1

    if args.ext_command == "curvature":
        mb = ext.pair.m_basis
        n = ext.space.n
        pairs = [[i, j] for i in range(len(mb)) for j in range(i + 1, len(mb))]
        # graded coordinates: a; X_1..X_n; A_(i<j); Z_1..Z_n
        kappas = [curvature(ext, mb[i], mb[j]) for i, j in pairs]
        zero = [k.is_zero() for k in kappas]
        _emit(
            config,
            lambda: {
                "curvature": [
                    {
                        "pair": pair,
                        "zero": z,
                        "a": str(k[0]),
                        "X": vector_to_literals(k[1 : n + 1]),
                        "Z": vector_to_literals(k[-n:]),
                    }
                    for pair, k, z in zip(pairs, kappas, zero)
                ],
                "flat": all(zero),
            },
            lambda: [
                "curvature on m-basis pairs: "
                + ("identically zero (flat)" if all(zero) else "NOT identically zero")
            ]
            + [f"  pair {pair}: {'0' if z else 'nonzero'}" for pair, z in zip(pairs, zero)],
        )
        return 0

    # criterion
    n = ext.space.n

    def covector(text):
        Y = _parse_vector_arg(text, ext.space.d)
        if len(Y) != n:
            raise InputError(f"covector {text!r} has {len(Y)} entries, expected {n}")
        return Y

    for flag, value in (("--y", args.y), ("--candidates", args.candidates)):
        if value is not None and not value.strip():
            raise InputError(f"{flag} needs a value")
    if args.y is not None and args.candidates is not None:
        raise InputError("give --y or --candidates, not both")
    if args.candidates is not None:
        candidates = [covector(c) for c in args.candidates.split(";")]
        hit = symmetry_criterion_search(ext, candidates)
        found = hit is not None
        _emit(
            config,
            lambda: {"found": found, "Y": vector_to_literals(hit) if found else None},
            lambda: [f"first passing Y: {hit}" if found else "no candidate passed"],
        )
        return 0 if found else 1
    Y = covector(args.y) if args.y is not None else Vector.zero(n)
    ok = symmetry_criterion(ext, Y)
    _emit(
        config,
        lambda: {"Y": vector_to_literals(Y), "preserved": ok},
        lambda: [f"Ad_exp(Y) alpha(k) is s_0-stable for Y = {Y}: {ok}"],
    )
    return 0 if ok else 1


# -- the six fixed desk cases ------------------------------------------------


class CaseFixture:
    """A desk case: two removed lines of (p, q) and, for each SymmetryReport
    field that the case checks, its exact expected set."""

    __slots__ = ("case_id", "p", "q", "u", "v", "expected_desc", "expected")

    def __init__(
        self,
        case_id: str,
        p: int,
        q: int,
        u: list[str],
        v: list[str],
        expected_desc: str,
        expected: dict[str, AffineSubspace],
    ):
        self.case_id = case_id
        self.p = p
        self.q = q
        self.u = u
        self.v = v
        self.expected_desc = expected_desc
        self.expected = expected


class CaseResult:
    __slots__ = ("case", "report", "match")

    def __init__(self, case: CaseFixture, report: SymmetryReport, match: bool):
        self.case = case
        self.report = report
        self.match = match


def _point(entries) -> AffineSubspace:
    return AffineSubspace.point(Vector._of_scalars(parse_scalar(x) for x in entries))


def _conditions(rows, rhs) -> AffineSubspace:
    M = Matrix._of_scalars([parse_scalar(x) for x in row] for row in rows)
    return solve_affine(M, Vector._of_scalars(parse_scalar(x) for x in rhs))


def fixture_cases() -> list[CaseFixture]:
    empty3 = AffineSubspace.empty(3)
    return [
        CaseFixture(
            "orbit-A", 2, 1,
            ["1", "1*r", "0", "0", "-1"], ["1", "0", "0", "-1*r", "1"],
            "swap at exactly Z = (-1*r, 0, 1*r); nothing preserves both lines",
            {"preserving": empty3, "swapping": _point(["-1*r", "0", "1*r"])},
        ),
        CaseFixture(
            "orbit-B", 2, 1,
            ["0", "1", "0", "1", "0"], ["0", "0", "0", "0", "1"],
            "preserve at exactly Z = 0; nothing swaps the lines",
            {"preserving": _point(["0", "0", "0"]), "swapping": empty3},
        ),
        CaseFixture(
            "orbit-C", 2, 1,
            ["0", "1", "0", "1", "0"], ["1", "1", "0", "1", "0"],
            "swap on the hyperplane z1 + z3 = -1; nothing preserves both lines",
            {"preserving": empty3, "swapping": _conditions([["1", "0", "1"]], ["-1"])},
        ),
        CaseFixture(
            "orbit-D", 2, 2,
            ["0", "1", "0", "0", "1", "0"], ["0", "0", "1", "1", "0", "0"],
            "preserve on z1 + z4 = 0, z2 + z3 = 0; nothing swaps the lines",
            {
                "preserving": _conditions([["1", "0", "0", "1"], ["0", "1", "1", "0"]], ["0", "0"]),
                "swapping": AffineSubspace.empty(4),
            },
        ),
        CaseFixture(
            "example-2", 2, 1,
            ["0", "0", "0", "0", "1"], ["1", "1", "0", "1", "0"],
            "no symmetry: single-line sets are Z = 0 and z1 + z3 = -2, disjoint",
            {
                "preserving": empty3,
                "swapping": empty3,
                "preserve_first": _point(["0", "0", "0"]),
                "preserve_second": _conditions([["1", "0", "1"]], ["-2"]),
            },
        ),
        CaseFixture(
            "example-3", 3, 0,
            ["-1", "0", "0", "1*r", "1"], ["1", "0", "0", "1*r", "-1"],
            "swap at exactly Z = 0; nothing preserves both lines",
            {"preserving": empty3, "swapping": _point(["0", "0", "0"])},
        ),
    ]


def run_fixture_case(case: CaseFixture) -> CaseResult:
    from .symmetry import find_symmetries

    space = MobiusSpace(case.p, case.q)
    u = space.line([parse_scalar(x) for x in case.u])
    v = space.line([parse_scalar(x) for x in case.v])
    report = find_symmetries(space, u, v, space.origin)
    match = all(getattr(report, field) == want for field, want in case.expected.items())
    return CaseResult(case=case, report=report, match=match)


def cmd_reproduce(config: SessionConfig, args) -> int:
    if config.d != 2:
        raise InputError(f"reproduce-paper runs over Q(sqrt 2) only, got --d {config.d}")
    results = [run_fixture_case(case) for case in fixture_cases()]
    if config.machine:
        from .serialize import dump_canonical, subspace_to_dict

        payload = [
            {
                "case_id": r.case.case_id,
                "p": r.case.p,
                "q": r.case.q,
                "preserving": subspace_to_dict(r.report.preserving),
                "swapping": subspace_to_dict(r.report.swapping),
                "expected": r.case.expected_desc,
                "match": r.match,
            }
            for r in results
        ]
        print(dump_canonical(payload))
    else:
        width = max(len(r.case.case_id) for r in results)
        for r in results:
            status = "match" if r.match else "MISMATCH"
            print(
                f"{r.case.case_id:<{width}}  ({r.case.p},{r.case.q})  "
                f"preserving: {_describe_subspace(r.report.preserving):<40} "
                f"swapping: {_describe_subspace(r.report.swapping):<40} {status}"
            )
        good = sum(1 for r in results if r.match)
        print(f"{good}/{len(results)} cases match")
    return 0 if all(r.match for r in results) else 1


class _Parser(argparse.ArgumentParser):
    """argparse drops any OSError from writing help or usage; this parser
    lets a closed pipe through to the guard in `main`.  The global parser and
    each command's parser are of this class."""

    def _print_message(self, message, file=None):
        if message:
            try:
                (file or sys.stderr).write(message)
            except BrokenPipeError:
                raise
            except (AttributeError, OSError):
                pass


# The commands with their one-line help, in the order the global help lists them.
_COMMANDS = (
    ("classify", "orbit label of w relative to the removed lines u, v"),
    ("solve", "all symmetries at w preserving or swapping u, v"),
    ("weyl", "algebraic Weyl space computations"),
    ("extension", "validate and analyze extensions"),
    ("reproduce-paper", "run the six fixed desk cases and compare"),
)


def build_parser() -> argparse.ArgumentParser:
    """The global flags and the command.  The command and every token after
    it are left unparsed in `args.command`, as a subparsers action takes them
    (so a missing or unknown command, or a "--" before it, reads as it did
    for one parser with subparsers)."""
    parser = _Parser(
        prog="confsym",
        description="Exact conformal-symmetry toolkit for the Mobius space",
        epilog="commands:\n" + "\n".join(f"  {name:<17} {text}" for name, text in _COMMANDS),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--p", type=int, default=2, help="positive part of the signature")
    parser.add_argument("--q", type=int, default=1, help="negative part of the signature")
    parser.add_argument("--d", type=int, default=2, help="square-free field parameter, at most 10^12 (r = sqrt d)")
    parser.add_argument("--machine", action="store_true", help="emit canonical JSON")
    parser.add_argument(
        "command",
        nargs=argparse.PARSER,
        choices=[name for name, _ in _COMMANDS],
        help="the command and its arguments",
    )
    return parser


def build_command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one command, with the prog the subparser of a single
    parser would have."""
    parser = _Parser(prog=f"confsym {name}")
    if name in ("classify", "solve"):
        parser.add_argument("--file", help="JSON input file with p, q, d, u, v, w")
        parser.add_argument("--u", help="comma-separated scalar literals")
        parser.add_argument("--v", help="comma-separated scalar literals")
        parser.add_argument("--w", help="comma-separated scalar literals (default e_0)")
    elif name == "weyl":
        parser.add_argument("weyl_command", choices=["basis-dim", "prolongation"])
        parser.add_argument("--seed", type=int, help="seed for the random tensor of prolongation (default 0)")
    elif name == "extension":
        parser.add_argument("ext_command", choices=["validate", "curvature", "criterion", "make-flat"])
        parser.add_argument("--file", help="JSON extension file")
        parser.add_argument("--y", help="covector for the criterion (comma-separated literals)")
        parser.add_argument("--candidates", help="semicolon-separated candidate covectors")
        parser.add_argument("-o", "--output", help="output path for make-flat")
    return parser


# Flags whose value is a literal list, which may start with "-".
_LIST_FLAGS = frozenset(("--u", "--v", "--w", "--y", "--candidates"))

# How a literal list that starts with a minus sign begins: "-" and then a
# digit or "r".  No option of the parser begins this way.
_MINUS_LIST_HEADS = tuple(f"-{c}" for c in "0123456789r")


def _attach_list_values(argv: list[str]) -> list[str]:
    """Join a list flag and a literal list after it that starts with a minus
    sign ("--u", "-1,0" -> "--u=-1,0"): argparse reads such a value as an
    option and refuses the flag."""
    out = []
    i = 0
    while i < len(argv):
        token = argv[i]
        value = argv[i + 1] if i + 1 < len(argv) else ""
        if token in _LIST_FLAGS and value.startswith(_MINUS_LIST_HEADS):
            out.append(f"{token}={value}")
            i += 2
        else:
            out.append(token)
            i += 1
    return out


def main(argv=None) -> int:
    try:
        try:
            return _run(argv)
        finally:
            # Inside the guard, so that a closed pipe raises here, not at exit;
            # this also covers --help, which leaves through SystemExit.
            sys.stdout.flush()
    except BrokenPipeError:
        # Python's documented pattern: what is left of the output goes to
        # devnull, so the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE


def _run(argv) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args, extras = parser.parse_known_args(_attach_list_values(argv))
    args.command, *command_argv = args.command
    args, command_extras = build_command_parser(args.command).parse_known_args(command_argv, args)
    # Reported by the global parser, as one parser with subparsers reports them.
    if extras or command_extras:
        parser.error("unrecognized arguments: " + " ".join(extras + command_extras))
    try:
        config = SessionConfig(p=args.p, q=args.q, d=args.d, machine=args.machine)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    handlers = {
        "classify": cmd_classify,
        "solve": cmd_solve,
        "weyl": cmd_weyl,
        "extension": cmd_extension,
        "reproduce-paper": cmd_reproduce,
    }
    try:
        return handlers[args.command](config, args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
