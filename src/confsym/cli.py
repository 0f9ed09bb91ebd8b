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
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .extension import (
    curvature,
    flat_model_extension,
    symmetry_criterion,
    symmetry_criterion_search,
    validate_extension,
)
from .flatmodel import MAX_DIMENSION, MobiusSpace, NullLine, Signature, classify_orbit
from .linalg import AffineSubspace, Matrix, Vector, solve_affine
from .scalars import check_field_parameter, parse_scalar
from .serialize import (
    _json_int,
    dump_canonical,
    extension_from_dict,
    extension_signature,
    extension_to_dict,
    orbit_to_dict,
    report_to_dict,
    subspace_to_dict,
    vector_to_literals,
    weyl_to_dict,
)
from .symmetry import SymmetryReport, find_symmetries
from .weyl import prolongation, random_weyl, weyl_space_basis


# Exit status when standard output closes before everything is written, the
# status a shell reports for a process that SIGPIPE ends (128 + 13).
EXIT_CLOSED_PIPE = 141


@dataclass
class SessionConfig:
    p: int
    q: int
    d: int = 2
    machine: bool = False

    def __post_init__(self):
        n = Signature(self.p, self.q).n
        if n > MAX_DIMENSION:
            raise ValueError(f"need p + q <= {MAX_DIMENSION}, got {n}")
        check_field_parameter(self.d)

    def space(self) -> MobiusSpace:
        return MobiusSpace(self.p, self.q, self.d)


class InputError(Exception):
    """Bad input; `main` reports it on one line and exits 2."""


def _parse_vector_arg(text: str, d: int) -> Vector:
    try:
        return Vector(parse_scalar(part.strip(), d) for part in text.split(","))
    except ValueError as exc:
        raise InputError(f"bad vector {text!r}: {exc}") from None


def _int_field(data: dict, key: str, default=None) -> int:
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
    if config.machine:
        print(dump_canonical(machine_obj))
    else:
        for line in human_lines:
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
    _emit(
        config,
        {
            "orbit": orbit_to_dict(label),
            "pairing_u": str(pair_u),
            "pairing_v": str(pair_v),
        },
        [
            f"m(w, u) = {pair_u}   m(w, v) = {pair_v}",
            f"orbit label: iso_u={label.iso_u} iso_v={label.iso_v} in_span={label.in_span}",
        ],
    )
    return 0


def cmd_solve(config: SessionConfig, args) -> int:
    space, u, v, w = _load_lines(config, args)
    try:
        report = find_symmetries(space, u, v, w)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    _emit(
        config,
        report_to_dict(space, report),
        [
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
    if args.weyl_command == "basis-dim":
        if args.seed is not None:
            raise InputError("weyl basis-dim takes no --seed")
        basis = weyl_space_basis(config.p, config.q, config.d)
        _emit(
            config,
            {"p": config.p, "q": config.q, "dimension": basis.dimension},
            [f"dim of the algebraic Weyl space for ({config.p}, {config.q}): {basis.dimension}"],
        )
        return 0
    # prolongation
    seed = 0 if args.seed is None else args.seed
    try:
        W = random_weyl(config.p, config.q, seed, config.d)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    pro = prolongation(W)
    _emit(
        config,
        {
            "p": config.p,
            "q": config.q,
            "seed": seed,
            "prolongation_dimension": len(pro),
            "prolongation_basis": [vector_to_literals(y) for y in pro],
            "tensor": weyl_to_dict(W),
        },
        [
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
        # The file's signature and field pass the checks of the flags before
        # anything is built from them.
        SessionConfig(*extension_signature(data))
        ext = extension_from_dict(data)
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
            {
                name: {"passed": c.passed, "detail": c.detail, "witnesses": c.witnesses}
                for name, c in conditions
            },
            [
                f"condition {name}: {'pass' if c.passed else 'FAIL'} ({c.detail})"
                + (f" witnesses: {c.witnesses}" if not c.passed else "")
                for name, c in conditions
            ],
        )
        return 0 if report.passed else 1

    if args.ext_command == "curvature":
        values = []
        nonzero = False
        mb = ext.pair.m_basis
        n = ext.space.n
        for i in range(len(mb)):
            for j in range(i + 1, len(mb)):
                # graded coordinates: a; X_1..X_n; A_(i<j); Z_1..Z_n
                k = curvature(ext, mb[i], mb[j])
                flat = k.is_zero()
                nonzero = nonzero or not flat
                values.append(
                    {
                        "pair": [i, j],
                        "zero": flat,
                        "a": str(k[0]),
                        "X": vector_to_literals(k[1 : n + 1]),
                        "Z": vector_to_literals(k[-n:]),
                    }
                )
        _emit(
            config,
            {"curvature": values, "flat": not nonzero},
            [
                "curvature on m-basis pairs: "
                + ("identically zero (flat)" if not nonzero else "NOT identically zero")
            ]
            + [f"  pair {v['pair']}: {'0' if v['zero'] else 'nonzero'}" for v in values],
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
            {"found": found, "Y": vector_to_literals(hit) if found else None},
            [f"first passing Y: {hit}" if found else "no candidate passed"],
        )
        return 0 if found else 1
    Y = covector(args.y) if args.y is not None else Vector.zero(n)
    ok = symmetry_criterion(ext, Y)
    _emit(
        config,
        {"Y": vector_to_literals(Y), "preserved": ok},
        [f"Ad_exp(Y) alpha(k) is s_0-stable for Y = {Y}: {ok}"],
    )
    return 0 if ok else 1


# -- the six fixed desk cases ------------------------------------------------


@dataclass
class CaseFixture:
    """A desk case: two removed lines of (p, q) and, for each SymmetryReport
    field that the case checks, its exact expected set."""

    case_id: str
    p: int
    q: int
    u: list[str]
    v: list[str]
    expected_desc: str
    expected: dict[str, AffineSubspace]


@dataclass
class CaseResult:
    case: CaseFixture
    report: SymmetryReport
    match: bool


def _point(entries) -> AffineSubspace:
    return AffineSubspace.point(Vector(parse_scalar(x) for x in entries))


def _conditions(rows, rhs) -> AffineSubspace:
    M = Matrix([[parse_scalar(x) for x in row] for row in rows])
    return solve_affine(M, Vector(parse_scalar(x) for x in rhs))


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
    lets a closed pipe through to the guard in `main`.  Subparsers share the
    class."""

    def _print_message(self, message, file=None):
        if message:
            try:
                (file or sys.stderr).write(message)
            except BrokenPipeError:
                raise
            except (AttributeError, OSError):
                pass


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="confsym",
        description="Exact conformal-symmetry toolkit for the Mobius space",
    )
    parser.add_argument("--p", type=int, default=2, help="positive part of the signature")
    parser.add_argument("--q", type=int, default=1, help="negative part of the signature")
    parser.add_argument("--d", type=int, default=2, help="square-free field parameter, at most 10^12 (r = sqrt d)")
    parser.add_argument("--machine", action="store_true", help="emit canonical JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("classify", "orbit label of w relative to the removed lines u, v"),
        ("solve", "all symmetries at w preserving or swapping u, v"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--file", help="JSON input file with p, q, d, u, v, w")
        sp.add_argument("--u", help="comma-separated scalar literals")
        sp.add_argument("--v", help="comma-separated scalar literals")
        sp.add_argument("--w", help="comma-separated scalar literals (default e_0)")

    wp = sub.add_parser("weyl", help="algebraic Weyl space computations")
    wp.add_argument("weyl_command", choices=["basis-dim", "prolongation"])
    wp.add_argument("--seed", type=int, help="seed for the random tensor of prolongation (default 0)")

    ep = sub.add_parser("extension", help="validate and analyze extensions")
    ep.add_argument("ext_command", choices=["validate", "curvature", "criterion", "make-flat"])
    ep.add_argument("--file", help="JSON extension file")
    ep.add_argument("--y", help="covector for the criterion (comma-separated literals)")
    ep.add_argument("--candidates", help="semicolon-separated candidate covectors")
    ep.add_argument("-o", "--output", help="output path for make-flat")

    sub.add_parser("reproduce-paper", help="run the six fixed desk cases and compare")
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
    args = parser.parse_args(_attach_list_values(argv))
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
