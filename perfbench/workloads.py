"""The four workloads of the benchmark.

Each workload object is built by one set-up: it holds the freshly imported
confsym modules, the pass of ops generated from the seed, and any fixture
files.  `run(op)` is the timed call into the program; `check(op, out)` is the
untimed check of its answer (None when correct); `canonical(op, out)` is the
text whose SHA-256 is compared with the reference recorded for the default
seed.  Inputs are generated with the benchmark's own arithmetic (qsqrt), so
the program sees only those generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

from qsqrt import Q, parallel, parse, vec


@dataclass(frozen=True)
class Op:
    key: str
    args: tuple


def _canonical_components(components) -> str:
    return json.dumps({str(i): str(c) for i, c in enumerate(components) if c}, sort_keys=True)


def _weyl_dim(n: int) -> int:
    return n * n * (n * n - 1) // 12 - n * (n + 1) // 2


def _call_cli(cli, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


class Workload:
    """Shared parts; subclasses set `name` and `tail_percentile`."""

    name = ""
    tail_percentile = 50.0

    def __init__(self, mods, seed: int, workdir: str):
        self.mods = mods
        self.ops: list[Op] = []

    def before_op(self, op: Op):
        pass

    def cache_counts(self) -> tuple[int, int]:
        """Total (hits, misses) of the lru caches in confsym.weyl."""
        hits = misses = 0
        for obj in vars(self.mods.weyl).values():
            info = getattr(obj, "cache_info", None)
            if callable(info):
                ci = info()
                hits += ci.hits
                misses += ci.misses
        return hits, misses


# -- weyl-basis --------------------------------------------------------------


class WeylBasisWorkload(Workload):
    """Cold Weyl-space bases: the lru cache is cleared before every op."""

    name = "weyl-basis"
    tail_percentile = 60.0
    SIGNATURES = ((4, 0), (2, 2), (5, 0), (3, 2), (6, 0), (3, 3))

    def __init__(self, mods, seed, workdir):
        super().__init__(mods, seed, workdir)
        order = list(self.SIGNATURES)
        random.Random(seed).shuffle(order)
        self.ops = [Op(f"basis:{p},{q}", (p, q)) for p, q in order]

    def before_op(self, op):
        for obj in vars(self.mods.weyl).values():
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                clear()

    def run(self, op):
        return self.mods.weyl.weyl_space_basis(*op.args)

    def check(self, op, basis):
        p, q = op.args
        want = _weyl_dim(p + q)
        if basis.dimension != want:
            return f"dimension {basis.dimension}, oracle {want}"
        return None

    def canonical(self, op, basis):
        return "[" + ",".join(_canonical_components(w.components) for w in basis.elements) + "]"


# -- prolongation ------------------------------------------------------------


class ProlongationWorkload(Workload):
    """random_weyl + prolongation with the basis cache warmed in set-up."""

    name = "prolongation"
    tail_percentile = 90.0
    SIGNATURES = ((4, 0), (3, 1), (2, 2), (5, 0))
    TENSORS_PER_SIGNATURE = 6

    def __init__(self, mods, seed, workdir):
        super().__init__(mods, seed, workdir)
        rng = random.Random(seed)
        ops = []
        for p, q in self.SIGNATURES:
            mods.weyl.weyl_space_basis(p, q)
            for _ in range(self.TENSORS_PER_SIGNATURE):
                s = rng.randrange(1, 10**6)
                ops.append(Op(f"prolongation:{p},{q}:seed={s}", (p, q, s)))
        rng.shuffle(ops)
        self.ops = ops

    def run(self, op):
        weyl = self.mods.weyl
        W = weyl.random_weyl(*op.args)
        return W, weyl.prolongation(W)

    def check(self, op, out):
        W, pro = out
        if not any(W.components):
            return "random tensor is zero"
        if len(pro) != 0:
            return f"prolongation has dimension {len(pro)}, expected 0"
        return None

    def canonical(self, op, out):
        W, pro = out
        return json.dumps(
            {"tensor": _canonical_components(W.components), "prolongation": [[str(e) for e in y] for y in pro]},
            sort_keys=True,
        )


# -- symmetry-cli ------------------------------------------------------------


def _j(p: int, i: int) -> int:
    return 1 if i < p else -1


def _form(p, x, y):
    """m(x, y) = x_0 y_last + x_last y_0 + sum_i J_i x_i y_i."""
    out = x[0] * y[-1] + x[-1] * y[0]
    for i in range(1, len(x) - 1):
        t = x[i] * y[i]
        out = out + (t if _j(p, i - 1) > 0 else -t)
    return out


def _apply_form(p, x):
    """M x for the form matrix M (M is symmetric and M^2 = I)."""
    mid = [e if _j(p, i) > 0 else -e for i, e in enumerate(x[1:-1])]
    return [x[-1]] + mid + [x[0]]


def _matvec(g, x):
    return [sum((a * b for a, b in zip(row, x)), Q()) for row in g]


def _transpose(g):
    return [list(col) for col in zip(*g)]


def _s_z(p, z, x):
    """The involution s_Z applied to x (see confsym.symmetry.make_symmetry)."""
    n = len(z)
    jz = [z[i] if _j(p, i) > 0 else -z[i] for i in range(n)]
    quad = sum((z[i] * jz[i] for i in range(n)), Q()) * Q(Fraction(1, 2))
    y0 = -x[0] - sum((z[i] * x[1 + i] for i in range(n)), Q()) + quad * x[-1]
    mid = [x[1 + i] - jz[i] * x[-1] for i in range(n)]
    return [y0] + mid + [-x[-1]]


def _rank(rows) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c] / rows[rank][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _points(sub):
    base = vec(sub["base"])
    return [base] + [[b + d for b, d in zip(base, vec(v))] for v in sub["dirs"]]


# The six desk cases of the paper: (case, p, q, u, v, expected sets).  An
# expected set is None (empty), a point, or ("eq", rows, rhs) for {Z : A Z = b}
# with independent rows.
DESK_CASES = (
    ("orbit-A", 2, 1, "1,1*r,0,0,-1", "1,0,0,-1*r,1",
     {"preserving": None, "swapping": ["-1*r", "0", "1*r"]}),
    ("orbit-B", 2, 1, "0,1,0,1,0", "0,0,0,0,1",
     {"preserving": ["0", "0", "0"], "swapping": None}),
    ("orbit-C", 2, 1, "0,1,0,1,0", "1,1,0,1,0",
     {"preserving": None, "swapping": ("eq", [["1", "0", "1"]], ["-1"])}),
    ("orbit-D", 2, 2, "0,1,0,0,1,0", "0,0,1,1,0,0",
     {"preserving": ("eq", [["1", "0", "0", "1"], ["0", "1", "1", "0"]], ["0", "0"]),
      "swapping": None}),
    ("example-2", 2, 1, "0,0,0,0,1", "1,1,0,1,0",
     {"preserving": None, "swapping": None, "preserve_first": ["0", "0", "0"],
      "preserve_second": ("eq", [["1", "0", "1"]], ["-2"])}),
    ("example-3", 3, 0, "-1,0,0,1*r,1", "1,0,0,1*r,-1",
     {"preserving": None, "swapping": ["0", "0", "0"]}),
)


def _check_expected(sub, expected, n) -> bool:
    if expected is None:
        return sub["empty"]
    if sub["empty"]:
        return False
    if isinstance(expected, list):
        return sub["dim"] == 0 and vec(sub["base"]) == vec(expected)
    _, rows, rhs = expected
    A = [vec(r) for r in rows]
    b = vec(rhs)
    dim = n - len(A)
    dirs = [vec(v) for v in sub["dirs"]]
    if sub["dim"] != dim or len(dirs) != dim or (dirs and _rank(dirs) != dim):
        return False
    base = vec(sub["base"])
    dot = lambda r, x: sum((a * c for a, c in zip(r, x)), Q())
    return all(dot(r, base) == bi for r, bi in zip(A, b)) and all(
        not dot(r, v) for r in A for v in dirs
    )


class SymmetryCliWorkload(Workload):
    """`confsym --machine solve` on seeded null-line triples over Q(sqrt 2)."""

    name = "symmetry-cli"
    # Not p95: the few ops beyond p95 change with the seed and grow relative to
    # the rest when the host runs fast, which spread p95 over 0.1 between runs.
    tail_percentile = 90.0
    SIGNATURES = ((2, 1), (3, 0), (2, 2), (3, 1))
    TRIPLES_PER_SIGNATURE = 10

    def __init__(self, mods, seed, workdir):
        super().__init__(mods, seed, workdir)
        rng = random.Random(seed)
        ops = []
        for case, p, q, u, v, expected in DESK_CASES:
            ops.append(Op(f"solve:{p},{q}:u={u}:v={v}:w=", (p, q, u, v, None, case)))
        for p, q in self.SIGNATURES:
            for _ in range(self.TRIPLES_PER_SIGNATURE):
                u, v, w = self._triple(rng, p, q)
                ops.append(Op(f"solve:{p},{q}:u={u}:v={v}:w={w or ''}", (p, q, u, v, w, None)))
        rng.shuffle(ops)
        self.ops = ops
        self._expected = {case: exp for case, *_, exp in DESK_CASES}

    @staticmethod
    def _null(rng, p, q):
        n = p + q
        kind = rng.random()
        if kind < 0.1:
            x = [Q()] * (n + 1) + [Q(rng.choice((1, -2, Fraction(1, 2))))]
        elif kind < 0.2 and p and q:
            # x_0 = 0 with an isotropic middle block
            mid = [Q()] * n
            c = Q(rng.choice((1, -1, 2)), rng.choice((0, 1)))
            mid[rng.randrange(p)] = c
            mid[p + rng.randrange(q)] = c
            x = [Q()] + mid + [Q(rng.randint(-2, 2))]
        else:
            mid = [Q(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(n)]
            x0 = Q(rng.choice((1, -1, 2, Fraction(1, 2), Fraction(-3, 2))), rng.choice((0, 0, 1)))
            s = sum((e * e if _j(p, i) > 0 else -(e * e) for i, e in enumerate(mid)), Q())
            x = [x0] + mid + [-(s / (Q(2) * x0))]
        if _form(p, x, x):
            raise AssertionError("generated vector is not null")
        return x

    def _triple(self, rng, p, q):
        while True:
            u, v = self._null(rng, p, q), self._null(rng, p, q)
            w = self._null(rng, p, q) if rng.random() < 0.5 else None
            w_vec = w or [Q(1)] + [Q()] * (p + q + 1)
            if parallel(u, v) or parallel(w_vec, u) or parallel(w_vec, v):
                continue
            lit = lambda x: ",".join(e.literal() for e in x)
            return lit(u), lit(v), (lit(w) if w else None)

    def run(self, op):
        p, q, u, v, w, _ = op.args
        # --opt=value: a literal list may start with "-"
        argv = ["--machine", f"--p={p}", f"--q={q}", "solve", f"--u={u}", f"--v={v}"]
        if w:
            argv.append(f"--w={w}")
        return _call_cli(self.mods.cli, argv)

    def check(self, op, out):
        p, q, u_lit, v_lit, w_lit, case = op.args
        rc, text = out
        if rc != 0:
            return f"exit {rc}"
        data = json.loads(text)
        n = p + q
        if (data["p"], data["q"]) != (p, q):
            return "signature changed"
        u, v = vec(u_lit.split(",")), vec(v_lit.split(","))
        w = vec(w_lit.split(",")) if w_lit else [Q(1)] + [Q()] * (n + 1)
        if not parallel(vec(data["base_point"]), w):
            return "base point is not w"
        g = [vec(r) for r in data["witness"]]
        if not parallel([row[0] for row in g], w):
            return "witness does not move the origin to w"
        gt = _transpose(g)
        units = [[Q(1) if i == k else Q() for i in range(n + 2)] for k in range(n + 2)]
        for k in range(n + 2):
            for l in range(k, n + 2):
                if _form(p, gt[k], gt[l]) != _form(p, units[k], units[l]):
                    return "witness is not an isometry"
        orbit = data["orbit"]
        if orbit["iso_u"] != (not _form(p, w, u)) or orbit["iso_v"] != (not _form(p, w, v)):
            return "isotropy labels are wrong"
        if orbit["in_span"] != (_rank([u, v, w]) == 2):
            return "in_span label is wrong"
        g_inv = lambda x: _apply_form(p, _matvec(gt, _apply_form(p, x)))
        ul, vl = g_inv(u), g_inv(v)
        tests = {
            "preserving": lambda z: parallel(_s_z(p, z, ul), ul) and parallel(_s_z(p, z, vl), vl),
            "swapping": lambda z: parallel(_s_z(p, z, ul), vl) and parallel(_s_z(p, z, vl), ul),
            "preserve_first": lambda z: parallel(_s_z(p, z, ul), ul),
            "preserve_second": lambda z: parallel(_s_z(p, z, vl), vl),
        }
        for field, test in tests.items():
            sub = data[field]
            if not sub["empty"] and not all(test(z) for z in _points(sub)):
                return f"a reported {field} point fails"
        if case is not None:
            for field, expected in self._expected[case].items():
                if not _check_expected(data[field], expected, n):
                    return f"desk case {case}: {field} does not match the paper"
        return None

    def canonical(self, op, out):
        return out[1]


# -- extension-cli -----------------------------------------------------------


class ExtensionCliWorkload(Workload):
    """`confsym extension validate|curvature|criterion --file` on flat-model
    files and on one perturbed file per signature."""

    name = "extension-cli"
    # Mid-class: p60 sits inside the class of (2,1) validate and (3,1)
    # curvature and criterion ops, p75 on its upper edge.
    tail_percentile = 60.0
    SIGNATURES = ((2, 1), (3, 1), (2, 2))
    # The flat model of (2,2) prints the same validate, curvature and
    # criterion answers as that of (3,1), so only its perturbed file is run.
    PERTURBED_ONLY = ((2, 2),)
    PERTURBATIONS = (Q(1), Q(2), Q(Fraction(-1, 2)), Q(0, 1), Q(1, -1))

    def __init__(self, mods, seed, workdir):
        super().__init__(mods, seed, workdir)
        rng = random.Random(seed)
        os.makedirs(workdir, exist_ok=True)
        ops = []
        for p, q in self.SIGNATURES:
            flat = os.path.join(workdir, f"flat-{p}-{q}.json")
            rc, _ = _call_cli(mods.cli, ["--p", str(p), "--q", str(q), "extension", "make-flat", "-o", flat])
            if rc != 0:
                raise RuntimeError(f"make-flat failed for ({p}, {q})")
            with open(flat) as fh:
                data = json.load(fh)
            row = rng.choice(data["h"])
            c = rng.choice(self.PERTURBATIONS)
            data["alpha"][row][0] = (parse(data["alpha"][row][0]) + c).literal()
            bent = os.path.join(workdir, f"perturbed-{p}-{q}.json")
            with open(bent, "w") as fh:
                json.dump(data, fh, sort_keys=True)
            y = ",".join(Q(rng.randint(-2, 2), rng.randint(-1, 1)).literal() for _ in range(p + q))
            zero = ",".join(["0"] * (p + q))
            sig = f"{p},{q}"
            ops.append(Op(f"ext:perturbed:{sig}:row={row}:c={c.literal()}", ("perturbed", bent, None)))
            if (p, q) not in self.PERTURBED_ONLY:
                ops += [
                    Op(f"ext:validate:{sig}", ("validate", flat, None)),
                    Op(f"ext:curvature:{sig}", ("curvature", flat, None)),
                    Op(f"ext:criterion:{sig}:y={zero}", ("criterion", flat, zero)),
                    Op(f"ext:criterion:{sig}:y={y}", ("criterion", flat, y)),
                ]
        rng.shuffle(ops)
        self.ops = ops

    def run(self, op):
        kind, path, y = op.args
        argv = ["--machine", "extension", "validate" if kind == "perturbed" else kind, "--file", path]
        if y is not None:
            argv.append(f"--y={y}")
        return _call_cli(self.mods.cli, argv)

    def check(self, op, out):
        kind, _, y = op.args
        rc, text = out
        want_rc = 1 if kind == "perturbed" else 0
        if rc != want_rc:
            return f"exit {rc}, expected {want_rc}"
        data = json.loads(text)
        if kind == "validate":
            if not all(data[c]["passed"] for c in ("stabilizer", "quotient", "equivariance")):
                return "flat-model extension does not validate"
        elif kind == "perturbed":
            if not (data["stabilizer"]["passed"] and data["quotient"]["passed"]):
                return "perturbation broke a condition it leaves intact"
            if data["equivariance"]["passed"]:
                return "perturbed extension passed equivariance"
        elif kind == "curvature":
            if not data["flat"] or not all(v["zero"] for v in data["curvature"]):
                return "flat-model curvature is not zero"
        else:
            if not data["preserved"]:
                return "criterion fails on the flat model"
            if vec(data["Y"]) != vec(y.split(",")):
                return "criterion echoed another Y"
        return None

    def canonical(self, op, out):
        return out[1]


WORKLOADS = {
    w.name: w
    for w in (WeylBasisWorkload, ProlongationWorkload, SymmetryCliWorkload, ExtensionCliWorkload)
}
