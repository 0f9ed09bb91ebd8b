#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of confsym.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports confsym from `src/`.
Each workload is a closed loop with one client in one thread: the next op
starts when the previous one ends.  Ops are issued in whole passes over the
list generated from the seed, so every run sees the same op mix.

    --trace 0  set-up (repeated, median reported), an untimed warm-up, then
               the timed phase; prints the end-to-end metrics.
    --trace 1  the same set-up and warm-up, an untraced and a traced phase of
               a quarter of the run each, then one pass that counts Scalar
               constructions; prints the per-layer metrics.

End-to-end times are scaled to the speed of a reference host, each op and each
set-up by the calibrations timed nearest to it (see host_scales); the report
holds them unscaled too.

Every op's answer is checked (see workloads.py) and its canonical output is
hashed and compared with reference.json where that file holds the op.  The
second-to-last line of standard output is a report with the environment stamp;
the last line is the result object.  Exit status 2 means the benchmark could
not run at all (no source tree, bad arguments).
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from qsqrt import Q  # noqa: E402
from tracing import LAYERS, ScalarCounter, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
# Median calibrate() time on the reference host (2 vCPUs, Xeon at 2.0 GHz,
# CPython 3.11).  Timing metrics are scaled to this host speed; see host_scales().
CALIBRATION_REF_NS = 17_600_000
# At most one calibration per interval keeps its cost near 6% of the wall time
# on the 6 ms ops of symmetry-cli and near 4% elsewhere.
CALIBRATION_INTERVAL_NS = 250_000_000
# Each time is scaled by the median of this many calibrations around it, half
# before and half after: the host's speed moves within seconds, and one
# calibration alone is too noisy to follow it.
CALIBRATION_WINDOW = 4
# The timed phase runs until at least this many samples lie beyond the tail
# percentile, so the tail is always read at the workload's own percentile.
TAIL_BEYOND = 10
clock = time.perf_counter_ns


# -- calibration -------------------------------------------------------------


# 8x8, not smaller: the time of a 5x5 product also moved from process to
# process by up to 16% in ways the ops' times did not.
_CALIBRATION_SIZE = 8
_CALIBRATION_MATRIX = [
    [Q(Fraction(i + 1, j + 2), Fraction(i - j, 3)) for j in range(_CALIBRATION_SIZE)]
    for i in range(_CALIBRATION_SIZE)
]


def calibrate() -> int:
    """Nanoseconds taken by a fixed 8x8 matrix product over Q(sqrt 2) in the
    benchmark's own arithmetic: the same kind of work as the ops, but no
    confsym code, and the collector is off, so only the host's speed moves it."""
    m = _CALIBRATION_MATRIX
    r = range(_CALIBRATION_SIZE)
    gc.disable()
    try:
        t0 = clock()
        for i in r:
            for j in r:
                sum((m[i][k] * m[k][j] for k in r), Q())
        return clock() - t0
    finally:
        gc.enable()


def host_scales(calibrations, starts_ns) -> list[float]:
    """For each start time, the factor that turns a time measured from then
    into the time it would take on the reference host.  `calibrations` holds
    (time, calibrate() result) pairs in time order.  The host's speed drifts
    by 10-40% within seconds to minutes, and op times move in proportion to
    the calibrations timed nearest to them."""
    times = [t for t, _ in calibrations]
    half = CALIBRATION_WINDOW // 2
    scales = []
    for start in starts_ns:
        i = bisect.bisect_right(times, start)
        window = [ns for _, ns in calibrations[max(0, i - half) : i + half]]
        scales.append(CALIBRATION_REF_NS / statistics.median(window))
    return scales


# -- set-up ------------------------------------------------------------------


def fresh_import():
    """Drop every confsym module and import the package again from src/."""
    for name in [n for n in sys.modules if n == "confsym" or n.startswith("confsym.")]:
        del sys.modules[name]
    mods = types.SimpleNamespace()
    for name in ("confsym", "confsym.cli", "confsym.weyl", "confsym.scalars", "confsym._core"):
        mod = importlib.import_module(name)
        setattr(mods, name.rsplit(".", 1)[-1], mod)
    if Path(mods.confsym.__file__).resolve().parent != (SRC / "confsym").resolve():
        raise RuntimeError(f"imported confsym from {mods.confsym.__file__}, not from {SRC}")
    return mods


def set_up(cls, seed, workdir):
    """SETUP_REPEATS full set-ups, each between two calibrations; returns the
    last workload and the median of the set-up times, unscaled and scaled."""
    times_ns = []
    starts_ns = []
    calibrations = []
    wl = None
    for _ in range(SETUP_REPEATS):
        wl = None
        gc.collect()
        calibrations.append((clock(), calibrate()))
        t0 = clock()
        wl = cls(fresh_import(), seed, workdir)
        times_ns.append(clock() - t0)
        starts_ns.append(t0)
        calibrations.append((clock(), calibrate()))
    scaled = [t * k for t, k in zip(times_ns, host_scales(calibrations, starts_ns))]
    return wl, statistics.median(times_ns) / 1e9, statistics.median(scaled) / 1e9


# -- running ops ---------------------------------------------------------------


class Phase:
    def __init__(self):
        self.latencies_ns: list[int] = []
        self.starts_ns: list[int] = []
        self.calibrations: list[tuple[int, int]] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.hash_checked = 0
        self.cache_hits = 0
        self.cache_misses = 0

    def scaled_latencies_ns(self) -> list[float]:
        """Each op's latency on the reference host; see host_scales()."""
        scales = host_scales(self.calibrations, self.starts_ns)
        return [t * k for t, k in zip(self.latencies_ns, scales)]


def run_one(wl, op, phase, reference, tracer=None):
    now = clock()
    if not phase.calibrations or now - phase.calibrations[-1][0] >= CALIBRATION_INTERVAL_NS:
        phase.calibrations.append((now, calibrate()))
    wl.before_op(op)
    hits0, misses0 = wl.cache_counts()
    if tracer is not None:
        tracer.begin_op()
    error = None
    out = None
    t0 = clock()
    try:
        out = wl.run(op)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        error = f"{type(exc).__name__}: {exc}"
    elapsed = clock() - t0
    if tracer is not None:
        tracer.end_op(elapsed)
    hits1, misses1 = wl.cache_counts()
    phase.cache_hits += hits1 - hits0
    phase.cache_misses += misses1 - misses0
    if error is None:
        try:
            error = wl.check(op, out)
            want = reference.get(op.key)
            if error is None and want is not None:
                phase.hash_checked += 1
                got = hashlib.sha256(wl.canonical(op, out).encode()).hexdigest()
                if got != want:
                    error = "output differs from the reference bytes"
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            error = f"unreadable output: {type(exc).__name__}: {exc}"
    phase.attempted += 1
    phase.latencies_ns.append(elapsed)
    phase.starts_ns.append(t0)
    if error is not None:
        phase.failures.append(f"{op.key}: {error}")


def run_passes(wl, seconds, reference, tracer=None, tail_percentile=None) -> Phase:
    """Whole passes over wl.ops until `seconds` of wall time have passed and,
    given `tail_percentile`, at least TAIL_BEYOND samples lie beyond it; one
    pass when `seconds` is 0 and no percentile is given."""
    phase = Phase()
    start = clock()
    while True:
        for op in wl.ops:
            run_one(wl, op, phase, reference, tracer)
        if (clock() - start) / 1e9 >= seconds and (
            tail_percentile is None or beyond(len(phase.latencies_ns), tail_percentile) >= TAIL_BEYOND
        ):
            return phase


# -- metrics -----------------------------------------------------------------


def percentile(sorted_values, p):
    pos = p / 100 * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def beyond(n, p):
    """Samples of n that lie above the p-th percentile."""
    return n - 1 - int(p / 100 * (n - 1))


def ops_per_s(latencies_ns) -> float:
    """Completed ops over their summed latency; the untimed checks and
    calibrations are left out."""
    return len(latencies_ns) / (sum(latencies_ns) / 1e9)


def timings(setup_s, latencies_ns, tail_percentile):
    lat = sorted(latencies_ns)
    return {
        "setup_s": setup_s,
        "ops_per_s": ops_per_s(lat),
        "op_p50_ms": statistics.median(lat) / 1e6,
        "op_tail_ms": percentile(lat, tail_percentile) / 1e6,
    }


def end_to_end(wl, setup_s, setup_scaled_s, phase):
    raw = timings(setup_s, phase.latencies_ns, wl.tail_percentile)
    scaled = timings(setup_scaled_s, phase.scaled_latencies_ns(), wl.tail_percentile)
    metrics = {
        "setup_s": (scaled["setup_s"], "s"),
        "ops_per_s": (scaled["ops_per_s"], "1/s"),
        "op_p50_ms": (scaled["op_p50_ms"], "ms"),
        "op_tail_ms": (scaled["op_tail_ms"], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_ratio": (1 - len(phase.failures) / phase.attempted, "ratio"),
    }
    n = len(phase.latencies_ns)
    detail = {
        "tail_percentile": wl.tail_percentile,
        "tail_samples_beyond": beyond(n, wl.tail_percentile),
        "samples": n,
        "calibrations": len(phase.calibrations),
        "calibration_ms": statistics.median(ns for _, ns in phase.calibrations) / 1e6,
        "unscaled": raw,
    }
    return metrics, detail


def per_layer(tracer, untraced, traced, scalar_objects, counted_ops):
    t = tracer.totals
    ops = t.ops

    def self_s(*names):
        return sum(t.self_ns.get(n, 0) for n in names) / 1e9 / ops

    def calls(*names):
        return sum(t.calls.get(n, 0) for n in names) / ops

    def matching(part):
        return [n for n in t.self_ns if n.startswith("serialize.") and part in n]

    m = {
        "weyl.validate_calls": (calls("weyl.WeylTensor.validate"), "1/op"),
        "weyl.validate_s": (self_s("weyl.WeylTensor.validate"), "s/op"),
        "scalars.objects": (scalar_objects / counted_ops, "1/op"),
        "linalg.kernel_s": (self_s("linalg.kernel_sparse"), "s/op"),
        "weyl.constraint_rows_s": (self_s("weyl._constraint_rows"), "s/op"),
        "weyl.co_action_calls": (calls("weyl.co_action"), "1/op"),
        "weyl.co_action_s": (self_s("weyl.co_action"), "s/op"),
        "liealg.upsilon_calls": (calls("liealg.upsilon_action"), "1/op"),
        "liealg.upsilon_s": (self_s("liealg.upsilon_action"), "s/op"),
        "linalg.bridge_s": (self_s("linalg.sparse_rows_from_scalars"), "s/op"),
        "linalg.bridge_rows": (t.bridge_rows / ops, "1/op"),
        "weyl.prolongation_s": (self_s("weyl.prolongation"), "s/op"),
        "weyl.random_weyl_s": (self_s("weyl.random_weyl"), "s/op"),
        "core.rref_calls": (calls("_core.rref_sparse"), "1/op"),
        "core.rref_s": (self_s("_core.rref_sparse"), "s/op"),
        "core.rows_in": (t.rref_rows / ops, "1/op"),
        "core.nnz_in": (t.rref_nnz / ops, "1/op"),
        "core.pivots": (t.rref_pivots / ops, "1/op"),
        "core.max_cols": (t.rref_max_cols, "count"),
        "core.useful_rows_ratio": (t.rref_pivots / t.rref_rows if t.rref_rows else 0.0, "ratio"),
        "core.max_coeff_bits": (t.rref_max_bits, "bits"),
        "weyl.basis_cache_hits": (traced.cache_hits / ops, "1/op"),
        "weyl.basis_cache_misses": (traced.cache_misses / ops, "1/op"),
        "scalars.parse_calls": (calls("scalars.parse_scalar"), "1/op"),
        "scalars.parse_s": (self_s("scalars.parse_scalar"), "s/op"),
        "flatmodel.witness_s": (self_s("flatmodel.transitive_witness"), "s/op"),
        "flatmodel.inverse_s": (self_s("flatmodel.isometry_inverse"), "s/op"),
        "flatmodel.classify_s": (self_s("flatmodel.classify_orbit"), "s/op"),
        "symmetry.find_s": (self_s("symmetry.find_symmetries"), "s/op"),
        "symmetry.solve_s": (self_s("symmetry.solve_preserve", "symmetry.solve_swap"), "s/op"),
        "symmetry.make_symmetry_calls": (calls("symmetry.make_symmetry"), "1/op"),
        "linalg.solve_affine_calls": (calls("linalg.solve_affine"), "1/op"),
        "linalg.solve_affine_s": (self_s("linalg.solve_affine"), "s/op"),
        "linalg.rank_calls": (calls("linalg.rank"), "1/op"),
        "linalg.subspace_calls": (calls("linalg.AffineSubspace.__init__"), "1/op"),
        "serialize.to_dict_s": (self_s(*matching("_to_")), "s/op"),
        "serialize.dump_s": (self_s("serialize.dump_canonical"), "s/op"),
        "cli.self_s": (t.layer_self_ns.get("cli", 0) / 1e9 / ops, "s/op"),
        "liealg.bracket_calls": (calls("liealg.bracket"), "1/op"),
        "liealg.bracket_s": (self_s("liealg.bracket"), "s/op"),
        "liealg.exp_nilpotent_s": (self_s("liealg.exp_nilpotent"), "s/op"),
        "linalg.matmul_calls": (calls("linalg.Matrix.__matmul__"), "1/op"),
        "linalg.matmul_s": (self_s("linalg.Matrix.__matmul__"), "s/op"),
        "extension.validate_s": (self_s("extension.validate_extension"), "s/op"),
        "extension.curvature_s": (self_s("extension.curvature"), "s/op"),
        "extension.criterion_s": (self_s("extension.symmetry_criterion"), "s/op"),
        "extension.pair_build_s": (
            self_s("extension.HomogeneousPair.__init__", "extension.SymmetricPair.__init__"),
            "s/op",
        ),
        "serialize.from_dict_s": (self_s(*matching("_from_")), "s/op"),
        "liealg.algebra_build_s": (self_s("liealg.StructureAlgebra.__init__"), "s/op"),
        "trace.overhead_ratio": (
            ops_per_s(traced.scaled_latencies_ns()) / ops_per_s(untraced.scaled_latencies_ns()),
            "ratio",
        ),
    }
    for layer in LAYERS:
        share = t.layer_self_ns.get(layer, 0) / t.op_ns * 100
        m[f"layer_share.{layer.lstrip('_')}"] = (share, "%")
    return m


# -- environment -------------------------------------------------------------


def commit():
    """HEAD of the checkout's own git repository, or None outside one."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(mods, args):
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "backend": mods._core.BACKEND_NAME,
        "CONFSYM_PURE": os.environ.get("CONFSYM_PURE"),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": affinity or os.cpu_count(),
        "seed": args.seed,
        "commit": commit(),
    }


# -- main --------------------------------------------------------------------


def load_reference(workload):
    path = HERE / "reference.json"
    if not path.is_file():
        return {}
    with open(path) as fh:
        return json.load(fh).get(workload, {})


def measure(args):
    cls = WORKLOADS[args.workload]
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    reference = load_reference(args.workload)
    try:
        wl, setup_s, setup_scaled_s = set_up(cls, args.seed, str(workdir))
        # The warm-up is a whole pass: the first pass also grows the heap.
        phases = [run_passes(wl, 0, reference)]
        gc.collect()
        report = {"workload": args.workload, "env": environment(wl.mods, args), "setup_repeats": SETUP_REPEATS}
        if args.trace:
            # A quarter of the run each keeps a traced run about as long as an
            # untraced one once the counting pass is added.
            untraced = run_passes(wl, args.seconds / 4, reference)
            tracer = Tracer().install()
            try:
                traced = run_passes(wl, args.seconds / 4, reference, tracer)
            finally:
                tracer.uninstall()
            counter = ScalarCounter(wl.mods.scalars.Scalar).install()
            try:
                counted = run_passes(wl, 0, reference)
            finally:
                counter.uninstall()
            phases += [untraced, traced, counted]
            metrics = per_layer(tracer, untraced, traced, counter.count, counted.attempted)
            report["traced_ops"] = traced.attempted
            report["top_self_s_per_op"] = tracer.top_self(15)
        else:
            timed = run_passes(wl, args.seconds, reference, tail_percentile=wl.tail_percentile)
            phases.append(timed)
            metrics, detail = end_to_end(wl, setup_s, setup_scaled_s, timed)
            report.update(detail)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    attempted = sum(p.attempted for p in phases)
    failures = [f for p in phases for f in p.failures]
    report["fail_ratio"] = len(failures) / attempted
    report["hash_checked"] = sum(p.hash_checked for p in phases)
    report["failures"] = failures[:20]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return report, result


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "confsym" / "__init__.py").is_file():
        print(f"error: no confsym source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    report, result = measure(args)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
