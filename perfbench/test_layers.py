"""Self-test of the benchmark's layer wrappers.

Each workload is run once in traced mode (one pass per phase).  Every per-layer
count the workload is meant to exercise must be nonzero, and the predicted
zeros must hold, so a later rebinding of a wrapped name cannot silently zero a
layer.  Run from the root of the checkout:

    python3 -m pytest perfbench/test_layers.py
"""

from __future__ import annotations

import json
import sys
import types

import pytest

import run

EXERCISED = {
    "weyl-basis": (
        "weyl.validate_calls", "weyl.validate_s", "scalars.objects", "linalg.kernel_s",
        "weyl.constraint_rows_s", "core.rref_calls", "core.rows_in", "core.pivots",
        "weyl.basis_cache_misses",
    ),
    "prolongation": (
        "weyl.co_action_calls", "weyl.co_action_s", "liealg.upsilon_calls", "liealg.upsilon_s",
        "linalg.bridge_s", "linalg.bridge_rows", "weyl.prolongation_s", "weyl.random_weyl_s",
        "core.rref_calls", "weyl.basis_cache_hits", "scalars.objects",
    ),
    "symmetry-cli": (
        "scalars.parse_calls", "scalars.parse_s", "flatmodel.witness_s", "flatmodel.inverse_s",
        "flatmodel.classify_s", "symmetry.find_s", "symmetry.solve_s",
        "symmetry.make_symmetry_calls", "linalg.solve_affine_calls", "linalg.solve_affine_s",
        "linalg.rank_calls", "linalg.subspace_calls", "serialize.to_dict_s", "serialize.dump_s",
        "cli.self_s", "core.rref_calls", "linalg.bridge_rows",
    ),
    "extension-cli": (
        "liealg.bracket_calls", "liealg.bracket_s", "liealg.exp_nilpotent_s",
        "linalg.matmul_calls", "linalg.matmul_s", "extension.validate_s",
        "extension.curvature_s", "extension.criterion_s", "extension.pair_build_s",
        "serialize.from_dict_s", "liealg.algebra_build_s", "scalars.parse_calls",
        "core.rref_calls", "cli.self_s",
    ),
}

PREDICTED_ZERO = {
    "weyl-basis": (
        "weyl.co_action_calls", "liealg.upsilon_calls", "weyl.basis_cache_hits",
        "linalg.bridge_rows", "scalars.parse_calls", "cli.self_s", "liealg.bracket_calls",
    ),
    "prolongation": (
        "weyl.validate_calls", "weyl.basis_cache_misses", "weyl.constraint_rows_s",
        "scalars.parse_calls", "cli.self_s", "liealg.bracket_calls",
    ),
    "symmetry-cli": (
        "weyl.validate_calls", "weyl.co_action_calls", "liealg.bracket_calls",
        "serialize.from_dict_s", "extension.validate_s",
    ),
    "extension-cli": (
        "weyl.validate_calls", "weyl.co_action_calls", "liealg.upsilon_calls",
        "symmetry.make_symmetry_calls", "flatmodel.witness_s",
    ),
}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_layer_counts(workload):
    sys.path.insert(0, str(run.SRC))
    report, result = run.measure(run.parse_args(["--workload", workload, "--seconds", "0", "--trace", "1"]))
    assert result["correct"], report["failures"]
    assert report["hash_checked"] == result["attempted"]
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert [n for n in EXERCISED[workload] if not metrics[n] > 0] == []
    assert [n for n in PREDICTED_ZERO[workload] if metrics[n] != 0] == []

    # every wrapper is gone again once the traced phase ends
    owners = [
        owner
        for mod in list(sys.modules.values())
        if isinstance(mod, types.ModuleType) and mod.__name__.startswith("confsym")
        for owner in [mod]
        + [c for c in vars(mod).values() if isinstance(c, type) and c.__module__ == mod.__name__]
    ]
    wrapped = [
        f"{owner.__name__}.{name}"
        for owner in owners
        for name, obj in vars(owner).items()
        if hasattr(obj, "span_name")
    ]
    assert wrapped == []
