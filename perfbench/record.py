#!/usr/bin/env python3
"""Record reference.json: the SHA-256 of every op's canonical output for the
default seed, one pass per workload.

    python3 perfbench/record.py

Refuses to record an op whose answer fails its check.  Re-record only when an
answer is meant to change; any byte change in an answer then shows in review.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import shutil
import sys

import run
from workloads import WORKLOADS


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    reference = {}
    for name, cls in sorted(WORKLOADS.items()):
        workdir = run.HERE / ".work" / f"record-{name}"
        try:
            wl = cls(run.fresh_import(), 0, str(workdir))
            hashes = {}
            for op in wl.ops:
                wl.before_op(op)
                out = wl.run(op)
                error = wl.check(op, out)
                if error is not None:
                    print(f"error: {op.key}: {error}", file=sys.stderr)
                    return 1
                hashes[op.key] = hashlib.sha256(wl.canonical(op, out).encode()).hexdigest()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            with contextlib.suppress(OSError):
                workdir.parent.rmdir()
        reference[name] = hashes
        print(f"{name}: {len(hashes)} ops")
    with open(run.HERE / "reference.json", "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
