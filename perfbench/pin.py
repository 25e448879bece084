"""Rewrite pins.json: the exit code and output sha256 of every operation
that any seed can pick, each cross-checked by another route first.

    PYTHONPATH=src python3 perfbench/pin.py

Run it from the checkout root, only when a change of output is intended,
and review the diff of pins.json.  It takes about two minutes.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import gkptri.cli

import child
import workloads


def cross_check(op: workloads.Op) -> bool:
    if op.check is None:
        return True
    if op.argv is None:
        return op.check(op.call())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        gkptri.cli.main(list(op.argv))
    return op.check(out.getvalue())


def main() -> int:
    pins = {}
    bad = []
    for op in workloads.every_op():
        record = child.run_op(op)
        print(f"{record['wall_s']:8.3f} s  exit {record['exit']}  {op.id}", file=sys.stderr)
        if record["exit"] is None or not cross_check(op):
            bad.append(op.id)
        pins[op.id] = {"exit": record["exit"], "sha256": record["sha256"]}
    if bad:
        print("cross-check failed, pins.json left as it was:\n  " + "\n  ".join(bad),
              file=sys.stderr)
        return 1
    child.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
