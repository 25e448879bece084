"""The benchmark's pinned outputs, checked in the tier-1 run: every seed-0
operation of `verify-all`, `deep-expand` and `oracle-census`, and every
`oracle` operation that any seed can pick, must give the exit code and
output sha256 that `perfbench/pins.json` holds, so a `src/` change that
moves a pinned output fails here, before the benchmark.  `triangle-600`
(about 3 s of big-int rendering) is left to the benchmark.

The operation lists and the hashing sink are `perfbench`'s own, read from
`perfbench/workloads.py` and `perfbench/child.py`, which this test does not change."""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import child  # noqa: E402
import workloads  # noqa: E402

PINS = json.loads((PERFBENCH / "pins.json").read_text())
OPS = [op for workload in ("verify-all", "deep-expand", "oracle-census")
       for op in workloads.build(workload, 0)]
SEED_0_IDS = {op.id for op in OPS}
OTHER_ORACLE_OPS = [op for op in workloads.every_op()
                    if op.id.startswith("gkptri oracle ") and op.id not in SEED_0_IDS]


def assert_matches_its_pin(op):
    record = child.run_op(op)
    assert {"exit": record["exit"], "sha256": record["sha256"]} == PINS[op.id]


@pytest.mark.parametrize("op", OPS, ids=[op.id for op in OPS])
def test_seed_0_operation_matches_its_pin(op):
    assert_matches_its_pin(op)


@pytest.mark.parametrize("op", OTHER_ORACLE_OPS, ids=[op.id for op in OTHER_ORACLE_OPS])
def test_oracle_operation_of_other_seeds_matches_its_pin(op):
    assert_matches_its_pin(op)
