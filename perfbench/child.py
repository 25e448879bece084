"""One repetition of a workload's operation list, in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED [SPANS_PATH]

gkptri must be importable (run.py puts the checkout's src/ on PYTHONPATH).
With SPANS_PATH the layers are traced and the spans are written there;
without it the speed probe (probe.py) runs, and each operation's time is
also given in reference seconds.
Prints one JSON report on the real standard output; what the operations
print goes to a sink that hashes it.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import gkptri
import gkptri.cli

import probe
import tracer as tracing
import workloads

PINS = Path(__file__).with_name("pins.json")
CHUNK = 1 << 20


class HashSink(io.TextIOBase):
    """Text stream that hashes and counts the UTF-8 bytes written to it.

    The text is kept only with `keep`, for output that is normalised
    before hashing.
    """

    def __init__(self, keep: bool = False):
        self.sha = hashlib.sha256()
        self.bytes = 0
        self.kept: list[str] | None = [] if keep else None

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        for start in range(0, len(text), CHUNK):
            data = text[start:start + CHUNK].encode()
            self.sha.update(data)
            self.bytes += len(data)
        if self.kept is not None:
            self.kept.append(text)
        return len(text)


def _sha256(pieces) -> str:
    sha = hashlib.sha256()
    for piece in pieces:
        sha.update(piece.encode())
    return sha.hexdigest()


def run_op(op: workloads.Op, tracer: tracing.Tracer | None = None,
           speed: probe.Probe | None = None) -> dict:
    """Run one operation; time it, then hash its output outside the span
    (and, in a traced run, with the tracer paused).  With `speed`, the
    probe's samples inside the span are taken out of its times."""
    sink = HashSink(keep=op.normalize is not None)
    real_stdout = sys.stdout
    result = code = None
    probe_wall0 = speed.wall_s if speed else 0.0
    probe_cpu0 = speed.cpu_s if speed else 0.0
    cpu0 = time.process_time()
    start = time.perf_counter()
    try:
        if op.argv is not None:
            sys.stdout = sink
            try:
                code = gkptri.cli.main(list(op.argv))
            finally:
                sys.stdout = real_stdout
        else:
            result = op.call()
            code = 0
    except Exception:
        traceback.print_exc()
    end = time.perf_counter()
    cpu = time.process_time() - cpu0
    wall = end - start
    if speed:
        wall -= speed.wall_s - probe_wall0
        cpu -= speed.cpu_s - probe_cpu0
    digest = None
    if tracer is not None:
        tracer.paused = True
    if code is not None:
        if op.argv is None:
            digest = _sha256(op.render(result))
        elif op.normalize is not None:
            digest = _sha256([op.normalize("".join(sink.kept))])
        else:
            digest = sink.sha.hexdigest()
    if tracer is not None:
        tracer.paused = False
    return {"id": op.id, "wall_s": wall, "cpu_s": cpu, "start": start, "end": end,
            "exit": code, "sha256": digest, "output_bytes": sink.bytes}


def check(record: dict, pins: dict) -> bool:
    """True when the operation ran and matches its pinned exit and hash."""
    pin = pins.get(record["id"])
    ok = pin == {"exit": record["exit"], "sha256": record["sha256"]}
    if not ok:
        print(f"operation failed: {record['id']}: exit {record['exit']}, "
              f"sha256 {record['sha256']}; pinned {pin}", file=sys.stderr)
    return ok


def main(argv: list[str]) -> int:
    workload, seed = argv[0], int(argv[1])
    spans_path = argv[2] if len(argv) > 2 else None
    ops = workloads.build(workload, seed)
    pins = json.loads(PINS.read_text())
    tracer = None
    if spans_path:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        records = [run_op(op, tracer) for op in ops]
    else:
        with probe.Probe(workloads.PROBE[workload]) as speed:
            records = [run_op(op, speed=speed) for op in ops]
        for record in records:
            factor = speed.factor(record["start"], record["end"])
            record["ref_wall_s"] = record["wall_s"] * factor
            record["ref_cpu_s"] = record["cpu_s"] * factor
    failed = sum(not check(record, pins) for record in records)
    report = {
        key: sum(r[key] for r in records)
        for key in ("wall_s", "cpu_s", "ref_wall_s", "ref_cpu_s") if key in records[0]
    }
    report.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(records),
        "failed": failed,
        "ops": records,
    })
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers["cli.output_bytes"] = sum(r["output_bytes"] for r in records)
        tracer.write(spans_path)
        report["layers"] = layers
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
