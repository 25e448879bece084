"""The gkptri benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1] [--out FILE]

Run it from the root of a checkout; it needs only the standard library and
the sources under src/.  The first form runs one workload and prints, as
its last line, one JSON object with `correct`, `attempted`, `failed` and
`metrics`: with --trace 0 the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics.  The second form runs every workload,
prints each metric by name and unit, optionally writes the results to
FILE, and exits 1 when any operation failed.

--trace 0 first times `import gkptri, gkptri.cli` in fresh interpreters
(setup_s), then runs the workload's operation list in a fresh child
process (child.py) again and again until --seconds have passed, and
reports medians over those repetitions; wall and CPU time are given in
reference seconds (probe.py).  --trace 1 runs the list once
untraced and once traced (tracer.py); the spans go to perfbench/out/.
NOTES.md says why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# A run must end within 180 s; stop starting work well before that.
TIME_LIMIT_S = 165
SETUP_SAMPLES = 8
SETUP_CODE = ("import time; t = time.perf_counter(); import gkptri, gkptri.cli; "
              "print(time.perf_counter() - t)")


class Unrunnable(Exception):
    """The checkout cannot run the benchmark; no result is printed."""


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    # Same string hashing in every child; the program's budget at its default;
    # bytecode cached as in an installed package.
    env["PYTHONHASHSEED"] = "0"
    env.pop("GKPTRI_BUDGET", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def remaining(deadline: float) -> float:
    return max(1.0, deadline - time.monotonic())


def import_seconds(root: Path, env: dict, deadline: float) -> float:
    """Time of `import gkptri, gkptri.cli` in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root, env=env,
                          capture_output=True, text=True, timeout=remaining(deadline))
    if proc.returncode != 0:
        raise Unrunnable(f"cannot import gkptri from {root / 'src'}:\n{proc.stderr}")
    return float(proc.stdout)


def run_child(root: Path, env: dict, workload: str, seed: int, deadline: float,
              spans_path: Path | None = None) -> dict | None:
    """One repetition in a fresh process; None if it crashed or ran out of time."""
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed)]
    if spans_path is not None:
        cmd.append(str(spans_path))
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=remaining(deadline))
    except subprocess.TimeoutExpired:
        print(f"{workload}: repetition stopped at the time limit", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"{workload}: repetition exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def tally(reps: list[dict | None]) -> tuple[int, int]:
    """(attempted, failed); a crashed repetition counts as one failed attempt."""
    attempted = sum(r["attempted"] if r else 1 for r in reps)
    failed = sum(r["failed"] if r else 1 for r in reps)
    return attempted, failed


def timed_run(root: Path, env: dict, workload: str, seed: int, seconds: int,
              deadline: float) -> tuple[dict, list[dict | None], str]:
    import_seconds(root, env, deadline)  # may compile the bytecode caches: not counted
    # Import samples are taken before each repetition and after the last, so
    # that they see the same phases of a shared host as the repetitions do.
    setup: list[float] = []
    reps: list[dict | None] = []
    start = time.monotonic()
    while True:
        setup += [import_seconds(root, env, deadline) for _ in range(SETUP_SAMPLES)]
        rep_start = time.monotonic()
        reps.append(run_child(root, env, workload, seed, deadline))
        now = time.monotonic()
        took = now - rep_start
        if reps[-1] is None or now - start + took > seconds or now + 1.5 * took > deadline:
            break
    setup += [import_seconds(root, env, deadline) for _ in range(SETUP_SAMPLES)]
    done = [r for r in reps if r]
    values = {key: statistics.median(r[key] for r in done) if done else 0.0
              for key in ("ref_wall_s", "ref_cpu_s", "wall_s", "cpu_s", "peak_rss_mb")}
    values["setup_s"] = statistics.median(setup)
    note = (f"medians of {len(done)} repetitions, setup_s of {len(setup)} imports; "
            f"measured, not reference, seconds: wall_s {values['wall_s']!r}, "
            f"cpu_s {values['cpu_s']!r}")
    for op_index, op in enumerate(done[0]["ops"] if done else []):
        op_wall = statistics.median(r["ops"][op_index]["ref_wall_s"] for r in done)
        print(f"  op {op_wall:10.4f} s  {op['id']}")
    return values, reps, note


def traced_run(root: Path, env: dict, workload: str, seed: int,
               deadline: float) -> tuple[dict, list[dict | None], str]:
    untraced = run_child(root, env, workload, seed, deadline)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"{workload}-seed{seed}.spans.tsv.gz"
    traced = run_child(root, env, workload, seed, deadline, spans_path)
    reps = [untraced, traced]
    if not (untraced and traced):
        return {}, reps, "a repetition failed"
    values = dict(traced["layers"])
    values["trace.untraced_wall_s"] = untraced["wall_s"]
    values["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    return values, reps, f"spans in {spans_path.relative_to(root)}"


def metadata(root: Path) -> dict:
    """Recorded with each result, not as a metric."""
    return {
        "commit": git_commit(root),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in (root / "src").rglob("*.py")),
    }


def git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(root: Path, spec: dict, workload: str, seed: int, seconds: int,
                 trace: bool) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    env = child_env(root)
    print(f"workload {workload}  seed {seed}  trace {int(trace)}")
    if trace:
        values, reps, note = traced_run(root, env, workload, seed, deadline)
        wanted = spec["per_layer"]
    else:
        values, reps, note = timed_run(root, env, workload, seed, seconds, deadline)
        wanted = spec["end_to_end"]
    attempted, failed = tally(reps)
    metrics = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        if name not in values and all(reps):
            print(f"metric {name} was not measured", file=sys.stderr)
        metrics[name] = {"value": values.get(name, 0), "unit": unit}
        print(f"  {name:44} {metrics[name]['value']!r} {unit}")
    print(f"  fail_ratio {failed / attempted!r} ({failed} of {attempted} operations failed)")
    print(f"  {note}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def load_spec(root: Path) -> dict:
    if not (root / "src" / "gkptri" / "__init__.py").is_file():
        raise Unrunnable(f"no gkptri sources under {root / 'src'}; "
                         "run from the root of a gkptri checkout")
    try:
        return json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise Unrunnable(f"cannot read BENCHMARK.json: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; default: every workload")
    parser.add_argument("--seed", type=int, default=0,
                        help="picks the inputs of deep-expand and oracle-census "
                             "(0: the default lists)")
    parser.add_argument("--seconds", type=int,
                        help="how long the repetitions of one workload run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with every workload: write the results here")
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        spec = load_spec(root)
        names = [w["name"] for w in spec["workloads"]]
        if args.workload is not None and args.workload not in names:
            raise Unrunnable(f"unknown workload {args.workload!r}; choose from {names}")
        meta = metadata(root)
        seconds = args.seconds or spec["run_seconds"]
        if args.workload is not None:
            result = run_workload(root, spec, args.workload, args.seed, seconds,
                                  bool(args.trace))
            print("meta " + json.dumps(meta))
            print(json.dumps(result))
            return 0
        results = {name: run_workload(root, spec, name, args.seed, seconds, bool(args.trace))
                   for name in names}
    except Unrunnable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("meta " + json.dumps(meta))
    if args.out:
        summary = {"meta": meta, "seed": args.seed, "seconds": seconds,
                   "trace": args.trace, "results": results}
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
