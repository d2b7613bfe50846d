"""Benchmark entry point for the knotpoints package.

    python3 knotbench/run.py --workload game|c1-enclosure|exact-pwl
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each measurement happens in a fresh
child process (worker.py), one client in a closed loop, one operation at a
time.  A first set-up-only child compiles the bytecode and is not counted.
With --trace 0 the run then starts one measuring child, which takes nine
set-up samples spread over the run, and reports the end-to-end metrics; with
--trace 1 it starts one tracing child and reports the per-layer metrics.
Outputs are checked on every unit.  The last line of standard output is the
result object; the full record (metadata, per-unit times, span table) goes to
.knotbench/results/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0
# Each unit times only its calls into the package, so nearly all of a traced
# unit's wall time must fall inside the spans of the tracer.
UNATTRIBUTED_MAX = 0.02


class BenchError(RuntimeError):
    pass


def _git_sha(root: Path) -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _numpy_version() -> str:
    try:
        import numpy
    except ImportError:
        return "missing"
    return numpy.__version__


def _child(role: str, args, workdir: Path, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--role", role, "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--workdir", str(workdir),
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{role} child ran past the deadline") from e
    if proc.returncode != 0:
        raise BenchError(f"{role} child exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{role} child printed no result:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def _metrics(values: dict, specs: list[dict]) -> dict:
    """The declared metrics, in declared order, with their declared units."""
    missing = [m["name"] for m in specs if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for declared metrics {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def _run(args, spec: dict, workdir: Path, deadline: float) -> tuple[dict, dict]:
    # the first child also compiles the package's bytecode
    warm = _child("setup", args, workdir, deadline)
    record: dict = {"warmup_setup_s": warm["setup_s"]}
    if args.trace:
        res = _child("trace", args, workdir, deadline)
        m = res["metrics"]
        correct = (
            res["failed"] == 0
            and res["digests_match"]
            and res["entry_calls"] > 0
            and 0.0 <= m["trace.unattributed_s"] <= UNATTRIBUTED_MAX * m["trace.wall_s"]
        )
        metrics = _metrics(m, spec["per_layer"])
        record.update(spans=res["spans"], digests_match=res["digests_match"], entry_calls=res["entry_calls"])
    else:
        res = _child("measure", args, workdir, deadline)
        setups = res["setup_samples_s"]
        correct = res["failed"] == 0
        units = res["unit_wall_s"]
        values = {
            "wall_s": statistics.median(units),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = _metrics(values, spec["end_to_end"])
        record.update(setup_samples_s=setups, unit_wall_s=units)
    record["errors"] = res["errors"]
    result = {"correct": correct, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}
    return result, record


def _exit_on_term(signum, frame) -> None:
    # raising inside subprocess.run makes it kill and reap the running child
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_term)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "knotpoints" / "__init__.py").is_file():
        print(f"knotbench: no package source at {ROOT / 'src' / 'knotpoints'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    out_dir = ROOT / ".knotbench"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, record = _run(args, spec, workdir, deadline)
    except BenchError as e:
        print(f"knotbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(ROOT),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
    }
    results_dir = out_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"meta": meta, "result": result, **record}, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"meta": meta, "record": str(path.relative_to(ROOT)), "errors": record["errors"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
