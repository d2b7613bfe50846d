"""One measurement in a fresh process; run.py starts it and reads its result.

    python3 knotbench/worker.py --role setup|measure|trace --workload NAME
        --seed N --seconds S --workdir DIR

Every role first imports the package and makes the workload's inputs and
reports that time as `setup_s`: the clock runs over the package import
(numpy included) and the input generation only, and the benchmark's own
modules are imported outside it.  `setup` stops there.  `measure` then runs
units of the workload until the next one would end after `--seconds`
(always at least one), and between units starts `setup` children one at a
time, so that the set-up samples are spread over the whole run.  `trace`
runs a unit untraced, the same unit under the outside-in tracer, and again
untraced, and reports the per-layer figures.  The result is one JSON object
on the last line of standard output.
"""

import os
import sys
from time import perf_counter

# The set-up clock: only the package import (numpy included) runs under it,
# before any module of the benchmark itself is loaded.  The input generation
# is added in main().
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))
_t0 = perf_counter()
import knotpoints.cli  # noqa: E402,F401  (imports every layer)

IMPORT_S = perf_counter() - _t0

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, load_reference  # noqa: E402

PR_SET_PDEATHSIG = 1
# set-up samples per measuring run: the measuring child's own, and the rest
# from `setup` children started between units in proportion to time measured
SETUP_SAMPLES = 9


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup_sample(args) -> float:
    """setup_s of a fresh `setup` child for the same workload and seed."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--role", "setup", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--workdir", str(args.workdir),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _measure(wl, inputs, args, setup_s: float) -> dict:
    seconds = args.seconds
    units, setups = [], [setup_s]
    measured = 0.0
    while True:
        units.append(wl.unit(inputs, args.workdir, len(units)))
        measured += units[-1].wall_s
        done = measured + units[-1].wall_s > seconds
        due = SETUP_SAMPLES if done else 1 + round((SETUP_SAMPLES - 1) * measured / seconds)
        while len(setups) < due:
            setups.append(_setup_sample(args))
        if done:
            break
    return {
        "setup_samples_s": setups,
        "unit_wall_s": [u.wall_s for u in units],
        "attempted": sum(u.attempted for u in units),
        "failed": sum(u.failed for u in units),
        "errors": [e for u in units for e in u.errors][:20],
        "peak_rss_mb": _peak_rss_mb(),
    }


def _layer_metrics(tracer: Tracer, plain, again, traced) -> dict:
    """Per-layer figures of one traced unit, named as in BENCHMARK.json."""
    m = {}
    self_by_layer = tracer.layer_self()
    calls_by_layer = tracer.layer_calls()
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_by_layer[layer]
        m[f"{layer}.calls"] = calls_by_layer[layer]
    s = tracer.self_of
    m["intervalsets.hausdorff_s"] = s("intervalsets.IntervalSet.hausdorff")
    m["intervalsets.subset_within_s"] = s("intervalsets.subset_within", "intervalsets.subset_within_closed")
    m["intervalsets.union_s"] = s(
        "intervalsets.IntervalSet.union", "intervalsets.FinitePointSet.union", "intervalsets.union_of_point_sets"
    )
    m["intervalsets.measure_s"] = s("intervalsets.IntervalSet.measure")
    m["intervalsets.components_in"] = tracer.components_in
    m["nsets.enclosure_s"] = s("nsets.n_set_enclosure")
    m["nsets.enclosure_calls"] = tracer.calls["nsets.n_set_enclosure"]
    m["nsets.exact_s"] = s(
        "nsets.n_set_exact", "nsets.sliding_window_max", "nsets.n_full_truncated", "nsets.point_defect_exact"
    )
    m["realfn.pwl_s"] = s("realfn.PwlFunction.", "realfn.random_function")
    m["realfn.c1_s"] = s("realfn.C1Function.", "realfn.CubicPieces.", "realfn.random_c1_function", "realfn.promote_pwl")
    m["bump.mu_s"] = s("bump.mu", "bump.interval_length_l", "bump.lemma_epsilon")
    m["indexcomb.check_Y_k_s"] = s("indexcomb.check_Y_k")
    m["bmgame.limit_report_s"] = s("bmgame.limit_report")
    m["bmgame.star_bullets_s"] = s("bmgame.star_bullets")
    m["bmgame.round_one_s"] = s("bmgame.round_one")
    m["bmgame.located_points"] = traced.facts.get("located_points", 0)
    m["cli.report_bytes"] = traced.facts.get("report_bytes", 0)
    m["game_run_s"] = plain.facts.get("game_run_s", 0.0)
    m["game_verify_s"] = plain.facts.get("game_verify_s", 0.0)
    m["undecided_len"] = plain.facts.get("undecided_len", 0.0)
    m["untraced_wall_s"] = (plain.wall_s + again.wall_s) / 2
    m["trace.wall_s"] = traced.wall_s
    m["trace.unattributed_s"] = traced.wall_s - tracer.top_s
    m["trace.overhead_s"] = traced.wall_s - (plain.wall_s + again.wall_s) / 2
    return m


def _trace(wl, inputs, workdir: Path) -> dict:
    """Untraced, traced, untraced: the overhead is taken against the mean of
    the two untraced units so that warm-up does not pass for a saving."""
    plain = wl.unit(inputs, workdir, 0)
    tracer = Tracer()
    tracer.install()
    try:
        traced = wl.unit(inputs, workdir, 0)
    finally:
        tracer.uninstall()
    again = wl.unit(inputs, workdir, 0)
    return {
        "metrics": _layer_metrics(tracer, plain, again, traced),
        "entry_calls": tracer.calls[wl.entry],
        "attempted": plain.attempted + traced.attempted + again.attempted,
        "failed": plain.failed + traced.failed + again.failed,
        "errors": (plain.errors + traced.errors + again.errors)[:20],
        "digests_match": plain.digest == traced.digest == again.digest,
        "spans": tracer.span_table(),
    }


def _die_with_parent() -> None:
    """Ask Linux to kill this process if run.py dies, so no child outlives it."""
    try:
        import ctypes
        import signal

        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    except (OSError, AttributeError):
        pass


def main(argv=None) -> int:
    _die_with_parent()
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--role", choices=["setup", "measure", "trace"], required=True)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--workdir", type=Path, required=True)
    args = p.parse_args(argv)

    wl = WORKLOADS[args.workload](load_reference())
    t0 = perf_counter()
    inputs = wl.setup(args.seed)
    out = {"setup_s": IMPORT_S + perf_counter() - t0}
    if args.role == "measure":
        out.update(_measure(wl, inputs, args, out["setup_s"]))
    elif args.role == "trace":
        out.update(_trace(wl, inputs, args.workdir))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
