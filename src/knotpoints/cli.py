"""Command-line front end for the package.

Subcommands: nset, hausdorff, comb (check-s | check-y | perm), bump
(make | mu), game (run | verify), jarnik-demo.  Every command emits a
schema-versioned JSON report that is byte-identical across repeated runs
with the same inputs and seed; wall-clock time goes to stderr, never into
the report.  `inputs_digest` hashes the inputs, the seed and the bytes of
every input file.  Exit codes: 0 when every check passes, 1 when a check
fails or is refuted, 2 for malformed input (the message names the field).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import tempfile
import time
from fractions import Fraction

from .bmgame import (
    GameError,
    GameInfeasibleError,
    game_report,
    oracle_avoid_point,
    oracle_everything,
    oracle_target_prefix,
    random_player_one,
    run_game,
    verify_report,
)
from .bump import (
    BumpSpec,
    EpsilonSearchError,
    check_bump_easy,
    check_bump_properties,
    make_bump,
    mu,
)
from .indexcomb import (
    DeltaSeq,
    Enclosures,
    IndexSeq,
    ScaleLadder,
    SeqOfSets,
    check_S_k,
    check_Y_k,
    check_perm_A,
    random_finite_permutation,
    random_index_seq,
)
from .intervalsets import FinitePointSet, IntervalSet, as_fraction
from .nsets import VARIANTS, EnclosureRangeError, n_set_enclosure, n_set_exact
from .realfn import (
    C1Function,
    PwlFunction,
    function_from_json,
    function_to_json,
    random_function,
)

REPORT_SCHEMA = "knotpoints.report/1"


class InputError(Exception):
    """Malformed input; carries the offending field name for the message."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(message)
        self.field = field


# ---------------------------------------------------------------------------
# parsing and report plumbing
# ---------------------------------------------------------------------------


def _rat(text: str, field: str) -> Fraction:
    try:
        return as_fraction(Fraction(text) if "/" in text else Fraction(str(float(text))))
    except (ValueError, ZeroDivisionError) as e:
        raise InputError(field, f"not a rational number: {text!r} ({e})") from e


def _rat_list(text: str, field: str) -> list[Fraction]:
    items = [t.strip() for t in text.split(",") if t.strip()]
    if not items:
        raise InputError(field, "empty list")
    return [_rat(t, field) for t in items]


def _positive(text: str, field: str) -> Fraction:
    x = _rat(text, field)
    if x <= 0:
        raise InputError(field, f"must be positive, got {x}")
    return x


def _check_tol(tol: float) -> None:
    if not tol > 0:  # also refuses NaN
        raise InputError("tol", f"tolerance must be positive, got {tol}")


def _int_list(text: str, field: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",") if t.strip()]
    except ValueError as e:
        raise InputError(field, f"not an integer list: {text!r}") from e


def _load_json(path: str, field: str, kind: type = dict):
    """The JSON value in the file, refused unless its top level is a `kind`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as e:
        raise InputError(field, f"cannot read {path!r}: {e}") from e
    except json.JSONDecodeError as e:
        raise InputError(field, f"invalid JSON in {path!r}: {e}") from e
    if not isinstance(obj, kind):
        raise InputError(field, f"the top level of {path!r} is a {type(obj).__name__}, not a {kind.__name__}")
    return obj


def _load_function(path: str, field: str):
    obj = _load_json(path, field)
    try:
        return function_from_json(obj)
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as e:
        raise InputError(field, f"not a valid function file: {e}") from e


def _load_c1(path: str, field: str) -> C1Function:
    f = _load_function(path, field)
    if not isinstance(f, C1Function):
        raise InputError(field, "bumps perturb C^1 functions only; got a piecewise-linear one")
    return f


def _points(text: str, field: str) -> FinitePointSet:
    try:
        return FinitePointSet.of(_rat_list(text, field) if text else [])
    except ValueError as e:
        raise InputError(field, str(e)) from e


def _load_interval_set(path: str, field: str) -> IntervalSet:
    obj = _load_json(path, field)
    try:
        return IntervalSet.from_json_dict(obj)
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as e:
        raise InputError(field, f"not a valid interval-set file: {e}") from e


def _digest(inputs: dict, seed, files) -> str:
    """sha256 of the inputs, the seed and the bytes of every input file, so
    two runs share a digest only when they read the same data."""
    h = hashlib.sha256(json.dumps([inputs, seed], sort_keys=True, default=str).encode())
    for path in files:
        with open(path, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-report-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(report: dict, out: str | None, csv_text: str | None, csv_path: str | None) -> None:
    text = json.dumps(report, sort_keys=True) + "\n"
    if out:
        _atomic_write(out, text)
    else:
        sys.stdout.write(text)
    if csv_text is not None and csv_path:
        _atomic_write(csv_path, csv_text)


def _report(
    command: list[str], inputs: dict, outputs: dict, checks: dict, seed=None, files=()
) -> dict:
    """The report envelope; `files` lists the paths of the files read."""
    ok = all(bool(c.get("ok")) for c in checks.values()) if checks else True
    return {
        "schema": REPORT_SCHEMA,
        "command": command,
        "inputs_digest": _digest(inputs, seed, files),
        "inputs": inputs,
        "seed": seed,
        "outputs": outputs,
        "checks": checks,
        "verdict": "pass" if ok else "fail",
    }


def _iv_json(s: IntervalSet) -> list[list[str]]:
    return [[str(lo), str(hi)] for lo, hi in s.intervals]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_nset(args, argv: list[str]) -> dict:
    f = _load_function(args.f, "f")
    a = _positive(args.a, "a")
    _check_tol(args.tol)
    if args.variant not in VARIANTS:
        raise InputError("variant", f"must be one of {sorted(VARIANTS)}")
    inputs = {"f": args.f, "a": str(a), "variant": args.variant, "tol": args.tol}
    csv_lines = ["lo,hi"]
    if isinstance(f, PwlFunction) and a.denominator == 1:
        s = n_set_exact(f, a, args.variant)
        outputs = {"mode": "exact", "intervals": _iv_json(s), "measure": str(s.measure())}
        checks = {"exact": {"ok": True, "margin": None}}
        csv_lines += [f"{float(lo)!r},{float(hi)!r}" for lo, hi in s.intervals]
    else:
        enc = n_set_enclosure(f, a, args.variant, args.tol)
        outputs = {
            "mode": "enclosure",
            "inner": _iv_json(enc.inner),
            "outer": _iv_json(enc.outer),
            "undecided_length": str(enc.undecided_length),
        }
        checks = {
            "undecided_within_tol": {
                "ok": enc.undecided_length <= 2.0 * args.tol + 1e-15,
                "margin": str(Fraction(2.0 * args.tol) - enc.undecided_length),
            }
        }
        csv_lines += [f"{float(lo)!r},{float(hi)!r}" for lo, hi in enc.outer.intervals]
    rep = _report(argv, inputs, outputs, checks, files=[args.f])
    return rep, "\n".join(csv_lines) + "\n"


def cmd_hausdorff(args, argv: list[str]) -> dict:
    k = _load_interval_set(args.k, "k")
    l = _load_interval_set(args.l, "l")
    d = k.hausdorff(l)
    inputs = {"k": args.k, "l": args.l}
    outputs = {"distance": str(d), "distance_float": float(d)}
    checks = {"computed": {"ok": True, "margin": None}}
    return _report(argv, inputs, outputs, checks, files=[args.k, args.l]), None


def _comb_sets(args) -> SeqOfSets:
    obj = _load_json(args.sets, "sets", list)
    if not obj:
        raise InputError("sets", "expected a nonempty JSON list of interval sets")
    try:
        return SeqOfSets(tuple(IntervalSet.from_json_dict(o) for o in obj))
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as e:
        raise InputError("sets", f"invalid interval set in list: {e}") from e


def _comb_prefixes(args, K: SeqOfSets) -> tuple[IndexSeq, DeltaSeq]:
    """n and delta from the flags, refused unless they and the sets reach
    depth m_max at shift k.  check-s reads A_j^m(n^k) for 2 <= j < m <=
    m_max, whose largest index is n^k_{m_max-1} + m_max - 2; check-y also
    reads A_m^m(n^k) = [1, n^k_m].  Both read delta_m for every m they
    reach."""
    k, m_max, check_y = args.k, args.m_max, args.mode == "check-y"
    if k < 0:
        raise InputError("k", f"shift must be >= 0, got {k}")
    try:
        n = IndexSeq(tuple(_int_list(args.n, "n")))
    except ValueError as e:
        raise InputError("n", str(e)) from e
    try:
        delta = DeltaSeq(tuple(_rat_list(args.delta, "delta")))
    except ValueError as e:
        raise InputError("delta", str(e)) from e
    top = m_max if check_y else max(m_max - 1, 1)  # deepest entry of n^k read
    if len(n) < k + top:
        raise InputError("n", f"need {k + top} entries for --k {k} and --m-max {m_max}, got {len(n)}")
    if check_y or m_max >= 3:
        if len(delta) < m_max:
            raise InputError("delta", f"need {m_max} entries for --m-max {m_max}, got {len(delta)}")
        need = n.n(k + top) if check_y else n.n(k + top) + top - 1
        if len(K) < need:
            raise InputError("sets", f"need {need} sets for --k {k} and --m-max {m_max}, got {len(K)}")
    return n, delta


def cmd_comb(args, argv: list[str]) -> dict:
    if args.m_max < 1:
        raise InputError("m-max", f"depth must be >= 1, got {args.m_max}")
    if args.mode == "perm":
        seed = args.seed
        count = args.count
        if count < 1:
            raise InputError("count", f"need at least one case, got {count}")
        failures = []
        for i in range(count):
            n = random_index_seq(seed + 2 * i, args.m_max)
            k = 1 + i % len(n.prefix)
            perm = random_finite_permutation(seed + 2 * i + 1, n.n(k))
            res = check_perm_A(n, perm, k, args.m_max)
            if not res:
                failures.append({"case": i, "failures": [list(x) for x in res.failures]})
        inputs = {"mode": "perm", "m_max": args.m_max, "count": count}
        outputs = {"cases": count, "failed_cases": len(failures), "failures": failures}
        checks = {"perm_claims": {"ok": not failures, "margin": None}}
        return _report(argv, inputs, outputs, checks, seed=seed), None

    K = _comb_sets(args)
    n, delta = _comb_prefixes(args, K)
    inputs = {
        "mode": args.mode,
        "sets": args.sets,
        "n": list(n.prefix),
        "delta": [str(d) for d in delta.prefix],
        "k": args.k,
        "m_max": args.m_max,
    }
    if args.mode == "check-s":
        res = check_S_k(K, n, delta, args.k, args.m_max)
    else:
        if not args.f:
            raise InputError("f", "check-y needs a function file")
        if not args.ladder_b:
            raise InputError("ladder-b", "check-y needs the coarse scale values")
        _check_tol(args.tol)
        f = _load_function(args.f, "f")
        try:
            ladder = ScaleLadder(tuple(_rat_list(args.ladder_b, "ladder-b")))
        except ValueError as e:
            raise InputError("ladder-b", str(e)) from e
        if len(ladder.b_values) < args.m_max:
            raise InputError(
                "ladder-b", f"need {args.m_max} values for --m-max {args.m_max}, got {len(ladder.b_values)}"
            )
        inputs["f"] = args.f
        inputs["ladder_b"] = [str(b) for b in ladder.b_values]
        inputs["tol"] = args.tol
        res = check_Y_k(K, Enclosures(f, args.tol), n, delta, ladder, args.k, args.m_max)
    outputs = {
        "ok": res.ok,
        "failures": [list(x) for x in res.failures],
        "undecided": [list(x) for x in res.undecided],
    }
    checks = {"chain": {"ok": res.ok, "margin": None}}
    files = [args.sets] + ([args.f] if args.mode == "check-y" else [])
    return _report(argv, inputs, outputs, checks, files=files), None


def cmd_bump(args, argv: list[str]) -> dict:
    if args.mode == "make":
        hat = _points(args.hat, "hat")
        check = _points(args.check, "check")
        if hat.is_empty and check.is_empty:
            raise InputError("hat", "a bump needs at least one located point")
        height = _positive(args.height, "height")
        width = _positive(args.width, "width")
        a = _positive(args.a, "a")
        try:
            spec = BumpSpec(hat, check, height, width)
        except ValueError as e:
            raise InputError("check", str(e)) from e
        base = _load_c1(args.f, "f") if args.f else C1Function.zero()
        phi = make_bump(spec)
        props = check_bump_properties(spec, phi)
        easy = check_bump_easy(base, a, spec, phi)
        inputs = {
            "mode": "make",
            "hat": hat.to_json_list(),
            "check": check.to_json_list(),
            "height": str(height),
            "width": str(width),
        }
        if args.f:
            inputs["f"] = args.f
        outputs = {"function": function_to_json(phi), "sup_norm": phi.sup_norm()}
        checks = {
            "bump_properties": {"ok": bool(props), "margin": None},
            "window_estimates": {"ok": bool(easy), "margin": None},
        }
        rep = _report(argv, inputs, outputs, checks, files=[args.f] if args.f else [])
        if args.fn_out:
            _atomic_write(args.fn_out, json.dumps(function_to_json(phi), sort_keys=True) + "\n")
        return rep, None

    if not args.f:
        raise InputError("f", "bump mu needs a function file")
    f = _load_c1(args.f, "f")
    a = _positive(args.a, "a")
    b = _rat(args.b, "b")
    height = _positive(args.height, "height")
    _check_tol(args.tol)
    if not a < b:
        raise InputError("b", "need 0 < a < b")
    inputs = {"mode": "mu", "f": args.f, "a": str(a), "b": str(b), "height": str(height), "tol": args.tol}
    try:
        chain = mu(f, a, b, height, args.tol)
    except EpsilonSearchError as e:
        outputs = {"error": str(e)}
        checks = {"radius": {"ok": False, "margin": None}}
        return _report(argv, inputs, outputs, checks, files=[args.f]), None
    outputs = {"l": chain.l, "mu": chain.mu}
    checks = {"radius": {"ok": chain.mu > 0.0, "margin": chain.mu}}
    return _report(argv, inputs, outputs, checks, files=[args.f]), None


def _parse_oracle(spec: str):
    if spec == "trivial":
        return oracle_everything()
    if spec.startswith("avoid:"):
        return oracle_avoid_point(_rat(spec.split(":", 1)[1], "oracle"))
    if spec.startswith("target:"):
        path = spec.split(":", 1)[1]
        obj = _load_json(path, "oracle")
        try:
            T = tuple(FinitePointSet.from_json_list(s) for s in obj["sets"])
            tol = Fraction(obj["tol"])
        except (KeyError, ValueError, TypeError, ZeroDivisionError) as e:
            raise InputError("oracle", f"invalid target oracle file: {e}") from e
        return oracle_target_prefix(T, tol)
    raise InputError("oracle", f"unknown oracle spec {spec!r}; use trivial, avoid:<point>, target:<file>")


def cmd_game(args, argv: list[str]) -> dict:
    if args.mode == "verify":
        rep_obj = _load_json(args.report, "report")
        outputs = rep_obj.get("outputs") if rep_obj.get("schema") == REPORT_SCHEMA else None
        if isinstance(outputs, dict):
            rep_obj = outputs.get("game", rep_obj)
        try:
            ok, recomputed = verify_report(rep_obj)
        except (KeyError, ValueError, TypeError, ZeroDivisionError) as e:
            raise InputError("report", f"not a verifiable game report: {e}") from e
        inputs = {"mode": "verify", "report": args.report}
        outputs = {"recomputed": recomputed}
        checks = {"reproduces": {"ok": ok, "margin": None}}
        return _report(argv, inputs, outputs, checks, files=[args.report]), None

    if args.rounds < 1:
        raise InputError("rounds", "need at least one round")
    if args.seed < 0:
        raise InputError("seed", f"seed must be >= 0, got {args.seed}")
    oracle = _parse_oracle(args.oracle)
    adv = random_player_one(args.seed)
    inputs = {"mode": "run", "rounds": args.rounds, "oracle": args.oracle}
    files = [args.oracle.split(":", 1)[1]] if args.oracle.startswith("target:") else []
    try:
        state, limit = run_game(adv, oracle, args.rounds)
    except GameInfeasibleError as e:
        outputs = {
            "status": "infeasible",
            "message": str(e),
            "details": {k: (str(v) if isinstance(v, Fraction) else v) for k, v in e.details.items()},
        }
        checks = {"completed_rounds": {"ok": False, "margin": None}}
        return _report(argv, inputs, outputs, checks, seed=args.seed, files=files), None
    except GameError as e:
        outputs = {"status": "error", "message": str(e)}
        checks = {"completed_rounds": {"ok": False, "margin": None}}
        return _report(argv, inputs, outputs, checks, seed=args.seed, files=files), None
    grep = game_report(state, limit)
    outputs = {"status": "complete", "game": grep}
    checks = {
        "completed_rounds": {"ok": True, "margin": None},
        "limit_checks": {"ok": bool(limit["ok"]), "margin": None},
    }
    for rec in state.rounds:
        star = rec.certifications.get("star_self", {})
        checks[f"star_round_{rec.m}"] = {"ok": bool(star.get("ok")), "margin": None}
    return _report(argv, inputs, outputs, checks, seed=args.seed, files=files), None


def _grid_hits(s: IntervalSet, n: int) -> int:
    """How many of the grid points i/n, i = 0..n, lie in s: per component
    [lo, hi], the integers from ceil(lo*n) to floor(hi*n)."""
    hits = 0
    for lo, hi in zip(s.nums[0::2], s.nums[1::2]):
        hits += max(0, hi * n // s.den + (-lo * n) // s.den + 1)
    return hits


def cmd_jarnik_demo(args, argv: list[str]) -> dict:
    if args.grid < 1000:
        raise InputError("grid", "grid must be at least 1000")
    if args.depth < 0:
        raise InputError("depth", f"depth must be >= 0, got {args.depth}")
    a_list = sorted(_int_list(args.a_list, "a-list"))
    if not a_list or a_list[0] < 1:
        raise InputError("a-list", "need positive integer scales")
    if len(set(a_list)) < len(a_list):
        raise InputError("a-list", f"repeated scale in {args.a_list!r}")
    decay = _rat(args.decay, "decay")
    amplitude = _rat(args.amplitude, "amplitude")
    f = random_function(args.seed, args.depth, decay, amplitude)
    # every fraction is over grid + 1, so the hit counts order them exactly
    hits = [_grid_hits(n_set_exact(f, a, "full"), args.grid) for a in a_list]
    fractions = {a: h / (args.grid + 1) for a, h in zip(a_list, hits)}
    monotone = all(x <= y for x, y in zip(hits, hits[1:]))
    inputs = {
        "seed": args.seed,
        "depth": args.depth,
        "decay": str(decay),
        "amplitude": str(amplitude),
        "a_list": a_list,
        "grid": args.grid,
    }
    outputs = {"fractions": {str(a): fractions[a] for a in a_list}}
    checks = {"monotone_in_scale": {"ok": monotone, "margin": None}}
    csv_lines = ["a,fraction"] + [f"{a},{fractions[a]!r}" for a in a_list]
    return _report(argv, inputs, outputs, checks, seed=args.seed), "\n".join(csv_lines) + "\n"


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parsing
    keeps no state on it."""
    p = argparse.ArgumentParser(prog="knotpoints", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("nset", help="exception-set computation, exact or enclosed")
    sp.add_argument("--f", required=True, help="function JSON file")
    sp.add_argument("--a", required=True, help="scale (rational)")
    sp.add_argument("--variant", default="full")
    sp.add_argument("--tol", type=float, default=1e-4)
    sp.add_argument("--out", help="report JSON path (default stdout)")
    sp.add_argument("--csv", help="intervals CSV path")

    sp = sub.add_parser("hausdorff", help="distance between interval-set files")
    sp.add_argument("--k", required=True)
    sp.add_argument("--l", required=True)
    sp.add_argument("--out")

    sp = sub.add_parser("comb", help="index-set combinatorics checks")
    sp.add_argument("mode", choices=["check-s", "check-y", "perm"])
    sp.add_argument("--sets", help="JSON list of interval sets")
    sp.add_argument("--f", help="function file (check-y)")
    sp.add_argument("--n", default="", help="index prefix, e.g. 1,3,7")
    sp.add_argument("--delta", default="", help="radius prefix, e.g. 1/4,1/8")
    sp.add_argument("--ladder-b", dest="ladder_b", default="", help="coarse scales (check-y)")
    sp.add_argument("--k", type=int, default=0)
    sp.add_argument("--m-max", dest="m_max", type=int, default=4)
    sp.add_argument("--count", type=int, default=50)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tol", type=float, default=1e-4)
    sp.add_argument("--out")

    sp = sub.add_parser("bump", help="bump construction and perturbation radius")
    sp.add_argument("mode", choices=["make", "mu"])
    sp.add_argument("--hat", default="", help="comma-separated points")
    sp.add_argument("--check", default="", help="comma-separated points")
    sp.add_argument("--height", default="1/2")
    sp.add_argument("--width", default="1/100")
    sp.add_argument("--f", help="C^1 function file (mu; in make, the base of the window estimates)")
    sp.add_argument("--a", default="1")
    sp.add_argument("--b", default="2")
    sp.add_argument("--tol", type=float, default=1e-4)
    sp.add_argument("--fn-out", dest="fn_out", help="write the bump function JSON here")
    sp.add_argument("--out")

    sp = sub.add_parser("game", help="play or verify the ball game")
    sp.add_argument("mode", choices=["run", "verify"])
    sp.add_argument("--rounds", type=int, default=1)
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--oracle", default="trivial", help="trivial | avoid:<point> | target:<file>")
    sp.add_argument("--report", help="report file (verify)")
    sp.add_argument("--out")

    sp = sub.add_parser("jarnik-demo", help="grid sampling profile of exception sets")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--depth", type=int, default=8)
    sp.add_argument("--decay", default="0.55")
    sp.add_argument("--amplitude", default="1")
    sp.add_argument("--a-list", dest="a_list", default="1,2,3,4,5,6,7,8")
    sp.add_argument("--grid", type=int, default=2000)
    sp.add_argument("--csv")
    sp.add_argument("--out")
    return p


_DISPATCH = {
    "nset": cmd_nset,
    "hausdorff": cmd_hausdorff,
    "comb": cmd_comb,
    "bump": cmd_bump,
    "game": cmd_game,
    "jarnik-demo": cmd_jarnik_demo,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    t0 = time.monotonic()
    try:
        report, csv_text = _DISPATCH[args.cmd](args, argv)
    except (InputError, EnclosureRangeError) as e:
        # the engine's input errors: a scale or tolerance out of the
        # certified range names its field
        print(f"input error in field '{e.field}': {e}", file=sys.stderr)
        return 2
    _emit(report, getattr(args, "out", None), csv_text, getattr(args, "csv", None))
    print(f"wall_clock_ms={int((time.monotonic() - t0) * 1000)}", file=sys.stderr)
    return 0 if report["verdict"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
