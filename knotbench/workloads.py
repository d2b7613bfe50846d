"""The three benchmark workloads and the checks on their outputs.

Each workload turns a seed into inputs (`setup`) and runs one unit of work
on them (`unit`), timing only the calls into the package.  A unit returns
how many operations it attempted, how many failed their check (an exception
counts as a failure), a digest of everything it produced, and a few facts
read from the outputs.  `game` and `exact-pwl` compare the sha256 of each
report's canonical `outputs` block with `reference.json`; `c1-enclosure`
checks the documented enclosure contract on every call and compares the
sha256 of each call's inner and outer intervals with `reference.json`.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# c1-enclosure corpus: random_c1_function(seed, cells=6, amplitude=0.5,
# slope_scale=2.0) for these seeds, each at every scale and tolerance below.
C1_FUNCTION_SEEDS = (0, 1, 2, 3)
C1_SCALES = (Fraction(1), Fraction(3, 2), Fraction(2))
C1_TOLS = (1e-4, 1e-5)


def c1_corpus() -> list[tuple[str, object, Fraction, float]]:
    """(key, f, a, tol) for every call of the c1-enclosure corpus, in a fixed order."""
    from knotpoints.realfn import random_c1_function

    return [
        (f"{fs}|{a}|{tol!r}", random_c1_function(fs, cells=6, amplitude=0.5, slope_scale=2.0), a, tol)
        for fs in C1_FUNCTION_SEEDS
        for a in C1_SCALES
        for tol in C1_TOLS
    ]


def enclosure_digest(enc) -> str:
    """sha256 of an enclosure's inner and outer intervals."""
    return hashlib.sha256(f"{enc.inner.intervals}|{enc.outer.intervals}".encode()).hexdigest()


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def outputs_digest(report: dict) -> str:
    """sha256 of a report's canonical `outputs` block (argv is left out)."""
    blob = json.dumps(report["outputs"], sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


@dataclass
class UnitResult:
    wall_s: float
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    facts: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


def _run_cli(cli, argv: list[str]) -> tuple[int | None, str]:
    """One CLI call; an exception becomes a None exit code and a message."""
    try:
        return cli.main(argv), ""
    except Exception as e:  # counted as a failed operation by the caller
        return None, f"{type(e).__name__}: {e}"


def _read_report(path: Path) -> dict | None:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None


# ---------------------------------------------------------------------------
# game: `game run --rounds 1` then `game verify` of its report
# ---------------------------------------------------------------------------


class Game:
    name = "game"
    entry = "cli.main"

    def __init__(self, reference: dict) -> None:
        self.refs = reference["game"]
        self.pool = reference["game_pool"]

    def setup(self, seed: int) -> dict:
        from knotpoints import cli

        game_seed = self.pool[seed % len(self.pool)]
        return {"cli": cli, "game_seed": game_seed, "ref": self.refs[str(game_seed)]}

    def unit(self, inputs: dict, workdir: Path, k: int = 0) -> UnitResult:
        cli, s = inputs["cli"], inputs["game_seed"]
        run_path, ver_path = workdir / f"game-{s}.json", workdir / f"verify-{s}.json"
        t0 = perf_counter()
        rc_run, err_run = _run_cli(
            cli, ["game", "run", "--rounds", "1", "--seed", str(s), "--out", str(run_path)]
        )
        t1 = perf_counter()
        rc_ver, err_ver = _run_cli(
            cli, ["game", "verify", "--report", str(run_path), "--out", str(ver_path)]
        )
        t2 = perf_counter()

        res = UnitResult(wall_s=t2 - t0, facts={"game_run_s": t1 - t0, "game_verify_s": t2 - t1})
        run_rep, ver_rep = _read_report(run_path), _read_report(ver_path)
        run_digest = outputs_digest(run_rep) if run_rep else ""
        ver_digest = outputs_digest(ver_rep) if ver_rep else ""
        res.record(
            rc_run == 0 and run_digest == inputs["ref"]["run"], f"game run seed {s}: rc={rc_run} {err_run}"
        )
        res.record(
            rc_ver == 0 and ver_digest == inputs["ref"]["verify"], f"game verify seed {s}: rc={rc_ver} {err_ver}"
        )
        res.digest = hashlib.sha256(f"{run_digest}:{ver_digest}".encode()).hexdigest()
        if run_rep and run_rep["outputs"].get("status") == "complete":
            rounds = run_rep["outputs"]["game"]["state"]["rounds"]
            res.facts["located_points"] = sum(
                len(hc["hat"]) + len(hc["check"]) for rec in rounds for hc in rec["K_sets"] + rec["L_sets"]
            )
        res.facts["report_bytes"] = run_path.stat().st_size if run_path.exists() else 0
        for p in (run_path, ver_path):
            if p.exists():
                os.unlink(p)
        return res


# ---------------------------------------------------------------------------
# c1-enclosure: n_set_enclosure(f, a, "full", tol) over a fixed C^1 corpus
# ---------------------------------------------------------------------------


def _within(inner, outer) -> bool:
    """Every interval of `inner` lies inside one interval of `outer`."""
    j = 0
    out = outer.intervals
    for lo, hi in inner.intervals:
        while j < len(out) and out[j][1] < lo:
            j += 1
        if j == len(out) or not (out[j][0] <= lo and hi <= out[j][1]):
            return False
    return True


def _length(s) -> Fraction:
    return sum((hi - lo for lo, hi in s.intervals), Fraction(0))


class C1Enclosure:
    name = "c1-enclosure"
    entry = "nsets.n_set_enclosure"

    def __init__(self, reference: dict) -> None:
        self.refs = reference["c1-enclosure"]

    def setup(self, seed: int) -> dict:
        from knotpoints import nsets

        calls = c1_corpus()
        random.Random(seed).shuffle(calls)
        # keep the module, not the function: the tracer rebinds module names
        return {"nsets": nsets, "calls": calls}

    def unit(self, inputs: dict, workdir: Path, k: int = 0) -> UnitResult:
        nsets = inputs["nsets"]
        results = []
        t0 = perf_counter()
        for key, f, a, tol in inputs["calls"]:
            try:
                results.append(nsets.n_set_enclosure(f, a, "full", tol))
            except Exception as e:  # counted as a failed operation below
                results.append(e)
        res = UnitResult(wall_s=perf_counter() - t0)

        undecided = Fraction(0)
        digests = []
        for (key, f, a, tol), enc in zip(inputs["calls"], results):
            what = f"c1 {key}"
            if isinstance(enc, Exception):
                res.record(False, f"{what}: {type(enc).__name__}: {enc}")
                continue
            gap = _length(enc.outer) - _length(enc.inner)
            digest = enclosure_digest(enc)
            ok = (
                _within(enc.inner, enc.outer)
                and gap == enc.undecided_length
                and gap <= 2 * Fraction(tol)
                and digest == self.refs.get(key)
            )
            res.record(ok, f"{what}: undecided {float(gap)!r}, digest {digest[:12]}")
            undecided += gap
            digests.append(f"{key}:{digest}")
        res.digest = hashlib.sha256("\n".join(sorted(digests)).encode()).hexdigest()
        res.facts["undecided_len"] = float(undecided)
        return res


# ---------------------------------------------------------------------------
# exact-pwl: `jarnik-demo` with default flags on referenced seeds
# ---------------------------------------------------------------------------


class ExactPwl:
    name = "exact-pwl"
    entry = "cli.main"

    def __init__(self, reference: dict) -> None:
        self.refs = reference["exact-pwl"]

    def setup(self, seed: int) -> dict:
        from knotpoints import cli

        seeds = sorted(int(s) for s in self.refs)
        random.Random(seed).shuffle(seeds)
        return {"cli": cli, "seeds": seeds}

    def unit(self, inputs: dict, workdir: Path, k: int = 0) -> UnitResult:
        """The k-th seed of the shuffled pool, cycling."""
        s = inputs["seeds"][k % len(inputs["seeds"])]
        path = workdir / f"jarnik-{s}.json"
        t0 = perf_counter()
        rc, err = _run_cli(inputs["cli"], ["jarnik-demo", "--seed", str(s), "--out", str(path)])
        res = UnitResult(wall_s=perf_counter() - t0)

        rep = _read_report(path)
        res.digest = outputs_digest(rep) if rep else ""
        res.record(rc == 0 and res.digest == self.refs[str(s)], f"jarnik-demo seed {s}: rc={rc} {err}")
        res.facts["report_bytes"] = path.stat().st_size if path.exists() else 0
        if path.exists():
            os.unlink(path)
        return res


WORKLOADS = {w.name: w for w in (Game, C1Enclosure, ExactPwl)}
