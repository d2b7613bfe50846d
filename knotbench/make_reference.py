"""Recompute the reference digests that the benchmark checks outputs against.

    python3 knotbench/make_reference.py > knotbench/reference.json

Run it only when a change is meant to alter the canonical reports, and say
so in that change.  A report's digest is the sha256 of its `outputs` block as
the CLI writes it (`json.dumps(outputs, sort_keys=True)`); an enclosure's
digest is the sha256 of its inner and outer intervals.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from knotpoints import cli, nsets  # noqa: E402
from workloads import c1_corpus, enclosure_digest, outputs_digest  # noqa: E402

# Game seeds whose run plus verify cost about the same; the `game` workload
# draws from these.  Seed 1, the ROADMAP baseline, costs 1.6 times as much
# and is referenced for the tests only.
GAME_POOL = (2, 5, 7, 8)
GAME_SEEDS = (1,) + GAME_POOL
JARNIK_SEEDS = tuple(range(12))


def _digest_of(argv: list[str], out: Path) -> str:
    with contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv + ["--out", str(out)])
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {rc}")
    return outputs_digest(json.loads(out.read_text()))


def main() -> int:
    ref: dict = {"game_pool": list(GAME_POOL), "game": {}, "exact-pwl": {}, "c1-enclosure": {}}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        run, ver = Path(tmp) / "run.json", Path(tmp) / "verify.json"
        for s in GAME_SEEDS:
            ref["game"][str(s)] = {
                "run": _digest_of(["game", "run", "--rounds", "1", "--seed", str(s)], run),
                "verify": _digest_of(["game", "verify", "--report", str(run)], ver),
            }
        for s in JARNIK_SEEDS:
            ref["exact-pwl"][str(s)] = _digest_of(["jarnik-demo", "--seed", str(s)], run)
    for key, f, a, tol in c1_corpus():
        ref["c1-enclosure"][key] = enclosure_digest(nsets.n_set_enclosure(f, a, "full", tol))
    print(json.dumps(ref, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
