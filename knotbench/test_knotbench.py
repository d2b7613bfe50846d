"""Tests of the benchmark itself.

    python3 -m pytest -q knotbench

They check that the tracer changes no result and undoes its rebinding, that
a traced unit is attributed to the tracer's spans, that a tampered reference
digest is counted as a failed operation, that the seed-1 game still matches
its reference, and that the entry point refuses to run without the package
source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from knotpoints import bmgame, bump, cli, indexcomb, nsets  # noqa: E402
from knotpoints.intervalsets import IntervalSet  # noqa: E402
from knotpoints.realfn import random_c1_function  # noqa: E402
import worker  # noqa: E402
from run import UNATTRIBUTED_MAX  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import C1Enclosure, ExactPwl, Game, load_reference, outputs_digest  # noqa: E402


def _jarnik_outputs(path: Path) -> str:
    assert cli.main(["jarnik-demo", "--seed", "3", "--depth", "5", "--grid", "1000", "--out", str(path)]) == 0
    return outputs_digest(json.loads(path.read_text()))


def test_tracer_rebinds_imported_names_and_restores_them():
    original = nsets.n_set_enclosure
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = nsets.n_set_enclosure
        assert wrapped is not original
        assert bmgame.n_set_enclosure is wrapped
        assert bump.n_set_enclosure is wrapped
        assert indexcomb.n_set_enclosure is wrapped
        assert wrapped.__wrapped__ is original
        assert hasattr(vars(IntervalSet)["hausdorff"], "__wrapped__")
    finally:
        tracer.uninstall()
    assert nsets.n_set_enclosure is original
    assert bmgame.n_set_enclosure is original
    assert not hasattr(vars(IntervalSet)["hausdorff"], "__wrapped__")


def test_tracer_leaves_results_unchanged(tmp_path):
    plain = _jarnik_outputs(tmp_path / "plain.json")
    f = random_c1_function(0, cells=6, amplitude=0.5, slope_scale=2.0)
    enc_plain = nsets.n_set_enclosure(f, Fraction(3, 2), "full", 1e-4)

    tracer = Tracer()
    tracer.install()
    try:
        traced = _jarnik_outputs(tmp_path / "traced.json")
        enc_traced = nsets.n_set_enclosure(f, Fraction(3, 2), "full", 1e-4)
    finally:
        tracer.uninstall()

    assert traced == plain
    assert enc_traced.inner == enc_plain.inner and enc_traced.outer == enc_plain.outer
    layers = tracer.layer_self()
    for layer in ("cli", "nsets", "realfn", "intervalsets"):
        assert layers[layer] > 0, layer
    assert tracer.calls["nsets.n_set_enclosure"] == 5  # "full" and its four parts
    assert sum(layers.values()) == pytest.approx(tracer.top_s, rel=1e-9)
    assert set(layers) == set(LAYERS)


def test_tampered_reference_counts_as_failed(tmp_path):
    ref = load_reference()
    good, bad = sorted(ref["exact-pwl"], key=int)[:2]
    wl = ExactPwl({"exact-pwl": {good: ref["exact-pwl"][good], bad: "0" * 64}})
    inputs = wl.setup(0)
    results = [wl.unit(inputs, tmp_path, k) for k in range(2)]
    assert [r.attempted for r in results] == [1, 1]
    assert sum(r.failed for r in results) == 1
    assert [e for r in results for e in r.errors][0].startswith(f"jarnik-demo seed {bad}:")


def test_c1_corpus_sample_matches_reference(tmp_path):
    wl = C1Enclosure(load_reference())
    inputs = wl.setup(0)
    inputs["calls"] = inputs["calls"][:2]
    res = wl.unit(inputs, tmp_path)
    assert (res.attempted, res.failed) == (2, 0), res.errors
    assert res.facts["undecided_len"] > 0


def test_c1_tampered_reference_counts_as_failed(tmp_path):
    ref = load_reference()
    wl = C1Enclosure(ref)
    inputs = wl.setup(0)
    inputs["calls"] = inputs["calls"][:2]
    bad = inputs["calls"][1][0]
    wl.refs = dict(ref["c1-enclosure"], **{bad: "0" * 64})
    res = wl.unit(inputs, tmp_path)
    assert (res.attempted, res.failed) == (2, 1)
    assert res.errors[0].startswith(f"c1 {bad}:")


def test_traced_unit_is_attributed_to_spans(tmp_path):
    wl = C1Enclosure(load_reference())
    inputs = wl.setup(0)
    inputs["calls"] = inputs["calls"][:1]
    res = worker._trace(wl, inputs, tmp_path)
    m = res["metrics"]
    assert (res["attempted"], res["failed"]) == (3, 0)
    assert res["digests_match"]
    assert res["entry_calls"] == 5  # "full" and its four parts
    assert 0 <= m["trace.unattributed_s"] <= UNATTRIBUTED_MAX * m["trace.wall_s"]
    assert m["nsets.self_s"] > 0


def test_game_seed_one_matches_reference(tmp_path):
    ref = load_reference()
    wl = Game(dict(ref, game_pool=[1]))
    res = wl.unit(wl.setup(0), tmp_path)
    assert (res.attempted, res.failed) == (2, 0), res.errors
    assert res.facts["located_points"] == 11487


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "knotbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "knotbench/run.py", "--workload", "game", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
