"""Command-line front end: the `nset`, `bump` and `jarnik-demo` subcommands
through `cli.main`, the input errors of `comb`, `bump` and `game`, the input
digest of a report, and the grid count behind `jarnik-demo`."""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotpoints import bump, cli
from knotpoints.intervalsets import IntervalSet
from knotpoints.realfn import PwlFunction, function_to_json, random_c1_function, random_function

F = Fraction
REFERENCE = Path(__file__).resolve().parents[1] / "knotbench" / "reference.json"


@pytest.fixture
def c1_file(tmp_path):
    path = tmp_path / "f.json"
    f = random_c1_function(0, cells=6, amplitude=0.5, slope_scale=2.0)
    path.write_text(json.dumps(function_to_json(f)))
    return str(path)


def test_nset_enclosure_report(c1_file, tmp_path):
    out = tmp_path / "report.json"
    rc = cli.main(["nset", "--f", c1_file, "--a", "1", "--tol", "1e-4", "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    outputs = rep["outputs"]
    assert outputs["mode"] == "enclosure"
    inner = IntervalSet.from_json_dict({"intervals": outputs["inner"]})
    outer = IntervalSet.from_json_dict({"intervals": outputs["outer"]})
    und = Fraction(outputs["undecided_length"])
    assert und == outer.measure() - inner.measure()
    margin = rep["checks"]["undecided_within_tol"]["margin"]
    assert Fraction(margin) == Fraction(2.0 * 1e-4) - und


@pytest.mark.parametrize(
    "flags", [["--a", "0"], ["--a", "-1"], ["--a", "1", "--tol", "0"]]
)
def test_nset_rejects_nonpositive_scale_and_tolerance(c1_file, tmp_path, flags, capsys):
    out = tmp_path / "report.json"
    rc = cli.main(["nset", "--f", c1_file, *flags, "--out", str(out)])
    assert rc == 2
    assert "input error" in capsys.readouterr().err
    assert not out.exists()


def test_nset_out_of_range_enclosures_are_input_errors(c1_file, tmp_path, capsys):
    """A PWL function at a non-integer scale above its slope bound, and a C1
    function at a tolerance finer than the engine certifies (in `nset` and
    in `bump mu`), exit with 2 and name the field."""
    zigzag = tmp_path / "zigzag.json"
    zigzag.write_text(json.dumps(function_to_json(PwlFunction.zigzag())))
    out = tmp_path / "report.json"
    for argv, field in (
        (["nset", "--f", str(zigzag), "--a", "3/2"], "a"),
        (["nset", "--f", c1_file, "--a", "1", "--tol", "1e-7"], "tol"),
        (["bump", "mu", "--f", c1_file, "--tol", "1e-7"], "tol"),
    ):
        rc = cli.main([*argv, "--out", str(out)])
        assert rc == 2
        assert f"input error in field '{field}'" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("variant", ["plus_upper", "minus_lower"])
@pytest.mark.parametrize("a", ["1", "3/2"])
def test_nset_rejects_a_function_off_the_unit_domain(tmp_path, capsys, a, variant):
    """f on [0, 3/4] is refused on the exact path (a = 1) and before the
    slope shortcut of the enclosure path (a = 3/2, above the slope 4/3)."""
    part = tmp_path / "part.json"
    part.write_text(json.dumps({"class": "pwl", "knots": ["0", "3/4"], "values": ["0", "1"]}))
    out = tmp_path / "report.json"
    rc = cli.main(["nset", "--f", str(part), "--a", a, "--variant", variant, "--out", str(out)])
    assert rc == 2
    assert "input error in field 'f'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("with_f", [False, True], ids=["no-f", "f"])
def test_bump_make_inputs_name_the_base_function(c1_file, tmp_path, with_f):
    """`--f` is the base function of the window estimates; the report's
    inputs name it when given and are unchanged without it."""
    out = tmp_path / "report.json"
    argv = ["bump", "make", "--hat", "1/4", "--check", "3/4", "--out", str(out)]
    assert cli.main(argv + (["--f", c1_file] if with_f else [])) == 0
    want = {"mode": "make", "hat": ["1/4"], "check": ["3/4"], "height": "1/2", "width": "1/100"}
    if with_f:
        want["f"] = c1_file
    assert json.loads(out.read_text())["inputs"] == want


@pytest.mark.parametrize(
    "mode, flags, field",
    [
        ("mu", ["--height", "0"], "height"),
        ("mu", ["--tol", "0"], "tol"),
        ("mu", ["--tol", "nan"], "tol"),
        ("make", ["--a", "0"], "a"),
        ("make", ["--height", "0"], "height"),
        ("make", ["--hat", "", "--check", ""], "hat"),
        ("make", ["--hat", "1/2", "--check", "1/2"], "check"),
    ],
    ids=["mu-height", "mu-tol-0", "mu-tol-nan", "make-a", "make-height", "make-no-points", "make-shared"],
)
def test_bump_rejects_malformed_input_before_computing(
    c1_file, tmp_path, monkeypatch, capsys, mode, flags, field
):
    def compute(*args):
        raise AssertionError("computed before validating the input")

    monkeypatch.setattr(cli, "mu", compute)
    monkeypatch.setattr(cli, "make_bump", compute)
    out = tmp_path / "report.json"
    rc = cli.main(["bump", mode, "--f", c1_file, "--hat", "1/4", "--check", "3/4", *flags, "--out", str(out)])
    assert rc == 2
    assert f"input error in field '{field}'" in capsys.readouterr().err
    assert not out.exists()


_SETS = ["--sets", "{sets}", "--n", "1,2,4,7,11", "--delta", "1/2,1/4,1/8,1/16"]
_Y = ["--f", "{c1}", "--ladder-b", "4,5,6,7"]


@pytest.mark.parametrize(
    "argv, field",
    [
        (["comb", "check-s", *_SETS, "--n", "1,2,3"], "n"),
        (["comb", "check-s", *_SETS, "--delta", "1/4,1/4,1/16"], "delta"),
        (["comb", "check-y", *_SETS, *_Y, "--ladder-b", "3"], "ladder-b"),
        (["comb", "check-s", *_SETS, "--k", "-1"], "k"),
        (["comb", "check-s", *_SETS, "--n", "1,2"], "n"),
        (["comb", "check-y", *_SETS, *_Y, "--k", "2"], "n"),
        (["comb", "check-s", *_SETS, "--delta", "1/2,1/4"], "delta"),
        (["comb", "check-s", *_SETS, "--sets", "{few_sets}"], "sets"),
        (["comb", "check-y", *_SETS, *_Y, "--ladder-b", "4,5"], "ladder-b"),
        (["comb", "check-y", *_SETS, *_Y, "--tol", "0"], "tol"),
        (["comb", "perm", "--count", "-1"], "count"),
        (["comb", "perm", "--m-max", "0"], "m-max"),
        (["bump", "make", "--hat", "1/4", "--f", "{pwl}"], "f"),
        (["bump", "mu", "--f", "{pwl}"], "f"),
        (["bump", "make", "--hat", "5/4"], "hat"),
        (["bump", "make", "--hat", "1/4", "--check", "5/4"], "check"),
        (["bump", "make", "--hat", "1/4", "--a", "3000"], "a"),
        (["bump", "make", "--hat", "1/4", "--a", "18"], "a"),
        (["game", "run", "--seed", "-1"], "seed"),
    ],
    ids=[
        "comb-n-growth", "comb-delta-order", "comb-ladder-b", "comb-k",
        "comb-n-short", "comb-n-short-shifted", "comb-delta-short", "comb-sets-short",
        "comb-ladder-b-short", "comb-check-y-tol", "perm-count", "perm-m-max",
        "bump-make-pwl", "bump-mu-pwl", "bump-hat", "bump-check",
        "bump-a-underflow", "bump-a-grid", "game-seed",
    ],
)
def test_malformed_input_exits_2_and_names_the_field(
    c1_file, tmp_path, monkeypatch, capsys, argv, field
):
    """Each malformed flag exits with 2 before any check runs, and the
    message names the field."""

    def compute(*args):
        raise AssertionError("checked before validating the input")

    for name in ("check_S_k", "check_Y_k", "check_perm_A", "run_game"):
        monkeypatch.setattr(cli, name, compute)
    sets = [IntervalSet.from_pairs([(F(i % 7, 8), F(i % 7 + 1, 8))]).to_json_dict() for i in range(8)]
    files = {"sets": sets, "few_sets": sets[:3], "pwl": function_to_json(PwlFunction.zigzag())}
    for name, obj in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    paths = {name: str(tmp_path / f"{name}.json") for name in files}
    out = tmp_path / "report.json"
    rc = cli.main([x.format(c1=c1_file, **paths) for x in argv] + ["--out", str(out)])
    assert rc == 2
    assert f"input error in field '{field}'" in capsys.readouterr().err
    assert not out.exists()


def test_bump_mu_reports_the_record_from_one_witness_search(c1_file, tmp_path, monkeypatch):
    calls = []
    search = bump.lemma_epsilon

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(bump, "lemma_epsilon", counted)
    out = tmp_path / "report.json"
    assert cli.main(["bump", "mu", "--f", c1_file, "--out", str(out)]) == 0
    assert len(calls) == 1
    chain = bump.mu(cli._load_function(c1_file, "f"), 1, 2, F(1, 2), 1e-4)
    outputs = json.loads(out.read_text())["outputs"]
    assert (outputs["l"], outputs["mu"]) == (chain.l, chain.mu)


def test_comb_check_y_takes_a_pwl_function_at_a_non_integer_ladder(tmp_path):
    """A PWL f whose slope bound exceeds every ladder scale: at b_j = 7/2,
    9/2, ... the inner bound falls back to the integer scale below, and at
    4, 5, ... it is exact.  Both ladders write a passing report."""
    f, sets = tmp_path / "f.json", tmp_path / "sets.json"
    f.write_text(json.dumps(function_to_json(random_function(0, 6))))
    sets.write_text(json.dumps([IntervalSet.full().to_json_dict()] * 13))
    out = tmp_path / "report.json"
    argv = ["comb", "check-y", "--sets", str(sets), "--f", str(f), "--n", "1,4,8,13",
            "--delta", "1/4,1/8,1/16,1/32", "--m-max", "2", "--out", str(out)]
    for ladder in ("7/2,9/2,11/2,13/2", "4,5,6,7"):
        assert cli.main([*argv, "--ladder-b", ladder]) == 0
        rep = json.loads(out.read_text())
        assert rep["inputs"]["ladder_b"] == ladder.split(",")
        assert rep["outputs"] == {"ok": True, "failures": [], "undecided": []}


def test_jarnik_demo_rejects_negative_depth(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = cli.main(["jarnik-demo", "--depth", "-1", "--out", str(out)])
    assert rc == 2
    assert "input error in field 'depth'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["0", "5", "11"])
def test_jarnik_demo_output_matches_benchmark_reference(tmp_path, seed):
    """The default `jarnik-demo` outputs are byte-identical to the
    referenced ones."""
    ref = json.loads(REFERENCE.read_text())["exact-pwl"][seed]
    out = tmp_path / "report.json"
    assert cli.main(["jarnik-demo", "--seed", seed, "--out", str(out)]) == 0
    blob = json.dumps(json.loads(out.read_text())["outputs"], sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == ref


def test_inputs_digest_covers_seed_and_file_contents(tmp_path):
    out = tmp_path / "report.json"

    def digest(*argv):
        assert cli.main([*argv, "--out", str(out)]) == 0
        return json.loads(out.read_text())["inputs_digest"]

    perm = ("comb", "perm", "--count", "2", "--seed")
    assert digest(*perm, "0") == digest(*perm, "0") != digest(*perm, "1")
    k, l = tmp_path / "k.json", tmp_path / "l.json"
    l.write_text(json.dumps(IntervalSet.from_pairs([(0, F(1, 2))]).to_json_dict()))
    digests = []
    for hi in (F(1, 2), F(3, 4)):
        k.write_text(json.dumps(IntervalSet.from_pairs([(0, hi)]).to_json_dict()))
        digests.append(digest("hausdorff", "--k", str(k), "--l", str(l)))
    assert digests[0] != digests[1]


@st.composite
def interval_sets(draw):
    """Sets over a mix of denominators: grid-like ones (so endpoints fall
    exactly on the grid) and ones coprime to it; components may be points."""
    den = draw(st.sampled_from((1, 2, 7, 10, 12, 1000, 2000, 2001, 4096, 3 * 2**20, 99991)))
    ends = sorted(draw(st.lists(st.integers(0, den), max_size=12)))
    pairs = [(F(lo, den), F(hi, den)) for lo, hi in zip(ends[0::2], ends[1::2])]
    if draw(st.booleans()):
        pairs += [(x, x) for x in draw(st.lists(st.integers(0, den).map(lambda k: F(k, den)), max_size=3))]
    return IntervalSet.from_pairs(pairs)


@given(interval_sets(), st.sampled_from((1, 3, 7, 10, 1000, 2000, 2001)))
@settings(max_examples=200, deadline=None)
def test_grid_hits_counts_grid_points(s, n):
    assert cli._grid_hits(s, n) == sum(s.contains_point(Fraction(i, n)) for i in range(n + 1))


def test_grid_hits_examples():
    assert cli._grid_hits(IntervalSet.full(), 2000) == 2001
    assert cli._grid_hits(IntervalSet.points([Fraction(1, 2)]), 2000) == 1
    assert cli._grid_hits(IntervalSet.points([Fraction(1, 3)]), 2000) == 0
    assert cli._grid_hits(IntervalSet.from_pairs([(Fraction(1, 3), Fraction(2, 3))]), 3) == 2
