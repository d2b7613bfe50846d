"""Command-line front end: the `nset`, `bump`, `game` and `jarnik-demo`
subcommands through `cli.main`, the input errors of `nset`, `comb`, `bump`
and `game`, the input digest of a report, and the grid count behind
`jarnik-demo`."""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotpoints import bmgame, bump, cli
from knotpoints.bmgame import GameState, HatCheckSet, RoundRecord, game_report
from knotpoints.intervalsets import FinitePointSet, IntervalSet
from knotpoints.realfn import C1Function, function_to_json, random_c1_function, random_function
from oracles import set_to_json, zigzag

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
    tent = tmp_path / "zigzag.json"
    tent.write_text(json.dumps(function_to_json(zigzag())))
    out = tmp_path / "report.json"
    for argv, field in (
        (["nset", "--f", str(tent), "--a", "3/2"], "a"),
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


@pytest.mark.parametrize(
    "f, flags, field", [("c1", ["--tol", "1e-6"], "tol"), ("part", [], "f")], ids=["c1-tol", "pwl-domain"]
)
def test_comb_check_y_out_of_range_enclosures_are_input_errors(
    c1_file, tmp_path, capsys, f, flags, field
):
    """check-y exits with 2 and names the field when an enclosure of f is
    out of the engine's range: a C1 f at a tolerance finer than the engine
    certifies, and a PWL f off the unit domain."""
    sets, part = tmp_path / "sets.json", tmp_path / "part.json"
    sets.write_text(json.dumps([set_to_json(IntervalSet.full())] * 13))
    part.write_text(json.dumps({"class": "pwl", "knots": ["0", "3/4"], "values": ["0", "1"]}))
    out = tmp_path / "report.json"
    rc = cli.main(
        ["comb", "check-y", "--sets", str(sets), "--f", c1_file if f == "c1" else str(part),
         "--n", "1,4,8,13", "--delta", "1/4,1/8,1/16,1/32", "--m-max", "2", "--ladder-b", "4,5",
         *flags, "--out", str(out)]
    )
    assert rc == 2
    assert f"input error in field '{field}'" in capsys.readouterr().err
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
        (["nset", "--f", "{list}", "--a", "1"], "f"),
        (["nset", "--f", "{text}", "--a", "1"], "f"),
        (["bump", "mu", "--f", "{list}"], "f"),
        (["bump", "mu", "--f", "{text}"], "f"),
        (["game", "verify", "--report", "{list}"], "report"),
        (["game", "verify", "--report", "{envelope}"], "report"),
        (["game", "verify", "--report", "{no_rounds}"], "report"),
    ],
    ids=[
        "comb-n-growth", "comb-delta-order", "comb-ladder-b", "comb-k",
        "comb-n-short", "comb-n-short-shifted", "comb-delta-short", "comb-sets-short",
        "comb-ladder-b-short", "comb-check-y-tol", "perm-count", "perm-m-max",
        "bump-make-pwl", "bump-mu-pwl", "bump-hat", "bump-check",
        "bump-a-underflow", "bump-a-grid", "game-seed",
        "nset-f-list", "nset-f-text", "bump-mu-f-list", "bump-mu-f-text",
        "game-verify-list", "game-verify-outputs-list", "game-verify-no-rounds",
    ],
)
def test_malformed_input_exits_2_and_names_the_field(
    c1_file, tmp_path, monkeypatch, capsys, argv, field
):
    """Each malformed flag or input file exits with 2 before any check runs,
    and the message names the field."""

    def compute(*args):
        raise AssertionError("checked before validating the input")

    for name in ("check_S_k", "check_Y_k", "check_perm_A", "run_game"):
        monkeypatch.setattr(cli, name, compute)
    sets = [set_to_json(IntervalSet.from_pairs([(F(i % 7, 8), F(i % 7 + 1, 8))])) for i in range(8)]
    files = {
        "sets": sets,
        "few_sets": sets[:3],
        "pwl": function_to_json(zigzag()),
        "list": [1, 2],
        "text": "x",
        "envelope": {"schema": "knotpoints.report/1", "outputs": []},
        "no_rounds": game_report(GameState(()), {}),
    }
    for name, obj in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    paths = {name: str(tmp_path / f"{name}.json") for name in files}
    out = tmp_path / "report.json"
    rc = cli.main([x.format(c1=c1_file, **paths) for x in argv] + ["--out", str(out)])
    assert rc == 2
    assert f"input error in field '{field}'" in capsys.readouterr().err
    assert not out.exists()


def _one_round(**changes) -> RoundRecord:
    """A one-round record on f = 0, with the fields in `changes` replaced."""
    fields = dict(
        m=1, f_m=C1Function.zero(), alpha_m=F(1), h_m=F(0), mu_m=0.1,
        K_sets=(HatCheckSet(FinitePointSet.of([F(1, 4)]), FinitePointSet.of([F(3, 4)])),),
        n_m=1, w_m=F(1, 16), g_m=C1Function.zero(), b_m=F(9, 2), beta_m=F(1, 2),
        eps_m=0.1, oracle_l=1, oracle_r=F(1),
    )
    return RoundRecord(**{**fields, **changes})


def _bad_input_files() -> dict:
    """Input files that each carry one value no loader may accept: a zero
    denominator, or a non-finite float in C^1 data."""
    pwl = function_to_json(zigzag())
    c1 = {"class": "c1", "knots": ["0.0", "0.5", "1.0"], "values": ["0.0"] * 3, "slopes": ["0.0"] * 3}
    iv = {"intervals": [["0", "1/2"]]}
    game = game_report(GameState((_one_round(),)), {})

    def edited(obj, edit):
        obj = json.loads(json.dumps(obj))
        edit(obj)
        return obj

    def rounds(edit):
        return lambda g: edit(g["state"]["rounds"][0])

    return {
        "pwl-zero-den": edited(pwl, lambda f: f["values"].__setitem__(1, "1/0")),
        "c1-nan-slope": edited(c1, lambda f: f["slopes"].__setitem__(1, "nan")),
        "c1-inf-value": edited(c1, lambda f: f["values"].__setitem__(1, "inf")),
        "set": iv,
        "set-zero-den": {"intervals": [["0", "1/0"]]},
        "sets-zero-den": [iv, {"intervals": [["1/0", "1"]]}],
        "game-point": edited(game, rounds(lambda r: r["K_sets"][0]["hat"].__setitem__(0, "1/0"))),
        "game-w": edited(game, rounds(lambda r: r.update(w_m="1/0"))),
        "game-nan": edited(game, rounds(lambda r: r["g_m"]["slopes"].__setitem__(0, "nan"))),
        "target-point": {"sets": [["1/2", "1/0"]], "tol": "1/4"},
        "target-tol": {"sets": [["1/2"]], "tol": "1/0"},
    }


@pytest.mark.parametrize(
    "argv, field",
    [
        (["nset", "--f", "{pwl-zero-den}", "--a", "1"], "f"),
        (["nset", "--f", "{c1-nan-slope}", "--a", "3/2"], "f"),
        (["nset", "--f", "{c1-inf-value}", "--a", "3/2"], "f"),
        (["hausdorff", "--k", "{set-zero-den}", "--l", "{set}"], "k"),
        (["hausdorff", "--k", "{set}", "--l", "{set-zero-den}"], "l"),
        (["comb", "check-s", "--sets", "{sets-zero-den}", "--n", "1,2", "--delta", "1/2"], "sets"),
        (["game", "verify", "--report", "{game-point}"], "report"),
        (["game", "verify", "--report", "{game-w}"], "report"),
        (["game", "verify", "--report", "{game-nan}"], "report"),
        (["game", "run", "--oracle", "target:{target-point}"], "oracle"),
        (["game", "run", "--oracle", "target:{target-tol}"], "oracle"),
    ],
    ids=[
        "nset-zero-den", "nset-nan-slope", "nset-inf-value", "hausdorff-k", "hausdorff-l",
        "comb-sets", "game-verify-point", "game-verify-w", "game-verify-nan",
        "game-run-target-point", "game-run-target-tol",
    ],
)
def test_unreadable_numbers_in_a_file_exit_2_before_any_engine_work(
    tmp_path, monkeypatch, capsys, argv, field
):
    """A "1/0" in an input file, or a NaN or infinity in C^1 data, is refused
    by the loader with exit 2 and the field named; no engine runs on it."""

    def compute(*args, **kwargs):
        raise AssertionError("computed on an input that should have been refused")

    for name in ("n_set_exact", "n_set_enclosure", "check_S_k", "run_game"):
        monkeypatch.setattr(cli, name, compute)
    monkeypatch.setattr(IntervalSet, "hausdorff", compute)
    monkeypatch.setattr(bmgame, "check_star", compute)
    monkeypatch.setattr(bmgame, "limit_report", compute)
    paths = {}
    for name, obj in _bad_input_files().items():
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(obj))
    out = tmp_path / "report.json"
    rc = cli.main([x.format(**paths) for x in argv] + ["--out", str(out)])
    assert rc == 2
    assert f"input error in field '{field}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture
def played(monkeypatch):
    """`cli.run_game` returns one round on f = 0 whose report verifies, as
    in `test_saved_game_reads_back_and_verifies`: both halves of the
    located set are 1/10-dense.  The fixture is the list of the oracles
    that the fake was handed."""
    hat = FinitePointSet.of([F(2 * k + 1, 16) for k in range(8)])
    check = FinitePointSet.of([F(k, 8) for k in range(9)])
    rec = _one_round(
        K_sets=(HatCheckSet(hat, check),), w_m=F(1, 10), certifications={"star_self": {"ok": True}}
    )
    state = GameState((rec,))
    limit = bmgame.limit_report(state)
    oracles = []

    def run_game(adv, oracle, rounds):
        oracles.append(oracle)
        return state, limit

    monkeypatch.setattr(cli, "run_game", run_game)
    return oracles


def test_game_run_reports_a_complete_game(played, tmp_path):
    out = tmp_path / "run.json"
    assert cli.main(["game", "run", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["outputs"]["status"] == "complete"
    assert set(report["checks"]) == {"completed_rounds", "limit_checks", "star_round_1"}
    assert all(c["ok"] for c in report["checks"].values())


def test_game_verify_reproduces_a_run_and_flags_a_changed_verdict(played, tmp_path):
    run, out = tmp_path / "run.json", tmp_path / "verify.json"
    assert cli.main(["game", "run", "--out", str(run)]) == 0
    assert cli.main(["game", "verify", "--report", str(run), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["outputs"]["recomputed"]["mismatches"] == []

    report = json.loads(run.read_text())
    report["outputs"]["game"]["state"]["rounds"][0]["certifications"]["star_self"]["ok"] = False
    run.write_text(json.dumps(report))
    assert cli.main(["game", "verify", "--report", str(run), "--out", str(out)]) == 1
    mismatches = json.loads(out.read_text())["outputs"]["recomputed"]["mismatches"]
    assert mismatches == ["round 1: star verdict changed"]


def test_game_run_hands_on_the_avoid_point_oracle(played, tmp_path):
    assert cli.main(["game", "run", "--oracle", "avoid:1/3", "--out", str(tmp_path / "run.json")]) == 0
    (oracle,) = played
    eps = 0.08
    reply = oracle((FinitePointSet.of([F(1, 3), F(1, 2)]), FinitePointSet.of([F(1, 3) + F(1, 200)])), eps)
    assert reply.label.startswith("avoid:0.333")
    radius = F(eps) / 8
    assert all(abs(q - F(1, 3)) > radius for s in reply.sets for q in s.points)


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


def test_comb_check_s_reports_the_failing_blocks(tmp_path):
    """Sets 1-4 near 0 and 5-8 near 1 with n = 1, 2, 4, 7: the new blocks
    A_2^4 - A_2^3 = {5} and A_3^4 - A_3^3 = {5, 6} lie far from the sets
    before them, so depth 4 fails on exactly those two and exits 1; depth 3
    reads only A_2^3 - A_2^2 = {3}, next to set 1, and passes."""
    sets = tmp_path / "sets.json"
    near0 = set_to_json(IntervalSet.from_pairs([(0, F(1, 100))]))
    near1 = set_to_json(IntervalSet.from_pairs([(F(9, 10), 1)]))
    sets.write_text(json.dumps([near0] * 4 + [near1] * 4))
    out = tmp_path / "report.json"
    delta = ["1/100", "1/200", "1/400", "1/800"]
    argv = ["comb", "check-s", "--sets", str(sets), "--n", "1,2,4,7", "--delta", ",".join(delta)]
    for m_max, rc, failures in (("4", 1, [["s", 2, 4], ["s", 3, 4]]), ("3", 0, [])):
        assert cli.main([*argv, "--m-max", m_max, "--out", str(out)]) == rc
        rep = json.loads(out.read_text())
        assert rep["command"] == [*argv, "--m-max", m_max, "--out", str(out)]
        assert rep["inputs"] == {
            "mode": "check-s", "sets": str(sets), "n": [1, 2, 4, 7], "delta": delta,
            "k": 0, "m_max": int(m_max),
        }
        assert rep["seed"] is None and len(rep["inputs_digest"]) == 64
        assert rep["outputs"] == {"ok": not failures, "failures": failures, "undecided": []}
        assert rep["checks"] == {"chain": {"ok": not failures, "margin": None}}
        assert rep["verdict"] == ("fail" if failures else "pass")


def test_comb_check_y_takes_a_pwl_function_at_a_non_integer_ladder(tmp_path):
    """A PWL f whose slope bound exceeds every ladder scale: at b_j = 7/2,
    9/2, ... the inner bound falls back to the integer scale below, and at
    4, 5, ... it is exact.  Both ladders write a passing report."""
    f, sets = tmp_path / "f.json", tmp_path / "sets.json"
    f.write_text(json.dumps(function_to_json(random_function(0, 6))))
    sets.write_text(json.dumps([set_to_json(IntervalSet.full())] * 13))
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


def test_jarnik_demo_refuses_a_repeated_scale(tmp_path, monkeypatch, capsys):
    """A scale named twice is refused with exit 2 before any set is built,
    where it used to be computed twice and recorded once."""

    def compute(*args):
        raise AssertionError("computed a set before validating the scales")

    monkeypatch.setattr(cli, "n_set_exact", compute)
    out = tmp_path / "report.json"
    rc = cli.main(["jarnik-demo", "--a-list", "2,1,2", "--out", str(out)])
    assert rc == 2
    assert "input error in field 'a-list'" in capsys.readouterr().err
    assert not out.exists()


def test_the_cached_parser_keeps_no_state_between_calls(tmp_path, capsys):
    """The parser is built once per process.  A call that argparse refuses
    leaves nothing behind: the next `jarnik-demo` writes the bytes that the
    same call writes with a freshly built parser."""
    out = tmp_path / "report.json"
    argv = ["jarnik-demo", "--depth", "3", "--a-list", "1,2", "--grid", "1000", "--out", str(out)]
    cli._build_parser.cache_clear()
    assert cli.main(argv) == 0
    alone = out.read_bytes()
    out.unlink()
    cli._build_parser.cache_clear()
    with pytest.raises(SystemExit) as e:
        cli.main(["jarnik-demo", "--depth", "x", "--a-list", "3"])
    assert e.value.code == 2
    assert cli._build_parser.cache_info().currsize == 1
    assert cli.main(argv) == 0
    assert cli._build_parser.cache_info().hits == 1
    assert out.read_bytes() == alone
    capsys.readouterr()


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
    l.write_text(json.dumps(set_to_json(IntervalSet.from_pairs([(0, F(1, 2))]))))
    digests = []
    for hi in (F(1, 2), F(3, 4)):
        k.write_text(json.dumps(set_to_json(IntervalSet.from_pairs([(0, hi)]))))
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
