"""Ball-game checks on hand-built scenarios: at a scale the enclosure
engine refuses, the enclosure store keeps the bracket it can still certify,
whose undecided claims leave a verdict not ok, while any other error
propagates through the store,
`round_m` enforces the move rules and ends at its certified radius bound, a
saved game reads back and verifies, a game saved at another operating point
is refused, the avoid-point and target-prefix oracles keep their contracts,
and the limit distances match a direct computation."""

import json
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knotpoints import bmgame, bump, indexcomb
from knotpoints.bmgame import (
    GameError,
    GameInfeasibleError,
    GameRuleError,
    GameState,
    HatCheckSet,
    OracleError,
    RoundRecord,
    game_report,
    limit_report,
    oracle_avoid_point,
    oracle_target_prefix,
    round_m,
    star_bullets,
    state_from_json,
    state_to_json,
    verify_report,
)
from knotpoints.indexcomb import CombCheck, ScaleLadder
from knotpoints.intervalsets import EMPTY, FULL, FinitePointSet, pairwise_disjoint
from knotpoints.nsets import EnclosureRangeError, NSetEnclosure
from knotpoints.realfn import C1Function
from oracles import dedupe_across_reference, tag_by_nearest_reference

F = Fraction
B1 = F(9, 2)
K_SETS = (HatCheckSet(FinitePointSet.of([F(1, 4)]), FinitePointSet.of([F(3, 4)])),)


def _stub_engine(monkeypatch, error, fails=lambda a: True, enclosure=NSetEnclosure.exact(FULL)):
    """Stands in for the engine behind the real `indexcomb.Enclosures`:
    raises `error` at the scales `fails` accepts and returns `enclosure`
    everywhere else.  Returns the list of the (scale, variant) asked."""
    asked = []

    def engine(f, a, variant, tol):
        asked.append((a, variant))
        if fails(a):
            raise error
        return enclosure

    monkeypatch.setattr(indexcomb, "n_set_enclosure", engine)
    return asked


LADDER = ScaleLadder((B1,))
FINE, COARSE = LADDER.a_refined(1, 1, 4), LADDER.b_refined(1, 1, 3)


def _star() -> CombCheck:
    """star_bullets on f = 0 over one located set, so bullet (iii) is vacuous."""
    return star_bullets(C1Function.zero(), K_SETS, F(1, 8), (1,), LADDER, 4, 3)


def test_star_bullets_undecided_on_enclosure_range_error(monkeypatch):
    """Every scale refused: the store falls back to the capped integer scale
    below each, is refused there too, and keeps inner empty and outer
    [0,1], so bullets (i) and (ii) are undecided and the verdict is not ok."""
    asked = _stub_engine(monkeypatch, EnclosureRangeError("a", "out of range"))
    star = _star()
    assert not star.ok and not star.failures
    assert set(star.undecided) == {(1, b, rd) for b in (1, 2) for rd in ("hat", "check")}
    assert star.margins[(1, 1, "hat")] == "outer fails, inner passes"
    assert star.margins[(1, 2, "hat")] == "inner fails, outer passes"
    assert star.margins[(1, 3, "hat")] == "vacuous"
    assert asked == [(a, rd) for rd in ("hat", "check") for a in (FINE, F(1), COARSE, F(3))]


@pytest.mark.parametrize("scale", [FINE, COARSE], ids=["fine", "coarse"])
def test_star_bullets_propagates_other_value_errors(monkeypatch, scale):
    _stub_engine(monkeypatch, ValueError("not a range error"), fails=lambda a: a == scale)
    with pytest.raises(ValueError, match="not a range error"):
        _star()


def _one_round_state() -> GameState:
    f = C1Function.zero()
    rec = RoundRecord(
        m=1,
        f_m=f,
        alpha_m=F(1),
        h_m=F(0),
        mu_m=0.1,
        K_sets=K_SETS,
        n_m=1,
        w_m=F(1, 16),
        g_m=f,
        b_m=B1,
        beta_m=F(1, 2),
        eps_m=0.1,
        oracle_l=1,
        oracle_r=F(1),
    )
    return GameState((rec,))


def test_limit_report_not_ok_on_enclosure_range_error(monkeypatch):
    """The fine scale's set is exactly empty and the coarse scale B1 is
    refused: the store keeps inner empty (the set at scale 4) and outer
    [0,1] there, so the coarse coverage claim is undecided, its entry false
    and the report not ok."""
    asked = _stub_engine(
        monkeypatch,
        EnclosureRangeError("a", "out of range"),
        fails=lambda a: a == B1,
        enclosure=NSetEnclosure.exact(EMPTY),
    )
    report = limit_report(_one_round_state())
    coverage = report["checks"]["limit_coverage"]
    assert coverage["entries"]["j=1,m=1"] == {
        "fine_in_balls": True,
        "fine_margin": 3 / 16,
        "points_near_coarse": False,
        "coarse_margin": 0.0,
    }
    assert not coverage["ok"] and not report["ok"]
    assert asked == [(F(1), "full"), (B1, "full"), (F(4), "full")]


@pytest.mark.parametrize("scale", [F(1), B1], ids=["fine", "coarse"])
def test_limit_report_propagates_other_value_errors(monkeypatch, scale):
    def index_chain(*args, **kwargs):
        raise AssertionError("the coverage check swallowed the error")

    _stub_engine(monkeypatch, ValueError("not a range error"), fails=lambda a: a == scale)
    monkeypatch.setattr(bmgame, "check_Y_k", index_chain)
    with pytest.raises(ValueError, match="not a range error"):
        limit_report(_one_round_state())


def test_round_m_rejects_moves_outside_the_previous_answer():
    state = _one_round_state()
    one = C1Function([0.0, 1.0], [1.0, 1.0], [0.0, 0.0])  # 1 away from g_1, beta_1 = 1/2
    with pytest.raises(GameRuleError, match="outside beta"):
        round_m(state, one, F(1, 8))
    with pytest.raises(GameRuleError, match="does not fit"):
        round_m(state, C1Function.zero(), F(1))


def test_round_m_needs_a_completed_first_round():
    with pytest.raises(GameError, match="completed first round"):
        round_m(GameState(()), C1Function.zero(), F(1, 8))


# a legal move from g_1 = 0 inside beta_1 = 1/2: zero at the knots, with a
# steepest knot slope of modulus 5/2 (its sup norm is about 0.228)
STEEP = C1Function([0.0, 0.5, 1.0], [0.0, 0.0, 0.0], [0.0, -2.5, 1.0])


@pytest.fixture
def bound_only(monkeypatch):
    """The inherited invariant holds and any witness-eps search fails the
    test: the round-m diagnosis must come from the radius bound alone."""

    def no_search(*args, **kwargs):
        raise AssertionError("round_m ran a witness-eps search")

    monkeypatch.setattr(bmgame, "star_bullets", lambda *args: CombCheck(True))
    monkeypatch.setattr(bmgame, "mu", no_search)
    monkeypatch.setattr(bump, "lemma_epsilon", no_search)


def _expected_bound(alpha: Fraction) -> dict:
    """2*mu*(|f'|+a) < h with |f'| >= 5/2 and a = 2 + (9/10)(4/5)^2, the
    larger of the two round-2 fine scales a_refined(j, 2, 3), in direct
    Fraction arithmetic."""
    h, s, a = alpha / 2, F(5, 2), 2 + F(9, 10) * F(4, 5) ** 2
    return {
        "h_m": h,
        "slope_lower": s,
        "a": a,
        "mu_upper": h / (2 * (s + a)),
        "net_lower": 4 * (s + a) / (F(9, 10) * h),
        "cap": 2_000_000,
    }


def test_round_m_diagnoses_a_net_above_the_cap(bound_only):
    alpha = F(1, 10**6)
    with pytest.raises(GameInfeasibleError, match=r"more than 4.51e\+07 points") as err:
        round_m(_one_round_state(), STEEP, alpha)
    assert err.value.details == _expected_bound(alpha)
    assert err.value.details["net_lower"] > 2_000_000


def test_round_m_stops_when_the_net_would_fit(bound_only):
    alpha = F(1, 8)
    with pytest.raises(GameError, match="builds no round-m net") as err:
        round_m(_one_round_state(), STEEP, alpha)
    assert not isinstance(err.value, GameInfeasibleError)
    assert err.value.details == _expected_bound(alpha)
    assert err.value.details["net_lower"] < 2_000_000


def test_round_m_refuses_a_move_of_no_radius():
    with pytest.raises(GameRuleError, match="alpha_2 must be positive"):
        round_m(_one_round_state(), STEEP, F(0))


def test_saved_game_reads_back_and_verifies():
    """One round on f = 0, whose enclosures are all the whole interval, with
    both halves of the located set 1/10-dense so that the invariant holds."""
    hat = FinitePointSet.of([F(2 * k + 1, 16) for k in range(8)])
    check = FinitePointSet.of([F(k, 8) for k in range(9)])
    rec = replace(
        _one_round_state().rounds[0],
        K_sets=(HatCheckSet(hat, check),),
        w_m=F(1, 10),
        certifications={"star_self": {"ok": True}},
    )
    state = GameState((rec,))
    text = json.dumps(state_to_json(state), sort_keys=True)
    assert json.dumps(state_to_json(state_from_json(json.loads(text))), sort_keys=True) == text

    report = json.loads(json.dumps(game_report(state, limit_report(state))))
    assert report["limit"]["ok"]
    ok, recomputed = verify_report(report)
    assert ok and recomputed["mismatches"] == []
    report["state"]["rounds"][0]["certifications"]["star_self"]["ok"] = False
    ok, recomputed = verify_report(report)
    assert not ok and recomputed["mismatches"] == ["round 1: star verdict changed"]


def test_saved_game_records_the_one_operating_point():
    assert state_to_json(GameState(())) == {
        "schema": "knotpoints.game/1",
        "params": {
            "ladder_kind": "geometric",
            "ladder_ratio": "4/5",
            "ladder_scale": "9/10",
            "max_net_points": 2000000,
            "max_oracle_retries": 6,
            "net_factor": "9/10",
            "shrink_floor": 1e-12,
            "tol": 0.0001,
            "w_safety": "9/20",
        },
        "rounds": [],
    }


@pytest.mark.parametrize(
    "edit, key",
    [
        (lambda s: s["params"].update(tol=1e-5), "params.tol"),
        (lambda s: s["params"].update(ladder_kind="dyadic"), "params.ladder_kind"),
        (lambda s: s["params"].pop("w_safety"), "params.w_safety"),
        (lambda s: s["params"].update(extra=1), "params.extra"),
        (lambda s: s["rounds"][0].update(L_sets=s["rounds"][0]["K_sets"]), "L_sets"),
        (lambda s: s["rounds"][0].update(zeta_m=0.5), "zeta_m"),
        (lambda s: s["rounds"][0].update(certifications=[]), "certifications"),
        (lambda s: s["rounds"][0].update(certifications={"star_self": [1]}), "certifications"),
    ],
    ids=["tol", "ladder-kind", "missing-key", "extra-key", "l-sets", "zeta-m", "certs", "star-self"],
)
def test_state_from_json_refuses_what_no_run_writes(edit, key):
    """A saved game that differs from the engine's constants is refused with
    the key named, not replayed under settings no run uses; so is one whose
    certifications `verify_report` could not read."""
    saved = state_to_json(_one_round_state())
    state_from_json(saved)
    edit(saved)
    with pytest.raises(ValueError, match=f"^{key} "):
        state_from_json(saved)


# points on a coarse grid, so that sets collide, and off it
grid_points = st.one_of(
    st.integers(0, 8).map(lambda k: F(k, 8)),
    st.integers(0, 3 * 2**10).map(lambda k: F(k, 3 * 2**10)),
)


@given(
    st.lists(st.lists(grid_points, max_size=5), min_size=1, max_size=4),
    st.sampled_from([F(1, 16), F(1, 5 * 2**20), F(1, 7)]),
)
@settings(max_examples=60)
def test_dedupe_across_matches_the_fraction_reference(sets, budget):
    point_sets = [FinitePointSet.of(xs) for xs in sets]
    got = bmgame._dedupe_across(point_sets, budget)
    want = dedupe_across_reference([p.points for p in point_sets], budget)
    assert [list(s.points) for s in got] == want


net_spacings = st.sampled_from([F(2, 3), F(1, 4), F(9, 50), F(3, 7), F(1, 5)])
# offsets and budgets in units of half a spacing: +-1/2 is a tie between
# neighbours, except past the last net point, where no neighbour follows
offsets = st.sampled_from([F(0), F(1, 4), -F(1, 4), F(1, 2), -F(1, 2), F(3, 4), -F(2, 3), F(1, 3 * 2**12)])
budgets = st.sampled_from([F(0), F(1, 16), F(1, 4), F(1, 2), F(3, 4)])


@given(net_spacings, st.lists(st.tuples(st.integers(0, 12), offsets), max_size=6), budgets)
@example(F(3, 7), [(4, F(1, 2))], F(1, 2))
@example(F(3, 7), [(4, F(3, 4))], F(3, 4))
@settings(max_examples=60)
def test_tag_by_nearest_matches_the_fraction_reference(spacing, moves, budget):
    """Points of the net moved off it, tagged by `_tag_on_net` and by brute
    force against the net's even and odd points: a tie or a point past the
    budget gives None.  The examples lie past 6/7, the last point of the
    3/7 net, where 27/28 is no tie and 1 is a hat point."""
    half, net = spacing / 2, bmgame._alternating_net(spacing).points
    pts = FinitePointSet.of(min(max(net[i % len(net)] + off * half, 0), 1) for i, off in moves)
    got = bmgame._tag_on_net(pts, spacing, budget * half)
    want = tag_by_nearest_reference(pts.points, net[0::2], net[1::2], budget * half)
    if want is None:
        assert got is None
    else:
        assert (list(got.hat.points), list(got.check.points)) == want


def test_hat_check_set_rejects_a_shared_point():
    hat = FinitePointSet.of([F(1, 4), F(1, 2), F(7, 8)])
    with pytest.raises(ValueError, match="share the point 1/2$"):
        HatCheckSet(hat, FinitePointSet.of([F(1, 2), F(7, 8)]))


@pytest.mark.parametrize("spacing", [F(2, 3), F(1, 4), F(9, 50), F(3, 7), F(9, 640)])
def test_alternating_net_is_two_interleaved_grids(spacing):
    """Tagging the net gives hat points at the multiples of the spacing in
    [0, 1] and check points half a spacing on; 2/3 puts a check point on 1
    itself."""
    tagged = bmgame._tag_on_net(bmgame._alternating_net(spacing), spacing, F(0))
    want_hat = [i * spacing for i in range(int(1 / spacing) + 1)]
    assert list(tagged.hat.points) == want_hat
    assert list(tagged.check.points) == [x + spacing / 2 for x in want_hat if x + spacing / 2 <= 1]


@pytest.mark.parametrize("p", [F(0), F(1, 2), F(1)], ids=["0", "1/2", "1"])
def test_avoid_point_oracle_clears_its_ball(p):
    """Targets that hit p exactly, share it across sets and come within the
    cleared band: every returned point lies off the closed eps/8-ball
    around p, and the returned sets are pairwise disjoint."""
    eps = 0.1
    near = p + F(1, 100) if p < 1 else p - F(1, 100)
    target = tuple(FinitePointSet.of(pts) for pts in ([p, F(1, 4)], [p, F(3, 4)], [near]))
    reply = oracle_avoid_point(p)(target, eps)
    assert reply.l == len(reply.sets) == 3
    radius = Fraction(eps) / 8
    assert all(abs(q - p) > radius for s in reply.sets for q in s.points)
    assert pairwise_disjoint(reply.sets)


T_PREFIX = (FinitePointSet.of([F(1, 4), F(1, 2)]), FinitePointSet.of([F(3, 4)]))


def test_target_prefix_oracle_returns_the_prefix():
    target = (FinitePointSet.of([F(1, 4) + F(1, 1000), F(1, 2)]), T_PREFIX[1], FinitePointSet.of([F(1, 8)]))
    reply = oracle_target_prefix(T_PREFIX, F(1, 100))(target, 0.1)
    assert [s.points for s in reply.sets] == [s.points for s in T_PREFIX + target[2:]]
    assert (reply.l, reply.r) == (len(T_PREFIX), F(1, 400))


def test_target_prefix_oracle_names_the_incompatible_coordinate():
    target = (T_PREFIX[0], FinitePointSet.of([F(1, 8)]))
    with pytest.raises(OracleError, match="target prefix set 2 lies 0.625") as err:
        oracle_target_prefix(T_PREFIX, F(1, 100))(target, 0.1)
    assert err.value.details == {"coordinate": 2, "distance": 0.625}


def _two_round_state(far: bool) -> GameState:
    """Round 1 of `_one_round_state` followed by a round with two located
    sets; the first moves its check point to 7/8, or to 15/16 when `far`,
    which is 3/16 from round 1's and so beyond round 1's bound 2*w_1."""
    rec1 = _one_round_state().rounds[0]
    moved = F(15, 16) if far else F(7, 8)
    rec2 = replace(
        rec1,
        m=2,
        K_sets=(
            HatCheckSet(FinitePointSet.of([F(9, 32)]), FinitePointSet.of([F(3, 4), moved])),
            HatCheckSet(FinitePointSet.of([F(1, 8)]), FinitePointSet.of([F(1, 2)])),
        ),
        n_m=2,
        w_m=F(1, 32),
        b_m=F(11, 2),
    )
    return GameState((rec1, rec2))


def _distance_checks_reference(state: GameState) -> tuple[dict, dict]:
    """prefix_cauchy and oracle_balls with every Hausdorff distance computed
    directly, the diagonal included."""
    M = len(state.rounds)

    def located(m, n):
        return state.rounds[m - 1].K_sets[n - 1].flat().as_interval_set()

    def block(pairs):
        ds = [
            (located(mj, n).hausdorff(located(mi, n)), 2 * state.rounds[mi - 1].w_m) for mi, mj, n in pairs
        ]
        return all(d <= bound for d, bound in ds), min(float(bound - d) for d, bound in ds)

    pairs = [
        (rec.m, mj, n) for rec in state.rounds for n in range(1, rec.n_m + 1) for mj in range(rec.m, M + 1)
    ]
    ok, slack = block(pairs)
    cauchy = {"ok": ok, "min_slack": slack}
    entries = {}
    orc_ok = True
    for rec in state.rounds:
        ok, slack = block([(rec.m, M, n) for n in range(1, rec.n_m + 1)])
        orc_ok &= ok
        entries[f"m={rec.m}"] = {"min_slack": slack, "l": rec.oracle_l, "r": str(rec.oracle_r)}
    return cauchy, {"ok": orc_ok, "entries": entries}


@pytest.mark.parametrize("far", [False, True], ids=["within", "beyond"])
def test_limit_distances_match_a_direct_computation(far):
    """The distance table behind prefix_cauchy and oracle_balls, on the
    entries with m < M that a real run (which stops at round 1) never has."""
    state = _two_round_state(far)
    checks = limit_report(state)["checks"]
    cauchy, oracle = _distance_checks_reference(state)
    assert checks["prefix_cauchy"] == cauchy
    assert checks["oracle_balls"] == oracle
    assert cauchy["ok"] is oracle["ok"] is (not far)
