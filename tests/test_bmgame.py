"""Ball-game checks on hand-built scenarios: an enclosure that the engine
cannot certify makes a verdict undecided, any other error propagates, and
`round_m` enforces the move rules and ends at its net-size diagnosis."""

from fractions import Fraction

import pytest

from knotpoints import bmgame
from knotpoints.bmgame import (
    GameError,
    GameInfeasibleError,
    GameParams,
    GameRuleError,
    GameState,
    HatCheckSet,
    RoundRecord,
    StarCheck,
    limit_report,
    oracle_everything,
    round_m,
    star_bullets,
)
from knotpoints.intervalsets import FULL, FinitePointSet
from knotpoints.nsets import EnclosureRangeError, NSetEnclosure
from knotpoints.realfn import C1Function

F = Fraction
B1 = F(9, 2)
K_SETS = (HatCheckSet(FinitePointSet.of([F(1, 4)]), FinitePointSet.of([F(3, 4)])),)


class StubCache:
    """Stands in for `_EnclosureCache`: raises `error` at the scales `fails`
    accepts and returns the full set everywhere else."""

    def __init__(self, f, error, fails=lambda a: True):
        self.f, self.tol = f, 1e-4
        self.error, self.fails = error, fails

    def get(self, a, variant):
        if self.fails(Fraction(a)):
            raise self.error
        return NSetEnclosure.exact(FULL)


LADDER = GameParams().ladder((B1,))
FINE, COARSE = LADDER.a_refined(1, 1, 4), LADDER.b_refined(1, 1, 3)


def _star(cache):
    return star_bullets(cache.f, K_SETS, 1, F(1, 8), (1,), 1, LADDER, 4, 3, 1e-4, cache=cache)


def test_star_bullets_undecided_on_enclosure_range_error():
    f = C1Function.zero()
    star = _star(StubCache(f, EnclosureRangeError("a", "out of range")))
    assert not star.ok and not star.failures
    assert set(star.undecided) == {(1, b, rd) for b in (1, 2, 3) for rd in ("hat", "check")}
    assert star.margins[(1, 1, "hat")] == "enclosure unavailable: out of range"


@pytest.mark.parametrize("scale", [FINE, COARSE], ids=["fine", "coarse"])
def test_star_bullets_propagates_other_value_errors(scale):
    f = C1Function.zero()
    with pytest.raises(ValueError, match="not a range error"):
        _star(StubCache(f, ValueError("not a range error"), fails=lambda a: a == scale))


def _one_round_state() -> GameState:
    f = C1Function.zero()
    rec = RoundRecord(
        m=1,
        f_m=f,
        alpha_m=F(1),
        h_m=F(0),
        mu_m=0.1,
        zeta_m=None,
        L_sets=K_SETS,
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


def test_limit_report_null_coverage_on_enclosure_range_error(monkeypatch):
    def cache(f, tol):
        return StubCache(f, EnclosureRangeError("a", "out of range"), fails=lambda a: a == B1)

    monkeypatch.setattr(bmgame, "_EnclosureCache", cache)
    entry = limit_report(_one_round_state())["checks"]["limit_coverage"]["entries"]["j=1,m=1"]
    assert isinstance(entry["fine_in_balls"], bool)  # decided: scale 1 is available
    assert entry["points_near_coarse"] is None
    assert entry["coarse_margin"] == "out of range"


@pytest.mark.parametrize("scale", [F(1), B1], ids=["fine", "coarse"])
def test_limit_report_propagates_other_value_errors(monkeypatch, scale):
    def cache(f, tol):
        return StubCache(f, ValueError("not a range error"), fails=lambda a: a == scale)

    def index_chain(*args, **kwargs):
        raise AssertionError("the coverage check swallowed the error")

    monkeypatch.setattr(bmgame, "_EnclosureCache", cache)
    monkeypatch.setattr(bmgame, "check_Y_k", index_chain)
    with pytest.raises(ValueError, match="not a range error"):
        limit_report(_one_round_state())


def _round_m(state, f, alpha):
    return round_m(state, f, alpha, oracle_everything())


def test_round_m_rejects_moves_outside_the_previous_answer():
    state = _one_round_state()
    one = C1Function([0.0, 1.0], [1.0, 1.0], [0.0, 0.0])  # 1 away from g_1, beta_1 = 1/2
    with pytest.raises(GameRuleError, match="outside beta"):
        _round_m(state, one, F(1, 8))
    with pytest.raises(GameRuleError, match="does not fit"):
        _round_m(state, C1Function.zero(), F(1))


def test_round_m_needs_a_completed_first_round():
    with pytest.raises(GameError, match="completed first round"):
        _round_m(GameState(()), C1Function.zero(), F(1, 8))


@pytest.fixture
def stub_round_m(monkeypatch):
    """A legal move whose inherited invariant holds; returns a setter for
    the perturbation radius that every j gets."""
    monkeypatch.setattr(bmgame, "star_bullets", lambda *args: StarCheck(True))
    monkeypatch.setattr(bmgame, "lemma_epsilon", lambda *args: 2e-9)
    monkeypatch.setattr(bmgame, "interval_length_l", lambda *args: 4e-15)
    return lambda radius: monkeypatch.setattr(bmgame, "mu", lambda *args: radius)


def test_round_m_diagnoses_a_net_above_the_cap(stub_round_m):
    stub_round_m(1e-15)
    with pytest.raises(GameInfeasibleError) as err:
        _round_m(_one_round_state(), C1Function.zero(), F(1, 8))
    d = err.value.details
    assert set(d) == {"mu", "eps", "l", "net_points", "cap", "deriv_norm"}
    assert (d["mu"], d["eps"], d["l"], d["cap"], d["deriv_norm"]) == (1e-15, 2e-9, 4e-15, 2_000_000, 0.0)
    assert d["net_points"] == pytest.approx(2 / 0.9e-15)


def test_round_m_stops_when_the_net_would_fit(stub_round_m):
    stub_round_m(0.1)
    with pytest.raises(GameError, match="net-size diagnosis") as err:
        _round_m(_one_round_state(), C1Function.zero(), F(1, 8))
    assert not isinstance(err.value, GameInfeasibleError)
