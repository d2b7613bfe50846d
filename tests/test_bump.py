"""Bump construction on exact located points, the easy containment check,
and the bump constants: the perturbation radius mu and the witness eps."""

import random
import re
from fractions import Fraction

import pytest

from knotpoints import bump
from knotpoints.bump import (
    BumpSpec,
    EpsilonSearchError,
    check_bump_easy,
    check_bump_properties,
    lemma_epsilon,
    make_bump,
    mu,
)
from knotpoints.intervalsets import FinitePointSet
from knotpoints.nsets import point_defects_float
from knotpoints.realfn import C1Function, random_c1_function
from oracles import lemma_witness_scan


def test_bump_reads_each_point_as_its_float():
    """Points with 68-bit numerators over 5*2^66, as the game's nets have:
    every float the bump takes of a point is float(p) bit for bit, the lobe
    centres are knots, and the bump has its defining properties."""
    den = 5 * 2**66
    rng = random.Random(0)
    ks = sorted({rng.randrange(1, den) for _ in range(400)})
    hat = FinitePointSet.of([Fraction(k, den) for k in ks[0::2]])
    check = FinitePointSet.of([Fraction(k, den) for k in ks[1::2]])
    for pts in (hat, check):
        assert pts.floats() == [float(p) for p in pts.points]
    spec = BumpSpec(hat, check, Fraction(1, 2), hat.union(check).min_gap() / 4)
    phi = make_bump(spec)
    centres = {float(p) for p in hat.points + check.points}
    assert centres <= set(phi.knots.tolist())
    assert check_bump_properties(spec, phi)


def _one_sided(hat, check=(), height=Fraction(1, 2), width=Fraction(1, 10)) -> BumpSpec:
    return BumpSpec(FinitePointSet.of(hat), FinitePointSet.of(check), height, width)


# a plateau of height 1/2 over [1/5, 4/5]: the ends of every positive piece
# are near H_hat = {1/5, 4/5}, but phi(1/2) = 1/2 is 3/10 from both points
_PLATEAU = C1Function([0, 0.15, 0.2, 0.8, 0.85, 1], [0, 0, 0.5, 0.5, 0, 0], [0] * 6)


@pytest.mark.parametrize(
    "spec, phi",
    [
        pytest.param(_one_sided(["1/5", "4/5"]), _PLATEAU, id="middle-of-a-piece-far-from-the-points"),
        pytest.param(
            _one_sided(["1/2"]), make_bump(_one_sided(["1/2"], height=Fraction(1, 4))), id="sup-norm-not-height"
        ),
        pytest.param(_one_sided(["1/4", "3/4"]), make_bump(_one_sided(["1/4"])), id="located-point-not-at-height"),
        pytest.param(
            _one_sided(["1/4"]), make_bump(_one_sided(["1/4"], ["3/4"])), id="negative-piece-without-check-points"
        ),
    ],
)
def test_check_bump_properties_refuses(spec, phi):
    """Each function breaks one defining property of the spec and passes
    the checks before it: the plateau has sup norm h and the value h at
    both located points, so only its middle can refuse it."""
    assert not check_bump_properties(spec, phi)


def test_bump_spec_rejects_a_shared_point():
    hat = FinitePointSet.of([Fraction(1, 4), Fraction(1, 2), Fraction(7, 8)])
    check = FinitePointSet.of(["2/4", Fraction(7, 8)])
    with pytest.raises(ValueError, match=re.escape("hat and check parts share the point 1/2")):
        BumpSpec(hat, check, Fraction(1, 2), Fraction(1, 100))


def _easy_spec() -> tuple[C1Function, BumpSpec]:
    """f of slope 1/2 < a = 1 satisfies both readings everywhere, so every
    located point is a member before the bump is added."""
    f = C1Function([0.0, 1.0], [0.0, 0.5], [0.5, 0.5])
    hat = FinitePointSet.of([Fraction(1, 4), Fraction(5, 8)])
    check = FinitePointSet.of([Fraction(3, 4)])
    spec = BumpSpec(hat, check, Fraction(1, 2), Fraction(1, 100))
    for reading in ("hat", "check"):
        pts = spec.tilde(reading).floats()
        assert max(point_defects_float(f, 1.0, reading, pts)) <= 0.0
    return f, spec


def test_check_bump_easy_keeps_the_readings_of_the_spec_bump():
    """The lobes peak at H_hat and bottom out at H_check, so the bump of
    the spec keeps every located point in its reading."""
    f, spec = _easy_spec()
    assert check_bump_easy(f, 1, spec, make_bump(spec))


def test_check_bump_easy_refuses_a_bump_with_the_signs_swapped():
    """The bump of the spec with H_hat and H_check exchanged has a minimum
    at each hat point, which breaks the hat reading there."""
    f, spec = _easy_spec()
    swapped = make_bump(BumpSpec(spec.check, spec.hat, spec.height, spec.width))
    assert point_defects_float(f.add(swapped), 1.0, "hat", spec.hat.floats()).min() > 0.4
    assert not check_bump_easy(f, 1, spec, swapped)


def test_mu_raises_when_no_radius_fits(monkeypatch):
    """A zero interval length leaves no mu strictly inside mu < l/2; the
    check raises even under python -O, which strips asserts."""
    f = random_c1_function(0, cells=6, amplitude=0.5, slope_scale=2.0)
    monkeypatch.setattr(bump, "lemma_epsilon", lambda *args, **kwargs: 0.0)
    with pytest.raises(EpsilonSearchError, match="mu constraints"):
        mu(f, 1, 2, Fraction(1, 4))


# a small bump added, as the game adds one to f_1: its knots and the grid
# points of the segment tables fall inside the start cells of the search
_SMALL_BUMP = BumpSpec(
    FinitePointSet.of(["11/20"]), FinitePointSet.of(["77/100"]), Fraction(1, 100), Fraction(1, 10)
)


@pytest.mark.parametrize(
    "seed, a, b, bump_spec, eps_bits",
    [
        pytest.param(0, 2, 3, None, "0x1.0000000000000p-5", id="0-2-3-0x1.0000000000000p-5"),
        pytest.param(4, 2, 3, None, "0x1.0000000000000p-5", id="4-2-3-0x1.0000000000000p-5"),
        pytest.param(
            1, Fraction(3, 2), Fraction(5, 2), None, "0x1.6a09e667f3bccp-8",
            id="1-a2-b2-0x1.6a09e667f3bccp-8",
        ),
        pytest.param(
            4, 2, 3, _SMALL_BUMP, "0x1.0000000000000p-5", id="4-2-3-bump-0x1.0000000000000p-5"
        ),
    ],
)
def test_lemma_epsilon_witnesses_hold_on_a_fine_grid(seed, a, b, bump_spec, eps_bits):
    """The certified eps at the midpoint slope c = (a+b)/2 is the pinned
    value, and the independent grid scan finds a witness for every clearly
    failing point.  Where points fail, twice the eps leaves some without
    one, so the scan is not vacuous there."""
    f = random_c1_function(seed, cells=6, amplitude=0.5, slope_scale=2.0)
    if bump_spec is not None:
        f = f.add(make_bump(bump_spec))
    c = (Fraction(a) + Fraction(b)) / 2
    eps = lemma_epsilon(f, a, b)
    assert eps.hex() == eps_bits
    checked, missing = lemma_witness_scan(f, a, b, c, eps)
    assert missing == 0
    if checked:
        assert lemma_witness_scan(f, a, b, c, 2 * eps)[1] > 0
