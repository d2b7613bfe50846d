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


def test_bump_spec_rejects_a_shared_point():
    hat = FinitePointSet.of([Fraction(1, 4), Fraction(1, 2), Fraction(7, 8)])
    check = FinitePointSet.of(["2/4", Fraction(7, 8)])
    with pytest.raises(ValueError, match=re.escape("both contain [Fraction(1, 2), Fraction(7, 8)]")):
        BumpSpec(hat, check, Fraction(1, 2), Fraction(1, 100))


def _easy_spec() -> tuple[C1Function, BumpSpec]:
    """f of slope 1/2 < a = 1 satisfies both readings everywhere, so every
    located point is a member before the bump is added."""
    f = C1Function.linear(0.5)
    hat = FinitePointSet.of([Fraction(1, 4), Fraction(5, 8)])
    check = FinitePointSet.of([Fraction(3, 4)])
    spec = BumpSpec(hat, check, Fraction(1, 2), Fraction(1, 100))
    for reading in ("hat", "check"):
        pts = spec.located(reading).floats()
        assert max(point_defects_float(f, 1.0, reading, pts)) <= 0.0
    return f, spec


def test_check_bump_easy_keeps_the_readings_of_the_spec_bump():
    """The lobes peak at H_hat and bottom out at H_check, so the bump of
    the spec keeps every located point in its reading."""
    f, spec = _easy_spec()
    assert check_bump_easy(f, 1, spec)


def test_check_bump_easy_refuses_a_bump_with_the_signs_swapped():
    """The bump of the spec with H_hat and H_check exchanged has a minimum
    at each hat point, which breaks the hat reading there."""
    f, spec = _easy_spec()
    swapped = make_bump(BumpSpec(spec.H_check, spec.H_hat, spec.height, spec.width))
    assert point_defects_float(f.add(swapped), 1.0, "hat", spec.H_hat.floats()).min() > 0.4
    assert not check_bump_easy(f, 1, spec, swapped)


def test_mu_raises_when_no_radius_fits(monkeypatch):
    """A zero interval length leaves no mu strictly inside mu < l/2; the
    check raises even under python -O, which strips asserts."""
    f = random_c1_function(0, cells=6, amplitude=0.5, slope_scale=2.0)
    monkeypatch.setattr(bump, "lemma_epsilon", lambda *args, **kwargs: 0.0)
    with pytest.raises(EpsilonSearchError, match="mu constraints"):
        mu(f, 1, 2, Fraction(1, 4))


@pytest.mark.parametrize(
    "seed, a, b, eps_bits",
    [
        (0, 2, 3, "0x1.0000000000000p-5"),
        (4, 2, 3, "0x1.0000000000000p-5"),
        (1, Fraction(3, 2), Fraction(5, 2), "0x1.6a09e667f3bccp-8"),
    ],
)
def test_lemma_epsilon_witnesses_hold_on_a_fine_grid(seed, a, b, eps_bits):
    """The certified eps at the midpoint slope c = (a+b)/2 is the pinned
    value, and the independent grid scan finds a witness for every clearly
    failing point.  Where points fail, twice the eps leaves some without
    one, so the scan is not vacuous there."""
    f = random_c1_function(seed, cells=6, amplitude=0.5, slope_scale=2.0)
    c = (Fraction(a) + Fraction(b)) / 2
    eps = lemma_epsilon(f, a, b, c)
    assert eps.hex() == eps_bits
    checked, missing = lemma_witness_scan(f, a, b, c, eps)
    assert missing == 0
    if checked:
        assert lemma_witness_scan(f, a, b, c, 2 * eps)[1] > 0
