"""Bump constants: the perturbation radius mu and the witness eps."""

from fractions import Fraction

import pytest

from knotpoints import bump
from knotpoints.bump import EpsilonSearchError, lemma_epsilon, mu
from knotpoints.realfn import random_c1_function
from oracles import lemma_witness_scan


def test_mu_raises_when_no_radius_fits(monkeypatch):
    """A zero interval length leaves no mu strictly inside mu < l/2; the
    check raises even under python -O, which strips asserts."""
    f = random_c1_function(0, cells=6, amplitude=0.5, slope_scale=2.0)
    monkeypatch.setattr(bump, "interval_length_l", lambda *args, **kwargs: 0.0)
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
