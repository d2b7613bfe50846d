"""Bump constants: the perturbation radius mu."""

from fractions import Fraction

import pytest

from knotpoints import bump
from knotpoints.bump import EpsilonSearchError, mu
from knotpoints.realfn import random_c1_function


def test_mu_raises_when_no_radius_fits(monkeypatch):
    """A zero interval length leaves no mu strictly inside mu < l/2; the
    check raises even under python -O, which strips asserts."""
    f = random_c1_function(0, cells=6, amplitude=0.5, slope_scale=2.0)
    monkeypatch.setattr(bump, "interval_length_l", lambda *args, **kwargs: 0.0)
    with pytest.raises(EpsilonSearchError, match="mu constraints"):
        mu(f, 1, 2, Fraction(1, 4))
