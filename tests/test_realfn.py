"""Function layer: exact piecewise-linear algebra, C1 Hermite splines,
certified cubic-piece bounds, corpus generators, serialization."""

import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotpoints.bump import BumpSpec, make_bump
from knotpoints.intervalsets import FinitePointSet
from knotpoints.realfn import (
    C1Function,
    CubicPieces,
    PwlFunction,
    cubic_deriv_eval,
    cubic_eval,
    function_from_json,
    function_to_json,
    random_c1_function,
    random_function,
)
from oracles import (
    cubic_deriv_range_scalar,
    cubic_extrema_candidates,
    cubic_range_scalar,
    float_bits,
    pieces_range_scalar,
    promote_pwl,
    random_function_reference,
    restrict,
    simplify,
    zigzag,
)

F = Fraction

fractions_01 = st.integers(0, 120).map(lambda k: F(k, 120))
small_fractions = st.integers(-60, 60).map(lambda k: F(k, 30))


@st.composite
def pwl_functions(draw, max_breaks=5):
    n = draw(st.integers(0, max_breaks))
    inner = sorted(set(draw(st.lists(st.integers(1, 119), max_size=n))))
    bks = [F(0)] + [F(k, 120) for k in inner] + [F(1)]
    vals = [draw(small_fractions) for _ in bks]
    return PwlFunction(tuple(bks), tuple(vals))


# -- piecewise linear, exact ------------------------------------------------


def test_pwl_eval_exact():
    f = PwlFunction.from_pairs([(0, 0), (F(1, 2), 1), (1, 0)])
    assert f(F(1, 4)) == F(1, 2)
    assert f(F(1, 2)) == 1
    assert f(F(7, 8)) == F(1, 4)
    with pytest.raises(ValueError):
        f(F(5, 4))


def test_pwl_constructors():
    assert PwlFunction.zero()(F(1, 3)) == 0
    assert PwlFunction.constant(F(2, 3))(F(1, 7)) == F(2, 3)
    z = zigzag()
    assert z(0) == 0 and z(F(1, 2)) == 1 and z(1) == 0
    assert z.lipschitz_bound() == 2


def test_pwl_validation():
    with pytest.raises(ValueError):
        PwlFunction((F(1, 2), F(0)), (F(0), F(0)))  # unsorted breakpoints
    with pytest.raises(ValueError):
        PwlFunction((F(0),), (F(0), F(1)))  # length mismatch


@given(pwl_functions(), pwl_functions(), fractions_01)
def test_pwl_add_sub_pointwise_exact(f, g, x):
    assert f.add(g)(x) == f(x) + g(x)
    assert f.sub(g)(x) == f(x) - g(x)


@given(pwl_functions(), fractions_01)
def test_pwl_scale_negate_linear_exact(f, x):
    assert f.scale(F(3, 7))(x) == F(3, 7) * f(x)
    assert f.negate()(x) == -f(x)
    assert f.add_linear(F(2, 3), F(1, 5))(x) == f(x) + F(2, 3) * x + F(1, 5)
    assert f.reflect()(x) == f(1 - x)


@given(pwl_functions())
def test_pwl_norm_symmetries(f):
    assert f.negate().sup_norm() == f.sup_norm()
    assert f.reflect().sup_norm() == f.sup_norm()
    assert f.sup_norm() == max(abs(f(b)) for b in f.breakpoints)


@given(pwl_functions(), pwl_functions())
def test_pwl_sup_norm_diff_zero_iff_equal(f, g):
    d = f.sup_norm_diff(g)
    merged = sorted(set(f.breakpoints) | set(g.breakpoints))
    agree = all(f(x) == g(x) for x in merged)
    assert (d == 0) == agree
    assert d == max(abs(f(x) - g(x)) for x in merged)


@given(pwl_functions(), fractions_01)
def test_pwl_simplify_preserves_values(f, x):
    assert simplify(f)(x) == f(x)


def test_pwl_restrict():
    z = zigzag()
    r = restrict(z, F(1, 4), F(3, 4))
    assert r.domain == (F(1, 4), F(3, 4))
    assert r(F(1, 4)) == F(1, 2)
    assert r(F(1, 2)) == 1


def test_pwl_slopes_and_lipschitz():
    f = PwlFunction.from_pairs([(0, 0), (F(1, 4), 1), (1, F(1, 2))])
    assert f.slopes() == (F(4), F(-2, 3))
    assert f.lipschitz_bound() == 4
    assert PwlFunction.zero().lipschitz_bound() == 0


# -- C1 splines -------------------------------------------------------------


def test_c1_interpolates_values_and_slopes():
    f = C1Function([0.0, 0.5, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, -2.0])
    assert f.eval(0.5) == pytest.approx(1.0, abs=1e-15)
    assert f.deriv(0.5) == pytest.approx(0.0, abs=1e-12)
    assert f.deriv(0.0) == pytest.approx(1.0, abs=1e-12)
    assert f.deriv(1.0) == pytest.approx(-2.0, abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["knots", "values", "slopes"])
def test_c1_refuses_non_finite_data(field, bad):
    """NaN passes the order test of the knots, so each array is checked for
    finiteness on its own; the object is never built."""
    data = {"knots": [0.0, 0.5, 1.0], "values": [0.0, 1.0, 0.0], "slopes": [1.0, 0.0, -2.0]}
    data[field][1] = bad
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        C1Function(**data)


def test_c1_is_c1_across_knots():
    f = random_c1_function(seed=7, cells=5)
    for k in f.knots[1:-1]:
        left = f.deriv(k - 1e-9)
        right = f.deriv(k + 1e-9)
        assert abs(left - right) < 1e-6


def test_c1_zero_and_linear():
    assert C1Function.zero().sup_norm() == 0.0
    g = C1Function([0.0, 1.0], [-0.5, 1.5], [2.0, 2.0])
    assert g.eval(0.75) == pytest.approx(1.0)
    assert g.deriv_sup_norm() == pytest.approx(2.0)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_c1_algebra_pointwise(seed):
    f = random_c1_function(seed=seed, cells=4)
    g = random_c1_function(seed=seed + 1, cells=3)
    xs = np.linspace(0, 1, 37)
    assert np.allclose(f.add(g).eval(xs), f.eval(xs) + g.eval(xs), atol=1e-12)
    assert np.allclose(f.scale(0.25).eval(xs), 0.25 * f.eval(xs), atol=1e-12)
    assert np.allclose(f.negate().eval(xs), -f.eval(xs), atol=1e-12)
    assert np.allclose(f.reflect().eval(xs), f.eval(1 - xs), atol=1e-12)
    assert np.allclose(
        f.add_linear(0.5, -0.25).eval(xs), f.eval(xs) + 0.5 * xs - 0.25, atol=1e-12
    )


@given(st.integers(0, 10 ** 6))
@settings(max_examples=15, deadline=None)
def test_c1_deriv_sup_norm_vs_finite_differences(seed):
    f = random_c1_function(seed=seed, cells=6)
    xs = np.linspace(0, 1, 10 ** 4 + 1)
    vals = f.eval(xs)
    fd = np.max(np.abs(np.diff(vals))) / (xs[1] - xs[0])
    bound = f.deriv_sup_norm()
    assert fd <= bound * (1 + 1e-9) + 1e-12
    assert bound <= fd + max(1e-6, 1e-6 * bound) + 0.01 * bound + 1e-3


def test_c1_norms_are_cached_and_stable():
    f = random_c1_function(seed=3, cells=5)
    assert f.sup_norm() == f.sup_norm()
    assert f.deriv_sup_norm() == f.deriv_sup_norm()


def test_c1_sup_norm_diff():
    f = random_c1_function(seed=11, cells=4)
    assert f.sup_norm_diff(f) == 0.0
    g = f.add(C1Function([0.0, 1.0], [0.125, 0.125], [0.0, 0.0]))
    assert f.sup_norm_diff(g) == pytest.approx(0.125, rel=1e-9)


# -- certified cubic piece bounds -------------------------------------------


def _part_range(pc: CubicPieces, k, s_lo, s_hi, deriv=False):
    """The kernel's (min, max) over [s_lo, s_hi] of pieces k, every entry a
    candidate, with the end values from the same cubic."""
    ev = cubic_deriv_eval if deriv else cubic_eval
    c, rows = pc.coeffs[:, k], np.arange(len(k))
    return pc.part_range(k, rows, s_lo, s_hi, ev(c, s_lo), ev(c, s_hi), deriv)


@given(st.integers(0, 10 ** 6), st.integers(0, 80), st.integers(1, 80))
@settings(max_examples=40, deadline=None)
def test_cubic_range_bounds_contain_samples(seed, pk, qk):
    """The range kernel over each piece clipped to [p, q] holds the samples
    of that piece and is attained; the sup norm holds every sample."""
    f = random_c1_function(seed=seed, cells=5)
    pc = f.as_cubic_pieces()
    p = pk / 81
    q = min(1.0, p + qk / 81)
    xs = np.linspace(p, q, 200)
    k = np.clip(np.searchsorted(pc.breaks, xs, side="right") - 1, 0, pc.coeffs.shape[1] - 1)
    left = pc.breaks[k]
    lo, hi = _part_range(pc, k, np.maximum(p, left) - left, np.minimum(q, pc.breaks[k + 1]) - left)
    vals = pc.eval_vec(xs)
    assert np.all(vals <= hi + 1e-10)
    assert np.all(vals >= lo - 1e-10)
    # the bounds are attained, not just valid
    assert hi.max() <= np.max(vals) + 1e-3
    assert lo.min() >= np.min(vals) - 1e-3
    assert np.max(np.abs(vals)) <= f.sup_norm() + 1e-12


coefficient = st.one_of(
    st.just(0.0),
    st.integers(-4, 4).map(float),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


@st.composite
def cubic_on_interval(draw):
    """A cubic with c3 = 0 or c2 = 0 now and then, on an interval that may be
    a single point or end exactly at a critical point."""
    c = [draw(coefficient) for _ in range(4)]
    zero = draw(st.sampled_from(["none", "c3", "c2", "both"]))
    if zero in ("c3", "both"):
        c[3] = 0.0
    if zero in ("c2", "both"):
        c[2] = 0.0
    s_lo = draw(st.floats(-2.0, 2.0, allow_nan=False))
    width = draw(st.one_of(st.just(0.0), st.floats(0.0, 4.0, allow_nan=False)))
    s_hi = s_lo + width
    crit = cubic_extrema_candidates(c, -np.inf, np.inf)[2:]
    end = draw(st.sampled_from(["free", "lo_at_root", "hi_at_root"]))
    if crit and end == "lo_at_root":
        s_lo = crit[0]
        s_hi = s_lo + width
    elif crit and end == "hi_at_root":
        s_hi = crit[-1]
        s_lo = s_hi - width
    return c, s_lo, s_hi


@given(st.lists(cubic_on_interval(), min_size=1, max_size=12))
@settings(max_examples=300, deadline=None)
def test_range_kernels_equal_the_scalar_reference_bitwise(rows):
    """The range kernel of CubicPieces, one piece per row on the breaks
    0, 1, ..., n, gives the scalar loop's min and max, bit for bit, on every
    row of a batch.  A leading coefficient near the smallest float puts a
    critical point near 1e281, and the value there overflows to an
    infinity in the kernel and in the loop alike."""
    c = np.array([r[0] for r in rows])
    s_lo = np.array([r[1] for r in rows])
    s_hi = np.array([r[2] for r in rows])
    breaks = np.arange(len(rows) + 1.0)
    every = np.arange(len(rows))
    for deriv, scalar in ((False, cubic_range_scalar), (True, cubic_deriv_range_scalar)):
        with np.errstate(over="ignore"):
            lo, hi = _part_range(CubicPieces(breaks, c.T), every, s_lo, s_hi, deriv)
            ref = [scalar(r[0], r[1], r[2]) for r in rows]
            nlo, nhi = _part_range(CubicPieces(breaks, -c.T), every, s_lo, s_hi, deriv)
        assert np.array_equal(float_bits(lo), float_bits([m for m, _ in ref]))
        assert np.array_equal(float_bits(hi), float_bits([m for _, m in ref]))
        # the min is the max of the negated cubic, negated
        assert np.array_equal(float_bits(lo), float_bits(-nhi))


def _ranges_equal_the_scalar_reference(pc: CubicPieces) -> None:
    """The whole-piece ranges of the pieces, of the cubics and of their
    derivatives, equal the scalar references on each piece, bit for bit."""
    h = np.diff(pc.breaks)
    for deriv, scalar in ((False, cubic_range_scalar), (True, cubic_deriv_range_scalar)):
        ref = [scalar(c, 0.0, w) for c, w in zip(pc.coeffs.T, h)]
        lo, hi = pc.ranges[deriv]
        assert np.array_equal(float_bits(lo), float_bits([m for m, _ in ref]))
        assert np.array_equal(float_bits(hi), float_bits([m for _, m in ref]))


@given(st.integers(0, 10 ** 6), st.integers(1, 30))
@settings(max_examples=60, deadline=None)
def test_pieces_ranges_equal_the_scalar_reference_bitwise(seed, cells):
    """The per-piece ranges equal the scalar references, and sup_norm and
    deriv_sup_norm the cell-by-cell scalar loop over [0, 1], bit for bit:
    on random C^1 functions, on piecewise-linear functions as pieces with
    c2 = c3 = 0, and on built bumps."""
    f = random_c1_function(seed=seed, cells=cells)
    pc = f.as_cubic_pieces()
    _ranges_equal_the_scalar_reference(pc)
    for norm, deriv in ((f.sup_norm, False), (f.deriv_sup_norm, True)):
        lo, hi = pieces_range_scalar(pc, 0.0, 1.0, deriv)
        assert float_bits(norm()) == float_bits(max(abs(lo), abs(hi)))

    pwl = random_function(seed, depth=cells % 7).as_cubic_pieces()
    assert not pwl.coeffs[2:].any()
    _ranges_equal_the_scalar_reference(pwl)

    ks = random.Random(seed).sample(range(1, 16), 4)
    hat, check = (FinitePointSet.of([Fraction(k, 16) for k in half]) for half in (ks[:2], ks[2:]))
    bump = make_bump(BumpSpec(hat, check, Fraction(1, 2), Fraction(1, 100)))
    _ranges_equal_the_scalar_reference(bump.as_cubic_pieces())


def test_sup_norms_keep_no_per_piece_cache_on_f():
    """Reading the sup norms keeps two floats on f: its pieces hold
    neither `critical` nor `ranges` afterwards."""
    f = random_c1_function(seed=3, cells=9)
    norms = f.sup_norm(), f.deriv_sup_norm()
    assert not {"critical", "ranges"} & vars(f.as_cubic_pieces()).keys()
    assert (f.sup_norm(), f.deriv_sup_norm()) == norms


def test_deriv_range_bounds():
    f = random_c1_function(seed=5, cells=5)
    pc = f.as_cubic_pieces()
    lo, hi = pc.ranges[True]
    xs = np.linspace(0.0, 1.0, 400)
    k = np.clip(np.searchsorted(pc.breaks, xs, side="right") - 1, 0, pc.coeffs.shape[1] - 1)
    d = f.deriv(xs)
    assert np.all(d <= hi[k] + 1e-8)
    assert np.all(d >= lo[k] - 1e-8)
    assert np.max(np.abs(d)) <= f.deriv_sup_norm() + 1e-8


def test_pwl_as_cubic_pieces_matches():
    f = zigzag()
    pc = f.as_cubic_pieces()
    xs = np.linspace(0, 1, 101)
    expect = np.minimum(2 * xs, 2 - 2 * xs)
    assert np.allclose(pc.eval_vec(xs), expect, atol=1e-12)


def test_promote_pwl_matches_at_knots():
    """Promotion smooths the corners, so agreement is only at the knots."""
    f = PwlFunction.from_pairs([(0, 0), (F(1, 3), F(1, 2)), (1, F(-1, 4))])
    g = promote_pwl(f)
    for b in f.breakpoints:
        assert float(f(b)) == pytest.approx(g.eval(float(b)), abs=1e-12)
    assert g.sup_norm_diff(promote_pwl(f)) == 0.0
    with pytest.raises(ValueError):
        promote_pwl(restrict(f, F(1, 4), F(3, 4)))


# -- corpus generators ------------------------------------------------------


def test_random_function_deterministic_and_bounded():
    f1 = random_function(seed=42, depth=5)
    f2 = random_function(seed=42, depth=5)
    assert f1 == f2
    assert len(f1.breakpoints) <= 2 ** 5 + 1
    assert f1.domain == (0, 1)


def test_random_function_distinct_seeds_differ():
    assert random_function(seed=1) != random_function(seed=2)


@pytest.mark.parametrize(
    "decay, amplitude",
    [
        (F(3, 5), 1), (F(11, 20), 1), (F(1, 2), 1), (F(2), 1), (F(-2, 7), 1),
        (F(11, 20), F(-7, 3)), (F(11, 20), 0),
    ],
    ids=["3/5", "11/20", "1/2", "2", "-2/7", "amplitude-7/3", "amplitude0"],
)
def test_random_function_matches_the_sort_based_builder(decay, amplitude):
    """The grid-order builder draws the same midpoints in the same order as
    the builder that sorts a dict of grid points at every level; the two
    deepest grids take one seed each to keep the test fast."""
    cases = [(seed, depth) for depth in range(8) for seed in (0, 7)] + [(3, 8), (5, 9)]
    for seed, depth in cases:
        got = random_function(seed, depth, decay, amplitude)
        assert got == random_function_reference(seed, depth, decay, amplitude)
        assert all(type(x) is F for x in got.breakpoints + got.values)


@pytest.mark.parametrize(
    "seed, digest",
    [
        (0, "65e92d0d6f6ec409e871cb9ef792f53c9e89c9a45db480c84a00d66af43330bf"),
        (4, "9fb57b1b382704d321bb0a95ffa7b7c85e42142c74c93d80f7dcea8aed20673c"),
    ],
)
def test_random_function_at_depth_ten_is_pinned(seed, digest):
    """One level past the reference test's deepest grid: the breakpoints
    and values written as "p/q", as the Fraction builder gave them."""
    f = random_function(seed, 10, F(11, 20))
    assert len(f.values) == 1025
    blob = "|".join(map(str, f.breakpoints + f.values)).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


def test_random_c1_function_deterministic():
    f1 = random_c1_function(seed=9, cells=6)
    f2 = random_c1_function(seed=9, cells=6)
    assert f1.sup_norm_diff(f2) == 0.0
    assert random_c1_function(seed=9, cells=6, amplitude=0.25).sup_norm() <= 0.25 + 1e-12


# -- serialization ----------------------------------------------------------


def test_pwl_json_round_trip_exact():
    f = PwlFunction.from_pairs([(0, F(1, 3)), (F(2, 7), F(-1, 9)), (1, 0)])
    d = function_to_json(f)
    assert d["class"] == "pwl"
    g = function_from_json(d)
    assert isinstance(g, PwlFunction)
    assert f.sup_norm_diff(g) == 0
    assert g.breakpoints == f.breakpoints


def test_c1_json_round_trip():
    f = random_c1_function(seed=13, cells=4)
    d = function_to_json(f)
    assert d["class"] == "c1"
    g = function_from_json(d)
    assert isinstance(g, C1Function)
    assert f.sup_norm_diff(g) == 0.0


def test_function_from_json_rejects_unknown_class():
    with pytest.raises(ValueError):
        function_from_json({"class": "fourier", "coeffs": []})
