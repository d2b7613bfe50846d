"""Exact interval-set layer: construction, metric, balls, finite point sets."""

import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotpoints.intervalsets import (
    EMPTY,
    FULL,
    FinitePointSet,
    IntervalSet,
    as_fraction,
    ball,
    disjoint_gap,
    is_subset,
    open_cover_full,
    pairwise_disjoint,
    prefix_distance,
    subset_within,
    union_of_point_sets,
)
from oracles import (
    FractionPointSet,
    distance_to_point,
    fraction_open_cover_full,
    fraction_pairwise_disjoint,
    fraction_union_of_point_sets,
    grid_hausdorff,
    set_to_json,
)

F = Fraction


def iset(*pairs):
    return IntervalSet.from_pairs(pairs)


# -- strategies -------------------------------------------------------------

def _over(den):
    return st.integers(0, den).map(lambda k: F(k, den))


# Denominators that meet in set operations: a common grid, float endpoints of
# any binary exponent, net points k/(5*2^j), and coprime non-dyadic values,
# so binary operations rescale to large lcms.
fractions_01 = st.one_of(
    _over(240),
    st.floats(0.0, 1.0).map(F),
    st.integers(0, 60).flatmap(lambda j: _over(5 * 2**j)),
    st.sampled_from([3, 7, 11, 13, 49, 101, 7919, 2**31 - 1]).flatmap(_over),
)


@st.composite
def interval_sets(draw, max_components=4):
    n = draw(st.integers(0, max_components))
    pairs = []
    for _ in range(n):
        a = draw(fractions_01)
        b = draw(fractions_01)
        pairs.append((min(a, b), max(a, b)))
    return IntervalSet.from_pairs(pairs)


@st.composite
def nonempty_interval_sets(draw):
    s = draw(interval_sets())
    if s.is_empty:
        a = draw(fractions_01)
        b = draw(fractions_01)
        s = IntervalSet.from_pairs([(min(a, b), max(a, b))])
    return s


@st.composite
def point_sets(draw):
    xs = draw(st.lists(fractions_01, max_size=6))
    return FinitePointSet.of(xs)


# -- construction and normal form ------------------------------------------


def test_from_pairs_merges_overlaps_and_touching():
    s = iset((0, F(1, 4)), (F(1, 8), F(1, 2)), (F(1, 2), F(3, 4)))
    assert s.intervals == ((F(0), F(3, 4)),)
    assert s.n_components() == 1
    assert s.measure() == F(3, 4)


def test_from_pairs_keeps_gaps_and_sorts():
    s = iset((F(1, 2), F(3, 4)), (0, F(1, 4)))
    assert s.intervals == ((F(0), F(1, 4)), (F(1, 2), F(3, 4)))


def test_degenerate_points_allowed():
    s = IntervalSet.points([F(1, 3), F(1, 3), F(2, 3)])
    assert s.intervals == ((F(1, 3), F(1, 3)), (F(2, 3), F(2, 3)))
    assert s.measure() == 0


def test_invalid_intervals_rejected():
    with pytest.raises(ValueError):
        iset((F(1, 2), F(1, 4)))
    with pytest.raises(ValueError):
        iset((F(-1, 4), F(1, 4)))
    with pytest.raises(ValueError):
        iset((F(3, 4), F(5, 4)))


def test_contains_and_distance():
    s = iset((0, F(1, 4)), (F(1, 2), F(3, 4)))
    assert s.contains_point(0)
    assert s.contains_point(F(1, 4))
    assert not s.contains_point(F(3, 8))
    assert distance_to_point(s, F(3, 8)) == F(1, 8)
    assert distance_to_point(s, F(7, 8)) == F(1, 8)
    assert distance_to_point(s, F(1, 10)) == 0
    assert distance_to_point(EMPTY, F(1, 2)) is None


@given(interval_sets(), fractions_01)
def test_distance_matches_componentwise_minimum(s, x):
    d = distance_to_point(s, x)
    if s.is_empty:
        assert d is None
    else:
        brute = min(max(lo - x, x - hi, F(0)) for lo, hi in s.intervals)
        assert d == brute


# -- boolean algebra --------------------------------------------------------


@given(interval_sets(), interval_sets(), fractions_01)
def test_union_intersect_difference_pointwise(a, b, x):
    in_a, in_b = a.contains_point(x), b.contains_point(x)
    assert a.union(b).contains_point(x) == (in_a or in_b)
    assert a.intersect(b).contains_point(x) == (in_a and in_b)
    if a.difference(b).contains_point(x):
        assert in_a
    # difference is the closure of a minus b, so it may keep boundary points
    if in_a and not in_b and not a.difference(b).contains_point(x):
        assert distance_to_point(b, x) == 0


def test_complement_in_I():
    s = iset((F(1, 4), F(1, 2)))
    assert s.complement_closure().intervals == ((F(0), F(1, 4)), (F(1, 2), F(1)))
    assert FULL.complement_closure().is_empty
    assert EMPTY.complement_closure() == FULL


def test_equal_values_built_by_different_routes():
    routes = [
        IntervalSet.from_pairs([(0.25, 0.5), (0.75, 1.0)]),
        iset((F(1, 4), F(1, 2)), (F(3, 4), 1)),
        iset((F(1, 4), F(3, 8))).union(iset((F(5, 16), F(1, 2)), (F(3, 4), 1))),
        iset((F(1, 5), F(1, 2)), (F(3, 4), 1)).intersect(iset((F(1, 4), 1))),
        iset((0, F(1, 4)), (F(1, 2), F(3, 4))).reflect(),
        IntervalSet.from_json_dict({"intervals": [["1/4", "2/4"], ["6/8", "1"]]}),
    ]
    first = routes[0]
    for s in routes[1:]:
        assert s == first
        assert hash(s) == hash(first)
        assert str(s) == str(first)
        assert s.intervals == first.intervals
        assert set_to_json(s) == set_to_json(first)
    assert first.den == 4 and first.nums == (1, 2, 3, 4)


def test_reflect():
    s = iset((0, F(1, 4)))
    assert s.reflect().intervals == ((F(3, 4), F(1)),)
    assert s.reflect().reflect() == s


# -- Hausdorff metric -------------------------------------------------------


def test_hausdorff_conventions():
    k = iset((0, F(1, 4)))
    assert k.hausdorff(EMPTY) == 1
    assert EMPTY.hausdorff(k) == 1
    assert EMPTY.hausdorff(EMPTY) == 0
    assert k.hausdorff(k) == 0


def test_hausdorff_shifted_intervals():
    a = iset((0, F(1, 2)))
    b = iset((F(1, 4), F(3, 4)))
    assert a.hausdorff(b) == F(1, 4)
    c = IntervalSet.points([F(0), F(1)])
    assert c.hausdorff(FULL) == F(1, 2)


@given(nonempty_interval_sets(), nonempty_interval_sets())
@settings(max_examples=60)
def test_hausdorff_symmetry_and_identity(a, b):
    d = a.hausdorff(b)
    assert d == b.hausdorff(a)
    assert d >= 0
    assert (d == 0) == (a == b)


@given(nonempty_interval_sets(), nonempty_interval_sets(), nonempty_interval_sets())
@settings(max_examples=60)
def test_hausdorff_triangle(a, b, c):
    assert a.hausdorff(c) <= a.hausdorff(b) + b.hausdorff(c)


@given(nonempty_interval_sets(), nonempty_interval_sets())
@settings(max_examples=40)
def test_hausdorff_matches_grid_scan(a, b):
    exact = float(a.hausdorff(b))
    approx = grid_hausdorff(a, b, step=1e-4)
    assert abs(exact - approx) <= 1e-4


@given(nonempty_interval_sets(), nonempty_interval_sets())
@settings(max_examples=80)
def test_directed_sup_matches_brute_force(a, b):
    """The one-sided sup distance against a dense rational scan."""
    sup = a._directed_sup(b)
    cands = []
    for lo, hi in a.intervals:
        k = 8
        cands.extend(lo + (hi - lo) * F(t, k) for t in range(k + 1))
    brute = max(distance_to_point(b, x) for x in cands)
    assert sup >= brute
    # candidate endpoints and gap midpoints achieve the sup, so brute force
    # on a fine grid can undershoot by at most the grid spacing
    assert sup <= brute + max((hi - lo) for lo, hi in a.intervals) / 8


# -- balls and inclusion checks ---------------------------------------------


def test_ball_dilation():
    s = iset((F(1, 4), F(1, 2)))
    assert ball(s, F(1, 8)).intervals == ((F(1, 8), F(5, 8)),)
    assert ball(s, 0) == s
    assert ball(EMPTY, F(1, 2)).is_empty
    # clipped at the ambient interval
    assert ball(iset((0, F(1, 16))), F(1, 8)).intervals == ((F(0), F(3, 16)),)


@given(interval_sets(), fractions_01, fractions_01)
@settings(max_examples=60)
def test_ball_monotone_in_radius(s, r1, r2):
    lo, hi = min(r1, r2), max(r1, r2)
    assert is_subset(ball(s, lo), ball(s, hi))


@given(interval_sets(), interval_sets(), fractions_01)
@settings(max_examples=60)
def test_ball_distributes_over_union(a, b, r):
    assert ball(a.union(b), r) == ball(a, r).union(ball(b, r))


def test_subset_within_strictness():
    inner = iset((F(1, 4), F(1, 2)))
    outer = iset((F(1, 4), F(1, 2)))
    ok, margin = subset_within(inner, outer, F(1, 100))
    assert ok and margin == F(1, 100)
    # touching the closed boundary of the dilation is not inside the open ball
    shifted = iset((F(1, 4) + F(1, 100), F(1, 2) + F(1, 100)))
    ok, margin = subset_within(shifted, outer, F(1, 100))
    assert not ok and margin == 0


def test_subset_within_empty_conventions():
    ok, margin = subset_within(EMPTY, iset((0, F(1, 2))), F(1, 8))
    assert ok and margin == F(1, 8)
    ok, _ = subset_within(iset((0, F(1, 2))), EMPTY, F(1, 8))
    assert not ok


@given(nonempty_interval_sets(), nonempty_interval_sets(), st.integers(1, 40))
@settings(max_examples=60)
def test_subset_within_openness(inner, outer, rk):
    """If the inclusion holds with margin eps, it survives any perturbation
    of both sets below eps/2 in Hausdorff distance."""
    r = F(rk, 40)
    ok, margin = subset_within(inner, outer, r)
    if not ok or margin <= 0:
        return
    shift = margin / 3
    inner2 = ball(inner, shift)
    outer2 = ball(outer, shift)  # Hausdorff distance exactly <= shift < eps/2
    ok2, _ = subset_within(inner2, outer2, r)
    assert ok2


def test_disjoint_gap():
    a = iset((0, F(1, 4)))
    b = iset((F(1, 2), F(3, 4)))
    ok, gap = disjoint_gap(a, b)
    assert ok and gap == F(1, 4)
    ok, gap = disjoint_gap(a, iset((F(1, 8), F(3, 8))))
    assert not ok
    ok, gap = disjoint_gap(a, EMPTY)
    assert ok and gap is None


def test_prefix_distance():
    K = [iset((0, F(1, 4))), iset((F(1, 2), F(3, 4)))]
    L = [iset((0, F(1, 4))), iset((F(1, 2), F(7, 8)))]
    assert prefix_distance(K, L, 1) == 0
    assert prefix_distance(K, L, 2) == F(1, 8)


# -- finite point sets ------------------------------------------------------


def test_point_set_of_sorts_and_dedupes():
    p = FinitePointSet.of([F(1, 2), F(1, 4), F(1, 2)])
    assert p.points == (F(1, 4), F(1, 2))
    assert len(p) == 2


def test_point_set_sorted_input_fast_path():
    xs = [F(k, 10) for k in range(11)]
    assert FinitePointSet.of(xs).points == FinitePointSet.of(list(reversed(xs))).points


def test_point_set_rejects_outside_unit_interval():
    with pytest.raises(ValueError):
        FinitePointSet.of([F(-1, 10)])
    with pytest.raises(ValueError):
        FinitePointSet.of([F(11, 10)])


def test_min_gap():
    assert FinitePointSet.of([F(1, 4), F(3, 8), F(1, 2)]).min_gap() == F(1, 8)
    assert FinitePointSet.of([F(1, 4)]).min_gap() is None
    assert FinitePointSet.of([]).min_gap() is None


@given(st.lists(fractions_01, max_size=8), st.lists(fractions_01, max_size=8))
def test_point_set_union_merge(xs, ys):
    a, b = FinitePointSet.of(xs), FinitePointSet.of(ys)
    assert a.union(b).points == tuple(sorted(set(xs) | set(ys)))


@given(st.lists(st.lists(fractions_01, max_size=5), max_size=4))
def test_union_of_point_sets_matches_pairwise(sets):
    ps = [FinitePointSet.of(xs) for xs in sets]
    out = union_of_point_sets(ps)
    brute = set()
    for xs in sets:
        brute |= set(xs)
    assert out.points == tuple(sorted(brute))


def test_pairwise_disjoint():
    a = FinitePointSet.of([F(1, 4)])
    b = FinitePointSet.of([F(1, 2)])
    assert pairwise_disjoint([a, b])
    assert not pairwise_disjoint([a, a])


def test_as_interval_set_degenerate_components():
    p = FinitePointSet.of([F(1, 4), F(1, 2)])
    s = p.as_interval_set()
    assert s.intervals == ((F(1, 4), F(1, 4)), (F(1, 2), F(1, 2)))
    assert s is p.as_interval_set()  # cached on the instance


def test_open_cover_full_strict():
    # radius exactly half the worst gap leaves the midpoint uncovered
    p = FinitePointSet.of([F(1, 4), F(3, 4)])
    assert not open_cover_full(p, F(1, 4))
    assert open_cover_full(p, F(1, 4) + F(1, 100))
    assert not open_cover_full(FinitePointSet.of([]), F(1, 2))


# -- point sets against the Fraction reference -----------------------------


def _spellings(x):
    """x as a Fraction, its str, and its int or float when those are exact."""
    forms = [x, str(x)]
    if x.denominator == 1:
        forms.append(int(x))
    if float(x) == x:
        forms.append(float(x))
    return st.sampled_from(forms)


point_inputs = st.lists(fractions_01.flatmap(_spellings), max_size=8).flatmap(
    lambda xs: st.permutations(xs + xs[: len(xs) // 2])  # unsorted, with repeats
)


def _json_spellings(x):
    """Strings Fraction reads as x: the canonical one and others."""
    n, d = x.numerator, x.denominator
    forms = [str(x), f"{3 * n}/{3 * d}", f" {x} ", f"+{x}", f"{n}/{d}"]
    if float(x) == x:
        forms.append(repr(float(x)))
    return st.sampled_from(forms)


def _outcome(build):
    """The points build() returns, or the type and message of its error."""
    try:
        return build().points
    except Exception as e:  # compared with the reference's outcome
        return type(e), str(e)


@given(point_inputs)
@settings(max_examples=50)
def test_point_set_of_matches_the_reference(xs):
    p, ref = FinitePointSet.of(xs), FractionPointSet.of(xs)
    assert p.points == ref.points and list(p) == list(ref) and len(p) == len(ref)
    assert p.den == math.lcm(*(x.denominator for x in ref.points))
    assert p.nums == tuple(x * p.den for x in ref.points)
    assert hash(p) == hash(ref)
    assert p.floats() == [float(x) for x in ref.points]  # bitwise
    assert p.to_json_list() == ref.to_json_list()
    assert p.as_interval_set() == ref.as_interval_set()
    assert p.min_gap() == ref.min_gap()


@given(st.lists(fractions_01.flatmap(_json_spellings), max_size=8))
@settings(max_examples=50)
def test_point_set_from_json_list_matches_the_reference(items):
    p = FinitePointSet.from_json_list(items)
    assert p.points == FractionPointSet.from_json_list(items).points


@pytest.mark.parametrize(
    "items",
    [["1/0"], ["abc"], [""], ["1/"], ["/2"], ["-1/2"], ["3/2"], ["1/2", "5/4"], ["٣/٤"], ["1_0/2_0"], [0.25, 1]],
)
def test_point_set_odd_inputs_match_the_reference(items):
    """Errors and non-canonical spellings: the same points or the same error."""
    for build in ("of", "from_json_list"):
        got = _outcome(lambda: getattr(FinitePointSet, build)(items))
        assert got == _outcome(lambda: getattr(FractionPointSet, build)(items))


@given(point_inputs, point_inputs, point_inputs, fractions_01)
@settings(max_examples=50)
def test_point_set_operations_match_the_reference(xs, ys, zs, r):
    a, b, c = (FinitePointSet.of(v) for v in (xs, ys, zs))
    ra, rb, rc = (FractionPointSet.of(v) for v in (xs, ys, zs))
    assert a.union(b).points == ra.union(rb).points
    assert a.intersection(b).points == tuple(sorted(set(ra.points) & set(rb.points)))
    assert union_of_point_sets([a, b, c]).points == fraction_union_of_point_sets([ra, rb, rc]).points
    assert union_of_point_sets([]).points == ()
    assert pairwise_disjoint([a, b, c]) == fraction_pairwise_disjoint([ra, rb, rc])
    assert pairwise_disjoint([a, a]) == (a.is_empty)
    for s, rs in ((a, ra), (b, rb)):
        pts = rs.points
        pairs = list(zip(pts, pts[1:]))
        radii = [r]  # and the boundary cases: the end gaps, half the widest gap
        if pts:
            radii += [pts[0], 1 - pts[-1]]
        if pairs:
            radii.append(max(v - u for u, v in pairs) / 2)
        for rr in radii:
            assert open_cover_full(s, rr) == fraction_open_cover_full(rs, rr)
    assert (a == b) == (ra == rb)
    assert (a.union(b) == b.union(a)) and hash(a.union(b)) == hash(rb.union(ra))


@given(point_inputs, st.integers(1, 30))
@settings(max_examples=50)
def test_point_sets_equal_in_value_are_equal(xs, k):
    """The same points reached by different routes: raw inputs, Fractions,
    JSON strings, an unreduced denominator, unions of parts and of
    singletons."""
    p = FinitePointSet.of(xs)
    ref = FractionPointSet.of(xs).points
    routes = [
        FinitePointSet.of(ref),
        FinitePointSet.of(reversed(ref)),
        FinitePointSet.from_json_list(p.to_json_list()),
        FinitePointSet([x * k for x in p.nums], p.den * k),
        FinitePointSet.from_ratios([(x.numerator * k, x.denominator * k) for x in reversed(ref)]),
        pickle.loads(pickle.dumps(p)),
        FinitePointSet.of(ref[0::2]).union(FinitePointSet.of(ref[1::2])),
        union_of_point_sets([FinitePointSet.of([x]) for x in ref]),
    ]
    for q in routes:
        assert q == p and hash(q) == hash(p) and (q.nums, q.den) == (p.nums, p.den)
    if F(1, 7) not in ref:
        assert p != FinitePointSet.of([*ref, F(1, 7)])
    with pytest.raises(ValueError):
        FinitePointSet((1, 1), 2)
    with pytest.raises(ValueError):
        FinitePointSet((0, 3), 2)


def test_sets_are_immutable_and_pickle_by_value():
    s = iset((0, F(1, 3)), (F(1, 2), F(2, 3)))
    p = FinitePointSet.of([F(1, 3), F(1, 2)])
    for x in (s, p):
        with pytest.raises(AttributeError, match=f"{type(x).__name__} is immutable"):
            x.den = 1
        y = pickle.loads(pickle.dumps(x))
        assert type(y) is type(x) and y == x and (y.nums, y.den) == (x.nums, x.den)
    assert p.as_interval_set() == IntervalSet.points(p.points)
    assert s != p and p != s


# -- serialization ----------------------------------------------------------


def test_interval_set_json_round_trip():
    s = iset((0, F(1, 3)), (F(1, 2), F(2, 3)))
    d = set_to_json(s)
    assert all(isinstance(x, str) for pair in d["intervals"] for x in pair)
    assert IntervalSet.from_json_dict(d) == s


def test_point_set_json_round_trip():
    p = FinitePointSet.of([F(1, 7), F(6, 7)])
    items = p.to_json_list()
    assert items == ["1/7", "6/7"]
    assert FinitePointSet.from_json_list(items) == p


def test_as_fraction_accepts_strings_ints_fractions():
    assert as_fraction("3/4") == F(3, 4)
    assert as_fraction(1) == 1
    assert as_fraction(F(1, 3)) == F(1, 3)
