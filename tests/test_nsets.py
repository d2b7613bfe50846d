"""Exception sets: certified power-of-two brackets, the exact integer sweep
for piecewise-linear functions (against the rational window-max reference in
`oracles`), certified C1 enclosures, and the scale continuity helpers."""

import hashlib
import json
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotpoints.intervalsets import FULL, IntervalSet, is_subset
from knotpoints.nsets import (
    BASIC_VARIANTS,
    VARIANTS,
    EnclosureRangeError,
    _Cells,
    _cell_ranges,
    _first_cells,
    _halves,
    _merge_float_cells,
    _PhiTables,
    _plus_upper_form,
    NSetEnclosure,
    admissible_eps,
    continuity_delta,
    n_set_enclosure,
    n_set_exact,
    point_defects_float,
    pow2_bounds,
    pow2_gap_bounds,
)
from knotpoints.realfn import (
    C1Function,
    PwlFunction,
    cubic_deriv_range,
    cubic_range,
    random_c1_function,
    random_function,
)
from oracles import (
    basic_variant_reference,
    distance_to_point,
    float_bits,
    grid_n_set,
    grid_n_set_full,
    hausdorff_set_vs_points,
    point_defect_exact,
    promote_pwl,
    sliding_window_max,
)

F = Fraction
REFERENCE = Path(__file__).resolve().parents[1] / "knotbench" / "reference.json"


# -- certified 2^-a brackets ------------------------------------------------


def test_pow2_bounds_exact_for_integers():
    for a in (1, 2, 3, 10):
        lo, hi = pow2_bounds(a)
        assert lo == hi == F(1, 2 ** a)


@given(st.integers(1, 40), st.integers(2, 12))
@settings(max_examples=60)
def test_pow2_bounds_bracket_the_true_value(p, q):
    """lo <= 2^(-p/q) <= hi, checked exactly by raising to the q-th power."""
    a = F(p, q)
    lo, hi = pow2_bounds(a)
    assert 0 < lo <= hi
    assert lo ** q <= F(1, 2 ** p) <= hi ** q
    assert (hi - lo) / lo < Fraction(1, 10 ** 18)


def test_pow2_bounds_whole_exponents_outside_unit_range():
    assert pow2_bounds(0) == (F(1), F(1))
    assert pow2_bounds(-1) == (F(2), F(2))


def test_pow2_gap_bounds_integer_exact():
    lo, hi = pow2_gap_bounds(1, 2)
    assert lo == hi == F(1, 4)


def test_pow2_gap_bounds_fractional_frozen():
    lo, hi = pow2_gap_bounds(1.295, 1.369)
    assert float(lo) == pytest.approx(0.020376652274702457, rel=1e-14)
    assert 0 < hi - lo < Fraction(1, 10 ** 18)


def test_pow2_gap_bounds_requires_order():
    with pytest.raises(ValueError):
        pow2_gap_bounds(2, 1)


def test_mean_value_bound_on_gaps():
    """|2^-a - 2^-b| <= |a-b| log 2 for positive scales."""
    rng = np.random.default_rng(0)
    a = rng.uniform(0.05, 20.0, 2000)
    b = rng.uniform(0.05, 20.0, 2000)
    lhs = np.abs(2.0 ** -a - 2.0 ** -b)
    assert np.all(lhs <= np.abs(a - b) * np.log(2.0) + 1e-12)


# -- scale continuity budget ------------------------------------------------


def test_continuity_delta_example():
    assert continuity_delta(1, 2, F(1, 10)) == F(1, 40)


def test_continuity_delta_rejects_large_eps():
    with pytest.raises(ValueError):
        continuity_delta(1, 2, F(1, 4))
    with pytest.raises(ValueError):
        continuity_delta(1, 2, F(3, 10))


def test_continuity_delta_fractional_scales():
    d = continuity_delta(F(3, 2), F(5, 2), F(1, 10))
    assert d == F(1, 10) * 1 / 4
    with pytest.raises(ValueError):
        continuity_delta(F(3, 2), F(5, 2), F(1, 5))  # above the certified gap


def test_admissible_eps():
    assert admissible_eps(1, 2, F(1, 2)) == F(1, 8)
    assert admissible_eps(1, 2, F(1, 100)) == F(1, 100)


# -- exact sliding-window maximum (the reference in oracles) ----------------


def test_sliding_window_max_zigzag_quarter():
    m = sliding_window_max(PwlFunction.zigzag(), F(1, 4))
    expect = PwlFunction.from_pairs(
        [(0, F(1, 2)), (F(1, 4), 1), (F(1, 2), 1), (F(3, 4), F(1, 2))]
    )
    assert m.domain == (F(0), F(3, 4))
    assert m.sup_norm_diff(expect) == 0


def test_sliding_window_max_constant():
    m = sliding_window_max(PwlFunction.constant(F(2, 7)), F(1, 2))
    assert m.sup_norm_diff(PwlFunction.constant(F(2, 7), 0, F(1, 2))) == 0


@given(st.integers(0, 10 ** 6), st.integers(1, 3))
@settings(max_examples=20, deadline=None)
def test_sliding_window_max_dominates_grid(seed, a):
    """M(x) is the true window max: at grid x it dominates the grid-sampled
    window max and exceeds it by at most one Lipschitz step."""
    f = random_function(seed=seed, depth=5)
    delta = F(1, 2 ** a)
    m = sliding_window_max(f, delta)
    L = float(f.lipschitz_bound())
    step = F(1, 512)
    width = int(delta / step)
    xs = [step * i for i in range(512 - width + 1)]
    for i in range(0, len(xs), 37):
        x = xs[i]
        grid_max = max(f(x + step * t) for t in range(width + 1))
        assert m(x) >= grid_max
        assert float(m(x)) <= float(grid_max) + L * float(step) + 1e-12


# -- exact N-sets: the integer sweep against the rational reference ---------


def _assert_basics_match_reference(f: PwlFunction, a: int) -> None:
    for variant in BASIC_VARIANTS:
        assert n_set_exact(f, a, variant) == basic_variant_reference(f, a, variant), variant


@given(st.integers(0, 10 ** 6), st.integers(0, 6), st.integers(1, 9))
@settings(max_examples=40, deadline=None)
def test_sweep_matches_reference_random_functions(seed, depth, a):
    """Dyadic breakpoints, from a line (depth 0) to 65 breakpoints, at scales
    below and above the depth."""
    _assert_basics_match_reference(random_function(seed=seed, depth=depth), a)


@st.composite
def pwl_non_dyadic(draw):
    """PWL functions on [0,1] whose breakpoints and values have denominators
    3, 5, 7 and 12, so neither the positions nor the values are dyadic."""
    dens = st.sampled_from((3, 5, 7, 12))
    inner = draw(
        st.lists(dens.flatmap(lambda q: st.integers(1, q - 1).map(lambda k: F(k, q))), max_size=8)
    )
    xs = sorted({F(0), F(1), *inner})
    value = st.builds(F, st.integers(-12, 12), dens)
    return PwlFunction(tuple(xs), tuple(draw(value) for _ in xs))


@given(pwl_non_dyadic(), st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_sweep_matches_reference_non_dyadic(f, a):
    _assert_basics_match_reference(f, a)


@pytest.mark.parametrize(
    "f",
    [
        PwlFunction.zigzag(),
        PwlFunction.zero(),
        PwlFunction.constant(F(2, 7)),
        PwlFunction.from_pairs([(0, 0), (1, F(5, 3))]),
        PwlFunction.from_pairs([(0, 1), (1, -3)]),
        PwlFunction.from_pairs([(0, F(1, 7)), (1, F(1, 7) + 2)]),
    ],
    ids=["zigzag", "zero", "constant", "rising", "falling", "slope-two"],
)
@pytest.mark.parametrize("a", [1, 2, 3, 5, 8])
def test_sweep_matches_reference_sparse_breakpoints(f, a):
    """Few breakpoints, so many windows hold no breakpoint inside (the
    empty-deque cells); f of slope 2 gives phi the slopes 1, 0 and below as
    a runs up from 1."""
    _assert_basics_match_reference(f, a)


def test_n_set_exact_rejects_partial_domain():
    f = PwlFunction.from_pairs([(0, 0), (F(1, 2), 1)])
    for variant in VARIANTS:
        with pytest.raises(ValueError, match=r"domain \[0,1\]; got \[0, 1/2\]"):
            n_set_exact(f, 1, variant)


# -- exact N-sets: frozen examples ------------------------------------------


def test_zero_function_sets_scale_one():
    z = PwlFunction.zero()
    assert n_set_exact(z, 1, "plus_upper") == IntervalSet.from_pairs([(0, F(1, 2))])
    assert n_set_exact(z, 1, "plus_lower") == IntervalSet.from_pairs([(0, F(1, 2))])
    assert n_set_exact(z, 1, "minus_upper") == IntervalSet.from_pairs([(F(1, 2), 1)])
    assert n_set_exact(z, 1, "minus_lower") == IntervalSet.from_pairs([(F(1, 2), 1)])
    assert n_set_exact(z, 1, "hat") == FULL
    assert n_set_exact(z, 1, "check") == FULL
    assert n_set_exact(z, 1, "full") == FULL


def test_zigzag_sets_scale_one():
    """Hand-derived: the zigzag has slopes +-2, so at scale 1 the forward
    upper condition only survives where the window sees no rising slope."""
    zz = PwlFunction.zigzag()
    assert n_set_exact(zz, 1, "plus_upper") == IntervalSet.points([F(1, 2)])
    assert n_set_exact(zz, 1, "plus_lower") == IntervalSet.from_pairs([(0, F(3, 8))])
    assert n_set_exact(zz, 1, "minus_lower") == IntervalSet.points([F(1, 2)])
    assert n_set_exact(zz, 1, "minus_upper") == IntervalSet.from_pairs([(F(5, 8), 1)])
    full = n_set_exact(zz, 1, "full")
    assert full == IntervalSet.from_pairs(
        [(0, F(3, 8)), (F(1, 2), F(1, 2)), (F(5, 8), 1)]
    )


def test_zigzag_fills_domain_at_scale_two():
    zz = PwlFunction.zigzag()
    assert n_set_exact(zz, 2, "plus_upper") == IntervalSet.from_pairs([(0, F(3, 4))])
    assert n_set_exact(zz, 2, "full") == FULL


def test_n_set_exact_rejects_fractional_scale():
    with pytest.raises(ValueError):
        n_set_exact(PwlFunction.zero(), F(3, 2))


# -- exact N-sets: structural properties ------------------------------------


@given(
    st.one_of(st.integers(0, 10 ** 6).map(lambda seed: random_function(seed, depth=4)), pwl_non_dyadic()),
    st.integers(1, 3),
    st.sampled_from(BASIC_VARIANTS),
)
@settings(max_examples=40, deadline=None)
def test_symmetry_reductions(f, a, variant):
    """Each variant is the forward-upper set of a transformed function: the
    involutions on the integer form of f agree with `PwlFunction.negate`
    and `reflect`, on dyadic and on non-dyadic (3, 5, 7, 12) data."""
    s = n_set_exact(f, a, variant)
    if variant == "plus_upper":
        other = s
    elif variant == "plus_lower":
        other = n_set_exact(f.negate(), a, "plus_upper")
    elif variant == "minus_lower":
        other = n_set_exact(f.reflect(), a, "plus_upper").reflect()
    else:
        other = n_set_exact(f.reflect().negate(), a, "plus_upper").reflect()
    assert s == other


@given(st.integers(0, 10 ** 6))
@settings(max_examples=20, deadline=None)
def test_scale_monotonicity(seed):
    f = random_function(seed=seed, depth=5)
    for variant in BASIC_VARIANTS + ("full",):
        prev = None
        for a in (1, 2, 3):
            cur = n_set_exact(f, a, variant)
            if prev is not None:
                assert is_subset(prev, cur)
            prev = cur


@given(st.integers(0, 10 ** 6))
@settings(max_examples=20, deadline=None)
def test_boundary_points_satisfy_the_inequality(seed):
    """Closedness: endpoints of every component are themselves members."""
    f = random_function(seed=seed, depth=5)
    a = 1 + seed % 3
    for variant in BASIC_VARIANTS:
        s = n_set_exact(f, a, variant)
        for lo, hi in s.intervals:
            for e in {lo, hi}:
                d = point_defect_exact(f, a, variant, e)
                assert d is not None and d <= 0


def test_composite_variants_are_unions():
    f = random_function(seed=99, depth=5)
    pu, pl = n_set_exact(f, 2, "plus_upper"), n_set_exact(f, 2, "plus_lower")
    mu_, ml = n_set_exact(f, 2, "minus_upper"), n_set_exact(f, 2, "minus_lower")
    assert n_set_exact(f, 2, "hat") == pu.union(ml)
    assert n_set_exact(f, 2, "check") == pl.union(mu_)
    assert n_set_exact(f, 2, "full") == pu.union(pl).union(mu_).union(ml)


@given(st.integers(0, 10 ** 6), st.integers(1, 2))
@settings(max_examples=10, deadline=None)
def test_exact_agrees_with_grid_brute_force(seed, a):
    """Small-battery version of the main oracle comparison."""
    f = random_function(seed=seed, depth=5)
    s = n_set_exact(f, a, "full")
    pts = grid_n_set_full(f, a, step=1e-4)
    assert hausdorff_set_vs_points(s, pts) <= 2e-4


@given(st.integers(0, 10 ** 6), st.sampled_from(BASIC_VARIANTS))
@settings(max_examples=15, deadline=None)
def test_membership_matches_point_defect_sign(seed, variant):
    f = random_function(seed=seed, depth=4)
    a = 1 + seed % 3
    s = n_set_exact(f, a, variant)
    rng = np.random.default_rng(seed)
    for x in rng.uniform(0, 1, 25):
        xf = F(x).limit_denominator(2 ** 30)
        d = point_defect_exact(f, a, variant, xf)
        if d is None:
            assert not s.contains_point(xf)
        else:
            assert s.contains_point(xf) == (d <= 0)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=10, deadline=None)
def test_point_defect_float_parity(seed):
    f = random_function(seed=seed, depth=4)
    a = 1 + seed % 2
    rng = np.random.default_rng(seed + 1)
    xs = rng.uniform(0, 1, 40)
    for variant in BASIC_VARIANTS + ("full",):
        vec = point_defects_float(f, float(a), variant, xs)
        for x, dv in zip(xs, vec):
            de = point_defect_exact(f, a, variant, F(x).limit_denominator(2 ** 40))
            if de is None:
                assert np.isinf(dv)
            else:
                assert dv == pytest.approx(float(de), abs=1e-9)


def test_point_defects_bound_the_plus_upper_form_of_f():
    """Every basic variant's float defect is, bit for bit, the plus_upper
    defect of `_plus_upper_form(f)` at the mapped points: the involutions
    act on f, as for the enclosure, not on its cubic pieces."""
    xs = np.random.default_rng(3).uniform(0.0, 1.0, 200)
    for f in (random_c1_function(seed=7, cells=9, slope_scale=4.0), random_function(7, 4)):
        for variant in ("plus_lower", "minus_upper", "minus_lower"):
            g, refl = _plus_upper_form(f, variant)
            want = point_defects_float(g, 1.5, "plus_upper", 1.0 - xs if refl else xs)
            assert float_bits(point_defects_float(f, 1.5, variant, xs)).tolist() == (
                float_bits(want).tolist()
            ), (type(f).__name__, variant)


@pytest.mark.parametrize("a", [18.0, 3000.0])
def test_point_defects_refuse_scales_off_the_grid(a):
    """A window that underflows, or a grid over the segment cap, is refused
    as the enclosure refuses it."""
    with pytest.raises(EnclosureRangeError) as err:
        point_defects_float(C1Function.zero(), a, "plus_upper", np.array([0.0]))
    assert err.value.field == "a"


# -- certified C1 enclosures ------------------------------------------------


def test_enclosure_exact_for_pwl_integer_scale():
    f = random_function(seed=5, depth=4)
    enc = n_set_enclosure(f, 2, "full")
    assert enc.inner == enc.outer == n_set_exact(f, 2, "full")
    assert enc.undecided_length == 0


def test_enclosure_pwl_fractional_scale_small_slope_shortcut():
    z = PwlFunction.zero()
    enc = n_set_enclosure(z, F(43, 25), "plus_upper")
    assert enc.stats.get("shortcut")
    lo, hi = pow2_bounds(F(43, 25))
    assert enc.inner == IntervalSet.from_pairs([(0, 1 - hi)])
    assert enc.outer == IntervalSet.from_pairs([(0, 1 - lo)])


@pytest.mark.parametrize("variant", ["plus_upper", "minus_lower", "full"])
def test_enclosure_pwl_rejects_partial_domain_before_the_shortcut(variant):
    """Slope 4/3 is below a = 3/2, so the shortcut would fill [0, 1-2^-a],
    though f lives on [0, 3/4] only."""
    f = PwlFunction.from_pairs([(0, 0), (F(3, 4), 1)])
    with pytest.raises(ValueError, match=r"domain \[0,1\]; got \[0, 3/4\]"):
        n_set_enclosure(f, F(3, 2), variant)


def test_enclosure_pwl_fractional_scale_steep_raises():
    steep = PwlFunction.from_pairs([(0, 0), (F(1, 2), 10), (1, 0)])
    with pytest.raises(EnclosureRangeError) as err:
        n_set_enclosure(steep, F(43, 25), "plus_upper")
    assert err.value.field == "a"


def test_enclosure_c1_derivative_shortcut():
    f = random_c1_function(seed=2, cells=4, amplitude=0.1, slope_scale=0.5)
    a = F(int(np.ceil(f.deriv_sup_norm())) + 1)
    for variant in BASIC_VARIANTS:
        enc = n_set_enclosure(f, a, variant)
        assert enc.stats.get("shortcut")
        assert enc.inner == enc.outer


def test_enclosure_underflow_guard():
    f = C1Function.linear(6000.0)
    with pytest.raises(EnclosureRangeError) as err:
        n_set_enclosure(f, 5000, "plus_upper")
    assert err.value.field == "a"


@pytest.mark.parametrize("a, tol, field", [(1, 1e-7, "tol"), (20, 1e-4, "a")])
def test_enclosure_segment_cap_names_the_binding_parameter(a, tol, field):
    f = C1Function.linear(100.0)
    with pytest.raises(EnclosureRangeError) as err:
        n_set_enclosure(f, a, "plus_upper", tol)
    assert err.value.field == field


def _phi_of(kind: str, seed: int, a: float):
    """phi = f - a*x for a cubic, a quadratic (c3 = 0, phi' vanishing at
    the grid point a/2) or a piecewise-linear (c2 = c3 = 0) f."""
    if kind == "cubic":
        f = random_c1_function(seed, cells=7, amplitude=0.5, slope_scale=3.0)
    elif kind == "quadratic":
        f = C1Function([0.0, 0.5, 1.0], [0.0, 0.25, 1.0], [0.0, 1.0, 2.0])  # x^2
    else:
        f = promote_pwl(random_function(seed, 3))
    return f.as_cubic_pieces().add_linear(-a)


def _seg_cubic(phi, x):
    """Coefficients (as one column) and left break of the piece of phi that
    a grid segment starting at x lies in, found in phi's own breaks."""
    k = min(max(int(np.searchsorted(phi.breaks, x, side="right")) - 1, 0), len(phi.coeffs) - 1)
    return phi.coeffs[k][:, None], phi.breaks[k]


def _segment_maxima(tab: _PhiTables, phi, kernel) -> np.ndarray:
    """kernel's max over every whole grid segment, from phi's own pieces."""
    g = tab.grid
    k = np.clip(np.searchsorted(phi.breaks, g[:-1], side="right") - 1, 0, len(phi.coeffs) - 1)
    kl = phi.breaks[k]
    return kernel(phi.coeffs[k].T, g[:-1] - kl, g[1:] - kl)[1]


def _upper_ref(tab: _PhiTables, phi, lo, hi, kernel) -> np.ndarray:
    """Max of phi (kernel cubic_range) or of phi' (cubic_deriv_range) over
    each [lo, hi], one query at a time: segment indices from searchsorted,
    each piece's cubic from phi's breaks, the left and right pieces from the
    kernel and the middle from a plain max of the kernel over whole
    segments."""
    grid, n_seg = tab.grid, tab.n_seg
    whole = _segment_maxima(tab, phi, kernel)
    out = []
    for x, h in zip(lo, hi):
        i = min(max(int(np.searchsorted(grid, x, side="right")) - 1, 0), n_seg - 1)
        ilast = int(np.searchsorted(grid, h, side="right")) - 1
        c, kl = _seg_cubic(phi, grid[i])
        best = kernel(c, [x - kl], [min(grid[i + 1], h) - kl])[1][0]
        if i + 1 < min(ilast, n_seg):
            best = max(best, whole[i + 1 : min(ilast, n_seg)].max())
        if i < ilast <= n_seg - 1 and grid[ilast] < h:
            c, kr = _seg_cubic(phi, grid[ilast])
            best = max(best, kernel(c, [grid[ilast] - kr], [h - kr])[1][0])
        out.append(best)
    return np.array(out)


def _same_bits(x, y) -> bool:
    return np.array_equal(float_bits(x), float_bits(y))


def test_range_bounds_equal_the_one_query_reference():
    """The per-segment tables equal the kernels on whole segments, and range
    queries equal the one-query reference: queries that start on a grid
    point and end inside its segment, cover whole segments, or start and
    end anywhere."""
    for kind, a in (("cubic", 2.0), ("quadratic", 1.0), ("linear", 2.0)):
        _check_range_bounds(_phi_of(kind, 11, a))


def _check_range_bounds(phi) -> None:
    tab = _PhiTables(phi, 0.01, 0.75)
    g = tab.grid
    k = np.clip(np.searchsorted(phi.breaks, g[:-1], side="right") - 1, 0, len(phi.coeffs) - 1)
    c, kl = phi.coeffs[k].T, phi.breaks[k]
    for kernel, lo_name, hi_name in (
        (cubic_range, "segmin", "segmax"),
        (cubic_deriv_range, "dermin", "dermax"),
    ):
        lo, hi = kernel(c, g[:-1] - kl, g[1:] - kl)
        assert _same_bits(getattr(tab, lo_name), lo) and _same_bits(getattr(tab, hi_name), hi)
    at_end = cubic_range(c, g[1:] - kl, g[1:] - kl)[0]
    assert _same_bits(tab.gridvals, np.append(cubic_range(c, g[:-1] - kl, g[:-1] - kl)[0], at_end[-1]))
    assert _same_bits(tab.hi_val, at_end)
    assert _same_bits(tab.lo_der, cubic_deriv_range(c, g[:-1] - kl, g[:-1] - kl)[0])
    assert _same_bits(tab.hi_der, cubic_deriv_range(c, g[1:] - kl, g[1:] - kl)[0])

    rng = np.random.default_rng(11)
    i = rng.integers(0, tab.n_seg - 3, 300)
    lo = np.where(i % 3 == 2, g[i] + rng.random(300) * (g[i + 1] - g[i]), g[i])
    hi = np.select(
        [i % 3 == 0, i % 3 == 1],
        [g[i] + rng.random(300) * (g[i + 1] - g[i]), g[i + 1 + i % 2]],
        np.minimum(lo + rng.random(300) * 0.3, 1.0),
    )
    assert _same_bits(tab.range_upper(lo, hi), _upper_ref(tab, phi, lo, hi, cubic_range))
    assert _same_bits(tab.deriv_upper(lo, hi), _upper_ref(tab, phi, lo, hi, cubic_deriv_range))


def _by_search(tab: _PhiTables, phi, cells: _Cells, delta: float) -> dict:
    """Cell fields and ranges the way a fresh search computes them: `after`
    from searchsorted, phi from CubicPieces.eval_vec, the window from the
    one-query reference, and every value and range from the kernels on the
    cubic of the cell's segment and the cell's own ends."""
    u, v, seg = cells.u, cells.v, cells.seg
    grid = tab.grid
    after = np.searchsorted(grid, u + delta, side="right")
    phi_r = phi.eval_vec(np.minimum(u + delta, 1.0))
    at_grid = phi.eval_vec(grid)
    w = [at_grid[i + 1 : j].max() if j > i + 1 else -np.inf for i, j in zip(seg, after)]
    k = np.clip(np.searchsorted(phi.breaks, grid[seg], side="right") - 1, 0, len(phi.coeffs) - 1)
    c, kl = phi.coeffs[k].T, phi.breaks[k]
    s_u, s_v = u - kl, v - kl
    return {
        "ubw": _upper_ref(tab, phi, v, np.minimum(v + delta, 1.0), cubic_range),
        "wit": np.maximum(w, phi_r),
        "pu": cubic_range(c, s_u, s_u)[0],
        "pv": cubic_range(c, s_v, s_v)[0],
        "du": cubic_deriv_range(c, s_u, s_u)[0],
        "dv": cubic_deriv_range(c, s_v, s_v)[0],
        "ranges": (*cubic_range(c, s_u, s_v), *cubic_deriv_range(c, s_u, s_v)),
    }


@given(
    st.integers(0, 10 ** 6),
    st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    st.sampled_from(["cubic", "cubic", "quadratic", "linear"]),
)
@settings(max_examples=15, deadline=None)
def test_segment_indexed_bounds_equal_the_search_route(seed, a, kind):
    """Phase-1 cells, random cells inside a segment (points, one-float
    cells, whole segments among them) and three generations of their halves
    carry the same window bounds, witnesses and end values, and have the
    same value and slope ranges, as a fresh search and the kernels on their
    own ends give, bit for bit."""
    delta = 2.0 ** -a
    phi = _phi_of(kind, seed, a)
    tab = _PhiTables(phi, min(1e-2, delta / 2.0), 1.0 - delta)
    n = int(np.searchsorted(tab.grid, 1.0 - delta, side="left"))

    def check(cells: _Cells) -> None:
        ref = _by_search(tab, phi, cells, delta)
        for name in ("ubw", "wit", "pu", "pv", "du", "dv"):
            assert _same_bits(getattr(cells, name), ref[name]), name
        (vmin, vmax), (dmin, dmax) = _cell_ranges(tab, cells)
        for got, want in zip((vmin, vmax, dmin, dmax), ref["ranges"]):
            assert _same_bits(got, want)

    check(_first_cells(tab, n, delta))

    rng = np.random.default_rng(seed)
    seg = rng.integers(0, n, 200).astype(np.int32)
    lo, hi = tab.grid[seg], tab.grid[seg + 1]
    t = np.sort(rng.random((200, 2)), axis=1)
    u = np.clip(lo + t[:, 0] * (hi - lo), lo, hi)
    v = np.clip(lo + t[:, 1] * (hi - lo), u, hi)
    u[:20], v[:20] = lo[:20], lo[:20]
    u[20:40], v[20:40] = hi[20:40], hi[20:40]
    u[40:60], v[40:60] = lo[40:60], hi[40:60]
    v[60:80] = np.minimum(np.nextafter(u[60:80], 2.0), hi[60:80])
    u[80:90] = np.nextafter(hi[80:90], 0.0)
    v[80:90] = hi[80:90]
    cells = _Cells(u, v, seg, *np.zeros((6, 200)))
    ref = _by_search(tab, phi, cells, delta)
    cells = _Cells(u, v, seg, ref["ubw"], ref["wit"], ref["pu"], ref["pv"], ref["du"], ref["dv"])
    for _ in range(3):
        halves = _halves(tab, cells, delta)
        for h in halves:
            check(h)
        cells = _Cells(
            *(np.concatenate([getattr(h, f.name) for h in halves]) for f in fields(_Cells))
        )


@given(st.integers(0, 10 ** 6))
@settings(max_examples=8, deadline=None)
def test_enclosure_soundness_against_defect_sampling(seed):
    """inner <= true set <= outer: certified-in points have nonpositive
    defect, points outside outer have positive defect."""
    f = random_c1_function(seed=seed, cells=4, amplitude=0.4, slope_scale=3.0)
    a = 2
    enc = n_set_enclosure(f, a, "plus_upper", tol=1e-4)
    assert is_subset(enc.inner, enc.outer)
    xs = np.linspace(0.0, 1.0 - 2.0 ** -a, 400)
    defects = point_defects_float(f, a, "plus_upper", xs)
    for x, d in zip(xs, defects):
        xf = F(float(x)).limit_denominator(2 ** 40)
        if enc.inner.contains_point(xf) and distance_to_point(enc.inner, xf) == 0:
            assert d <= 1e-7
        if not enc.outer.contains_point(xf) and distance_to_point(enc.outer, xf) > F(1, 10 ** 6):
            assert d > -1e-7


def test_enclosure_union_and_reflect():
    a = NSetEnclosure.exact(IntervalSet.from_pairs([(0, F(1, 4))]))
    b = NSetEnclosure.exact(IntervalSet.from_pairs([(F(1, 2), F(3, 4))]))
    u = a.union(b)
    assert u.inner == IntervalSet.from_pairs([(0, F(1, 4)), (F(1, 2), F(3, 4))])
    r = u.reflect()
    assert r.inner == IntervalSet.from_pairs([(F(1, 4), F(1, 2)), (F(3, 4), 1)])


@given(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), max_size=30))
def test_merge_float_cells_is_the_exact_union(cells):
    """The numpy merge equals the exact union of the closed float cells."""
    u = np.array([min(c) for c in cells], dtype=float)
    v = np.array([max(c) for c in cells], dtype=float)
    assert _merge_float_cells(u, v) == IntervalSet.from_pairs(zip(u.tolist(), v.tolist()))


def test_enclosure_union_merges_stats():
    f = random_c1_function(0, cells=6, amplitude=0.5, slope_scale=2.0)
    parts = [n_set_enclosure(f, 1, v, tol=1e-4).stats for v in BASIC_VARIANTS]
    full = n_set_enclosure(f, 1, "full", tol=1e-4).stats
    for key in ("phase1_cells", "undecided_phase1", "undecided_final"):
        assert full[key] == sum(p[key] for p in parts)
    assert full["max_depth"] == max(p["max_depth"] for p in parts)


# (phase1_cells, undecided_phase1, max_depth, undecided_final) per corpus key
_REFERENCE_STATS = {
    "0|1|0.0001": (20008, 7, 27, 12043),
    "3|2|1e-05": (300012, 12, 24, 410),
    # cells double at every level here; these two set the corpus's peak memory
    "2|1|0.0001": (20008, 6, 27, 313441),
    "3|1|0.0001": (20008, 10, 27, 276020),
}


@pytest.mark.parametrize("key", list(_REFERENCE_STATS))
def test_enclosure_output_matches_benchmark_reference(key):
    """The certified intervals are byte-identical to the referenced ones,
    and the bisection counts are the pinned ones."""
    stats = _REFERENCE_STATS[key]
    ref = json.loads(REFERENCE.read_text())["c1-enclosure"][key]
    seed, a, tol = key.split("|")
    f = random_c1_function(int(seed), cells=6, amplitude=0.5, slope_scale=2.0)
    enc = n_set_enclosure(f, F(a), "full", tol=float(tol))
    blob = f"{enc.inner.intervals}|{enc.outer.intervals}".encode()
    assert hashlib.sha256(blob).hexdigest() == ref
    names = ("phase1_cells", "undecided_phase1", "max_depth", "undecided_final")
    assert enc.stats == dict(zip(names, stats))


def test_enclosure_rejects_bad_inputs():
    with pytest.raises(ValueError):
        n_set_enclosure(C1Function.zero(), 1, "sideways")
    for tol in (0.0, -1e-4, float("nan")):
        with pytest.raises(ValueError, match="tol must be positive"):
            n_set_enclosure(C1Function.zero(), 1, "full", tol=tol)
    wiggly = random_c1_function(0, cells=6, amplitude=0.5, slope_scale=2.0)
    with pytest.raises(ValueError, match="tol must be positive"):
        n_set_enclosure(wiggly, 1, "full", tol=float("nan"))
    with pytest.raises(TypeError):
        n_set_enclosure(lambda x: x, 1, "full")
