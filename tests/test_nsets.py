"""Exception sets: certified power-of-two brackets, the exact integer sweep
for piecewise-linear functions (against the rational window-max reference in
`oracles`), certified C1 enclosures, and the scale continuity helpers."""

import dataclasses
import functools
import hashlib
import json
import math
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotpoints import nsets
from knotpoints.bump import lemma_epsilon
from knotpoints.intervalsets import FULL, IntervalSet, is_subset
from knotpoints.nsets import (
    BASIC_VARIANTS,
    VARIANTS,
    EnclosureRangeError,
    _ENGINE_SCALE_CAP,
    _cell_ranges,
    _Cells,
    _EnclosureCells,
    _first_cells,
    _grid_cells,
    _grid_step,
    _halves,
    _inherit_window,
    _IntPwl,
    _merge_float_cells,
    _PhiTables,
    _plus_upper_form,
    _RangeMax,
    _segment_grid,
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
    CubicPieces,
    PwlFunction,
    cubic_deriv_eval,
    cubic_eval,
    random_c1_function,
    random_function,
)
from oracles import (
    ExactPwl,
    basic_variant_reference,
    cubic_deriv_range_scalar,
    cubic_range_scalar,
    distance_to_point,
    doubling_range_max,
    float_bits,
    grid_n_set,
    grid_n_set_full,
    hausdorff_set_vs_points,
    int_pwl_reference,
    point_defect_exact,
    promote_pwl,
    pwl,
    sliding_window_max,
    zigzag,
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
    m = sliding_window_max(zigzag(), F(1, 4))
    expect = ExactPwl((F(0), F(1, 4), F(1, 2), F(3, 4)), (F(1, 2), F(1), F(1), F(1, 2)))
    assert m.domain == (F(0), F(3, 4))
    assert set(m.sub(expect).values) == {0}


def test_sliding_window_max_constant():
    m = sliding_window_max(pwl((0, F(2, 7)), (1, F(2, 7))), F(1, 2))
    assert m == ExactPwl((F(0), F(1, 2)), (F(2, 7), F(2, 7)))


@given(st.integers(0, 10 ** 6), st.integers(1, 3))
@settings(max_examples=20, deadline=None)
def test_sliding_window_max_dominates_grid(seed, a):
    """M(x) is the true window max: at grid x it dominates the grid-sampled
    window max and exceeds it by at most one Lipschitz step."""
    f = random_function(seed=seed, depth=5)
    delta = F(1, 2 ** a)
    m = sliding_window_max(f, delta)
    L = float(f.lipschitz_bound())
    f = ExactPwl.of(f)
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
    """Every basic variant equals its reference, and every composite the
    union of the references of its parts."""
    ref = {variant: basic_variant_reference(f, a, variant) for variant in BASIC_VARIANTS}
    for variant in BASIC_VARIANTS:
        assert n_set_exact(f, a, variant) == ref[variant], variant
    for variant, parts in (
        ("hat", ("plus_upper", "minus_lower")),
        ("check", ("plus_lower", "minus_upper")),
        ("full", BASIC_VARIANTS),
    ):
        union = functools.reduce(IntervalSet.union, (ref[p] for p in parts))
        assert n_set_exact(f, a, variant) == union, variant


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
        zigzag(),
        pwl((0, 0), (1, 0)),
        pwl((0, F(2, 7)), (1, F(2, 7))),
        pwl((0, 0), (1, F(5, 3))),
        pwl((0, 1), (1, -3)),
        pwl((0, F(1, 7)), (1, F(1, 7) + 2)),
    ],
    ids=["zigzag", "zero", "constant", "rising", "falling", "slope-two"],
)
@pytest.mark.parametrize("a", [1, 2, 3, 5, 8])
def test_sweep_matches_reference_sparse_breakpoints(f, a):
    """Few breakpoints, so many windows hold no breakpoint inside (the
    empty-deque cells); f of slope 2 gives phi the slopes 1, 0 and below as
    a runs up from 1."""
    _assert_basics_match_reference(f, a)


def test_depth_ten_full_set_is_pinned():
    """The digest of (nums, den) that the per-part sets and their unions
    gave before the runs of all parts made one set: 55 components over a
    2,943-bit denominator."""
    s = n_set_exact(random_function(0, 10), 4, "full")
    assert s.den.bit_length() == 2943
    digest = hashlib.sha256(repr((s.nums, s.den)).encode()).hexdigest()
    assert digest == "cfc209a7af9556edc2faa1d8c85aad013329a2307bf0023997e5b8723906a074"


def test_exact_sets_are_built_without_set_algebra(monkeypatch):
    """Each call builds its one IntervalSet from the runs of its parts: no
    union of part sets, and no reflection of a finished set."""

    def forbidden(*args):
        raise AssertionError("set algebra on the exact path")

    monkeypatch.setattr(IntervalSet, "union", forbidden)
    monkeypatch.setattr(IntervalSet, "reflect", forbidden)
    f = random_function(seed=5, depth=5)
    for variant in VARIANTS:
        for a in (1, 3):
            n_set_exact(f, a, variant)


def _thirds_and_fifths(seed: int, dens: tuple[int, ...]) -> PwlFunction:
    """Breakpoints over the given odd denominators, so every scale
    rescales them, and values over 1, 3 or 16, so the values are shared up
    to a = 4 and rescaled past it."""
    rng = random.Random(seed)
    xs = sorted({F(0), F(1)} | {F(rng.randrange(1, q), q) for q in rng.choices(dens, k=7)})
    return PwlFunction(tuple(xs), tuple(F(rng.randrange(-40, 40), rng.choice((1, 3, 16))) for _ in xs))


_INTEGER_FORM_CASES = {
    "depth4": random_function(2, 4),
    "depth3": random_function(6, 3, F(-2, 7)),
    "thirds": _thirds_and_fifths(1, (3, 9)),
    "fifths": _thirds_and_fifths(2, (5, 25)),
}


@pytest.mark.parametrize("name", sorted(_INTEGER_FORM_CASES))
def test_integer_form_equals_the_per_scale_conversion(monkeypatch, name):
    """The form f keeps, rescaled per scale, is the conversion made afresh
    at each scale: shared where 2^a divides the breakpoint denominators
    (a <= 4 for `depth4`, a <= 3 for `depth3`), rescaled past them and at
    every scale of the thirds and fifths.  The exact sets of every variant
    then equal the sets built from the fresh conversion."""
    f = _INTEGER_FORM_CASES[name]
    T0, W0, X0, V0, _ = f.integer_form
    for a in range(1, 11):
        g = _IntPwl.of(f, a)
        assert (g.T is T0, g.W is W0) == (X0 % 2**a == 0, V0 % 2**a == 0)
        assert (list(g.T), list(g.W), g.X, g.V) == int_pwl_reference(f, a)
        assert g.L == math.lcm(*(t1 - t0 for t0, t1 in zip(g.T, g.T[1:])))
    fresh = {(v, a): n_set_exact(f, a, v) for v in VARIANTS for a in range(1, 9)}

    def per_scale(h, a):
        T, W, X, V = int_pwl_reference(h, a)
        return _IntPwl(T, W, X, V, math.lcm(*(t1 - t0 for t0, t1 in zip(T, T[1:]))))

    monkeypatch.setattr(_IntPwl, "of", per_scale)
    for (v, a), s in fresh.items():
        ref = n_set_exact(f, a, v)
        assert (s.nums, s.den) == (ref.nums, ref.den), (v, a)


class _CountedFraction(Fraction):
    """A Fraction that counts the reads of its numerator and denominator."""

    reads = 0

    def as_integer_ratio(self):
        _CountedFraction.reads += 1
        return super().as_integer_ratio()

    @property
    def numerator(self):
        _CountedFraction.reads += 1
        return self._numerator

    @property
    def denominator(self):
        _CountedFraction.reads += 1
        return self._denominator


def test_exact_sets_read_the_fractions_of_f_once(monkeypatch):
    """Eight scales of one f convert its Fractions to integers once."""
    g = random_function(3, 5)
    f = PwlFunction(
        tuple(map(_CountedFraction, g.breakpoints)), tuple(map(_CountedFraction, g.values))
    )
    monkeypatch.setattr(_CountedFraction, "reads", 0)
    for a in range(1, 9):
        n_set_exact(f, a, "full")
    assert _CountedFraction.reads == len(f.breakpoints) + len(f.values)


def test_n_set_exact_rejects_partial_domain():
    """f on [0, 1/2] is refused when it is built, before any exact set."""
    for variant in VARIANTS:
        with pytest.raises(ValueError, match=r"from 0 to 1; got \[0, 1/2\]"):
            n_set_exact(pwl((0, 0), (F(1, 2), 1)), 1, variant)


# -- exact N-sets: frozen examples ------------------------------------------


def test_zero_function_sets_scale_one():
    z = pwl((0, 0), (1, 0))
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
    zz = zigzag()
    assert n_set_exact(zz, 1, "plus_upper") == IntervalSet.from_pairs([(F(1, 2), F(1, 2))])
    assert n_set_exact(zz, 1, "plus_lower") == IntervalSet.from_pairs([(0, F(3, 8))])
    assert n_set_exact(zz, 1, "minus_lower") == IntervalSet.from_pairs([(F(1, 2), F(1, 2))])
    assert n_set_exact(zz, 1, "minus_upper") == IntervalSet.from_pairs([(F(5, 8), 1)])
    full = n_set_exact(zz, 1, "full")
    assert full == IntervalSet.from_pairs(
        [(0, F(3, 8)), (F(1, 2), F(1, 2)), (F(5, 8), 1)]
    )


def test_zigzag_fills_domain_at_scale_two():
    zz = zigzag()
    assert n_set_exact(zz, 2, "plus_upper") == IntervalSet.from_pairs([(0, F(3, 4))])
    assert n_set_exact(zz, 2, "full") == FULL


def test_n_set_exact_rejects_fractional_scale():
    with pytest.raises(ValueError):
        n_set_exact(pwl((0, 0), (1, 0)), F(3, 2))


# -- exact N-sets: structural properties ------------------------------------


@given(
    st.one_of(st.integers(0, 10 ** 6).map(lambda seed: random_function(seed, depth=4)), pwl_non_dyadic()),
    st.integers(1, 3),
    st.sampled_from(BASIC_VARIANTS),
)
@settings(max_examples=40, deadline=None)
def test_symmetry_reductions(f, a, variant):
    """Each variant is the forward-upper set of a transformed function: the
    involutions on the integer form of f agree with `ExactPwl.negate`
    and `reflect`, on dyadic and on non-dyadic (3, 5, 7, 12) data."""
    s = n_set_exact(f, a, variant)
    g = ExactPwl.of(f)
    if variant == "plus_lower":
        g = g.negate()
    elif variant == "minus_lower":
        g = g.reflect()
    elif variant == "minus_upper":
        g = g.reflect().negate()
    other = n_set_exact(PwlFunction(g.breakpoints, g.values), a, "plus_upper")
    if variant.startswith("minus"):
        other = other.reflect()
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
        vec = point_defects_float(ExactPwl.of(f), float(a), variant, xs)
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
    for f in (random_c1_function(seed=7, cells=9, slope_scale=4.0), ExactPwl.of(random_function(7, 4))):
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
    z = pwl((0, 0), (1, 0))
    enc = n_set_enclosure(z, F(43, 25), "plus_upper")
    assert enc.stats.get("shortcut")
    lo, hi = pow2_bounds(F(43, 25))
    assert enc.inner == IntervalSet.from_pairs([(0, 1 - hi)])
    assert enc.outer == IntervalSet.from_pairs([(0, 1 - lo)])


@pytest.mark.parametrize("variant", ["plus_upper", "minus_lower", "full"])
def test_enclosure_pwl_rejects_partial_domain_before_the_shortcut(variant):
    """Slope 4/3 is below a = 3/2, so the shortcut would fill [0, 1-2^-a],
    though f lives on [0, 3/4] only: such an f is refused when it is built."""
    with pytest.raises(ValueError, match=r"from 0 to 1; got \[0, 3/4\]"):
        n_set_enclosure(pwl((0, 0), (F(3, 4), 1)), F(3, 2), variant)


def test_enclosure_pwl_fractional_scale_steep_raises():
    steep = pwl((0, 0), (F(1, 2), 10), (1, 0))
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
    f = C1Function([0.0, 1.0], [0.0, 6000.0], [6000.0, 6000.0])
    with pytest.raises(EnclosureRangeError) as err:
        n_set_enclosure(f, 5000, "plus_upper")
    assert err.value.field == "a"


@pytest.mark.parametrize("a, tol, field", [(1, 1e-7, "tol"), (20, 1e-4, "a")])
def test_enclosure_segment_cap_names_the_binding_parameter(a, tol, field):
    f = C1Function([0.0, 1.0], [0.0, 100.0], [100.0, 100.0])
    with pytest.raises(EnclosureRangeError) as err:
        n_set_enclosure(f, a, "plus_upper", tol)
    assert err.value.field == field


def test_engine_scale_cap_is_the_largest_integer_scale_the_grid_fits():
    """At the cap, the half-window grid of 2^(cap+1) segments fits under
    the segment cap; one scale more is refused, naming a."""
    _grid_step(float(_ENGINE_SCALE_CAP))
    with pytest.raises(EnclosureRangeError) as err:
        _grid_step(float(_ENGINE_SCALE_CAP + 1))
    assert err.value.field == "a"


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


def _exact_bits(x) -> np.ndarray:
    """The bit patterns of float x, the sign of a zero included."""
    return np.asarray(x, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("xmax", [0.75, 0.3, 3 / 7, 0.5 + 2.0 ** -40])
def test_segment_grid_is_the_sorted_union(xmax):
    """The merged grid is the sorted union of the uniform grid, the breaks
    and xmax, also where xmax or a break lands on a grid point or where
    xmax is a break: with breaks 0, 0.3, 3/7, 0.5 and 1 at step 1/20."""
    breaks = np.array([0.0, 0.3, 3 / 7, 0.5, 1.0])
    want = np.union1d(np.union1d(breaks, np.linspace(0.0, 1.0, 21)), [xmax])
    assert np.array_equal(_exact_bits(_segment_grid(breaks, 1 / 20, xmax)), _exact_bits(want))


@pytest.mark.parametrize("xmax", [0.5, 3 / 7, 0.5 + 2.0 ** -40])
def test_segment_pieces_equal_the_break_search(xmax):
    """The piece of every segment, read from where the breaks sit in the
    grid, is the one a search in the breaks finds, held as int32: with a
    break on a point of the uniform grid (0.5), xmax equal to a break (0.5
    and 3/7) and xmax between grid points."""
    breaks = np.array([0.0, 0.3, 3 / 7, 0.5, 1.0])
    coeffs = np.random.default_rng(5).standard_normal((4, 4))
    assert 0.5 in np.linspace(0.0, 1.0, 21)
    for phi in (CubicPieces(breaks, coeffs), _phi_of("cubic", 5, 2.0)):
        tab = _PhiTables(phi, 1 / 20, xmax)
        want = np.clip(
            np.searchsorted(phi.breaks, tab.grid[:-1], side="right") - 1, 0, phi.coeffs.shape[1] - 1
        )
        assert tab.piece.dtype == np.int32 and np.array_equal(tab.piece, want)


def _range_max_inputs():
    """Arrays of lengths 1, 2^k and 2^k +- 1: signed zeros alone, with +-1
    and with -inf, so that ties are everywhere, and normal floats."""
    rng = np.random.default_rng(3)
    pool = np.array([0.0, -0.0, 1.0, -1.0, -np.inf])
    for n in (1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 255, 256, 257):
        for p in (2, 4, 5):
            yield rng.choice(pool[:p], n)
        yield rng.standard_normal(n)


def test_range_max_levels_equal_the_doubling_build():
    """Building writes level 0 only, and a query fills just the levels its
    ranges need.  A batch that mixes levels, empty ranges and i = n gives
    the max of the doubling build's two entries, bit for bit, and the same
    bits when asked again; every level, filled on demand in any order,
    equals the doubling build bit for bit, signed zeros included."""
    _check_range_max_levels()


def test_range_max_levels_filled_in_passes_of_whole_blocks(monkeypatch):
    """The same, with a level filled over many passes: every input fits one
    pass at the default chunk, and a chunk of 4 makes each pass a few
    blocks, or one block once the blocks are wider."""
    monkeypatch.setattr(nsets, "_CHUNK", 4)
    _check_range_max_levels()


def _check_range_max_levels() -> None:
    rng = np.random.default_rng(4)
    for values in _range_max_inputs():
        n = len(values)
        levels = doubling_range_max(values)
        rmq = _RangeMax(values)
        assert rmq.filled == 1

        i = np.append(rng.integers(0, n + 1, 40), [n, n, 0])
        j = np.append(rng.integers(0, n + 1, 40), [n, 0, n])
        want = np.full(len(i), -np.inf)
        k = np.where(j > i, np.log2(np.maximum(j - i, 1)).astype(int), -1)
        for lev in set(k) - {-1}:
            at = k == lev
            want[at] = np.maximum(levels[lev][i[at]], levels[lev][j[at] - (1 << lev)])
        got = rmq.query(i, j)
        assert np.array_equal(_exact_bits(got), _exact_bits(want))
        assert rmq.filled == sum(1 << lev for lev in {0, *k[k >= 0].tolist()})
        assert np.array_equal(got, [values[a:b].max() if b > a else -np.inf for a, b in zip(i, j)])
        assert np.array_equal(_exact_bits(rmq.query(i, j)), _exact_bits(want))

        for lev in rng.permutation(len(levels)):
            w = 1 << int(lev)
            start = np.arange(n - w + 1)
            assert np.array_equal(_exact_bits(rmq.query(start, start + w)), _exact_bits(levels[lev]))
            lo = rmq.start_lo[lev]
            assert np.array_equal(_exact_bits(rmq.flat[lo : lo + n - w + 1]), _exact_bits(levels[lev]))
        assert rmq.filled == (1 << len(levels)) - 1


def _piece_of(phi, x):
    """Coefficients (one column each) and left breaks of the pieces of phi
    that grid segments starting at x lie in, found in phi's own breaks."""
    k = np.clip(np.searchsorted(phi.breaks, x, side="right") - 1, 0, phi.coeffs.shape[1] - 1)
    return phi.coeffs[:, k], phi.breaks[k]


def _slice_max(values: np.ndarray, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """max(values[start:stop]) per entry, -inf where the slice is empty, from
    one masked gather as wide as the longest slice."""
    idx = start[:, None] + np.arange(max(int((stop - start).max(initial=0)), 0))
    got = values[np.minimum(idx, len(values) - 1)]
    return np.where(idx < stop[:, None], got, -np.inf).max(axis=1, initial=-np.inf)


def _scalar_ranges(c, s_lo, s_hi, deriv=False) -> tuple[np.ndarray, np.ndarray]:
    """(min, max) of the cubic, or of its derivative, of each column of c
    over [s_lo, s_hi], one scalar reference call per column."""
    scalar = cubic_deriv_range_scalar if deriv else cubic_range_scalar
    n = c.shape[1]
    s_lo, s_hi = np.broadcast_to(s_lo, n).tolist(), np.broadcast_to(s_hi, n).tolist()
    ref = [scalar(col, lo, hi) for col, lo, hi in zip(c.T.tolist(), s_lo, s_hi)]
    return np.array([m for m, _ in ref], dtype=float), np.array([m for _, m in ref], dtype=float)


def _segment_maxima(tab: _PhiTables, phi, deriv) -> np.ndarray:
    """The reference max over every whole grid segment, from phi's own
    pieces."""
    g = tab.grid
    c, kl = _piece_of(phi, g[:-1])
    return _scalar_ranges(c, g[:-1] - kl, g[1:] - kl, deriv)[1]


def _upper_ref(tab: _PhiTables, phi, lo, hi, deriv=False) -> np.ndarray:
    """Max of phi, or of phi', over each [lo, hi]: segment indices from
    searchsorted, each piece's cubic from phi's breaks, the left and right
    pieces from the scalar reference and the middle from a plain max of
    the reference over whole segments."""
    grid, n_seg = tab.grid, tab.n_seg
    i = np.clip(np.searchsorted(grid, lo, side="right") - 1, 0, n_seg - 1)
    ilast = np.searchsorted(grid, hi, side="right") - 1
    c, kl = _piece_of(phi, grid[i])
    best = _scalar_ranges(c, lo - kl, np.minimum(grid[i + 1], hi) - kl, deriv)[1]
    whole = _segment_maxima(tab, phi, deriv)
    best = np.maximum(best, _slice_max(whole, i + 1, np.minimum(ilast, n_seg)))
    r = np.minimum(ilast, n_seg - 1)
    right = ((i < ilast) & (ilast <= n_seg - 1) & (grid[r] < hi)).nonzero()[0]
    c, kr = _piece_of(phi, grid[r[right]])
    tail = _scalar_ranges(c, grid[r[right]] - kr, hi[right] - kr, deriv)[1]
    best[right] = np.maximum(best[right], tail)
    return best


def _same_bits(x, y) -> bool:
    return np.array_equal(float_bits(x), float_bits(y))


def test_range_bounds_equal_the_one_query_reference():
    """The per-segment tables equal the scalar references on whole
    segments, and range queries equal the one-query reference: queries
    that start on a grid point and end inside its segment, cover whole
    segments, or start and end anywhere."""
    for kind, a in (("cubic", 2.0), ("quadratic", 1.0), ("linear", 2.0)):
        _check_range_bounds(_phi_of(kind, 11, a))


def _check_range_bounds(phi) -> None:
    tab = _PhiTables(phi, 0.01, 0.75)
    g, n = tab.grid, tab.n_seg
    c, kl = _piece_of(phi, g[:-1])
    # the ends of every segment from its own cubic, the ranges phase 1
    # forms from them, and the stored maxima
    ends = (tab.gridvals[:-1], tab.hi_val, tab.lo_der, tab.hi_der(0, n))
    whole = _Cells(g[:-1], g[1:], np.arange(n, dtype=np.int32), *ends)
    stored = (tab.segmax, tab.rmq_dermax.values)
    for deriv, (lo, hi), kept in zip((False, True), _cell_ranges(tab, whole), stored):
        ref_lo, ref_hi = _scalar_ranges(c, g[:-1] - kl, g[1:] - kl, deriv)
        assert _same_bits(lo, ref_lo) and _same_bits(hi, ref_hi) and _same_bits(kept, ref_hi)
    at_end = _scalar_ranges(c, g[1:] - kl, g[1:] - kl)[0]
    assert _same_bits(tab.gridvals, np.append(_scalar_ranges(c, g[:-1] - kl, g[:-1] - kl)[0], at_end[-1]))
    assert _same_bits(tab.hi_val, at_end)
    assert _same_bits(tab.lo_der, _scalar_ranges(c, g[:-1] - kl, g[:-1] - kl, True)[0])
    hi_der = _scalar_ranges(c, g[1:] - kl, g[1:] - kl, True)[0]
    assert _same_bits(tab.hi_der(0, n), hi_der)
    # any run of segments reads the same slopes: runs that end before, at
    # and after a knot end, and the last segment alone
    knot = int(tab.knot_end[0])
    for lo, hi in ((0, knot), (1, knot + 1), (knot, knot + 2), (knot + 1, n), (n - 1, n)):
        assert _same_bits(tab.hi_der(lo, hi), hi_der[lo:hi])

    rng = np.random.default_rng(11)
    i = rng.integers(0, tab.n_seg - 3, 300)
    lo = np.where(i % 3 == 2, g[i] + rng.random(300) * (g[i + 1] - g[i]), g[i])
    hi = np.select(
        [i % 3 == 0, i % 3 == 1],
        [g[i] + rng.random(300) * (g[i + 1] - g[i]), g[i + 1 + i % 2]],
        np.minimum(lo + rng.random(300) * 0.3, 1.0),
    )
    assert _same_bits(tab.range_upper(lo, hi), _upper_ref(tab, phi, lo, hi))
    dmax = tab.upper_at(lo, hi, tab.seg_of(lo), tab.last_at_or_below(hi), deriv=True)
    assert _same_bits(dmax, _upper_ref(tab, phi, lo, hi, deriv=True))


def _by_search(tab: _PhiTables, phi, cells, delta: float) -> dict:
    """Cell fields and ranges the way a fresh search computes them: `after`
    from searchsorted, phi from CubicPieces.eval_vec, the window from the
    one-query reference, and every value and range from the scalar
    references on the cubic of the cell's segment and the cell's own
    ends."""
    u, v, seg = cells.u, cells.v, cells.seg
    grid = tab.grid
    after = np.searchsorted(grid, u + delta, side="right")
    phi_r = phi.eval_vec(np.minimum(u + delta, 1.0))
    w = _slice_max(phi.eval_vec(grid), seg + 1, after)
    c, kl = _piece_of(phi, grid[seg])
    s_u, s_v = u - kl, v - kl
    return {
        "ubw": _upper_ref(tab, phi, v, np.minimum(v + delta, 1.0)),
        "wit": np.maximum(w, phi_r),
        "pu": _scalar_ranges(c, s_u, s_u)[0],
        "pv": _scalar_ranges(c, s_v, s_v)[0],
        "du": _scalar_ranges(c, s_u, s_u, True)[0],
        "dv": _scalar_ranges(c, s_v, s_v, True)[0],
        "ranges": (*_scalar_ranges(c, s_u, s_v), *_scalar_ranges(c, s_u, s_v, True)),
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
    same value and slope ranges, as a fresh search and the scalar
    references on their own ends give, bit for bit.  The halves are the
    engine's, with the enclosure's certificates written in."""
    delta = 2.0 ** -a
    phi = _phi_of(kind, seed, a)
    tab = _PhiTables(phi, min(1e-2, delta / 2.0), 1.0 - delta)
    n = int(np.searchsorted(tab.grid, 1.0 - delta, side="left"))

    def check(cells: _EnclosureCells) -> None:
        ref = _by_search(tab, phi, cells, delta)
        for name in ("ubw", "wit", "pu", "pv", "du", "dv"):
            assert _same_bits(getattr(cells, name), ref[name]), name
        (vmin, vmax), (dmin, dmax) = _cell_ranges(tab, cells)
        for got, want in zip((vmin, vmax, dmin, dmax), ref["ranges"]):
            assert _same_bits(got, want)

    after = np.searchsorted(tab.grid, tab.grid[: n + 1] + delta, side="right")
    first = list(_first_cells(tab, after, delta))
    assert np.array_equal(np.concatenate([c.seg for c in first]), np.arange(n))
    for cells in first:
        check(cells)

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
    ref = _by_search(tab, phi, _EnclosureCells(u, v, seg, *np.zeros((6, 200))), delta)
    cells = _EnclosureCells(u, v, seg, *(ref[k] for k in ("pu", "pv", "du", "dv", "ubw", "wit")))
    for _ in range(3):
        cells = _halves(tab, cells)
        _inherit_window(tab, cells, delta)
        check(cells)


def test_halves_and_take_move_cells_bitwise():
    """Halving then keeping cells moves every field like a reference that
    interleaves the halves field by field with slices and filters them
    with a boolean mask, bit for bit and dtype for dtype: phi and phi' at
    each midpoint from its segment's own cubic, on random enclosure cells
    (signed zeros and infinities among the inherited values) and on the
    plain cells the witness search starts from, with masks that keep by
    indices and one that keeps nearly every cell."""
    phi = _phi_of("cubic", 9, 2.0)
    tab = _PhiTables(phi, 0.01, 0.75)
    g = tab.grid
    rng = np.random.default_rng(9)
    seg = np.sort(rng.integers(0, tab.n_seg, 300)).astype(np.int32)
    lo, hi = g[seg], g[seg + 1]
    t = np.sort(rng.random((300, 2)), axis=1)
    u, v = lo + t[:, 0] * (hi - lo), lo + t[:, 1] * (hi - lo)
    vals = rng.choice([0.0, -0.0, np.inf, -np.inf, 1.5, -2.25], (6, 300))
    random_cells = _EnclosureCells(np.clip(u, lo, hi), np.clip(v, u, hi), seg, *vals)
    start = _grid_cells(tab, np.array([0.05, 0.3]), np.array([0.2, 0.61]))

    for cells in (random_cells, start):
        mid = 0.5 * (cells.u + cells.v)
        c, kl = _piece_of(phi, g[cells.seg])
        at_mid = {"phi": cubic_eval(c, mid - kl), "der": cubic_deriv_eval(c, mid - kl)}
        new_left = {"v": mid, "pv": at_mid["phi"], "dv": at_mid["der"]}
        new_right = {"u": mid, "pu": at_mid["phi"], "du": at_mid["der"]}
        halves = _halves(tab, cells)
        n = 2 * len(mid)
        # half kept and none kept gather by indices; one dropped in 40 by the mask
        for keep in (rng.random(n) < 0.5, np.zeros(n, dtype=bool), np.arange(n) % 40 != 7):
            got = halves.take(keep)
            assert type(got) is type(cells)
            for f in dataclasses.fields(cells):
                parent = getattr(cells, f.name)
                want = np.empty(2 * len(parent), dtype=parent.dtype)
                want[0::2] = new_left.get(f.name, parent)
                want[1::2] = new_right.get(f.name, parent)
                want = want[keep]
                field_got = getattr(got, f.name)
                assert field_got.dtype == want.dtype, f.name
                assert np.array_equal(field_got.view(np.uint8), want.view(np.uint8)), f.name


def test_grid_cells_lie_in_one_segment():
    """Cells are cut at exactly the grid points strictly inside them: a
    whole segment and a cell in one segment stay whole, a cell over several
    segments is cut at each.  The pieces lie in their segments, and their
    end values are the scalar references' on that segment's cubic, bit for
    bit, so their maxima equal the range query's."""
    phi = _phi_of("cubic", 3, 2.0)
    tab = _PhiTables(phi, 0.01, 1.0)
    g = tab.grid
    rand = np.sort(np.random.default_rng(3).uniform(g[30], 1.0, 30))
    u = np.concatenate([[g[5], g[10] + 1e-4, (g[20] + g[21]) / 2], rand[0::2]])
    v = np.concatenate([[g[6], g[14], g[24]], rand[1::2]])
    cells = _grid_cells(tab, u, v)
    want = []
    for lo, hi in zip(u, v):
        pts = [lo, *g[(g > lo) & (g < hi)], hi]
        want += zip(pts, pts[1:])
    assert list(zip(cells.u, cells.v)) == want
    assert np.all((g[cells.seg] <= cells.u) & (cells.v <= g[cells.seg + 1]))
    ref = _by_search(tab, phi, cells, 0.25)
    for name in ("pu", "pv", "du", "dv"):
        assert _same_bits(getattr(cells, name), ref[name]), name
    # inside one segment, the max from the carried values is the search's
    assert _same_bits(_cell_ranges(tab, cells)[0][1], tab.range_upper(cells.u, cells.v))


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
    """A C1 composite, whose parts share f reflected and one segment
    geometry per orientation, is the union of its parts enclosed one call
    at a time, bit for bit: inner, outer and undecided length.  Its cell
    counts add up and its depth is the deepest part's."""
    f = random_c1_function(0, cells=6, amplitude=0.5, slope_scale=2.0)
    parts = {v: n_set_enclosure(f, 1, v, tol=1e-4) for v in BASIC_VARIANTS}
    for variant, names in (
        ("hat", ("plus_upper", "minus_lower")),
        ("check", ("plus_lower", "minus_upper")),
        ("full", BASIC_VARIANTS),
    ):
        whole = n_set_enclosure(f, 1, variant, tol=1e-4)
        union = functools.reduce(NSetEnclosure.union, (parts[v] for v in names))
        assert whole.inner.intervals == union.inner.intervals, variant
        assert whole.outer.intervals == union.outer.intervals, variant
        assert whole.undecided_length == union.undecided_length > 0, variant
        assert whole.stats == union.stats, variant
        for key in ("phase1_cells", "undecided_phase1", "undecided_final", "splits"):
            assert whole.stats[key] == sum(parts[v].stats[key] for v in names)
        assert whole.stats["max_depth"] == max(parts[v].stats["max_depth"] for v in names)


def test_composite_builds_one_segment_grid_per_orientation(monkeypatch):
    """The parts of one orientation hand on their segment geometry, and
    the minus parts share one reflection of f: a composite builds two
    grids and reflects f once, a basic variant one grid and f reflected at
    most once."""
    f = C1Function([0.0, 0.3, 1.0], [0.0, 0.3, 0.0], [1.5, 0.0, -1.5])
    counts = {"grid": 0, "reflect": 0}

    def counted(key, fn):
        def wrapped(*args):
            counts[key] += 1
            return fn(*args)

        return wrapped

    monkeypatch.setattr(nsets, "_segment_grid", counted("grid", nsets._segment_grid))
    monkeypatch.setattr(C1Function, "reflect", counted("reflect", C1Function.reflect))
    want = {"full": (2, 1), "hat": (2, 1), "check": (2, 1), "plus_lower": (1, 0), "minus_upper": (1, 1)}
    for variant, (grids, reflections) in want.items():
        counts.update(grid=0, reflect=0)
        enc = n_set_enclosure(f, 1, variant, tol=1e-3)
        assert "splits" in enc.stats
        assert (counts["grid"], counts["reflect"]) == (grids, reflections), variant


# (phase1_cells, undecided_phase1, max_depth, undecided_final, splits) per corpus key
_REFERENCE_STATS = {
    "0|1|0.0001": (20008, 7, 27, 12043, 12224),
    "3|2|1e-05": (300012, 12, 24, 410, 689),
    # cells double at every level here; the first sets the corpus's peak memory
    "2|1|0.0001": (20008, 6, 27, 313441, 313605),
    "3|1|0.0001": (20008, 10, 27, 276020, 276293),
}
# the key whose traced peak is bounded, and the bound: 16.3 MiB measured,
# most of it the 145,942 cells that the last level of minus_lower splits,
# plus 20%.  That level keeps none of its 291,879 undecided halves
_PEAK_KEY, _PEAK_MIB = "2|1|0.0001", 19.6


def _check_reference(key: str) -> None:
    stats = _REFERENCE_STATS[key]
    ref = json.loads(REFERENCE.read_text())["c1-enclosure"][key]
    seed, a, tol = key.split("|")
    f = random_c1_function(int(seed), cells=6, amplitude=0.5, slope_scale=2.0)
    enc = n_set_enclosure(f, F(a), "full", tol=float(tol))
    blob = f"{enc.inner.intervals}|{enc.outer.intervals}".encode()
    assert hashlib.sha256(blob).hexdigest() == ref
    names = ("phase1_cells", "undecided_phase1", "max_depth", "undecided_final", "splits")
    assert enc.stats == dict(zip(names, stats))


@pytest.mark.parametrize("key", list(_REFERENCE_STATS))
def test_enclosure_output_matches_benchmark_reference(key):
    """The certified intervals are byte-identical to the referenced ones,
    and the bisection counts are the pinned ones.  The key whose cells
    double at every level runs under tracemalloc, and its traced peak stays
    under _PEAK_MIB: a level that held all its halves at once, the cells
    of every level, or a last level that kept its undecided halves would
    pass it."""
    if key != _PEAK_KEY:
        _check_reference(key)
        return
    tracemalloc.start()
    try:
        _check_reference(key)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < _PEAK_MIB * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def test_small_chunks_give_the_same_enclosures_and_eps(monkeypatch):
    """With chunks of 512 cells, every bisection level, phase-1 block and
    range-max fill spans many chunks: the enclosures and the bisection
    counts still match the reference, and the witness search, whose first
    pass ends at its cell cap, certifies the eps of the default size."""
    f = random_c1_function(4, cells=6, amplitude=0.5, slope_scale=2.0)
    eps = lemma_epsilon(f, F(3, 2), F(5, 2))
    monkeypatch.setattr(nsets, "_CHUNK", 512)
    for key in ("0|1|0.0001", "3|2|1e-05"):
        _check_reference(key)
    assert lemma_epsilon(f, F(3, 2), F(5, 2)) == eps


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
