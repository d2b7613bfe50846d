"""Exception sets of bounded difference quotients at a fixed scale.

For a continuous f on [0,1] and a scale a > 0, write delta = 2^-a.  The four
basic sets collect points where one-sided difference quotients stay tame over
a whole window of length delta:

  plus_upper   x in [0, 1-delta] with f(y)-f(x) <=  a(y-x) for y in [x, x+delta]
  plus_lower   x in [0, 1-delta] with f(y)-f(x) >= -a(y-x) for y in [x, x+delta]
  minus_upper  x in [delta, 1]   with f(y)-f(x) >=  a(y-x) for y in [x-delta, x]
  minus_lower  x in [delta, 1]   with f(y)-f(x) <= -a(y-x) for y in [x-delta, x]

and the composites hat = plus_upper | minus_lower, check = plus_lower |
minus_upper, full = hat | check.  All are closed; a < b gives containment of
the a-set in the b-set variant by variant.

Two computation paths:

* exact (PwlFunction on [0,1], integer a): the membership test compares
  phi = f - a*id with its sliding window maximum.  f is converted once per
  call to integers (breakpoints over one denominator, values over another),
  and the involutions that turn each basic variant into a plus_upper set
  act on that integer form.  One integer event sweep over phi visits the
  cells between consecutive window events; on each cell phi and the window
  end are single lines and the interior breakpoints a constant, so the set
  is read per cell from endpoint signs.  Only crossing points are new
  rationals; nothing is rounded.
* certified enclosure (C1Function, real a > 0): adaptive bisection with
  window bounds from closed-form cubic extrema returns inner/outer interval
  enclosures.  Bounds are evaluated in double precision (no directed
  rounding); certification is exact up to float evaluation error, and cells
  the tests cannot decide go to the outer set only.  Phase 1 classifies the
  grid segments themselves and reads their value and slope ranges from the
  segment tables that also answer the window queries.  Each bisection half
  keeps its segment index and inherits from its parent the window bound or
  the witness and the values of phi and phi' at the end they share, so a
  split evaluates phi and phi' once at the midpoint and phi once at the
  end of the midpoint's window.  The critical points of phi and phi' are
  computed once per cubic piece, and every range is the min or max of
  those values, table entries and the critical values whose root lies
  strictly inside: the floats that `realfn.cubic_range` and
  `realfn.cubic_deriv_range` compute for the C1Function sup norms.

On both paths, and in the float point defects, the involutions act on the
function before its cubic pieces are built: on the integer form of the exact
path, on PwlFunction and on C1Function.  A point defect thus bounds the same
cubic as the enclosure of the same variant.

The scale-continuity helper `continuity_delta(a, b, eps)` returns the explicit
perturbation budget delta = eps*(b-a)/4: whenever |f-g| < delta in sup norm,
every a-variant set of f lies in the open eps-neighborhood of the matching
b-variant set of g.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .intervalsets import EMPTY, IntervalSet, Rat, as_fraction, is_subset
from .realfn import (
    C1Function,
    CubicPieces,
    PwlFunction,
    cubic_critical_points,
    cubic_deriv_eval,
    cubic_deriv_vertex,
    cubic_eval,
    pieces_of,
)

__all__ = [
    "VARIANTS",
    "BASIC_VARIANTS",
    "DomainError",
    "EnclosureRangeError",
    "NSetEnclosure",
    "n_set_exact",
    "n_set_enclosure",
    "point_defects_float",
    "continuity_delta",
    "admissible_eps",
    "pow2_bounds",
    "pow2_gap_bounds",
]

BASIC_VARIANTS = ("plus_upper", "plus_lower", "minus_upper", "minus_lower")
VARIANTS = BASIC_VARIANTS + ("hat", "check", "full")

# the basic variants each composite is the union of
_PARTS = {
    "hat": ("plus_upper", "minus_lower"),
    "check": ("plus_lower", "minus_upper"),
    "full": BASIC_VARIANTS,
}


def _plus_upper_form(f, variant: str):
    """(g, reflected) for a basic variant: its set for f is the plus_upper
    set of g, reflected back when `reflected` is set.  Negating f swaps the
    upper/lower slope bound, reflecting x swaps forward/backward windows:

      plus_lower(f,a)  = plus_upper(-f, a)
      minus_lower(f,a) = reflect(plus_upper(reflect(f), a))
      minus_upper(f,a) = reflect(plus_upper(-reflect(f), a))

    f is anything with `negate` and `reflect`: the integer form of the exact
    path (`_IntPwl`), `PwlFunction` and `C1Function`."""
    if variant == "plus_upper":
        return f, False
    if variant == "plus_lower":
        return f.negate(), False
    if variant == "minus_lower":
        return f.reflect(), True
    return f.reflect().negate(), True  # minus_upper


class EnclosureRangeError(ValueError):
    """A scale or tolerance outside the range the enclosure engine can
    certify; `field` names the parameter ("a" or "tol") to change."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(message)
        self.field = field


class DomainError(ValueError):
    """A piecewise-linear f that does not live on all of [0,1]."""


def _check_unit_domain(f: PwlFunction) -> None:
    lo, hi = f.domain
    if (lo, hi) != (0, 1):
        raise DomainError(f"exception sets need f on the domain [0,1]; got [{lo}, {hi}]")


def _check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


def _as_integer_scale(a: Rat) -> int:
    af = as_fraction(a)
    if af <= 0:
        raise ValueError("scale a must be positive")
    if af.denominator != 1:
        raise ValueError(
            f"exact N-set computation needs an integer scale (2^-a rational); got a={af}"
        )
    return int(af)


# ---------------------------------------------------------------------------
# certified bounds for 2^-a with rational a
# ---------------------------------------------------------------------------


_POW2_PREC = 10**40
_POW2_BITS = 64


@functools.lru_cache(maxsize=1)
def _pow2_root_table() -> tuple[tuple[int, int], ...]:
    """Scaled-integer bounds for 2^(2^-(i+1)), i = 0.._POW2_BITS-1, by repeated
    integer square roots; entry (lo, hi) brackets the value times _POW2_PREC."""
    B = _POW2_PREC
    lo = hi = 2 * B
    table = []
    for _ in range(_POW2_BITS):
        lo = math.isqrt(lo * B)
        s = math.isqrt(hi * B)
        hi = s if s * s == hi * B else s + 1
        table.append((lo, hi))
    return tuple(table)


def _pow2_dyadic(k: int) -> tuple[int, int]:
    """Scaled-integer bounds for 2^(k/2^_POW2_BITS), 0 <= k <= 2^_POW2_BITS."""
    B = _POW2_PREC
    if k >= 1 << _POW2_BITS:
        return 2 * B, 2 * B
    table = _pow2_root_table()
    lo = hi = B
    for j in range(_POW2_BITS):
        if (k >> (_POW2_BITS - 1 - j)) & 1:
            tlo, thi = table[j]
            lo = lo * tlo // B
            hi = hi * thi // B + 1
    return lo, hi


@functools.lru_cache(maxsize=None)
def _pow2_bounds_cached(af: Fraction) -> tuple[Fraction, Fraction]:
    n = math.floor(af)
    base = Fraction(1, 2**n) if n >= 0 else Fraction(2 ** (-n))
    r = af - n
    if r == 0:
        return base, base
    B = _POW2_PREC
    k = (r.numerator << _POW2_BITS) // r.denominator
    plo, _ = _pow2_dyadic(k)
    _, phi = _pow2_dyadic(k + 1)
    # 2^-af = base / 2^r with 2^r in [plo/B, phi/B]
    return base * B / phi, base * B / plo


def pow2_bounds(a: Rat) -> tuple[Fraction, Fraction]:
    """Rational (lower, upper) bounds for 2^-a, exact when a is an integer.

    Fractional exponents are bracketed between dyadic exponents at 2^-64
    resolution, evaluated through a table of repeated certified square roots
    of 2; the enclosure is within relative width ~1e-19.
    """
    return _pow2_bounds_cached(as_fraction(a))


def pow2_gap_bounds(a: Rat, b: Rat) -> tuple[Fraction, Fraction]:
    """Rational (lower, upper) bounds for 2^-a - 2^-b, for 0 < a < b.

    Sound for any rational pair; exact when both scales are integers."""
    af, bf = as_fraction(a), as_fraction(b)
    if not 0 < af < bf:
        raise ValueError("need 0 < a < b")
    lo_a, hi_a = pow2_bounds(af)
    lo_b, hi_b = pow2_bounds(bf)
    return lo_a - hi_b, hi_a - lo_b


def continuity_delta(a: Rat, b: Rat, eps: Rat) -> Fraction:
    """Perturbation budget for scale continuity: |f-g| < delta implies that
    each a-variant set of f lies in B(matching b-variant set of g, eps).

    Requires 0 < a < b and 0 < eps < 2^-a - 2^-b (shrink eps first if needed,
    e.g. with `admissible_eps`).  Returns delta = eps*(b-a)/4, strictly inside
    the admissible range (0, eps*(b-a)/2).
    """
    af, bf, ef = as_fraction(a), as_fraction(b), as_fraction(eps)
    if not 0 < af < bf:
        raise ValueError("need 0 < a < b")
    if ef <= 0:
        raise ValueError("eps must be positive")
    gap_lb, _ = pow2_gap_bounds(af, bf)
    if ef >= gap_lb:
        # certified only below the rational lower bound; exact scales allow
        # the full range
        if af.denominator == 1 and bf.denominator == 1:
            gap = Fraction(1, 2 ** int(af)) - Fraction(1, 2 ** int(bf))
            if ef >= gap:
                raise ValueError(f"eps={ef} not below 2^-a - 2^-b = {gap}")
        else:
            raise ValueError(
                f"cannot certify eps={float(ef):.3g} < 2^-a - 2^-b "
                f"(certified lower bound {float(gap_lb):.3g}); shrink eps"
            )
    return ef * (bf - af) / 4


def admissible_eps(a: Rat, b: Rat, eps: Rat) -> Fraction:
    """Largest certified-admissible eps' <= eps for continuity_delta(a, b, .)."""
    ef = as_fraction(eps)
    gap_lb, _ = pow2_gap_bounds(a, b)
    return min(ef, gap_lb / 2)


# ---------------------------------------------------------------------------
# exact path: one integer event sweep
# ---------------------------------------------------------------------------


def _half_cell(u: int, v: int, gu: int, gv: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """{x in [u, v] : g(x) >= 0} for g linear on the cell with g(u) = gu and
    g(v) = gv, as (lo, hi) with each end a pair (n, d), d > 0, standing for
    n/d in the units of u and v.  A sign change crosses at (v gu - u gv) /
    (gu - gv); an empty half comes back inverted, as (v, u)."""
    if gu >= 0 and gv >= 0:
        return (u, 1), (v, 1)
    if gu < 0 and gv < 0:
        return (v, 1), (u, 1)
    if gu >= 0:
        return (u, 1), (v * gu - u * gv, gu - gv)
    return (u * gv - v * gu, gv - gu), (v, 1)


def _le(p: tuple[int, int], q: tuple[int, int]) -> bool:
    return p[0] * q[1] <= q[0] * p[1]


def _values_at(T: list[int], Z: list[int], S: list[int], pts: list[int]) -> list[int]:
    """phi at increasing integer points of [T[0], T[-1]], by one forward walk
    over the segments: Z[j] + S[j] (p - T[j]) on [T[j], T[j+1]]."""
    out = []
    j, last = 0, len(T) - 2
    for p in pts:
        while j < last and T[j + 1] <= p:
            j += 1
        out.append(Z[j] + S[j] * (p - T[j]))
    return out


class _IntPwl(NamedTuple):
    """A piecewise-linear function on [0,1] in integers: breakpoints T[i]/X
    and values W[i]/V, with V a multiple of X and X a multiple of 2^a for
    the scale a it was built for."""

    T: list[int]
    W: list[int]
    X: int
    V: int

    @staticmethod
    def of(f: PwlFunction, a: int) -> "_IntPwl":
        """f over X = lcm(2^a, breakpoint denominators) and V = lcm(X,
        value denominators)."""
        X = math.lcm(1 << a, *(t.denominator for t in f.breakpoints))
        V = math.lcm(X, *(y.denominator for y in f.values))
        T = [t.numerator * (X // t.denominator) for t in f.breakpoints]
        W = [y.numerator * (V // y.denominator) for y in f.values]
        return _IntPwl(T, W, X, V)

    def negate(self) -> "_IntPwl":
        return _IntPwl(self.T, [-w for w in self.W], self.X, self.V)

    def reflect(self) -> "_IntPwl":
        """x -> f(1-x)."""
        return _IntPwl([self.X - t for t in reversed(self.T)], self.W[::-1], self.X, self.V)


def _plus_upper_exact(g: _IntPwl, a: int) -> IntervalSet:
    """The forward-upper set of g at integer scale a >= 1 in one integer
    event sweep of phi = g - a*x.

    Between consecutive events (breakpoints <= 1 - delta and breakpoints
    shifted left by delta) the window [x, x+delta] of a cell [u, v] sees a
    fixed set of breakpoints, [v, u+delta], whose best value c a monotone
    deque keeps (Lemire's streaming max filter), and phi is one line L0 at x
    and one line L1 at x + delta.  The window max is max(L0, L1, c), so the
    set on the cell is {L0 >= L1} & {L0 >= c}; each half is all, none or one
    side of a sign change.  Since the window holds x, L0 never exceeds the
    max: the slack max - phi is nonnegative by construction.

    Positions are the integers of g over X, and values integers over one
    denominator that makes phi exact at every event and event + delta: V
    times the lcm of the segment widths.  No division rounds: every // below
    divides an lcm by one of its arguments.
    """
    T, X, V = g.T, g.X, g.V
    D = X >> a
    Y = [w - a * t * (V // X) for t, w in zip(T, g.W)]
    L = math.lcm(*(t1 - t0 for t0, t1 in zip(T, T[1:])))
    Z = [y * L for y in Y]
    S = [(y1 - y0) * (L // (t1 - t0)) for t0, t1, y0, y1 in zip(T, T[1:], Y, Y[1:])]

    xmax = X - D
    ev = sorted({t for t in T if t <= xmax} | {t - D for t in T if t >= D})
    at = _values_at(T, Z, S, ev)
    ahead = _values_at(T, Z, S, [e + D for e in ev])

    dq: deque[int] = deque()  # breakpoints in [v, u + D], values decreasing
    add = 0
    runs: list[list[tuple[int, int]]] = []
    m_prev = None
    for i in range(len(ev) - 1):
        u, v = ev[i], ev[i + 1]
        while add < len(T) and T[add] <= u + D:
            while dq and Z[dq[-1]] <= Z[add]:
                dq.pop()
            dq.append(add)
            add += 1
        while dq and T[dq[0]] < v:
            dq.popleft()
        pu, pv, ru, rv = at[i], at[i + 1], ahead[i], ahead[i + 1]
        # with no breakpoint inside the window, min(pu, pv) stands in for c:
        # it changes neither the max nor {L0 >= c}, as L0 >= min(pu, pv)
        c = Z[dq[0]] if dq else min(pu, pv)

        # the window max at u from this cell must match the one at the
        # same point from the cell before
        if m_prev is not None and max(pu, ru, c) != m_prev:
            raise AssertionError("window max envelope mismatch at cell boundary")
        m_prev = max(pv, rv, c)

        lo1, hi1 = _half_cell(u, v, pu - ru, pv - rv)
        lo2, hi2 = _half_cell(u, v, pu - c, pv - c)
        lo = lo2 if _le(lo1, lo2) else lo1
        hi = hi1 if _le(hi1, hi2) else hi2
        if not _le(lo, hi):
            continue
        if runs and _le(lo, runs[-1][1]):
            runs[-1][1] = hi  # lo is where the run before ends
        else:
            runs.append([lo, hi])

    ends = [p for run in runs for p in run]
    den = math.lcm(*(X * d for _, d in ends))
    return IntervalSet([n * (den // (X * d)) for n, d in ends], den)


def n_set_exact(f: PwlFunction, a: Rat, variant: str = "full") -> IntervalSet:
    """Exact exception set for a piecewise-linear f on [0,1] and integer
    scale a; every basic variant is a plus_upper set (`_plus_upper_form`) of
    one integer form of f."""
    if not isinstance(f, PwlFunction):
        raise TypeError("n_set_exact needs a PwlFunction; use n_set_enclosure for C1")
    _check_variant(variant)
    _check_unit_domain(f)
    ai = _as_integer_scale(a)
    g = _IntPwl.of(f, ai)
    sets = []
    for part in _PARTS.get(variant, (variant,)):
        h, refl = _plus_upper_form(g, part)
        s = _plus_upper_exact(h, ai)
        sets.append(s.reflect() if refl else s)
    return functools.reduce(IntervalSet.union, sets)


# ---------------------------------------------------------------------------
# pointwise membership defects
# ---------------------------------------------------------------------------


def point_defects_float(f, a: float, variant: str, xs) -> np.ndarray:
    """Membership defect at an array of points: at most 0 means the point is
    in the variant set, positive quantifies the worst violation, +inf means
    it is outside the variant's domain; composites take the minimum of their
    parts.

    Every basic variant is the forward-upper defect of a transformed function
    at a transformed point, so one segment table per variant serves all the
    queries at once.
    """
    _check_variant(variant)
    xs = np.asarray(xs, dtype=float)
    if variant in _PARTS:
        parts = _PARTS[variant]
        return np.minimum.reduce([point_defects_float(f, a, p, xs) for p in parts])
    af = float(a)
    delta, step = _grid_step(af)
    g, refl = _plus_upper_form(f, variant)
    ts = 1.0 - xs if refl else xs
    phi = pieces_of(g).add_linear(-af)
    tab = _PhiTables(phi, step, 1.0 - delta)
    out = np.full(xs.shape, np.inf, dtype=float)
    tolredge = 1e-12
    ok = (ts >= -tolredge) & (ts <= 1.0 - delta + tolredge)
    if ok.any():
        v = np.clip(ts[ok], 0.0, 1.0)
        out[ok] = tab.window_upper(v, delta) - phi.eval_vec(v)
    return out


# ---------------------------------------------------------------------------
# certified enclosures for C1 functions
# ---------------------------------------------------------------------------


def _merge_stats(a: dict, b: dict) -> dict:
    """Stats of a union: cell counts add up, the depth is the deeper one and
    flags hold when either side sets them."""
    out = dict(a)
    for key, val in b.items():
        if key not in out:
            out[key] = val
        elif key == "max_depth":
            out[key] = max(out[key], val)
        elif isinstance(val, bool):
            out[key] = out[key] or val
        else:
            out[key] += val
    return out


@dataclass(frozen=True)
class NSetEnclosure:
    """Certified bracket: inner is provably inside the true set, the true set
    is provably inside outer.  Both are stored exactly (float endpoints are
    rationals).  undecided_length is the measure of outer minus inner."""

    inner: IntervalSet
    outer: IntervalSet
    tolerance: float
    undecided_length: Fraction
    stats: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if not is_subset(self.inner, self.outer):
            raise ValueError("enclosure inner not contained in outer")

    @staticmethod
    def exact(s: IntervalSet) -> "NSetEnclosure":
        return NSetEnclosure(s, s, 0.0, Fraction(0), {"exact": True})

    def union(self, other: "NSetEnclosure") -> "NSetEnclosure":
        inner = self.inner.union(other.inner)
        outer = self.outer.union(other.outer)
        return NSetEnclosure(
            inner,
            outer,
            max(self.tolerance, other.tolerance),
            outer.measure() - inner.measure(),
            _merge_stats(self.stats, other.stats),
        )

    def reflect(self) -> "NSetEnclosure":
        return NSetEnclosure(
            self.inner.reflect(),
            self.outer.reflect(),
            self.tolerance,
            self.undecided_length,
            dict(self.stats),
        )


class _RangeMax:
    """Sparse table for vectorized range-maximum queries over a float array
    (Bender & Farach-Colton, The LCA problem revisited): level k holds the
    maxima of all windows of length 2^k, and the levels sit end to end in
    one flat array, so a batch of queries is two gathers."""

    def __init__(self, values: np.ndarray):
        n = len(values)
        pow2 = 1 << np.arange(max(n.bit_length(), 1))
        lengths = n - pow2 + 1
        starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        flat = np.empty(int(lengths.sum()))
        flat[:n] = values
        for k in range(1, len(pow2)):
            prev = flat[starts[k - 1] : starts[k - 1] + lengths[k - 1]]
            h, m = pow2[k - 1], lengths[k]
            np.maximum(prev[:m], prev[h : h + m], out=flat[starts[k] : starts[k] + m])
        self.flat = flat
        # [i, j) is covered by the level-k windows starting at i and at
        # j - 2^k, for k = floor(log2(j - i))
        self.level = np.maximum(np.frexp(np.arange(n + 1.0))[1] - 1, 0).astype(np.int8)
        self.start_lo = starts
        self.start_hi = starts - pow2

    def query(self, i: np.ndarray, j: np.ndarray, empty: float = -np.inf) -> np.ndarray:
        """max over [i, j) per entry; empty ranges give `empty`."""
        ok = j > i
        i = np.where(ok, i, 0)
        j = np.where(ok, j, 1)
        k = self.level[j - i]
        res = np.maximum(self.flat[self.start_lo[k] + i], self.flat[self.start_hi[k] + j])
        return np.where(ok, res, empty)


class _PhiTables:
    """Knot-aligned segment grid over [0,1] for phi, with per-segment end
    values and ranges, per-piece critical values, and sparse tables for
    window queries.

    Every knot of phi is a grid point, so segment i lies in one cubic piece,
    `piece[i]`, whose coefficients `pc[:, piece[i]]` act in the local
    coordinate x - kleft[i].  A point x in [grid[i], grid[i+1]) is evaluated
    exactly as `CubicPieces.eval_vec` would, from segment i.

    Segment i keeps phi and phi' at both of its ends from its own cubic:
    `gridvals[i]`, `hi_val[i]`, `lo_der[i]` and `hi_der[i]` (at a knot,
    hi_val[i] and gridvals[i+1] come from different pieces).  Each piece
    keeps the critical points of phi and of phi' and the values there,
    computed once per piece, and `crit_in_seg`/`vertex_in_seg` mark the
    segments that hold one strictly inside.  The range of phi or phi' over
    any part of a segment is then the min or max of its values at the two
    ends and the critical values whose root lies strictly inside: the floats
    `realfn.cubic_range` and `cubic_deriv_range` compute, without evaluating
    anything but the ends.
    """

    def __init__(self, phi: CubicPieces, step: float, xmax: float):
        pts = np.union1d(phi.breaks, np.linspace(0.0, 1.0, int(np.ceil(1.0 / step)) + 1))
        pts = np.union1d(pts, np.array([xmax]))
        self.grid = pts
        self.n_seg = len(pts) - 1
        self.piece = np.clip(
            np.searchsorted(phi.breaks, pts[:-1], side="right") - 1, 0, len(phi.coeffs) - 1
        )
        self.kleft = phi.breaks[self.piece]
        self.pc = np.ascontiguousarray(phi.coeffs.T)
        # a missing root is NaN or infinite and lies strictly inside nothing
        with np.errstate(invalid="ignore", over="ignore"):
            self.roots = cubic_critical_points(self.pc)
            self.crit_vals = tuple(cubic_eval(self.pc, r) for r in self.roots)
            self.vertex = cubic_deriv_vertex(self.pc)
            self.vertex_der = cubic_deriv_eval(self.pc, self.vertex)
        self.s_beg = pts[:-1] - self.kleft
        self.s_end = pts[1:] - self.kleft

        def inside(r):
            rp = r[self.piece]
            return (rp > self.s_beg) & (rp < self.s_end)

        self.crit_in_seg = inside(self.roots[0]) | inside(self.roots[1])
        self.vertex_in_seg = inside(self.vertex)
        c = self.pc[:, self.piece]
        self.hi_val = cubic_eval(c, self.s_end)
        self.gridvals = np.append(cubic_eval(c, self.s_beg), self.hi_val[-1])
        self.lo_der = cubic_deriv_eval(c, self.s_beg)
        self.hi_der = cubic_deriv_eval(c, self.s_end)
        every = np.arange(self.n_seg)
        self.segmin, self.segmax = self.part_range(
            every, self.s_beg, self.s_end, self.gridvals[:-1], self.hi_val
        )
        self.dermin, self.dermax = self.part_range(
            every, self.s_beg, self.s_end, self.lo_der, self.hi_der, deriv=True
        )
        self.rmq_segmax = _RangeMax(self.segmax)
        self.rmq_gridvals = _RangeMax(self.gridvals)

    @functools.cached_property
    def rmq_dermax(self) -> _RangeMax:
        return _RangeMax(self.dermax)

    def last_at_or_below(self, x: np.ndarray) -> np.ndarray:
        """Index of the last grid point at or below x."""
        return np.searchsorted(self.grid, x, side="right") - 1

    def seg_of(self, x: np.ndarray) -> np.ndarray:
        return np.clip(self.last_at_or_below(x), 0, self.n_seg - 1)

    def seg_within(self, x: np.ndarray, seg: np.ndarray) -> np.ndarray:
        """seg_of(x) for x in [grid[seg], grid[seg+1]], without a search."""
        return np.minimum(seg + (x >= self.grid[seg + 1]), self.n_seg - 1)

    def eval_at(self, x: np.ndarray, seg: np.ndarray, deriv: bool = False) -> np.ndarray:
        """phi(x), or phi'(x), for x in segment seg (x = 1 in the last one)."""
        kernel = cubic_deriv_eval if deriv else cubic_eval
        return kernel(self.pc[:, self.piece[seg]], x - self.kleft[seg])

    def part_range(self, seg, s_lo, s_hi, at_lo, at_hi, deriv=False, lower=True):
        """(min, max) of phi, or phi', over [s_lo, s_hi] inside segment seg
        (local coordinates), given its values at both ends; the min is None
        unless `lower`.  Only the segments that hold a critical point are
        looked at: a part of any other segment holds none either."""
        lo = np.minimum(at_lo, at_hi) if lower else None
        hi = np.maximum(at_lo, at_hi)
        flags = self.vertex_in_seg if deriv else self.crit_in_seg
        cand = np.flatnonzero(flags[seg])
        if len(cand):
            p = self.piece[seg[cand]]
            s_lo, s_hi = s_lo[cand], s_hi[cand]
            roots = (self.vertex,) if deriv else self.roots
            vals = (self.vertex_der,) if deriv else self.crit_vals
            for r, val in zip(roots, vals):
                rp = r[p]
                k = np.flatnonzero((rp > s_lo) & (rp < s_hi))
                if len(k):
                    idx, cv = cand[k], val[p[k]]
                    if lower:
                        lo[idx] = np.minimum(lo[idx], cv)
                    hi[idx] = np.maximum(hi[idx], cv)
        return lo, hi

    def window_max(self, left, i_l, ilast, hi, at_hi, deriv=False) -> np.ndarray:
        """Max of phi, or phi', over [lo, hi], given `left`, the max over
        the left piece [lo, min(grid[i_l+1], hi)] in segment i_l =
        seg_of(lo), ilast, the last grid index at or below hi, and at_hi, the
        value at hi in segment min(ilast, n_seg - 1).  The whole segments
        after the left piece come from the sparse table, and the right piece
        [grid[ilast], hi] from its end values and critical values."""
        rmq = self.rmq_dermax if deriv else self.rmq_segmax
        ub = np.maximum(left, rmq.query(i_l + 1, np.minimum(ilast, self.n_seg)))
        ic = np.minimum(ilast, self.n_seg - 1)
        has = np.flatnonzero((ilast > i_l) & (ilast <= self.n_seg - 1) & (self.grid[ic] < hi))
        if len(has):
            idx = ic[has]
            at_lo = self.lo_der[idx] if deriv else self.gridvals[idx]
            s_hi = hi[has] - self.kleft[idx]
            _, val = self.part_range(idx, self.s_beg[idx], s_hi, at_lo, at_hi[has], deriv, False)
            ub[has] = np.maximum(ub[has], val)
        return ub

    def upper_at(self, lo, hi, i_l, ilast, deriv=False) -> np.ndarray:
        """Max over [lo, hi] of phi or phi', given i_l = seg_of(lo) and ilast
        the last grid index at or below hi; lo and hi lie in [0, 1]."""
        left_hi = np.minimum(self.grid[i_l + 1], hi)
        kl = self.kleft[i_l]
        _, left = self.part_range(
            i_l,
            lo - kl,
            left_hi - kl,
            self.eval_at(lo, i_l, deriv),
            self.eval_at(left_hi, i_l, deriv),
            deriv,
            False,
        )
        at_hi = self.eval_at(hi, np.minimum(ilast, self.n_seg - 1), deriv)
        return self.window_max(left, i_l, ilast, hi, at_hi, deriv)

    def range_upper(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Max of phi over [lo, hi] per entry (exact per-segment closed forms)."""
        return self.upper_at(lo, hi, self.seg_of(lo), self.last_at_or_below(hi))

    def deriv_upper(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Max of phi' over [lo, hi] per entry."""
        return self.upper_at(lo, hi, self.seg_of(lo), self.last_at_or_below(hi), deriv=True)

    def window_upper(self, v: np.ndarray, delta: float) -> np.ndarray:
        """Upper bound for max phi over [v, v+delta] (window clipped to 1)."""
        return self.range_upper(v, np.minimum(v + delta, 1.0))


def _interleave(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.empty(2 * len(a), dtype=a.dtype)
    out[0::2], out[1::2] = a, b
    return out


@dataclass
class _Cells:
    """Cells [u, v] of the C1 bisection, each inside grid segment seg, with
    the parts of their certificates that a half can inherit:

      ubw     window bound, max phi over [v, min(v+delta, 1)]
      wit     a value phi attains in [v, u + delta]: the best of phi at the
              grid points after grid[seg] up to u + delta and at
              min(u + delta, 1); phi(v) never beats the cell's own max,
              so it is left out
      pu, pv  phi at u and at v from segment seg's own cubic
      du, dv  phi' at u and at v, likewise
    """

    u: np.ndarray
    v: np.ndarray
    seg: np.ndarray
    ubw: np.ndarray
    wit: np.ndarray
    pu: np.ndarray
    pv: np.ndarray
    du: np.ndarray
    dv: np.ndarray

    def take(self, keep: np.ndarray) -> "_Cells":
        return _Cells(*(getattr(self, f.name)[keep] for f in fields(self)))


def _first_cells(tab: _PhiTables, n: int, delta: float) -> _Cells:
    """The first n grid segments as cells.  Segments are narrower than
    delta, so the window of segment i starts with the whole segment i + 1,
    and its end is the u + delta of segment i + 1: phi there is evaluated
    once for both."""
    grid = tab.grid
    seg = np.arange(n, dtype=np.int32)
    reach = grid[: n + 1] + delta
    # as the grid ends at 1, after - 1 is also the last index <= min(reach, 1)
    after = np.searchsorted(grid, reach, side="right")
    ends = np.minimum(reach, 1.0)
    at_end = tab.eval_at(ends, np.minimum(after - 1, tab.n_seg - 1))
    ubw = tab.window_max(tab.segmax[1 : n + 1], seg + 1, after[1:] - 1, ends[1:], at_end[1:])
    wit = np.maximum(tab.rmq_gridvals.query(seg + 1, after[:n]), at_end[:n])
    return _Cells(
        grid[:n],
        grid[1 : n + 1],
        seg,
        ubw,
        wit,
        tab.gridvals[:n],
        tab.hi_val[:n],
        tab.lo_der[:n],
        tab.hi_der[:n],
    )


def _halves(tab: _PhiTables, cells: _Cells, delta: float) -> tuple[_Cells, _Cells]:
    """The left halves [u, mid] and the right halves [mid, v] of the cells.
    A left half keeps its parent's witness and values at u, a right half
    its parent's window bound and values at v; what is new is phi and phi'
    at mid, phi at min(mid + delta, 1), the left half's window bound and
    the right half's witness."""
    u, v, seg = cells.u, cells.v, cells.seg
    mid = 0.5 * (u + v)
    right = np.minimum(mid + delta, 1.0)
    # the grid ends at 1, so after - 1 is also the last index <= right
    after = np.searchsorted(tab.grid, mid + delta, side="right")
    c = tab.pc[:, tab.piece[seg]]
    s_mid = mid - tab.kleft[seg]
    phi_mid, der_mid = cubic_eval(c, s_mid), cubic_deriv_eval(c, s_mid)
    del c
    phi_right = tab.eval_at(right, np.minimum(after - 1, tab.n_seg - 1))
    # a segment is narrower than delta, so the window [mid, right] of the
    # left half starts with the piece [mid, grid[seg + 1]] ...
    s_end = tab.s_end[seg]
    _, left = tab.part_range(seg, s_mid, s_end, phi_mid, tab.hi_val[seg], lower=False)
    ubw = tab.window_max(left, seg, after - 1, right, phi_right)
    # ... unless mid is the segment's right end (a cell one float wide
    # split there), where the window starts in the next segment
    odd = np.flatnonzero(s_mid >= s_end)
    if len(odd):
        i_l = tab.seg_within(mid[odd], seg[odd])
        ubw[odd] = tab.upper_at(mid[odd], right[odd], i_l, after[odd] - 1)
    wit = np.maximum(tab.rmq_gridvals.query(seg + 1, after), phi_right)
    return (
        _Cells(u, mid, seg, ubw, cells.wit, cells.pu, phi_mid, cells.du, der_mid),
        _Cells(mid, v, seg, cells.ubw, wit, phi_mid, cells.pv, der_mid, cells.dv),
    )


def _cell_ranges(tab: _PhiTables, cells: _Cells):
    """((min, max) of phi, (min, max) of phi') over each cell, from the
    values at its ends and the critical values inside."""
    kl = tab.kleft[cells.seg]
    s_u, s_v = cells.u - kl, cells.v - kl
    return (
        tab.part_range(cells.seg, s_u, s_v, cells.pu, cells.pv),
        tab.part_range(cells.seg, s_u, s_v, cells.du, cells.dv, deriv=True),
    )


def _decide(cells: _Cells, vals, ders) -> tuple[np.ndarray, np.ndarray]:
    """(inside, undecided) masks for the cells, given the (min, max) of phi
    and of phi' over each."""
    (vmin, vmax), (dmin, dmax) = vals, ders
    inside = (dmax <= 0.0) & (cells.ubw <= vmin)
    # a strictly positive slope throughout the cell also rules every point
    # out: phi keeps growing just to the right, inside the window
    outside = (cells.wit > vmax) | (dmin > 0.0)
    return inside, ~inside & ~outside


def _refine(tab: _PhiTables, cells: _Cells, delta: float):
    """Split every cell at its midpoint and certify both halves.  Returns
    the inside halves as (left ends, right ends) and the undecided ones as
    cells, both in the order [u, mid], [mid, v] of their parents, so that
    u, v and every search key stay sorted.  Each field of the undecided
    halves is gathered on its own, to keep the peak memory low."""
    halves = _halves(tab, cells, delta)
    inside, keep = zip(*(_decide(h, *_cell_ranges(tab, h)) for h in halves))
    inside, keep = _interleave(*inside), _interleave(*keep)
    left, right = halves
    in_u = _interleave(left.u, right.u)[inside]
    in_v = _interleave(left.v, right.v)[inside]
    del inside
    out = _Cells(
        *(_interleave(getattr(left, f.name), getattr(right, f.name))[keep] for f in fields(_Cells))
    )
    return (in_u, in_v), out


_MAX_SEGMENTS = 400_000
_WIDTH_FLOOR = 1e-12


def _grid_step(a: float, tol: float = math.inf) -> tuple[float, float]:
    """(delta, step) for a segment grid at scale a: delta = 2^-a and the
    step the smaller of tol and delta/2.  A scale whose half-window
    underflows, or a grid over _MAX_SEGMENTS segments, is out of the
    float-certified range; the error names tol when tol sets the step."""
    delta = 2.0 ** (-a)
    if delta >= 1.0:
        raise ValueError("window 2^-a must be smaller than the domain")
    if delta / 2.0 == 0.0:
        raise EnclosureRangeError("a", f"window 2^-a underflows to zero at a={a}")
    step = min(tol, delta / 2.0)
    if 1.0 / step > _MAX_SEGMENTS:
        raise EnclosureRangeError(
            "tol" if tol <= delta / 2.0 else "a",
            f"segment grid would need {1.0/step:.3g} segments (cap {_MAX_SEGMENTS}); "
            "scale or tolerance out of the float-certified range",
        )
    return delta, step


def _enclosure_plus_upper_c1(
    f: C1Function, a: float, tol: float
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray], dict]:
    """Inside cells and undecided cells, each as (left ends, right ends)
    arrays, for the forward-upper set of a C1 function, via two-phase
    certified bisection."""
    delta, step = _grid_step(a, tol)
    xmax = 1.0 - delta
    phi = f.as_cubic_pieces().add_linear(-a)
    tab = _PhiTables(phi, step, xmax)
    n_cells = int(np.searchsorted(tab.grid, xmax, side="left"))

    # phase 1: the cells are the grid segments, whose ranges the table holds
    cells = _first_cells(tab, n_cells, delta)
    inside, undecided = _decide(
        cells,
        (tab.segmin[:n_cells], tab.segmax[:n_cells]),
        (tab.dermin[:n_cells], tab.dermax[:n_cells]),
    )
    in_u, in_v = [cells.u[inside]], [cells.v[inside]]
    stats = {"phase1_cells": n_cells, "undecided_phase1": int(undecided.sum())}

    cells = cells.take(undecided)
    depth = 0
    while len(cells.u) and depth < 60:
        width = float(np.max(cells.v - cells.u))
        if width <= _WIDTH_FLOOR:
            break
        (iu, iv), cells = _refine(tab, cells, delta)
        in_u.append(iu)
        in_v.append(iv)
        depth += 1

    stats["max_depth"] = depth
    stats["undecided_final"] = len(cells.u)
    return (np.concatenate(in_u), np.concatenate(in_v)), (cells.u, cells.v), stats


def _merge_float_cells(u: np.ndarray, v: np.ndarray) -> IntervalSet:
    """Exact union of the closed float cells [u_i, v_i], clipped to [0,1]."""
    if not len(u):
        return EMPTY
    order = np.lexsort((v, u))
    u, v = u[order], v[order]
    reach = np.maximum.accumulate(v)
    # a component starts at each cell that begins beyond every earlier cell
    starts = np.flatnonzero(np.concatenate(([True], u[1:] > reach[:-1])))
    ends = np.empty(2 * len(starts))
    ends[0::2] = np.maximum(u[starts], 0.0)
    ends[1::2] = np.minimum(reach[np.append(starts[1:] - 1, len(u) - 1)], 1.0)
    # each float is odd * 2^exp exactly; over 2^k, k the largest -exp, the
    # numerators are odd << (exp + k) and 2^k is the canonical denominator
    mant, exp = np.frexp(ends)
    odd = (mant * 2.0**53).astype(np.int64)
    low = np.where(odd != 0, odd & -odd, 1)
    odd //= low
    exp += np.frexp(low.astype(float))[1] - 54
    k = -int(exp[odd != 0].min(initial=0))
    shift = np.maximum(exp + k, 0)
    return IntervalSet([o << s for o, s in zip(odd.tolist(), shift.tolist())], 1 << k)


def _full_domain_enclosure(a: Rat, forward: bool) -> NSetEnclosure:
    lo2a, hi2a = pow2_bounds(a)
    if forward:
        inner = IntervalSet.from_pairs([(0, 1 - hi2a)])
        outer = IntervalSet.from_pairs([(0, 1 - lo2a)])
    else:
        inner = IntervalSet.from_pairs([(hi2a, 1)])
        outer = IntervalSet.from_pairs([(lo2a, 1)])
    return NSetEnclosure(
        inner, outer, 0.0, outer.measure() - inner.measure(), {"shortcut": True}
    )


def n_set_enclosure(f, a: Rat, variant: str = "full", tol: float = 1e-4) -> NSetEnclosure:
    """Certified inner/outer enclosure of the variant set at scale a.

    PwlFunction input with integer a routes to the exact path (inner = outer).
    For C1 input: when the derivative bound is provably at most a, every
    variant fills its whole domain and the enclosure is immediate; otherwise
    the bisection engine runs on the forward-upper reduction, with the same
    two involutions as the exact path mapping the result to other variants.
    """
    _check_variant(variant)
    if not tol > 0:  # also refuses NaN
        raise ValueError("tol must be positive")
    if isinstance(f, PwlFunction):
        _check_unit_domain(f)
        if as_fraction(a).denominator == 1:
            return NSetEnclosure.exact(n_set_exact(f, a, variant))
        if f.lipschitz_bound() <= as_fraction(a):
            # every slope is within the cone, so each part fills its domain
            parts = _PARTS.get(variant, (variant,))
            out = _full_domain_enclosure(a, forward=parts[0].startswith("plus"))
            for p in parts[1:]:
                out = out.union(_full_domain_enclosure(a, forward=p.startswith("plus")))
            return out
        raise EnclosureRangeError(
            "a",
            "piecewise-linear enclosures need an integer scale when the "
            f"slope bound exceeds the scale; got a={as_fraction(a)} with "
            f"slope bound {f.lipschitz_bound()}"
        )
    if not isinstance(f, C1Function):
        raise TypeError("n_set_enclosure needs a PwlFunction or C1Function")
    if variant in _PARTS:
        parts = _PARTS[variant]
        out = n_set_enclosure(f, a, parts[0], tol)
        for p in parts[1:]:
            out = out.union(n_set_enclosure(f, a, p, tol))
        return out

    af = float(as_fraction(a))
    if f.deriv_sup_norm() <= af - 1e-9:
        return _full_domain_enclosure(a, forward=variant.startswith("plus"))

    g, refl = _plus_upper_form(f, variant)
    (in_u, in_v), (und_u, und_v), stats = _enclosure_plus_upper_c1(g, af, tol)
    inner = _merge_float_cells(in_u, in_v)
    outer = _merge_float_cells(np.concatenate([in_u, und_u]), np.concatenate([in_v, und_v]))
    enc = NSetEnclosure(inner, outer, tol, outer.measure() - inner.measure(), stats)
    return enc.reflect() if refl else enc
