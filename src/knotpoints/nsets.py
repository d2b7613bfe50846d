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
  phi = f - a*id with its sliding window maximum.  f is converted to
  integers once (breakpoints over one denominator, values over another,
  kept with f); each call rescales that form to its scale only where 2^a
  does not already divide a denominator, and the involutions that turn
  each basic variant into a plus_upper set act on the integer form.  One
  integer event sweep over phi visits the cells between consecutive window
  events; on each cell phi and the window end are single lines and the
  interior breakpoints a constant, so the set is read per cell from
  endpoint signs.  A cell whose signs leave it wholly
  in or out costs comparisons only; crossing points are the only new
  rationals, and nothing is rounded.  Each sweep returns its runs with
  every end an (n, d) pair; a reflected part maps its runs exactly.  The
  runs of all parts are then sorted and merged on those pairs, only the
  ends that remain are reduced and brought over their lcm, and the call
  builds its one IntervalSet from them: no set algebra on part sets.
* certified enclosure (C1Function, real a > 0): adaptive bisection with
  window bounds from closed-form cubic extrema returns inner/outer interval
  enclosures.  Bounds are evaluated in double precision (no directed
  rounding); certification is exact up to float evaluation error, and cells
  the tests cannot decide go to the outer set only.  Phase 1 classifies the
  grid segments themselves, a block of segments at a time, from the values
  at their ends that the segment tables hold.  The tables evaluate each
  grid point once and keep per segment only what the bisection gathers:
  the grid, the piece (int32) and its left knot, phi at both ends and phi'
  at the start, the root marks, and the max of phi, which is the level 0
  of its range-max table as phi at the grid points is of its own; phi' at
  the knot ends is kept once per piece.  A range-max level is written by the
  first query that needs it, in one linear pass over blocks of the values
  (van Herk and Gil & Werman block maxima); each window query reads one
  level.  Every range of phi or phi' over part of a segment comes from the
  range kernel of the cubic pieces (`CubicPieces.part_range`): the min or
  max of table entries or end values and of the critical values of the
  piece whose root lies strictly inside.  The tables only mark the
  segments that hold a root.

One bisection engine, `_bisect`, refines the enclosure after phase 1 and
runs the witness search of `bump.lemma_epsilon`.  Its cells stay sorted,
each inside one grid segment with phi and phi' at both ends, which a split
evaluates once at the midpoint; each caller brings its test of the halves
and its stop rule.  An enclosure half also inherits its parent's window
bound or witness, so a split there evaluates phi once more, at mid + delta,
in the segment that a search of the grid finds.  Cells move chunk by chunk,
each chunk at most _CHUNK cells held as one (k, n) float array, a row per
field, and its segment indices (`_Cells`): a split repeats every column of
a parent chunk and writes the midpoint values into their rows, the kept
cells are gathered from one index array, and they join the next level's
chunks as the parent chunk is dropped, each step one call for all the
fields.  So the engine's working set is about one level of cells, not two
levels and their halves.  Phase 1 decides each block of segments on views
of the tables, and only the segments it leaves undecided become cells.  The
inside segments of each phase-1 block and the undecided cells of each chunk
are reduced to the components of their union before the sets are merged.  A
level whose halves can no longer be split, since they will all be at the
width floor, keeps none of them: each chunk's undecided halves go to the
components at once.  Every per-segment or per-piece value is gathered with
`ndarray.take`.

The parts of a composite share what does not depend on the sign of f: the
composite reflects f once, and the segment grid with where the pieces of
phi sit on it and where each window ends (`_Geometry`) is built once per
orientation, as plus_upper hands it to plus_lower and minus_upper to
minus_lower (`_Handoff`).

On both paths, and in the float point defects, the involutions act on the
function, never on a derived form: on the exact path on the integer form of
f (`_IntPwl`), the one form of a piecewise-linear f that is negated or
reflected, and on the float path on the C1Function before its cubic pieces
are built.  A point defect thus bounds the same cubic as the enclosure of
the same variant.

The scale-continuity helper `continuity_delta(a, b, eps)` returns the explicit
perturbation budget delta = eps*(b-a)/4: whenever |f-g| < delta in sup norm,
every a-variant set of f lies in the open eps-neighborhood of the matching
b-variant set of g.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .intervalsets import EMPTY, IntervalSet, Rat, as_fraction, is_subset
from .realfn import C1Function, CubicPieces, PwlFunction, cubic_deriv_eval, cubic_eval

__all__ = [
    "VARIANTS",
    "BASIC_VARIANTS",
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


def _plus_upper_form(f, variant: str, reflect=None):
    """(g, reflected) for a basic variant: its set for f is the plus_upper
    set of g, reflected back when `reflected` is set.  Negating f swaps the
    upper/lower slope bound, reflecting x swaps forward/backward windows:

      plus_lower(f,a)  = plus_upper(-f, a)
      minus_lower(f,a) = reflect(plus_upper(reflect(f), a))
      minus_upper(f,a) = reflect(plus_upper(-reflect(f), a))

    f is anything with `negate` and `reflect`: the integer form of the exact
    path (`_IntPwl`) or a `C1Function`.  `reflect`, when
    given, stands in for f.reflect: the parts of a composite share one
    reflection (`_Handoff.reflect`)."""
    if variant == "plus_upper":
        return f, False
    if variant == "plus_lower":
        return f.negate(), False
    g = (f.reflect if reflect is None else reflect)()
    return (g, True) if variant == "minus_lower" else (g.negate(), True)


class EnclosureRangeError(ValueError):
    """A scale or tolerance outside the range the enclosure engine can
    certify; `field` names the parameter ("a" or "tol") to change."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(message)
        self.field = field


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
    # certified only below the rational lower bound, which is the gap
    # itself at integer scales
    gap_lb, _ = pow2_gap_bounds(af, bf)
    if ef >= gap_lb:
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


def _values_at(T: Sequence[int], Z: list[int], pts: list[int]) -> list[int]:
    """phi at points of [T[0], T[-1]]: Z[j] at a breakpoint T[j], and the
    line through the ends of the segment (T[j], T[j+1]) that holds any other
    point; the division is exact when the values carry the lcm of the
    segment widths."""
    out = list(map(dict(zip(T, Z)).get, pts))
    if None in out:
        for i, p in enumerate(pts):
            if out[i] is None:
                j = bisect_right(T, p)
                t0, z0 = T[j - 1], Z[j - 1]
                out[i] = z0 + (Z[j] - z0) // (T[j] - t0) * (p - t0)
    return out


class _IntPwl(NamedTuple):
    """A piecewise-linear function on [0,1] in integers: breakpoints T[i]/X
    and values W[i]/V, with V a multiple of X and X a multiple of 2^a for
    the scale a it was built for; L is the lcm of the widths T[i+1] - T[i],
    which negating and reflecting keep.

    It is the scale-free form that f keeps (`PwlFunction.integer_form`, over
    X0 and V0) rescaled to X = lcm(2^a, X0) and V = lcm(X, V0): T by X/X0
    and W by V/V0, each only when the factor is not 1, and L by X/X0.  A
    function whose denominators already hold 2^a shares its form with every
    such scale, so the form is never changed in place."""

    T: Sequence[int]
    W: Sequence[int]
    X: int
    V: int
    L: int

    @staticmethod
    def of(f: PwlFunction, a: int) -> "_IntPwl":
        T0, W0, X0, V0, L0 = f.integer_form
        X = math.lcm(1 << a, X0)
        V = math.lcm(X, V0)
        s, r = X // X0, V // V0
        T = T0 if s == 1 else tuple(t * s for t in T0)
        W = W0 if r == 1 else tuple(w * r for w in W0)
        return _IntPwl(T, W, X, V, L0 * s)

    def negate(self) -> "_IntPwl":
        return _IntPwl(self.T, [-w for w in self.W], self.X, self.V, self.L)

    def reflect(self) -> "_IntPwl":
        """x -> f(1-x)."""
        return _IntPwl([self.X - t for t in reversed(self.T)], self.W[::-1], self.X, self.V, self.L)


_Run = tuple[tuple[int, int], tuple[int, int]]


def _plus_upper_exact(g: _IntPwl, a: int) -> list[_Run]:
    """The forward-upper set of g at integer scale a >= 1 as its runs
    (lo, hi), sorted, disjoint and non-adjacent; each end is a pair (n, d),
    d > 0, standing for n/(d X).

    One integer event sweep of phi = g - a*x.  Between consecutive events
    (breakpoints <= 1 - delta and breakpoints shifted left by delta) the
    window [x, x+delta] of a cell [u, v] sees a fixed set of breakpoints,
    [v, u+delta], whose best value c a monotone deque keeps (Lemire's
    streaming max filter), and phi is one line L0 at x and one line L1 at
    x + delta.  The window max is max(L0, L1, c), so the set on the cell is
    {L0 >= L1} & {L0 >= c}; each half is all, none or one side of a sign
    change.  Since the window holds x, L0 never exceeds the max: the slack
    max - phi is nonnegative by construction.

    A cell is classified by the signs of L0 - L1 and L0 - c at its two ends
    first: a half negative at both ends leaves the cell out, and a cell
    nonnegative at all four joins the open run whole.  Only the remaining
    cells compute crossing points, the only new rationals.  A point u is in
    the set exactly when phi(u) equals the window max there, so once the
    envelope check has matched the max at u from both cells, the two agree
    on u: a run is open at u only when the cell after u goes on from u, and
    runs end only at a crossing or at 1 - delta.  `n_set_exact` builds the
    set from the runs.

    Positions are the integers of g over X, and values integers over one
    denominator that makes phi exact at every event and event + delta: V
    times L.  No division rounds: every // below divides a multiple of its
    divisor.
    """
    T, X, V, L = g.T, g.X, g.V, g.L
    D = X >> a
    k = a * (V // X)
    Z = [(w - k * t) * L for t, w in zip(T, g.W)]

    xmax = X - D
    ev = sorted({t for t in T if t <= xmax} | {t - D for t in T if t >= D})
    # phi at the events, then at the events + D, from one lookup table
    vals = _values_at(T, Z, ev + [e + D for e in ev])

    dq: deque[int] = deque()  # breakpoints in [v, u + D], values decreasing
    pop, popleft, push = dq.pop, dq.popleft, dq.append
    Tn = [*T, X + D + 1]  # a sentinel past every window end
    add = 0
    runs: list[_Run] = []
    start = None  # lo of the run that is open at u: it may go on past u
    cells = zip(ev, vals, vals[len(ev):])  # zip stops at the last event
    u, pu, ru = next(cells)
    up = pu >= ru  # L0 >= L1 at u
    e = pu if pu > ru else ru  # max(L0, L1) at u
    m_prev = None
    for v, pv, rv in cells:
        reach = u + D
        while Tn[add] <= reach:
            z = Z[add]
            while dq and Z[dq[-1]] <= z:
                pop()
            push(add)
            add += 1
        while dq and T[dq[0]] < v:
            popleft()
        # with no breakpoint inside the window, min(pu, pv) stands in for c:
        # it changes neither the max nor {L0 >= c}, as L0 >= min(pu, pv)
        c = Z[dq[0]] if dq else (pu if pu < pv else pv)

        # the window max at u from this cell must match the one at the
        # same point from the cell before
        m = e if e > c else c
        if m != m_prev and m_prev is not None:
            raise AssertionError("window max envelope mismatch at cell boundary")
        e = pv if pv > rv else rv
        m_prev = e if e > c else c

        vp = pv >= rv
        uc = pu >= c
        vc = pv >= c
        if up and vp and uc and vc:
            if start is None:
                start = (u, 1)
        elif (up or vp) and (uc or vc):
            # each half holds u or v; lo and hi stay None at the cell's ends
            lo = hi = None
            if not up:
                gu, gv = pu - ru, pv - rv
                lo = (u * gv - v * gu, gv - gu)
            elif not vp:
                gu, gv = pu - ru, pv - rv
                hi = (v * gu - u * gv, gu - gv)
            if not uc:
                gu, gv = pu - c, pv - c
                n, d = u * gv - v * gu, gv - gu
                if lo is None or n * lo[1] > lo[0] * d:
                    lo = (n, d)
            elif not vc:
                gu, gv = pu - c, pv - c
                n, d = v * gu - u * gv, gu - gv
                if hi is None or n * hi[1] < hi[0] * d:
                    hi = (n, d)
            if lo is None or hi is None or lo[0] * hi[1] <= hi[0] * lo[1]:
                if start is None:
                    start = (u, 1) if lo is None else lo
                if hi is not None:
                    runs.append((start, hi))
                    start = None
        u, pu, ru, up = v, pv, rv, vp
    if start is not None:
        runs.append((start, (u, 1)))
    return runs


def _cmp_lo(r: _Run, s: _Run) -> int:
    """The sign of lo(r) - lo(s)."""
    return r[0][0] * s[0][1] - s[0][0] * r[0][1]


def _union_of_runs(runs: list[_Run], X: int) -> IntervalSet:
    """The union of closed runs with ends (n, d) standing for n/(d X), built
    as one IntervalSet.  The runs are sorted and merged on the pairs, so
    only the ends that remain are reduced and enter the lcm that is the
    canonical denominator."""
    ends: list[tuple[int, int]] = []
    for lo, hi in sorted(runs, key=functools.cmp_to_key(_cmp_lo)):
        if ends and lo[0] * ends[-1][1] <= ends[-1][0] * lo[1]:  # lo <= the last hi
            if hi[0] * ends[-1][1] > ends[-1][0] * hi[1]:
                ends[-1] = hi
        else:
            ends += (lo, hi)
    reduced = []
    for n, d in ends:
        q = X * d
        r = math.gcd(n, q)
        reduced.append((n // r, q // r))
    den = math.lcm(*(q for _, q in reduced))
    return IntervalSet([n * (den // q) for n, q in reduced], den)


def n_set_exact(f: PwlFunction, a: Rat, variant: str = "full") -> IntervalSet:
    """Exact exception set for a piecewise-linear f on [0,1] and integer
    scale a; every basic variant is a plus_upper set (`_plus_upper_form`) of
    one integer form of f.  The runs of the parts, reflected exactly where a
    part needs it, make one IntervalSet."""
    if not isinstance(f, PwlFunction):
        raise TypeError("n_set_exact needs a PwlFunction; use n_set_enclosure for C1")
    _check_variant(variant)
    ai = _as_integer_scale(a)
    g = _IntPwl.of(f, ai)
    X = g.X
    runs: list[_Run] = []
    for part in _PARTS.get(variant, (variant,)):
        h, refl = _plus_upper_form(g, part)
        part_runs = _plus_upper_exact(h, ai)
        if refl:  # x -> 1 - x takes n/(d X) to (X d - n)/(d X) and reverses the runs
            part_runs = [
                ((X * hd - hn, hd), (X * ld - ln, ld)) for (ln, ld), (hn, hd) in reversed(part_runs)
            ]
        runs += part_runs
    return _union_of_runs(runs, X)


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
    phi = g.as_cubic_pieces().add_linear(-af)
    tab = _PhiTables(phi, step, 1.0 - delta)
    out = np.full(xs.shape, np.inf, dtype=float)
    tolredge = 1e-12
    ok = (ts >= -tolredge) & (ts <= 1.0 - delta + tolredge)
    if ok.any():
        v = np.clip(ts[ok], 0.0, 1.0)
        out[ok] = tab.range_upper(v, np.minimum(v + delta, 1.0)) - phi.eval_vec(v)
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
    undecided_length: Fraction
    stats: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if not is_subset(self.inner, self.outer):
            raise ValueError("enclosure inner not contained in outer")

    @staticmethod
    def exact(s: IntervalSet) -> "NSetEnclosure":
        return NSetEnclosure(s, s, Fraction(0), {"exact": True})

    def union(self, other: "NSetEnclosure") -> "NSetEnclosure":
        inner = self.inner.union(other.inner)
        outer = self.outer.union(other.outer)
        return NSetEnclosure(
            inner,
            outer,
            outer.measure() - inner.measure(),
            _merge_stats(self.stats, other.stats),
        )

    def reflect(self) -> "NSetEnclosure":
        return NSetEnclosure(
            self.inner.reflect(),
            self.outer.reflect(),
            self.undecided_length,
            dict(self.stats),
        )


class _RangeMax:
    """Sparse table for vectorized range-maximum queries over a float array
    (Bender & Farach-Colton, The LCA problem revisited): level k holds the
    maxima of all windows of length 2^k, and the levels sit end to end in
    one flat array, so a batch of queries is two gathers.

    Only level 0, the values, is written when the table is built, and it is
    the one copy of them: callers read it as `values`.  The first query
    that needs level k fills it straight from level 0 (van Herk 1992; Gil &
    Werman 1993): cut the values into blocks of 2^k, and a window of 2^k is
    a suffix of one block followed by a prefix of the next, so the level is
    the max of one block suffix maximum and one block prefix maximum, O(n)
    for any k.  Each entry is the last maximum of its window, bit for bit
    the float of the doubling build np.maximum(level k-1 at i, level k-1 at
    i + 2^(k-1)), as np.maximum keeps its second argument on a tie; equal
    maxima differ in their bits only as signed zeros."""

    def __init__(self, values: np.ndarray):
        n = len(values)
        pow2 = 1 << np.arange(max(n.bit_length(), 1))
        lengths = n - pow2 + 1
        starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        # levels above 0 are written on first use, and pages never written
        # take no memory
        self.flat = np.empty(int(lengths.sum()))
        self.flat[:n] = values
        self.filled = 1  # bit k set when level k is written
        # [i, j) is covered by the level-k windows starting at i and at
        # j - 2^k, for k = floor(log2(j - i)); level[m] is that k for a
        # length m >= 1, and 0 for m = 0
        counts = np.minimum(pow2, n + 1 - pow2)
        counts[0] += 1
        self.level = np.repeat(np.arange(len(pow2), dtype=np.int8), counts)
        self.start_lo = starts
        self.start_hi = starts - pow2

    @property
    def values(self) -> np.ndarray:
        """Level 0, the values the table was built from (a view)."""
        return self.flat[: len(self.level) - 1]

    def _fill(self, k: int) -> None:
        """Write level k from level 0 by block prefix and suffix maxima, in
        one pass over the values: a run of whole blocks at a time, about
        _CHUNK values and at least one block, whose maxima are computed
        once.  The window at i is the suffix of its block from i and the
        prefix of the next block up to i + w - 1, so the windows that start
        in the last block of a run keep that block's suffix maxima for the
        prefix maxima of the next run."""
        n, w = len(self.level) - 1, 1 << k
        m, lo = n - w + 1, self.start_lo[k]
        out = self.flat[lo : lo + m]
        span = w * max(1, _CHUNK // w)
        carry = None  # the suffix maxima from s - w + 1 to s - 1
        for s in range(0, n, span):
            # padded with -inf past the last value only
            vals = self.flat[s : min(s + span, n)]
            nb = -(-len(vals) // w)
            blocks = np.full(nb * w, -np.inf)
            blocks[: len(vals)] = vals
            blocks = blocks.reshape(nb, w)
            # np.maximum keeps its second argument on a tie, so the forward
            # scan keeps the last of equal maxima and the backward scan the
            # first
            pre = np.maximum.accumulate(blocks, axis=1).ravel()
            suf = np.empty((nb, w))
            np.maximum.accumulate(blocks[:, ::-1], axis=1, out=suf[:, ::-1])
            zero = blocks == 0.0
            if zero.any():
                # a suffix whose max is zero ends with the block's last
                # zero, whose sign the last maximum has
                last = w - 1 - np.argmax(zero[:, ::-1], axis=1)
                suf = np.where(suf == 0.0, blocks[np.arange(nb), last][:, None], suf)
            suf = suf.ravel()
            # a window's last maximum sits in the prefix on a tie
            if carry is not None:
                c = min(s, m) - (s - w + 1)
                np.maximum(carry[:c], pre[:c], out=out[s - w + 1 : s - w + 1 + c])
            e = min(s + span - w + 1, m)
            if e > s:
                np.maximum(suf[: e - s], pre[w - 1 : w - 1 + e - s], out=out[s:e])
            carry = suf[span - w + 1 : span]
        self.filled |= 1 << k

    def query(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """max over [i, j) per entry; empty ranges give -inf."""
        m = j - i
        ok = m > 0
        all_ok = ok.all()
        if not all_ok:
            i = np.where(ok, i, 0)
            j = np.where(ok, j, 1)
            m = j - i
        k = self.level.take(m)
        need = int(np.bitwise_or.reduce(np.left_shift(1, k, dtype=np.int32))) & ~self.filled
        for lev in range(need.bit_length()):
            if need >> lev & 1:
                self._fill(lev)
        flat = self.flat
        res = np.maximum(
            flat.take(self.start_lo.take(k) + i), flat.take(self.start_hi.take(k) + j)
        )
        return res if all_ok else np.where(ok, res, -np.inf)


def _segment_grid(breaks: np.ndarray, step: float, xmax: float) -> np.ndarray:
    """The sorted distinct points of the uniform grid of the given step over
    [0,1], the breaks and xmax: the few breaks and xmax are merged into the
    grid by one insertion pass."""
    lin = np.linspace(0.0, 1.0, int(np.ceil(1.0 / step)) + 1)
    extra = np.insert(breaks, np.searchsorted(breaks, xmax), xmax)
    at = np.searchsorted(lin, extra)
    new = (lin[np.minimum(at, len(lin) - 1)] != extra) & np.append(True, extra[1:] != extra[:-1])
    return np.insert(lin, at[new], extra[new])


class _Geometry(NamedTuple):
    """The segment grid of one breaks array at one step and xmax, and what
    every phi on those breaks reads from it: the piece of each segment
    (int32), its left knot, and the last segment of each piece."""

    breaks: np.ndarray
    grid: np.ndarray
    piece: np.ndarray
    kleft: np.ndarray
    knot_end: np.ndarray

    @staticmethod
    def of(breaks: np.ndarray, step: float, xmax: float) -> "_Geometry":
        grid = _segment_grid(breaks, step, xmax)
        n = len(grid) - 1
        # every break is a grid point, so the breaks at or below grid point i
        # are those at positions <= i: the piece of segment i is their count
        # less one, clipped to the pieces there are
        at = np.searchsorted(grid[:-1], breaks)
        n_pc = len(breaks) - 1
        piece = np.repeat(
            np.clip(np.arange(-1, n_pc + 1, dtype=np.int32), 0, n_pc - 1),
            np.diff(at, prepend=0, append=n),
        )
        knot_end = np.append((piece[1:] != piece[:-1]).nonzero()[0], n - 1)
        return _Geometry(breaks, grid, piece, breaks.take(piece), knot_end)


class _PhiTables:
    """Knot-aligned segment grid over [0,1] for phi, with phi and phi' at
    the segment ends and range-max tables (`_RangeMax`, levels filled on
    first use) for window queries.

    The grid and where the pieces of phi sit on it are its `_Geometry`,
    which depends on the breaks of phi, the step and xmax only; a caller
    that has it for the same breaks array hands it in, and the tables
    build only what depends on the cubics.  The grid is the uniform grid
    of the step with the knots of phi and xmax merged in.  Every knot of
    phi is a grid point, so segment i lies in one cubic piece, `piece[i]`
    (int32), whose coefficients `phi.coeffs[:, piece[i]]` act in the local
    coordinate x - kleft[i] (`seg_coeffs`); the segment spans grid[i] -
    kleft[i] to grid[i+1] - kleft[i] there, formed where a caller gathers
    them.  A point x in [grid[i], grid[i+1]) is evaluated exactly as
    `CubicPieces.eval_vec` would, from segment i.

    The tables keep per segment what the bisection gathers.  Each grid
    point is evaluated once: phi and phi' at the start of segment i are
    `gridvals[i]` and `lo_der[i]`, and inside a piece the same values, from
    the same cubic at the same local coordinate, end segment i - 1.  Only
    at a knot, where the next segment starts a new piece, is the end
    evaluated apart, once per piece, at its last segment `knot_end[p]`.
    phi at the end of every segment is `hi_val`, which a split gathers;
    phi' there, which no split reads, is formed for a run of segments by
    `hi_der` from `lo_der` and the knot ends' `knot_der`.  `segmax`, the
    max of phi over each segment, and `gridvals` are the level 0 of their
    range tables; the max of phi' is the level 0 of `rmq_dermax`, built by
    the first slope query.  The minima over segments are not kept: phase 1
    forms them, a block at a time, from the end values (`_first_cells`).

    The pieces of phi hold the critical points of phi and of phi' and the
    values there (`CubicPieces.critical`), and `crit_in_seg`/
    `vertex_in_seg` mark the segments that hold one strictly inside.  The
    range of phi or phi' over any part of a segment comes from the pieces'
    kernel, given the values at the part's two ends, and only the marked
    segments are handed to it as the ones that can hold a root.
    """

    def __init__(self, phi: CubicPieces, step: float, xmax: float, geometry: _Geometry | None = None):
        if geometry is None:
            geometry = _Geometry.of(phi.breaks, step, xmax)
        _, self.grid, self.piece, self.kleft, self.knot_end = geometry
        self.n_seg = n = len(self.grid) - 1
        self.phi = phi
        s_beg, s_end = self.local_ends()

        def inside(r):
            rp = r.take(self.piece)
            return (rp > s_beg) & (rp < s_end)

        ((r1, _), (r2, _)), ((vertex, _),) = phi.critical
        self.crit_in_seg = inside(r1) | inside(r2)
        self.vertex_in_seg = inside(vertex)
        # inside a piece, segment i ends where segment i + 1 begins, in the
        # same local coordinate, so only each piece's last segment needs its
        # end evaluated
        last = self.knot_end
        c, s = self.seg_coeffs(last), s_end.take(last)
        at_end, self.knot_der = cubic_eval(c, s), cubic_deriv_eval(c, s)
        c = phi.coeffs.take(self.piece, axis=1)
        self.lo_der = cubic_deriv_eval(c, s_beg)
        self.rmq_gridvals = _RangeMax(np.append(cubic_eval(c, s_beg), at_end[-1]))
        self.gridvals = self.rmq_gridvals.values
        del c
        self.hi_val = self.gridvals[1:].copy()
        self.hi_val[last] = at_end
        _, segmax = self.part_range(np.arange(n), s_beg, s_end, self.gridvals[:-1], self.hi_val, lower=False)
        self.rmq_segmax = _RangeMax(segmax)
        self.segmax = self.rmq_segmax.values

    @functools.cached_property
    def rmq_dermax(self) -> _RangeMax:
        """Range maxima of phi' over segments, built by the first query:
        only the witness search asks for slope windows."""
        n = self.n_seg
        s_beg, s_end = self.local_ends()
        _, dermax = self.part_range(np.arange(n), s_beg, s_end, self.lo_der, self.hi_der(0, n), True, False)
        return _RangeMax(dermax)

    def local_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """Every segment as [s_beg, s_end] in its local coordinates."""
        return self.grid[:-1] - self.kleft, self.grid[1:] - self.kleft

    def hi_der(self, lo: int, hi: int) -> np.ndarray:
        """phi' at the right ends of segments lo..hi-1 from their own
        cubics: lo_der of the next segment inside a piece, and knot_der at
        a knot.  lo_der has no entry after the last segment, which ends at
        a knot."""
        nxt = self.lo_der[lo + 1 : hi + 1]
        der = np.empty(hi - lo)
        der[: len(nxt)] = nxt
        k0, k1 = np.searchsorted(self.knot_end, (lo, hi))
        der[self.knot_end[k0:k1] - lo] = self.knot_der[k0:k1]
        return der

    def last_at_or_below(self, x: np.ndarray) -> np.ndarray:
        """Index of the last grid point at or below x."""
        return np.searchsorted(self.grid, x, side="right") - 1

    def seg_of(self, x: np.ndarray) -> np.ndarray:
        return np.clip(self.last_at_or_below(x), 0, self.n_seg - 1)

    def seg_coeffs(self, seg: np.ndarray) -> np.ndarray:
        """The (4, len(seg)) coefficients of the cubics of the segments."""
        return self.phi.coeffs.take(self.piece.take(seg), axis=1)

    def eval_at(self, x: np.ndarray, seg: np.ndarray, deriv: bool = False) -> np.ndarray:
        """phi(x), or phi'(x), for x in segment seg (x = 1 in the last one)."""
        kernel = cubic_deriv_eval if deriv else cubic_eval
        return kernel(self.seg_coeffs(seg), x - self.kleft.take(seg))

    def part_range(self, seg, s_lo, s_hi, at_lo, at_hi, deriv=False, lower=True):
        """(min, max) of phi, or phi', over [s_lo, s_hi] inside segment seg
        (local coordinates), given its values at both ends; the min is None
        unless `lower`.  Only the segments that hold a critical point go to
        the kernel as candidates: a part of any other segment holds none
        either."""
        flags = self.vertex_in_seg if deriv else self.crit_in_seg
        cand = flags.take(seg).nonzero()[0]
        p = self.piece.take(seg.take(cand))
        return self.phi.part_range(p, cand, s_lo, s_hi, at_lo, at_hi, deriv, lower)

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
        g_ic = self.grid.take(ic)
        has = ((ilast > i_l) & (ilast <= self.n_seg - 1) & (g_ic < hi)).nonzero()[0]
        if len(has):
            idx = ic[has]
            at_lo = (self.lo_der if deriv else self.gridvals).take(idx)
            kl = self.kleft.take(idx)
            _, val = self.part_range(idx, g_ic[has] - kl, hi[has] - kl, at_lo, at_hi[has], deriv, False)
            ub[has] = np.maximum(ub[has], val)
        return ub

    def upper_at(self, lo, hi, i_l, ilast, deriv=False) -> np.ndarray:
        """Max over [lo, hi] of phi or phi', given i_l = seg_of(lo) and ilast
        the last grid index at or below hi; lo and hi lie in [0, 1]."""
        left_hi = np.minimum(self.grid.take(i_l + 1), hi)
        kl = self.kleft.take(i_l)
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


def _row(i: int) -> property:
    """Row i of a cell chunk's float array, read as a field of its cells."""
    return property(lambda cells: cells.rows[i])


@dataclass(init=False)
class _Cells:
    """Sorted cells [u, v] of the bisection engine, each inside grid segment
    seg, with phi (pu, pv) and phi' (du, dv) at u and v from its cubic.
    Both halves of a cell inherit the fields a subclass adds.

    A chunk of cells is one (k, n) float array, `rows`, with a row per
    float field in the order the dataclass declares them, and its integer
    array `seg`; each float field reads as a view of its row.  Rows 0 to 5
    (u, v, pu, pv, du, dv) alternate between the two ends of a cell.  So
    the cells move with one call per chunk: `_halves` repeats every column,
    `take` gathers the kept columns, and `_add_chunk` joins or cuts chunks.
    The engine holds its cells as a list of chunks of at most _CHUNK cells.
    The constructor takes the fields one by one; `of` wraps rows that are
    already laid out."""

    u: np.ndarray = _row(0)
    v: np.ndarray = _row(1)
    seg: np.ndarray
    pu: np.ndarray = _row(2)
    pv: np.ndarray = _row(3)
    du: np.ndarray = _row(4)
    dv: np.ndarray = _row(5)

    def __init__(self, u, v, seg, *values):
        self.rows = np.array([u, v, *values], dtype=float)
        self.seg = seg

    @classmethod
    def of(cls, rows: np.ndarray, seg: np.ndarray):
        cells = cls.__new__(cls)
        cells.rows, cells.seg = rows, seg
        return cells

    def __len__(self) -> int:
        return len(self.seg)

    def take(self, keep: np.ndarray) -> "_Cells":
        """The cells where the mask `keep` holds, in order."""
        idx = keep.nonzero()[0]
        return self.of(self.rows.take(idx, axis=1), self.seg.take(idx))


# the most cells a chunk of the bisection engine holds, and the segments
# phase 1 and a range-max fill take at a time (about 128 KB a float field)
_CHUNK = 1 << 14


def _add_chunk(chunks: list, cells: _Cells) -> None:
    """Append cells, in order, to a list of chunks of at most _CHUNK cells:
    they join the last chunk when both fit in one, and are otherwise cut
    into views of _CHUNK cells.  So any two chunks in a row hold more than
    _CHUNK cells, and a chunk holds over half that on average."""
    n = len(cells)
    if not n:
        return
    if chunks and len(chunks[-1]) + n <= _CHUNK:
        last = chunks[-1]
        rows = np.concatenate((last.rows, cells.rows), axis=1)
        chunks[-1] = cells.of(rows, np.concatenate((last.seg, cells.seg)))
    else:
        chunks += (
            cells.of(cells.rows[:, i : i + _CHUNK], cells.seg[i : i + _CHUNK]) for i in range(0, n, _CHUNK)
        )


@dataclass(init=False)
class _EnclosureCells(_Cells):
    """Cells of the enclosure, with the certificates a half can inherit:
      ubw     window bound, max phi over [v, min(v+delta, 1)]
      wit     a value phi attains in [v, u + delta]: the best of phi at the
              grid points after grid[seg] up to u + delta and at
              min(u + delta, 1); phi(v) never beats the cell's own max,
              so it is left out
    """

    ubw: np.ndarray = _row(6)
    wit: np.ndarray = _row(7)


def _grid_cells(tab: _PhiTables, u: np.ndarray, v: np.ndarray) -> _Cells:
    """The sorted disjoint cells [u, v] cut at the grid points strictly
    inside them, so that each lies in one segment."""
    g = tab.grid
    j = np.maximum(np.searchsorted(u, g, side="right") - 1, 0)
    cut = g[(g > u[j]) & (g < v[j])]
    u, v = np.sort(np.concatenate([u, cut])), np.sort(np.concatenate([cut, v]))
    seg = tab.last_at_or_below(u)
    c, kl = tab.seg_coeffs(seg), tab.kleft.take(seg)
    (pu, du), (pv, dv) = ((cubic_eval(c, s), cubic_deriv_eval(c, s)) for s in (u - kl, v - kl))
    return _Cells(u, v, seg, pu, pv, du, dv)


class _Block(NamedTuple):
    """A block of grid segments as phase-1 cells: the fields of
    `_EnclosureCells`, in its order, as views of the tables where they can
    be.  Only the cells that phase 1 leaves undecided become a chunk."""

    u: np.ndarray
    v: np.ndarray
    seg: np.ndarray
    pu: np.ndarray
    pv: np.ndarray
    du: np.ndarray
    dv: np.ndarray
    ubw: np.ndarray
    wit: np.ndarray


def _first_cells(tab: _PhiTables, after: np.ndarray, delta: float):
    """The first n = len(after) - 1 grid segments as cells, yielded in
    blocks of _CHUNK segments (`_Block`), given after[i] =
    searchsorted(grid, grid[i] + delta, "right"); as the grid ends at 1,
    after[i] - 1 is also the last index at or below min(grid[i] + delta,
    1).  Segments are narrower than
    delta, so the window of segment i starts with the whole segment i + 1,
    and its end is the u + delta of segment i + 1: phi there is evaluated
    once for both (twice at the first point of each block after the
    first)."""
    grid, n = tab.grid, len(after) - 1
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        seg = np.arange(lo, hi, dtype=np.int32)
        ends = np.minimum(grid[lo : hi + 1] + delta, 1.0)
        at_end = tab.eval_at(ends, np.minimum(after[lo : hi + 1] - 1, tab.n_seg - 1))
        ubw = tab.window_max(
            tab.segmax[lo + 1 : hi + 1], seg + 1, after[lo + 1 : hi + 1] - 1, ends[1:], at_end[1:]
        )
        wit = np.maximum(tab.rmq_gridvals.query(seg + 1, after[lo:hi]), at_end[:-1])
        vals = (tab.gridvals[lo:hi], tab.hi_val[lo:hi], tab.lo_der[lo:hi], tab.hi_der(lo, hi))
        yield _Block(grid[lo:hi], grid[lo + 1 : hi + 1], seg, *vals, ubw, wit)


def _halves(tab: _PhiTables, cells: _Cells) -> _Cells:
    """The halves [u, mid] and [mid, v] of the cells, interleaved, so that
    u and v stay sorted.  Only phi and phi' at mid are new, from segment
    seg's cubic: a left half is its parent with its v end moved to mid, a
    right half with its u end, and both keep every other field."""
    seg = cells.seg
    mid = 0.5 * (cells.u + cells.v)
    c = tab.seg_coeffs(seg)
    s_mid = mid - tab.kleft.take(seg)
    new = np.array([mid, cubic_eval(c, s_mid), cubic_deriv_eval(c, s_mid)])
    del c
    rows = np.repeat(cells.rows, 2, axis=1)
    rows[1:6:2, 0::2] = new  # v, pv and dv of the left halves
    rows[0:6:2, 1::2] = new  # u, pu and du of the right halves
    return cells.of(rows, np.repeat(seg, 2))


def _bisect(tab: _PhiTables, chunks: list, test, floor: float, go_on):
    """The bisection engine, on sorted cells held as a list of chunks
    (`_add_chunk`).  Before each level, go_on(chunks, at_floor, depth) is
    told, chunk by chunk, which cells are at most floor wide, and how many
    levels were split; it returns the chunks to split, or None to stop.
    The level then moves one chunk at a time: it halves the chunk, drops
    it, and appends the halves that test(halves) marks undecided to the
    next level's chunks.  So a level holds the parents not yet split, the
    halves of one chunk and the halves kept so far, never all the halves
    at once.  Returns the chunks left and the number of levels split."""
    depth = 0
    while chunks:
        todo = go_on(chunks, [c.v - c.u <= floor for c in chunks], depth)
        if todo is None:
            break
        todo.reverse()
        chunks = []
        while todo:
            halves = _halves(tab, todo.pop())
            _add_chunk(chunks, halves.take(test(halves)))
            del halves  # before the next chunk is halved
        depth += 1
    return chunks, depth


def _inherit_window(tab: _PhiTables, halves: _EnclosureCells, delta: float) -> None:
    """Write the certificates the halves do not inherit: the window bound
    of each left half [u, mid], which a right half takes from its parent,
    and the witness of each right half [mid, v], which a left half takes
    from its parent.  Both read phi at min(mid + delta, 1), in the segment
    before the first grid point beyond mid + delta, as `_first_cells`
    takes it."""
    # one contiguous index array serves the many gathers below
    seg, mid, phi_mid = halves.seg[0::2].astype(np.intp), halves.v[0::2], halves.pv[0::2]
    reach = mid + delta
    right = np.minimum(reach, 1.0)
    after = np.searchsorted(tab.grid, reach, side="right")
    phi_right = tab.eval_at(right, np.minimum(after - 1, tab.n_seg - 1))
    # a segment is narrower than delta, so the window [mid, right] of the
    # left half starts with the piece [mid, grid[seg + 1]] ...
    kl = tab.kleft.take(seg)
    s_mid, s_end = mid - kl, tab.grid.take(seg + 1) - kl
    _, left = tab.part_range(seg, s_mid, s_end, phi_mid, tab.hi_val.take(seg), lower=False)
    ubw = tab.window_max(left, seg, after - 1, right, phi_right)
    # ... unless mid is the segment's right end (a cell one float wide
    # split there), where the window starts in the next segment
    odd = (s_mid >= s_end).nonzero()[0]
    if len(odd):
        ubw[odd] = tab.upper_at(mid[odd], right[odd], tab.seg_of(mid[odd]), after[odd] - 1)
    halves.ubw[0::2] = ubw
    halves.wit[1::2] = np.maximum(tab.rmq_gridvals.query(seg + 1, after), phi_right)


def _cell_ranges(tab: _PhiTables, cells: _Cells):
    """((min, max) of phi, (min, max) of phi') over each cell, from the
    values at its ends and the critical values inside."""
    kl = tab.kleft.take(cells.seg)
    s_u, s_v = cells.u - kl, cells.v - kl
    return (
        tab.part_range(cells.seg, s_u, s_v, cells.pu, cells.pv),
        tab.part_range(cells.seg, s_u, s_v, cells.du, cells.dv, deriv=True),
    )


def _decide(cells: _EnclosureCells, vals, ders) -> tuple[np.ndarray, np.ndarray]:
    """(inside, undecided) masks for the cells, given the (min, max) of phi
    and of phi' over each."""
    (vmin, vmax), (dmin, dmax) = vals, ders
    inside = (dmax <= 0.0) & (cells.ubw <= vmin)
    # a strictly positive slope throughout the cell also rules every point
    # out: phi keeps growing just to the right, inside the window
    outside = (cells.wit > vmax) | (dmin > 0.0)
    return inside, ~inside & ~outside


_MAX_SEGMENTS = 400_000
# the largest integer scale a whose grid at step 2^-a/2, 2^(a+1) segments,
# fits under _MAX_SEGMENTS
_ENGINE_SCALE_CAP = _MAX_SEGMENTS.bit_length() - 2
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


class _Handoff:
    """What the parts of one composite C1 enclosure hand on, made by the
    composite call and gone when it returns: f reflected, made by the
    first of its minus parts, and the segment geometry of the last part
    with its window ends.  The next part takes those when its phi has the
    very same breaks array, as negating f keeps it: plus_upper hands them
    to plus_lower, and minus_upper to minus_lower.  The shared reflection
    is what lets minus_lower take minus_upper's geometry: `take_geometry`
    hands a geometry on only when `shared[0].breaks is breaks`, and f
    reflected once per part would give each minus part breaks of its own.
    The parts of a piecewise-linear composite read none of it."""

    def __init__(self, f: C1Function):
        self.f = f
        self._reflected: C1Function | None = None
        self.geometry: tuple[_Geometry, np.ndarray] | None = None

    def reflect(self) -> C1Function:
        """f reflected, made by the first call and kept."""
        if self._reflected is None:
            self._reflected = self.f.reflect()
        return self._reflected

    def take_geometry(self, breaks: np.ndarray) -> tuple[_Geometry, np.ndarray] | None:
        """The last part's (geometry, window ends) if its breaks are
        `breaks`, else None; either way the handoff lets go of them."""
        shared, self.geometry = self.geometry, None
        return shared if shared is not None and shared[0].breaks is breaks else None


def _enclosure_plus_upper_c1(
    f: C1Function, a: float, tol: float, handoff: _Handoff
) -> tuple[tuple[list, list], tuple[list, list], dict]:
    """Inside cells and undecided cells, each as (left ends, right ends)
    lists of arrays, for the forward-upper set of a C1 function, via
    two-phase certified bisection, and stats: the phase-1 cells and how
    many stayed undecided, the splits (cells halved, summed over the
    levels), the number of levels and the undecided cells left.

    The cells of a phase-1 block and of each chunk of undecided cells are
    sorted, so they are handed on as the components of their union
    (`_components`): the same set, in a few entries.  When no half of a
    level can be split again, because every half will be at the width
    floor or the depth cap comes next, the undecided halves of each chunk
    go to the components at once, and the level keeps none."""
    delta, step = _grid_step(a, tol)
    xmax = 1.0 - delta
    phi = f.as_cubic_pieces().add_linear(-a)
    shared = handoff.take_geometry(phi.breaks)
    if shared is None:
        geometry = _Geometry.of(phi.breaks, step, xmax)
        n_cells = int(np.searchsorted(geometry.grid, xmax, side="left"))
        after = np.searchsorted(geometry.grid, geometry.grid[: n_cells + 1] + delta, side="right")
        shared = geometry, after
    handoff.geometry = shared
    geometry, after = shared
    tab = _PhiTables(phi, step, xmax, geometry)

    in_u, in_v = [], []
    und = []  # the components of the undecided cells, chunk by chunk
    streamed = 0  # undecided cells of the last level, sent to und at once
    last = False  # whether the level being split is the last one

    def settle(cells: _EnclosureCells | _Block, whole: bool = False) -> np.ndarray:
        """Keep the ends of the cells `_decide` puts inside, as their
        components when `whole`; return the undecided mask."""
        inside, undecided = _decide(cells, *_cell_ranges(tab, cells))
        idx = inside.nonzero()[0]
        u, v = cells.u.take(idx), cells.v.take(idx)
        if whole:
            u, v = _components(u, v)
        in_u.append(u)
        in_v.append(v)
        return undecided

    # phase 1: the cells are the grid segments, a block at a time
    chunks: list = []
    for block in _first_cells(tab, after, delta):
        idx = settle(block, whole=True).nonzero()[0]
        _add_chunk(chunks, _EnclosureCells(*(x.take(idx) for x in block)))
    stats = {"phase1_cells": len(after) - 1, "undecided_phase1": sum(map(len, chunks)), "splits": 0}

    def test(halves: _EnclosureCells) -> np.ndarray:
        nonlocal streamed
        stats["splits"] += len(halves) // 2
        _inherit_window(tab, halves, delta)
        undecided = settle(halves)
        if not last:
            return undecided
        idx = undecided.nonzero()[0]
        und.append(_components(halves.u.take(idx), halves.v.take(idx)))
        streamed += len(idx)
        return np.zeros_like(undecided)

    def go_on(chunks, at_floor, depth):
        nonlocal last
        if depth >= 60 or all(m.all() for m in at_floor):
            return None
        last = depth == 59 or all(_halves_at_floor(c, _WIDTH_FLOOR) for c in chunks)
        return chunks

    chunks, depth = _bisect(tab, chunks, test, _WIDTH_FLOOR, go_on)
    stats["max_depth"] = depth
    stats["undecided_final"] = streamed + sum(map(len, chunks))
    und += (_components(c.u, c.v) for c in chunks)
    return (in_u, in_v), ([lo for lo, _ in und], [hi for _, hi in und]), stats


def _halves_at_floor(cells: _Cells, floor: float) -> bool:
    """Whether both halves that `_halves` makes of every cell are at most
    floor wide."""
    mid = 0.5 * (cells.u + cells.v)
    return bool((mid - cells.u <= floor).all() and (cells.v - mid <= floor).all())


def _components(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The union of the closed float cells [u_i, v_i], u ascending, as its
    components (lo, hi): a component starts at each cell that begins beyond
    every earlier cell, and ends at the running max of v before the next."""
    if not len(u):
        return u, v
    reach = np.maximum.accumulate(v)
    starts = np.concatenate(([True], u[1:] > reach[:-1])).nonzero()[0]
    return u.take(starts), reach.take(np.append(starts[1:] - 1, len(u) - 1))


def _merge_float_cells(u: np.ndarray, v: np.ndarray) -> IntervalSet:
    """Exact union of the closed float cells [u_i, v_i], clipped to [0,1]."""
    if not len(u):
        return EMPTY
    # cells with equal u may come in any order: only the first of them can
    # start a component, and every end is a running max.  The enclosure's
    # cells come as a few sorted runs, which a stable sort, timsort, merges
    # in about linear time
    order = np.argsort(u, kind="stable")
    lo, hi = _components(u.take(order), v.take(order))
    ends = np.empty(2 * len(lo))
    ends[0::2] = np.maximum(lo, 0.0)
    ends[1::2] = np.minimum(hi, 1.0)
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
    return NSetEnclosure(inner, outer, outer.measure() - inner.measure(), {"shortcut": True})


def n_set_enclosure(
    f, a: Rat, variant: str = "full", tol: float = 1e-4, *, _handoff: _Handoff | None = None
) -> NSetEnclosure:
    """Certified inner/outer enclosure of the variant set at scale a.

    PwlFunction input with integer a routes to the exact path (inner = outer).
    Otherwise, when the slope bound of f is provably at most a, every basic
    variant fills its whole domain and the enclosure is immediate; a
    piecewise-linear f with a steeper slope is out of range, and for a C1 f
    the bisection engine runs on the forward-upper reduction, with the same
    two involutions as the exact path mapping the result to other variants.
    A composite is the union of its parts, each enclosed by a call of its
    own; the composite passes each part call its `_Handoff`, so that f is
    reflected once and each segment geometry is built once per orientation.
    """
    _check_variant(variant)
    if not tol > 0:  # also refuses NaN
        raise ValueError("tol must be positive")
    if isinstance(f, PwlFunction):
        if as_fraction(a).denominator == 1:
            return NSetEnclosure.exact(n_set_exact(f, a, variant))
    elif not isinstance(f, C1Function):
        raise TypeError("n_set_enclosure needs a PwlFunction or C1Function")
    if variant in _PARTS:
        parts = _PARTS[variant]
        handoff = _Handoff(f)
        out = n_set_enclosure(f, a, parts[0], tol, _handoff=handoff)
        for p in parts[1:]:
            out = out.union(n_set_enclosure(f, a, p, tol, _handoff=handoff))
        return out

    forward = variant.startswith("plus")
    if isinstance(f, PwlFunction):
        if f.lipschitz_bound() <= as_fraction(a):
            # every slope is within the cone, so the set fills its domain
            return _full_domain_enclosure(a, forward)
        raise EnclosureRangeError(
            "a",
            "piecewise-linear enclosures need an integer scale when the "
            f"slope bound exceeds the scale; got a={as_fraction(a)} with "
            f"slope bound {f.lipschitz_bound()}"
        )
    af = float(as_fraction(a))
    if f.deriv_sup_norm() <= af - 1e-9:
        return _full_domain_enclosure(a, forward)

    handoff = _Handoff(f) if _handoff is None else _handoff
    g, refl = _plus_upper_form(f, variant, handoff.reflect)
    (in_u, in_v), (und_u, und_v), stats = _enclosure_plus_upper_c1(g, af, tol, handoff)
    inner = _merge_float_cells(np.concatenate(in_u), np.concatenate(in_v))
    outer = _merge_float_cells(np.concatenate(in_u + und_u), np.concatenate(in_v + und_v))
    enc = NSetEnclosure(inner, outer, outer.measure() - inner.measure(), stats)
    return enc.reflect() if refl else enc
