"""Independent brute-force reference implementations used by the tests.

Everything here recomputes the quantities under test from their definitions,
on grids, without touching the library's exact sweep: a trailing/leading
window max by block cummax (van Herk), the doubling build of a range-max
sparse table, grid membership for the window conditions, float Hausdorff
comparisons, and a witness scan for the certified epsilon.  Deliberately
simple; speed comes from numpy only.  The exact
exception sets of piecewise-linear functions have a rational reference too:
the window-max envelope built with `PwlFunction` arithmetic and its zero set
against phi, and the exact point defect read off the window condition.
`distance_to_point` is the exact distance from a point to an interval set.
`restrict`, `simplify` and `promote_pwl` are PWL test devices: the first two
build the envelope, the third turns PWL corpora into C^1 inputs.  `zigzag`
is the tent map, and `set_to_json` writes the interval-set file format.  Finite
point sets have a reference as well: `FractionPointSet`, a
sorted tuple of Fractions, with the point-set functions on top of it, and
the ball game's snapping and tagging of located points on Fraction lists.
`random_function` has one too: a dict of Fraction grid points, sorted at
every level.  So has the integer form of the exact path: `int_pwl_reference`
converts f to integers afresh at each scale.
"""

from __future__ import annotations

import heapq
import random
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

import numpy as np

from knotpoints.intervalsets import EMPTY, IntervalSet, Rat, as_fraction
from knotpoints.realfn import C1Function, PwlFunction

VARIANT_NAMES = ("plus_upper", "plus_lower", "minus_upper", "minus_lower")


def van_herk_max(u: np.ndarray, w: int) -> np.ndarray:
    """m[i] = max(u[i..i+w]) for i in [0, len(u)-w), via block cummax."""
    if w == 0:
        return u.copy()
    n = len(u)
    k = w + 1
    pad = (-n) % k
    up = np.concatenate([u, np.full(pad, -np.inf)])
    blocks = up.reshape(-1, k)
    pref = np.maximum.accumulate(blocks, axis=1).ravel()
    suff = np.maximum.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
    out = np.maximum(suff[: n - w], pref[w:n])
    return out


def van_herk_min(u: np.ndarray, w: int) -> np.ndarray:
    return -van_herk_max(-u, w)


def doubling_range_max(values: np.ndarray) -> list[np.ndarray]:
    """Every level of a range-max sparse table by the doubling build: level
    k holds the max of each window of length 2^k, as np.maximum(level k-1 at
    i, level k-1 at i + 2^(k-1)), for k up to floor(log2(len(values)))."""
    levels = [np.array(values, dtype=float)]
    n = len(values)
    for k in range(1, n.bit_length()):
        prev, h, m = levels[-1], 1 << (k - 1), n - (1 << k) + 1
        levels.append(np.maximum(prev[:m], prev[h : h + m]))
    return levels


def eval_float(f, xs: np.ndarray) -> np.ndarray:
    if isinstance(f, PwlFunction):
        bx = np.array([float(b) for b in f.breakpoints])
        bv = np.array([float(v) for v in f.values])
        return np.interp(xs, bx, bv)
    if isinstance(f, C1Function):
        return np.asarray(f.eval(xs), dtype=float)
    raise TypeError(f"cannot sample {type(f).__name__}")


def grid_n_set(f, a: int, variant: str, step: float = 1e-4, slack: float = 1e-9):
    """Grid members of the window condition: x and y both on the step grid.

    Returns (xs, mask) where mask[i] says the condition holds at xs[i]
    against every grid y in the window.  One-sided windows of length 2^-a;
    the window size in samples is exact because 2^-a / step is integral for
    integer a in range and step = 10^-k.
    """
    n = int(round(1.0 / step))
    xs = np.arange(n + 1) / n
    fv = eval_float(f, xs)
    width = int(round(2.0 ** (-a) / step))
    if not 0 < width <= n:
        raise ValueError("window does not fit the grid")
    if variant == "plus_upper":
        u = fv - a * xs
        cond = van_herk_max(u, width) <= u[: n + 1 - width] + slack
        return xs[: n + 1 - width], cond
    if variant == "plus_lower":
        u = fv + a * xs
        cond = van_herk_min(u, width) >= u[: n + 1 - width] - slack
        return xs[: n + 1 - width], cond
    if variant == "minus_upper":
        u = fv - a * xs
        cond = van_herk_min(u, width) >= u[width:] - slack
        return xs[width:], cond
    if variant == "minus_lower":
        u = fv + a * xs
        cond = van_herk_max(u, width) <= u[width:] + slack
        return xs[width:], cond
    raise ValueError(f"unknown variant {variant!r}")


def grid_n_set_full(f, a: int, step: float = 1e-4, slack: float = 1e-9) -> np.ndarray:
    """Grid points (on the step grid) in the union of all four variants."""
    n = int(round(1.0 / step))
    member = np.zeros(n + 1, dtype=bool)
    for variant in VARIANT_NAMES:
        xs, cond = grid_n_set(f, a, variant, step, slack)
        i0 = int(round(xs[0] * n))
        member[i0 : i0 + len(cond)] |= cond
    return np.arange(n + 1)[member] / n


def _float_bounds(iset: IntervalSet):
    lo = np.array([float(l) for l, _ in iset.intervals])
    hi = np.array([float(h) for _, h in iset.intervals])
    return lo, hi


def dist_to_interval_set(xs: np.ndarray, iset: IntervalSet) -> np.ndarray:
    """Pointwise distance to a nonempty interval set, in floats."""
    lo, hi = _float_bounds(iset)
    idx = np.searchsorted(lo, xs)
    ahead = np.where(idx < len(lo), lo[np.minimum(idx, len(lo) - 1)] - xs, np.inf)
    behind = np.where(idx > 0, xs - hi[np.maximum(idx - 1, 0)], np.inf)
    return np.maximum(0.0, np.minimum(ahead, behind))


def distance_to_point(s: IntervalSet, x: Rat) -> Fraction | None:
    """dist(x, s), exactly, from the two endpoints around x; None when s is
    empty."""
    if s.is_empty:
        return None
    x = as_fraction(x)
    if s.contains_point(x):
        return Fraction(0)
    e, den = s.nums, s.den
    i = bisect_right(e, x.numerator * den // x.denominator)
    near = []
    if i > 0:
        near.append(x - Fraction(e[i - 1], den))
    if i < len(e):
        near.append(Fraction(e[i], den) - x)
    return min(near)


def dist_to_points(xs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(pts, xs)
    ahead = np.where(idx < len(pts), pts[np.minimum(idx, len(pts) - 1)] - xs, np.inf)
    behind = np.where(idx > 0, xs - pts[np.maximum(idx - 1, 0)], np.inf)
    return np.minimum(np.abs(ahead), np.abs(behind))


def hausdorff_set_vs_points(iset: IntervalSet, pts: np.ndarray) -> float:
    """Hausdorff distance between an interval set and a finite float point
    set, exact up to float rounding: the distance function to a finite set is
    piecewise linear with peaks only at component endpoints and midpoints of
    consecutive points, so those candidates suffice.  Empty-set convention:
    1 against a nonempty set, 0 between two empties."""
    if iset.is_empty and len(pts) == 0:
        return 0.0
    if iset.is_empty or len(pts) == 0:
        return 1.0
    pts = np.sort(np.asarray(pts, dtype=float))
    d1 = float(np.max(dist_to_interval_set(pts, iset)))
    lo, hi = _float_bounds(iset)
    cands = [lo, hi]
    if len(pts) > 1:
        mids = 0.5 * (pts[:-1] + pts[1:])
        inside = dist_to_interval_set(mids, iset) == 0.0
        cands.append(mids[inside])
    cand = np.concatenate(cands)
    d2 = float(np.max(dist_to_points(cand, pts)))
    return max(d1, d2)


def grid_hausdorff(A: IntervalSet, B: IntervalSet, step: float = 1e-4) -> float:
    """Brute-force two-sided grid scan of the Hausdorff distance: sample each
    set on the step grid (plus its exact endpoints) and take the worst
    distance to the other set."""
    if A.is_empty and B.is_empty:
        return 0.0
    if A.is_empty or B.is_empty:
        return 1.0

    def samples(s: IntervalSet) -> np.ndarray:
        lo, hi = _float_bounds(s)
        chunks = [lo, hi]
        for l, h in zip(lo, hi):
            k = int((h - l) / step)
            if k > 0:
                chunks.append(l + step * np.arange(1, k + 1))
        return np.concatenate(chunks)

    d1 = float(np.max(dist_to_interval_set(samples(A), B)))
    d2 = float(np.max(dist_to_interval_set(samples(B), A)))
    return max(d1, d2)


def lemma_witness_scan(
    f: C1Function,
    a,
    b,
    c,
    eps: float,
    steps: int = 10,
    fail_cut: float = 1e-7,
) -> tuple[int, int]:
    """Independent scan of the witness property behind the certified eps:
    every grid x in [0, 1-2^-a] that clearly violates the scale-b forward
    condition must admit a grid y in (x+eps, x+2^-b] with
    f(y) - f(x) > c (y-x).  The y-grid runs over all of [0, 1], as windows
    reach past 1-2^-a; the x-grid is its start.  Returns (checked,
    missing)."""
    af, bf, cf = float(Fraction(a)), float(Fraction(b)), float(Fraction(c))
    win_b = 2.0 ** (-bf)
    step = eps / steps
    n = int((1.0 - 2.0 ** (-af)) / step)
    ys = np.minimum(step * np.arange(int(1.0 / step) + 1), 1.0)
    fv = eval_float(f, ys)

    # worst forward quotient over a fine y-grid approximates the b-defect
    # from below, so "clearly failing" survives the discretization
    m = int(win_b / step)
    u = fv - bf * ys
    pad = np.concatenate([u, np.full(m, -np.inf)])
    wmax = van_herk_max(pad, m)[: n + 1]
    failing = np.nonzero(wmax - u[: n + 1] > fail_cut)[0]

    checked = len(failing)
    missing = 0
    for i in failing:
        x = ys[i]
        j0 = i + int(np.ceil((eps * (1 + 1e-12)) / step)) + 1
        j1 = min(i + m, len(ys) - 1)
        if j0 > j1:
            missing += 1
            continue
        gain = fv[j0 : j1 + 1] - fv[i] - cf * (ys[j0 : j1 + 1] - x)
        if not np.any(gain > 0.0):
            missing += 1
    return checked, missing


def cubic_extrema_candidates(c, s_lo: float, s_hi: float) -> list[float]:
    """Local s-coordinates (within [s_lo, s_hi]) where the cubic with power
    coefficients c[0..3] can attain its range: the interval ends plus the
    real critical points strictly inside.  Scalar reference for the
    vectorized range kernels."""
    cands = [s_lo, s_hi]
    c1, c2, c3 = c[1], c[2], c[3]
    a, b, cc = 3.0 * c3, 2.0 * c2, c1
    if a == 0.0:
        if b != 0.0:
            with np.errstate(over="ignore"):
                s = -cc / b
            if s_lo < s < s_hi:
                cands.append(s)
    else:
        disc = b * b - 4.0 * a * cc
        if disc >= 0.0:
            sq = np.sqrt(disc)
            # an overflowed root is infinite and lies inside no interval
            with np.errstate(over="ignore"):
                roots = ((-b - sq) / (2.0 * a), (-b + sq) / (2.0 * a))
            for s in roots:
                if s_lo < s < s_hi:
                    cands.append(s)
    return cands


def cubic_range_scalar(c, s_lo: float, s_hi: float) -> tuple[float, float]:
    cands = cubic_extrema_candidates(c, s_lo, s_hi)
    vals = [((c[3] * s + c[2]) * s + c[1]) * s + c[0] for s in cands]
    return min(vals), max(vals)


def cubic_deriv_range_scalar(c, s_lo: float, s_hi: float) -> tuple[float, float]:
    cands = [s_lo, s_hi]
    if c[3] != 0.0:
        with np.errstate(over="ignore"):
            s = -c[2] / (3.0 * c[3])  # vertex of the derivative parabola
        if s_lo < s < s_hi:
            cands.append(s)
    vals = [(3.0 * c[3] * s + 2.0 * c[2]) * s + c[1] for s in cands]
    return min(vals), max(vals)


def pieces_range_scalar(p, lo: float, hi: float, deriv: bool = False) -> tuple[float, float]:
    """Range of a CubicPieces (or of its derivative) over [lo, hi], cell by
    cell through the scalar references above."""
    one = cubic_deriv_range_scalar if deriv else cubic_range_scalar
    out_lo, out_hi = np.inf, -np.inf

    def cell(x: float) -> int:
        return min(max(int(np.searchsorted(p.breaks, x, side="right")) - 1, 0), p.coeffs.shape[1] - 1)

    for k in range(cell(lo), cell(max(lo, hi)) + 1):
        a = max(lo, float(p.breaks[k]))
        b = min(hi, float(p.breaks[k + 1]))
        if b < a:
            continue
        mn, mx = one(p.coeffs[:, k], a - p.breaks[k], b - p.breaks[k])
        out_lo, out_hi = min(out_lo, mn), max(out_hi, mx)
    return float(out_lo), float(out_hi)


def float_bits(x) -> np.ndarray:
    """The bit patterns of float x, with -0.0 folded into +0.0: on a tie
    between the two zeros numpy's and Python's min/max may keep either, and
    every decision compares values, where the two zeros are equal."""
    return (np.asarray(x, dtype=np.float64) + 0.0).view(np.int64)


def random_function_reference(
    seed: int, depth: int = 6, decay: Rat = Fraction(3, 5), amplitude: Rat = 1
) -> PwlFunction:
    """`realfn.random_function` by the sort-based builder: a dict from grid
    point to value, sorted at every level to draw the midpoints in x-order."""
    rng = random.Random(seed)
    decay = as_fraction(decay)
    amplitude = as_fraction(amplitude)

    def draw() -> Fraction:
        return Fraction(rng.getrandbits(40), 2**39) - 1

    vals = {Fraction(0): amplitude * draw(), Fraction(1): amplitude * draw()}
    scale = amplitude
    for _ in range(depth):
        scale *= decay
        xs = sorted(vals)
        new_pts = [((a + b) / 2, (vals[a] + vals[b]) / 2 + scale * draw()) for a, b in zip(xs, xs[1:])]
        vals.update(new_pts)
    xs = sorted(vals)
    return PwlFunction(tuple(xs), tuple(vals[x] for x in xs))


def int_pwl_reference(f: PwlFunction, a: int) -> tuple[list[int], list[int], int, int]:
    """(T, W, X, V) of `nsets._IntPwl.of` converted afresh at each scale:
    f over X = lcm(2^a, breakpoint denominators) and V = lcm(X, value
    denominators)."""
    ts = [t.as_integer_ratio() for t in f.breakpoints]
    ys = [y.as_integer_ratio() for y in f.values]
    X = lcm(1 << a, *(d for _, d in ts))
    V = lcm(X, *(d for _, d in ys))
    return [n * (X // d) for n, d in ts], [n * (V // d) for n, d in ys], X, V


def zigzag() -> PwlFunction:
    """The tent map: 0 at the endpoints, 1 at 1/2."""
    return PwlFunction.from_pairs([(0, 0), (Fraction(1, 2), 1), (1, 0)])


def set_to_json(s: IntervalSet) -> dict:
    """The interval-set file format that `IntervalSet.from_json_dict` and
    the CLI read: each component as a pair of "p/q" strings."""
    return {"intervals": [[str(lo), str(hi)] for lo, hi in s.intervals]}


def restrict(f: PwlFunction, lo: Rat, hi: Rat) -> PwlFunction:
    """f on [lo, hi], with the breakpoints strictly inside kept."""
    lo, hi = as_fraction(lo), as_fraction(hi)
    if lo >= hi:
        raise ValueError("empty restriction")
    bks = [lo] + [b for b in f.breakpoints if lo < b < hi] + [hi]
    return PwlFunction(tuple(bks), tuple(f.eval(x) for x in bks))


def simplify(f: PwlFunction) -> PwlFunction:
    """f without the interior breakpoints where the slope does not change."""
    if len(f.breakpoints) <= 2:
        return f
    sl = f.slopes()
    keep = [0] + [i for i in range(1, len(sl)) if sl[i - 1] != sl[i]] + [len(sl)]
    return PwlFunction(tuple(f.breakpoints[i] for i in keep), tuple(f.values[i] for i in keep))


def promote_pwl(f: PwlFunction) -> C1Function:
    """A C^1 function from PWL data: the slope at an interior knot is the
    average of the adjacent segment slopes, one-sided at the ends.  This is a
    different function from f; it turns PWL corpora into C^1 test inputs."""
    if f.domain != (Fraction(0), Fraction(1)):
        raise ValueError("promotion expects domain [0,1]")
    sl = [float(s) for s in f.slopes()]
    slopes = [sl[0]] + [0.5 * (p + q) for p, q in zip(sl, sl[1:])] + [sl[-1]]
    return C1Function([float(b) for b in f.breakpoints], [float(v) for v in f.values], slopes)


def _line_through(x0: Fraction, y0: Fraction, x1: Fraction, y1: Fraction) -> tuple[Fraction, Fraction]:
    s = (y1 - y0) / (x1 - x0)
    return s, y0 - s * x0


def _envelope_points(
    lines: list[tuple[Fraction, Fraction]], u: Fraction, v: Fraction
) -> list[tuple[Fraction, Fraction]]:
    """Upper envelope of finitely many lines on [u,v] as (x, value) samples;
    between consecutive samples the envelope is a single line, so the samples
    describe it exactly."""
    xs = {u, v}
    for i in range(len(lines)):
        s1, c1 = lines[i]
        for j in range(i + 1, len(lines)):
            s2, c2 = lines[j]
            if s1 != s2:
                x = (c2 - c1) / (s1 - s2)
                if u < x < v:
                    xs.add(x)
    out = []
    for x in sorted(xs):
        out.append((x, max(s * x + c for s, c in lines)))
    return out


def sliding_window_max(phi: PwlFunction, delta) -> PwlFunction:
    """M(x) = max of phi over [x, x+delta], exactly, on [0, 1-delta].

    Between consecutive event points (breakpoints and breakpoints shifted left
    by delta) the window interior sees a fixed set of breakpoints, so M is the
    upper envelope of two lines (the moving endpoints) and one constant (the
    best interior breakpoint, maintained by a monotone deque).
    """
    delta = as_fraction(delta)
    if not 0 < delta <= 1:
        raise ValueError("need 0 < delta <= 1")
    if phi.domain != (Fraction(0), Fraction(1)):
        raise ValueError("sliding_window_max expects domain [0,1]")
    xmax = 1 - delta
    if xmax == 0:
        # window is the whole domain; a PWL max is attained at a breakpoint
        return PwlFunction((Fraction(0),), (max(phi.values),))

    bks = phi.breakpoints
    events = {Fraction(0), xmax}
    for t in bks:
        if t <= xmax:
            events.add(t)
        if 0 <= t - delta <= xmax:
            events.add(t - delta)
    ev = sorted(events)

    # monotone deque of breakpoint indices with t in [v, u+delta], values
    # decreasing from the front
    dq: deque[int] = deque()
    add_ptr = 0
    samples: dict[Fraction, Fraction] = {}

    for u, v in zip(ev, ev[1:]):
        hi = u + delta
        while add_ptr < len(bks) and bks[add_ptr] <= hi:
            val = phi.values[add_ptr]
            while dq and phi.values[dq[-1]] <= val:
                dq.pop()
            dq.append(add_ptr)
            add_ptr += 1
        while dq and bks[dq[0]] < v:
            dq.popleft()

        lines = [
            _line_through(u, phi.eval(u), v, phi.eval(v)),
            _line_through(u, phi.eval(u + delta), v, phi.eval(v + delta)),
        ]
        if dq:
            lines.append((Fraction(0), phi.values[dq[0]]))
        for x, val in _envelope_points(lines, u, v):
            prev = samples.get(x)
            if prev is not None and prev != val:
                raise AssertionError("window max envelope mismatch at cell boundary")
            samples[x] = val

    xs = sorted(samples)
    return simplify(PwlFunction(tuple(xs), tuple(samples[x] for x in xs)))


def _zero_set(d: PwlFunction) -> IntervalSet:
    """Zero set of a nonnegative piecewise-linear function, exactly: whole
    segments where it vanishes identically plus isolated endpoint zeros."""
    pairs: list[tuple[Fraction, Fraction]] = []
    bks, vals = d.breakpoints, d.values
    if len(bks) == 1:
        return IntervalSet.points([bks[0]]) if vals[0] == 0 else EMPTY
    for i in range(len(bks) - 1):
        v0, v1 = vals[i], vals[i + 1]
        if v0 < 0 or v1 < 0:
            raise AssertionError("window-max slack went negative")
        if v0 == 0 and v1 == 0:
            pairs.append((bks[i], bks[i + 1]))
        elif v0 == 0:
            pairs.append((bks[i], bks[i]))
        elif v1 == 0:
            pairs.append((bks[i + 1], bks[i + 1]))
    return IntervalSet.from_pairs(pairs)


def plus_upper_reference(f: PwlFunction, a: int) -> IntervalSet:
    """The forward-upper set of f at integer scale a as the zero set of
    sliding_window_max(phi, delta) - phi on [0, 1-delta], phi = f - a*x, all
    in `PwlFunction` arithmetic."""
    delta = Fraction(1, 2**a)
    phi = f.add_linear(-a)
    m = sliding_window_max(phi, delta)
    if 1 - delta == 0:
        return IntervalSet.points([0]) if m.values[0] == phi.values[0] else EMPTY
    return _zero_set(m.sub(restrict(phi, 0, 1 - delta)))


def basic_variant_reference(f: PwlFunction, a: int, variant: str) -> IntervalSet:
    """A basic variant through plus_upper_reference and the two involutions
    (negate f for the lower bound, reflect x for backward windows)."""
    if variant == "plus_upper":
        return plus_upper_reference(f, a)
    if variant == "plus_lower":
        return plus_upper_reference(f.negate(), a)
    if variant == "minus_lower":
        return plus_upper_reference(f.reflect(), a).reflect()
    if variant == "minus_upper":
        return plus_upper_reference(f.reflect().negate(), a).reflect()
    raise ValueError(f"unknown variant {variant!r}")


_PARTS = {
    "hat": ("plus_upper", "minus_lower"),
    "check": ("plus_lower", "minus_upper"),
    "full": VARIANT_NAMES,
}


def _window_extrema_exact(f: PwlFunction, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    cands = [f.eval(lo), f.eval(hi)]
    for t, v in zip(f.breakpoints, f.values):
        if lo < t < hi:
            cands.append(v)
    return min(cands), max(cands)


def point_defect_exact(f: PwlFunction, a: int, variant: str, x: Rat) -> Fraction | None:
    """Exact membership defect at a point, from the window condition itself:
    0 means x is in the variant set, positive quantifies the worst
    violation, None means x is outside the variant's domain.  Composites
    take the best defect of their parts.  The reference for
    `nsets.point_defects_float`."""
    if variant in _PARTS:
        defs = [point_defect_exact(f, a, p, x) for p in _PARTS[variant]]
        defs = [d for d in defs if d is not None]
        return min(defs) if defs else None
    if variant not in VARIANT_NAMES:
        raise ValueError(f"unknown variant {variant!r}")
    delta = Fraction(1, 2**a)
    xf = as_fraction(x)
    if variant.startswith("plus"):
        if not 0 <= xf <= 1 - delta:
            return None
        lo, hi = xf, xf + delta
    else:
        if not delta <= xf <= 1:
            return None
        lo, hi = xf - delta, xf
    g = f.add_linear(-a if variant.endswith("upper") else a)
    mn, mx = _window_extrema_exact(g, lo, hi)
    gx = g.eval(xf)
    if variant in ("plus_upper", "minus_lower"):
        return mx - gx  # need window max <= value at x
    return gx - mn  # need window min >= value at x


# ---------------------------------------------------------------------------
# finite point sets on Fractions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FractionPointSet:
    """Finite set of rational points in [0,1] as a sorted tuple of distinct
    Fractions: the reference for `intervalsets.FinitePointSet`."""

    points: tuple[Fraction, ...]

    @staticmethod
    def of(xs: Iterable[Rat]) -> "FractionPointSet":
        raw = [as_fraction(x) for x in xs]
        if all(a < b for a, b in zip(raw, raw[1:])):
            pts = raw
        else:
            pts = sorted(set(raw))
        if pts and (pts[0] < 0 or pts[-1] > 1):
            bad = pts[0] if pts[0] < 0 else pts[-1]
            raise ValueError(f"point {bad} outside [0,1]")
        return FractionPointSet(tuple(pts))

    @property
    def is_empty(self) -> bool:
        return not self.points

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def as_interval_set(self) -> IntervalSet:
        den = lcm(*(p.denominator for p in self.points))
        nums = [p.numerator * (den // p.denominator) for p in self.points]
        return IntervalSet([x for x in nums for _ in (0, 1)], den)

    def min_gap(self) -> Fraction | None:
        if len(self.points) < 2:
            return None
        return min(b - a for a, b in zip(self.points, self.points[1:]))

    def union(self, other: "FractionPointSet") -> "FractionPointSet":
        return FractionPointSet(tuple(sorted(set(self.points) | set(other.points))))

    def to_json_list(self) -> list[str]:
        return [str(p) for p in self.points]

    @staticmethod
    def from_json_list(items: Sequence[str]) -> "FractionPointSet":
        return FractionPointSet.of([Fraction(s) for s in items])


def fraction_open_cover_full(points: FractionPointSet, r: Rat) -> bool:
    r = as_fraction(r)
    if points.is_empty:
        return False
    pts = points.points
    if pts[0] >= r or 1 - pts[-1] >= r:
        return False
    return all(b - a < 2 * r for a, b in zip(pts, pts[1:]))


def fraction_union_of_point_sets(sets: Iterable[FractionPointSet]) -> FractionPointSet:
    merged: list[Fraction] = []
    for p in heapq.merge(*(s.points for s in sets)):
        if not merged or p != merged[-1]:
            merged.append(p)
    return FractionPointSet(tuple(merged))


def fraction_pairwise_disjoint(sets: Sequence[FractionPointSet]) -> bool:
    seen: set[Fraction] = set()
    for s in sets:
        for p in s.points:
            if p in seen:
                return False
            seen.add(p)
    return True


def dedupe_across_reference(sets: Sequence[Sequence[Fraction]], budget: Fraction) -> list[list[Fraction]]:
    """`bmgame._dedupe_across` on sorted Fraction lists: later repeats of a
    point shift by budget*k/(8(k+|seen|+1)) for the running k until new."""
    seen: set[Fraction] = set()
    out = []
    bump_idx = 1
    for s in sets:
        pts = []
        for p in s:
            q = p
            while q in seen or q > 1 or q < 0:
                q = p + budget * Fraction(bump_idx, 8 * (bump_idx + len(seen) + 1))
                if q > 1:
                    q = p - budget * Fraction(bump_idx, 8 * (bump_idx + len(seen) + 1))
                bump_idx += 1
            seen.add(q)
            pts.append(q)
        out.append(sorted(set(pts)))
    return out


def tag_by_nearest_reference(
    pts: Sequence[Fraction], hat: Sequence[Fraction], check: Sequence[Fraction], within: Fraction
) -> tuple[list[Fraction], list[Fraction]] | None:
    """`bmgame._tag_on_net` by brute force, on any two target halves: each
    point goes to the half holding its strictly nearest target, within the
    budget; None otherwise."""
    hat_pts, check_pts = [], []
    for q in pts:
        dh = min((abs(q - p) for p in hat), default=None)
        dc = min((abs(q - p) for p in check), default=None)
        if dc is None or (dh is not None and dh < dc):
            if dh is None or dh > within:
                return None
            hat_pts.append(q)
        elif dh is None or dc < dh:
            if dc > within:
                return None
            check_pts.append(q)
        else:
            return None
    return hat_pts, check_pts
