"""Bump functions and the constructive constants that size them.

A bump of height h and width w located at two disjoint finite point sets
H_hat and H_check (the halves of a `HatCheckSet`, the located sets of the
ball game) is a C1 function with sup norm exactly h that equals +h on
H_hat and -h on H_check, is positive only within distance w of H_hat, and
negative only within distance w of H_check.  `make_bump` builds one out of
cubic smoothstep lobes whose half-width shrinks to min(w/2, gap/3), so lobes
never collide and the sign supports sit strictly inside the prescribed
neighborhoods.

The sizing chain for the difficult direction (adding a bump at scale a must
not create exception points far from the located sets, relative to scale b)
is one record, `mu(f,a,b,h)`, built from one `lemma_epsilon` call with the
midpoint slope c = (a+b)/2:

  eps: a certified witness scale such that every x in the domain that
      fails the forward-upper condition at scale b has a witness y in
      (x+eps, x+2^-b] with f(y)-f(x) > c(y-x) (`lemma_epsilon`);
  l:  the guaranteed length
      l = min{min(eps, 2^-a - 2^-b), (c-a)*eps/(|f'|+a)} of open intervals
      inside the witness sets;
  mu: half of min{l/2, 2^-a/2, h/(2(|f'|+a))}, strictly inside all three
      constraints used by the perturbation argument.

`lemma_epsilon` halves no cells itself: it runs the bisection engine of
`nsets` with its own witness test, floor-cell exemption and cell cap.

`check_bump_easy` verifies pointwise that located points which already
satisfy a reading keep satisfying it after the bump is added.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat

import numpy as np

from .intervalsets import FinitePointSet, IntervalSet, Rat, as_fraction
from .nsets import (
    _add_chunk,
    _bisect,
    _cell_ranges,
    _grid_cells,
    _PhiTables,
    n_set_enclosure,
    point_defects_float,
    pow2_bounds,
    pow2_gap_bounds,
)
from .realfn import C1Function

__all__ = [
    "HatCheckSet",
    "BumpSpec",
    "make_bump",
    "check_bump_properties",
    "lemma_epsilon",
    "lobe_half_width",
    "SizingChain",
    "mu",
    "check_bump_easy",
    "EpsilonSearchError",
]


class EpsilonSearchError(RuntimeError):
    """Raised when no epsilon at or above the floor can be certified, or
    when the certified constants leave no admissible radius mu."""


@dataclass(frozen=True)
class HatCheckSet:
    """A finite located set split into its positive-lobe and negative-lobe
    halves.  The tilde readings of the game see exactly one half each."""

    hat: FinitePointSet
    check: FinitePointSet

    def __post_init__(self) -> None:
        shared = self.hat.intersection(self.check)
        if not shared.is_empty:
            raise ValueError(f"hat and check parts share the point {shared.points[0]}")

    def tilde(self, reading: str) -> FinitePointSet:
        if reading == "hat":
            return self.hat
        if reading == "check":
            return self.check
        raise ValueError("reading must be 'hat' or 'check'")

    def flat(self) -> FinitePointSet:
        return self.hat.union(self.check)

    def to_json(self) -> dict:
        return {
            "hat": self.hat.to_json_list(),
            "check": self.check.to_json_list(),
        }

    @staticmethod
    def from_json(obj: dict) -> "HatCheckSet":
        return HatCheckSet(
            FinitePointSet.from_json_list(obj["hat"]),
            FinitePointSet.from_json_list(obj["check"]),
        )


@dataclass(frozen=True)
class BumpSpec(HatCheckSet):
    """Location and size data for a bump: the +h plateau points (hat), the
    -h plateau points (check), the height h and the width of the allowed
    sign supports."""

    height: Fraction
    width: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "height", as_fraction(self.height))
        object.__setattr__(self, "width", as_fraction(self.width))
        if self.height <= 0 or self.width <= 0:
            raise ValueError("height and width must be positive")
        super().__post_init__()
        g = self.flat().min_gap()
        if g is not None and g <= 2 * self.width:
            warnings.warn(
                f"point gap {float(g):.3g} is not above twice the width "
                f"{float(self.width):.3g}; lobes will be shrunk",
                stacklevel=2,
            )


def _smoothstep(t: float) -> tuple[float, float]:
    """Value and slope of the cubic smoothstep 3t^2-2t^3 on [0,1].
    The argument is clamped: callers may drift an ulp outside from division."""
    t = min(max(t, 0.0), 1.0)
    return 3.0 * t * t - 2.0 * t * t * t, 6.0 * t - 6.0 * t * t


def lobe_half_width(spec: BumpSpec) -> Fraction:
    """Common lobe half-width: min(w/2, gap/3), which keeps lobes disjoint
    and their supports strictly inside the width-w neighborhoods."""
    r = spec.width / 2
    g = spec.flat().min_gap()
    if g is not None:
        r = min(r, g / 3)
    return r


def make_bump(spec: BumpSpec) -> C1Function:
    """Build the bump: one cubic smoothstep lobe per located point, positive
    at H_hat, negative at H_check, zero with zero slope elsewhere."""
    # (centre, sign) in increasing order: the halves are sorted runs, so the
    # sort is one merge of two runs
    hat = zip(spec.hat.floats(), repeat(1.0))
    check = zip(spec.check.floats(), repeat(-1.0))
    pts = sorted(chain(hat, check))
    if not pts:
        raise ValueError("a bump of positive height needs at least one located point")
    r = float(lobe_half_width(spec))
    h = float(spec.height)
    for (p, _), (q, _) in zip(pts, pts[1:]):
        if q - p < 2 * r - 1e-15:
            raise ValueError(f"lobes at {p:.6g} and {q:.6g} overlap after shrinking")

    knots: dict[float, tuple[float, float]] = {}

    def put(x: float, val: float, slope: float) -> None:
        prev = knots.get(x)
        if prev is not None and (abs(prev[0] - val) > 1e-15 or abs(prev[1] - slope) > 1e-15):
            raise ValueError("conflicting lobe data at a shared knot")
        knots[x] = (val, slope)

    for c, sign in pts:
        amp = sign * h
        lo, hi = c - r, c + r
        if lo >= 0.0:
            put(lo, 0.0, 0.0)
        else:
            # rising flank evaluated at 0; 1 - c/r avoids cancellation at c ~ 0
            v, d = _smoothstep(1.0 - c / r)
            put(0.0, amp * v, amp * d / r)
        if hi <= 1.0:
            put(hi, 0.0, 0.0)
        else:
            v, d = _smoothstep(1.0 - (1.0 - c) / r)
            put(1.0, amp * v, -amp * d / r)
        if 0.0 <= c <= 1.0:
            put(c, amp, 0.0)

    knots.setdefault(0.0, (0.0, 0.0))
    knots.setdefault(1.0, (0.0, 0.0))
    xs = sorted(knots)
    vals = [knots[x][0] for x in xs]
    slopes = [knots[x][1] for x in xs]
    return C1Function(xs, vals, slopes)


# the slack of the height and sign checks of a built bump
_PROPERTY_TOL = 1e-12


def check_bump_properties(spec: BumpSpec, phi: C1Function) -> bool:
    """The three defining properties, from the built pieces: sup norm equals
    the height; the located points attain +h / -h; every piece with positive
    values lies strictly within w of H_hat, negative within w of H_check.
    On a piece, the distance to a finite point set is largest at an end of
    the piece or at a midpoint of two consecutive points strictly inside
    it, so those are the points checked."""
    h = float(spec.height)
    w = float(spec.width)
    if abs(phi.sup_norm() - h) > _PROPERTY_TOL * max(1.0, h):
        return False
    for pts, sign in ((spec.hat, 1.0), (spec.check, -1.0)):
        if pts.is_empty:
            continue
        xs = np.array(pts.floats())
        if np.max(np.abs(np.asarray(phi.eval(xs)) - sign * h)) > _PROPERTY_TOL * max(1.0, h):
            return False

    pieces = phi.as_cubic_pieces()
    br = pieces.breaks
    mn, mx = pieces.ranges[0]

    for flags, pts in ((mx > _PROPERTY_TOL, spec.hat), (mn < -_PROPERTY_TOL, spec.check)):
        if not bool(flags.any()):
            continue
        if pts.is_empty:
            return False
        parr = np.array(pts.floats())
        lo, hi = br[:-1][flags], br[1:][flags]
        mids = 0.5 * (parr[:-1] + parr[1:])
        k = np.maximum(np.searchsorted(lo, mids, side="right") - 1, 0)
        for x in (lo, hi, mids[(mids > lo[k]) & (mids < hi[k])]):
            idx = np.searchsorted(parr, x)
            right = parr[np.minimum(idx, len(parr) - 1)]
            left = parr[np.maximum(idx - 1, 0)]
            d = np.minimum(np.abs(x - right), np.abs(x - left))
            if bool(np.any(d >= w)):
                return False
    return True


# ---------------------------------------------------------------------------
# constructive constants
# ---------------------------------------------------------------------------

_EPS_FLOOR = 1e-9


def _float_floor(x: Fraction) -> float:
    """Largest float at or below x (exact for dyadics like integer-scale 2^-a)."""
    f = float(x)
    return f if Fraction(f) <= x else float(np.nextafter(f, -np.inf))


def _float_ceil(x: Fraction) -> float:
    f = float(x)
    return f if Fraction(f) >= x else float(np.nextafter(f, np.inf))


def lemma_epsilon(f: C1Function, a: Rat, b: Rat, tol: float = 1e-4) -> float:
    """Certified eps for the witness property at the midpoint slope
    c = (a+b)/2: every x in [0, 1-2^-a] that fails the forward-upper
    condition at scale b admits y in (x+eps, x+2^-b] with f(y)-f(x) > c(y-x).

    Starts at eps = 2^-b/4 and halves eps until one run of the `nsets`
    bisection engine settles every cell of an outer enclosure of the
    failing set.  A cell is settled by a shared witness point beating the
    cell's maximum of f - c*id, or is exempt because it provably lies in
    the scale-b set, where the property claims nothing.  The start cells
    are the failing intervals cut at width 2^-b/8, then at the grid points
    of the segment tables.

    A run also fails once its cells outnumber the cap max(100000, 8n), n
    the start cells before the grid cut: a workable eps settles cells
    within a few halvings, so more cells mean large regions without a
    shared witness at this eps.  The cap counts the cells before the cut
    so that it measures the failing set, not the grid.  The search runs for
    round 1 of the game and for `bump mu`, both through `mu`.  A pass with no
    shared witness at its eps doubles its cells level by level until the
    cap ends it, so the cap bounds what a failing pass costs: round 1 at
    seed 1 fails one pass so, and so does the first pass of
    `test_small_chunks_give_the_same_enclosures_and_eps`.  Halving eps
    enlarges the witness windows, but pass/fail is not claimed to be
    monotone in eps.

    Cells thinner than the bisection floor are exempted when they hug the
    boundary of the scale-b enclosure: membership there flips within float
    resolution and witness margins vanish linearly with the distance to the
    boundary, so no cell width can decide them.  Their total measure must
    stay below a per-boundary resolution allowance, and downstream
    containments re-verify by enclosure, so nothing rests on them.  Floor
    cells far from the boundary have no such excuse and fail the run; at
    eps < _EPS_FLOOR the search raises, never patches over.
    """
    af, bf = as_fraction(a), as_fraction(b)
    if not 0 < af < bf:
        raise ValueError("need 0 < a < b")
    cf = (af + bf) / 2
    # certified lower bound of 2^-b keeps every witness inside the true window
    win = _float_floor(pow2_bounds(bf)[0])
    win_hi = _float_ceil(pow2_bounds(bf)[1])
    eps0 = win / 4.0

    domain = IntervalSet.from_pairs([(0, 1 - pow2_bounds(af)[0])])
    enc_b = n_set_enclosure(f, bf, "plus_upper", tol)
    exceptional = domain.difference(enc_b.inner)
    if exceptional.is_empty:
        return eps0
    # the outer enclosure of the scale-b set, padded so that every cell has
    # a component ahead of it and one behind
    out_lo = np.array([_float_floor(lo) for lo, _ in enc_b.outer.intervals] + [np.inf])
    out_hi = np.array([-np.inf] + [_float_ceil(hi) for _, hi in enc_b.outer.intervals])

    u0, v0 = [], []
    for lo, hi in exceptional.intervals:
        flo, fhi = _float_floor(lo), _float_ceil(hi)
        edges = np.linspace(flo, fhi, max(1, int(np.ceil((fhi - flo) / (win / 8.0)))) + 1)
        u0.append(edges[:-1])
        v0.append(edges[1:])
    u0, v0 = np.concatenate(u0), np.concatenate(v0)

    c_up = _float_ceil(cf)
    tab = _PhiTables(f.as_cubic_pieces().add_linear(-c_up), win / 2.0, 1.0)
    chunks0: list = []
    _add_chunk(chunks0, _grid_cells(tab, u0, v0))
    der_cut = (float(bf) - c_up) - 1e-12 * (1.0 + float(bf))
    width_floor = 1e-10
    near_slack = 64.0 * width_floor
    n_bound = 2 * (len(exceptional.intervals) + len(enc_b.outer.intervals))
    exempt_budget = max(1e-6, near_slack * n_bound)
    cap = max(100_000, 8 * len(u0))

    def unsettled(cells) -> np.ndarray:
        # witness shared by the whole cell: a point past every x+eps,
        # within every true window, where f - c*id exceeds the cell's
        # own maximum; or exclusion: f' <= b across all the windows
        # makes f - b*id non-increasing there, so the whole cell lies in
        # the scale-b set and is exempt from the witness requirement
        u, v, seg = cells.u, cells.v, cells.seg
        wlo = v + eps * (1.0 + 1e-9) + 1e-15
        whi = np.minimum(u + win, 1.0)
        wmax = tab.range_upper(np.minimum(wlo, whi), whi)
        (_, cmax), _ = _cell_ranges(tab, cells)
        good = (wlo < whi) & (wmax > cmax + 1e-12 * (1.0 + np.abs(wmax)))
        hi = np.minimum(v + win_hi, 1.0)
        good |= tab.upper_at(u, hi, seg, tab.last_at_or_below(hi), deriv=True) <= der_cut
        return ~good

    def go_on(chunks, at_floor, depth):
        nonlocal exempt
        kept, widths = [], []
        for cells, thin in zip(chunks, at_floor):
            if thin.any():
                # floor cells must lie within near_slack of the outer
                # enclosure of the scale-b set (distance zero: they overlap
                # its undecided strip)
                fu, fv = cells.u[thin], cells.v[thin]
                idx = np.searchsorted(out_lo, fv)
                near = np.maximum(0.0, np.minimum(out_lo[idx] - fv, fu - out_hi[idx])) <= near_slack
                if not near.all():
                    return None
                widths.append(fv - fu)
                cells = cells.take(~thin)
            kept.append(cells)
        if widths:
            # one sum over the level's floor cells, in order
            exempt += float(np.sum(np.concatenate(widths)))
            if exempt > exempt_budget:
                return None
        return None if 2 * sum(map(len, kept)) > cap else kept

    eps = eps0
    while eps >= _EPS_FLOOR:
        exempt = 0.0
        start: list = []
        for cells in chunks0:
            _add_chunk(start, cells.take(unsettled(cells)))
        left, _ = _bisect(tab, start, unsettled, width_floor, go_on)
        if not left:
            return eps
        eps /= 2.0
    raise EpsilonSearchError(
        f"no witness eps >= {_EPS_FLOOR:g} certifiable within the exemption budget "
        f"for scales a={float(af):.6g}, b={float(bf):.6g}, c={float(cf):.6g}"
    )


@dataclass(frozen=True)
class SizingChain:
    """The constants of one bump-lemma application, in the order they are
    derived: the witness scale eps, the interval length l and the
    perturbation radius mu."""

    eps: float
    l: float
    mu: float


def mu(f: C1Function, a: Rat, b: Rat, h: Rat, tol: float = 1e-4) -> SizingChain:
    """The sizing chain at the midpoint slope c = (a+b)/2.  l is the
    guaranteed length of the open intervals inside the witness sets,
    min{min(eps, 2^-a - 2^-b), (c-a)*eps/(|f'|+a)}; mu is strictly inside
    the three constraints mu < l/2, 2*mu < 2^-a, 2*mu*(|f'|+a) < h: half
    their minimum."""
    af, bf = as_fraction(a), as_fraction(b)
    hf = float(as_fraction(h))
    if hf <= 0:
        raise ValueError("h must be positive")
    if not 0 < af < bf:
        raise ValueError("need 0 < a < b")
    cf = (af + bf) / 2
    eps = lemma_epsilon(f, af, bf, tol)
    gap = _float_floor(pow2_gap_bounds(af, bf)[0])
    slope_budget = f.deriv_sup_norm() + float(af)
    l = min(min(eps, gap), float(cf - af) * eps / slope_budget)
    pow_a = _float_floor(pow2_bounds(af)[0])
    out = 0.5 * min(l / 2.0, pow_a / 2.0, hf / (2.0 * slope_budget))
    if not (out < l / 2 and 2 * out < pow_a and 2 * out * slope_budget < hf):
        raise EpsilonSearchError(
            f"no radius strictly inside the mu constraints (l={l!r}, 2^-a>={pow_a!r}, "
            f"h={hf!r}, |f'|+a={slope_budget!r})"
        )
    return SizingChain(eps, l, out)


# ---------------------------------------------------------------------------
# the easy containment check
# ---------------------------------------------------------------------------

_MEMBER_SLACK = 1e-12
_KEEP_SLACK = 1e-9


def check_bump_easy(f: C1Function, a: Rat, spec: BumpSpec, phi: C1Function) -> bool:
    """Located points that satisfy a reading for f keep satisfying it for
    f + phi, where phi is the bump of spec: checked pointwise at every
    located point, both readings."""
    g = f.add(phi)
    af = float(as_fraction(a))
    for reading in ("hat", "check"):
        pts = np.array(spec.tilde(reading).floats())
        if not len(pts):
            continue
        df = point_defects_float(f, af, reading, pts)
        dg = point_defects_float(g, af, reading, pts)
        if np.any((df <= _MEMBER_SLACK) & (dg > _KEEP_SLACK)):
            return False
    return True
