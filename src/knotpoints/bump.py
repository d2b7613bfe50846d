"""Bump functions and the constructive constants that size them.

A bump of height h and width w located at two disjoint finite point sets
H_hat and H_check is a C1 function with sup norm exactly h that equals +h on
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
    _PhiTables,
    n_set_enclosure,
    point_defects_float,
    pow2_bounds,
    pow2_gap_bounds,
)
from .realfn import C1Function, cubic_range, pieces_of

__all__ = [
    "BumpSpec",
    "make_bump",
    "check_bump_properties",
    "lemma_epsilon",
    "SizingChain",
    "mu",
    "check_bump_easy",
    "EpsilonSearchError",
]


class EpsilonSearchError(RuntimeError):
    """Raised when no epsilon at or above the floor can be certified, or
    when the certified constants leave no admissible radius mu."""


@dataclass(frozen=True)
class BumpSpec:
    """Location and size data for a bump: +h plateau points, -h plateau
    points, height, and the width of the allowed sign supports."""

    H_hat: FinitePointSet
    H_check: FinitePointSet
    height: Fraction
    width: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "height", as_fraction(self.height))
        object.__setattr__(self, "width", as_fraction(self.width))
        if self.height <= 0 or self.width <= 0:
            raise ValueError("height and width must be positive")
        both = self.H_hat.intersection(self.H_check)
        if not both.is_empty:
            raise ValueError(f"H_hat and H_check must be disjoint; both contain {list(both.points)}")
        g = self.all_points().min_gap()
        if g is not None and g <= 2 * self.width:
            warnings.warn(
                f"point gap {float(g):.3g} is not above twice the width "
                f"{float(self.width):.3g}; lobes will be shrunk",
                stacklevel=2,
            )

    def all_points(self) -> FinitePointSet:
        return self.H_hat.union(self.H_check)

    def located(self, reading: str) -> FinitePointSet:
        if reading == "hat":
            return self.H_hat
        if reading == "check":
            return self.H_check
        raise ValueError("reading must be 'hat' or 'check'")


def _smoothstep(t: float) -> tuple[float, float]:
    """Value and slope of the cubic smoothstep 3t^2-2t^3 on [0,1].
    The argument is clamped: callers may drift an ulp outside from division."""
    t = min(max(t, 0.0), 1.0)
    return 3.0 * t * t - 2.0 * t * t * t, 6.0 * t - 6.0 * t * t


def lobe_half_width(spec: BumpSpec) -> Fraction:
    """Common lobe half-width: min(w/2, gap/3), which keeps lobes disjoint
    and their supports strictly inside the width-w neighborhoods."""
    r = spec.width / 2
    g = spec.all_points().min_gap()
    if g is not None:
        r = min(r, g / 3)
    return r


def make_bump(spec: BumpSpec) -> C1Function:
    """Build the bump: one cubic smoothstep lobe per located point, positive
    at H_hat, negative at H_check, zero with zero slope elsewhere."""
    # (centre, sign) in increasing order: the halves are sorted runs, so the
    # sort is one merge of two runs
    hat = zip(spec.H_hat.floats(), repeat(1.0))
    check = zip(spec.H_check.floats(), repeat(-1.0))
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


def check_bump_properties(spec: BumpSpec, phi: C1Function, tol: float = 1e-12) -> bool:
    """The three defining properties, from the built pieces: sup norm equals
    the height; the located points attain +h / -h; every piece with positive
    values lies strictly within w of H_hat, negative within w of H_check."""
    h = float(spec.height)
    w = float(spec.width)
    if abs(phi.sup_norm() - h) > tol * max(1.0, h):
        return False
    for pts, sign in ((spec.H_hat, 1.0), (spec.H_check, -1.0)):
        if pts.is_empty:
            continue
        xs = np.array(pts.floats())
        if np.max(np.abs(np.asarray(phi.eval(xs)) - sign * h)) > tol * max(1.0, h):
            return False

    # per-piece range of the cubics, in each piece's local coordinate
    pieces = phi.as_cubic_pieces()
    br = pieces.breaks
    mn, mx = cubic_range(pieces.coeffs.T, 0.0, np.diff(br))

    for flags, pts in ((mx > tol, spec.H_hat), (mn < -tol, spec.H_check)):
        if not bool(flags.any()):
            continue
        if pts.is_empty:
            return False
        parr = np.array(pts.floats())
        for x in (br[:-1][flags], br[1:][flags]):
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


def lemma_epsilon(
    f: C1Function,
    a: Rat,
    b: Rat,
    c: Rat,
    tol: float = 1e-4,
    floor: float = _EPS_FLOOR,
    exempt_budget: float | None = None,
) -> float:
    """Certified eps for the witness property: every x in [0, 1-2^-a] that
    fails the forward-upper condition at scale b admits y in (x+eps, x+2^-b]
    with f(y)-f(x) > c(y-x).

    Starts at eps = 2^-b/4 and halves until every cell of an outer enclosure
    of the failing set either carries a shared witness point beating the
    cell's maximum of f - c*id, or is exempt because it provably lies in the
    scale-b set (where the property claims nothing).  Halving only enlarges
    the witness windows, so the search is monotone.

    Cells thinner than the bisection floor are exempted when they hug the
    boundary of the scale-b enclosure: membership there flips within float
    resolution and witness margins vanish linearly with the distance to the
    boundary, so no cell width can decide them.  Their total measure must
    stay below exempt_budget (default: a per-boundary resolution allowance),
    and downstream containments re-verify by enclosure, so nothing rests on
    them.  Floor cells far from the boundary have no such excuse and fail
    the pass; at eps < floor the search raises, never patches over.
    """
    af, bf, cf = as_fraction(a), as_fraction(b), as_fraction(c)
    if not 0 < af < cf < bf:
        raise ValueError("need 0 < a < c < b")
    # certified lower bound of 2^-b keeps every witness inside the true window
    win = _float_floor(pow2_bounds(bf)[0])
    win_hi = _float_ceil(pow2_bounds(bf)[1])
    eps0 = win / 4.0

    lb2a, _ = pow2_bounds(af)
    domain = IntervalSet.from_pairs([(0, 1 - lb2a)])
    enc_b = n_set_enclosure(f, bf, "plus_upper", tol)
    exceptional = domain.difference(enc_b.inner)
    if exceptional.is_empty:
        return eps0
    out_lo = np.array([_float_floor(lo) for lo, _ in enc_b.outer.intervals])
    out_hi = np.array([_float_ceil(hi) for _, hi in enc_b.outer.intervals])

    starts: list[np.ndarray] = []
    ends: list[np.ndarray] = []
    max_w = win / 8.0
    for lo, hi in exceptional.intervals:
        flo, fhi = _float_floor(lo), _float_ceil(hi)
        n = max(1, int(np.ceil((fhi - flo) / max_w)))
        edges = np.linspace(flo, fhi, n + 1)
        starts.append(edges[:-1])
        ends.append(edges[1:])
    u0 = np.concatenate(starts)
    v0 = np.concatenate(ends)

    c_up = _float_ceil(cf)
    psi = pieces_of(f).add_linear(-c_up)
    tab = _PhiTables(psi, win / 2.0, 1.0)
    der_cut = (float(bf) - c_up) - 1e-12 * (1.0 + float(bf))
    width_floor = 1e-10
    near_slack = 64.0 * width_floor
    if exempt_budget is None:
        n_bound = 2 * (len(exceptional.intervals) + len(out_lo))
        exempt_budget = max(1e-6, near_slack * n_bound)

    def sweep(u: np.ndarray, v: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
        # witness shared by the whole cell: a point past every x+eps, within
        # every true window, where f - c*id exceeds the cell's own maximum;
        # or exclusion: f' <= b across all the windows makes f - b*id
        # non-increasing there, so the whole cell lies in the scale-b set
        # and is exempt from the witness requirement
        wlo = v + eps * (1.0 + 1e-9) + 1e-15
        whi = np.minimum(u + win, 1.0)
        open_win = wlo < whi
        wmax = tab.range_upper(np.minimum(wlo, whi), whi)
        cmax = tab.range_upper(u, v)
        good = open_win & (wmax > cmax + 1e-12 * (1.0 + np.abs(wmax)))
        dmax = tab.deriv_upper(u, np.minimum(v + win_hi, 1.0))
        good |= dmax <= der_cut
        return u[~good], v[~good]

    def floor_cells_exempt(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        # distance from each cell to the outer enclosure of the scale-b set;
        # zero for cells overlapping it (the enclosure's own undecided strip)
        idx = np.searchsorted(out_lo, v)
        ahead = np.where(idx < len(out_lo), out_lo[np.minimum(idx, len(out_lo) - 1)] - v, np.inf)
        behind = np.where(idx > 0, u - out_hi[np.maximum(idx - 1, 0)], np.inf)
        dist = np.maximum(0.0, np.minimum(ahead, behind))
        return dist <= near_slack

    # a pass at a workable eps settles cells within a few halvings of their
    # start width; a cell count blowing past the cap instead means large
    # regions have no shared witness at this eps, so treat it as eps failure
    cap = max(100_000, 8 * len(u0))
    eps = eps0
    while eps >= floor:
        u, v = u0, v0
        hard_stall = False
        exempt = 0.0
        while len(u):
            if len(u) > cap:
                hard_stall = True
                break
            u, v = sweep(u, v, eps)
            if not len(u):
                break
            at_floor = (v - u) <= width_floor
            if at_floor.any():
                fu, fv = u[at_floor], v[at_floor]
                ok = floor_cells_exempt(fu, fv)
                exempt += float(np.sum(fv[ok] - fu[ok]))
                if not ok.all() or exempt > exempt_budget:
                    hard_stall = True
                    break
                u, v = u[~at_floor], v[~at_floor]
                if not len(u):
                    break
            mid = 0.5 * (u + v)
            u = np.concatenate([u, mid])
            v = np.concatenate([mid, v])
        if not hard_stall and not len(u):
            return eps
        eps /= 2.0
    raise EpsilonSearchError(
        f"no witness eps >= {floor:g} certifiable within the exemption budget "
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
    eps = lemma_epsilon(f, af, bf, cf, tol)
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


def check_bump_easy(f: C1Function, a: Rat, spec: BumpSpec, phi: C1Function | None = None) -> bool:
    """Located points that satisfy a reading for f keep satisfying it for
    f + bump: checked pointwise at every located point, both readings."""
    if phi is None:
        phi = make_bump(spec)
    g = f.add(phi)
    af = float(as_fraction(a))
    for reading in ("hat", "check"):
        pts = np.array(spec.located(reading).floats())
        if not len(pts):
            continue
        df = point_defects_float(f, af, reading, pts)
        dg = point_defects_float(g, af, reading, pts)
        if np.any((df <= _MEMBER_SLACK) & (dg > _KEEP_SLACK)):
            return False
    return True
