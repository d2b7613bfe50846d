"""Function representations on [0,1].

Two concrete classes:

* `PwlFunction` -- continuous piecewise-linear with rational breakpoints and
  values.  All arithmetic is exact over `fractions.Fraction`; this is the
  ground-truth path.
* `C1Function` -- C^1 piecewise-cubic Hermite data (knots, values, slopes) in
  binary floating point.  Derived quantities (sup norms, range bounds) are
  computed from closed-form cubic extrema, so they are exact up to float
  rounding; nothing is sampled.

`CubicPieces` is the float evaluation form (power-basis coefficients per
cell): a C1Function evaluates and bounds through the one it builds, and the
certified enclosure machinery reads both classes through `as_cubic_pieces`.
Negation and reflection act on the function classes, never on the pieces.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .intervalsets import Rat, as_fraction

__all__ = [
    "PwlFunction",
    "C1Function",
    "CubicPieces",
    "random_function",
    "random_c1_function",
    "function_to_json",
    "function_from_json",
]


# ---------------------------------------------------------------------------
# exact piecewise linear
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PwlFunction:
    """Continuous piecewise-linear function with exact rational data.

    The canonical domain is [0,1], but any rational subdomain of [0,1] is
    allowed because window-maximum envelopes naturally live on [0, 1-2^-a].
    """

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.breakpoints) != len(self.values):
            raise ValueError("breakpoints and values must have equal length")
        if len(self.breakpoints) < 1:
            raise ValueError("need at least one breakpoint")
        for a, b in zip(self.breakpoints, self.breakpoints[1:]):
            if not a < b:
                raise ValueError("breakpoints must be strictly increasing")
        if self.breakpoints[0] < 0 or self.breakpoints[-1] > 1:
            raise ValueError("domain must lie inside [0,1]")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[Rat, Rat]]) -> "PwlFunction":
        pts = sorted((as_fraction(x), as_fraction(v)) for x, v in pairs)
        return PwlFunction(tuple(p[0] for p in pts), tuple(p[1] for p in pts))

    @staticmethod
    def constant(c: Rat, lo: Rat = 0, hi: Rat = 1) -> "PwlFunction":
        return PwlFunction.from_pairs([(lo, c), (hi, c)])

    @staticmethod
    def zero() -> "PwlFunction":
        return PwlFunction.constant(0)

    @staticmethod
    def zigzag() -> "PwlFunction":
        """The tent map: 0 at the endpoints, 1 at 1/2."""
        return PwlFunction.from_pairs([(0, 0), (Fraction(1, 2), 1), (1, 0)])

    # -- basic queries -----------------------------------------------------

    @property
    def domain(self) -> tuple[Fraction, Fraction]:
        return self.breakpoints[0], self.breakpoints[-1]

    def eval(self, x: Rat) -> Fraction:
        x = as_fraction(x)
        lo, hi = self.domain
        if x < lo or x > hi:
            raise ValueError(f"{x} outside domain [{lo}, {hi}]")
        i = bisect_right(self.breakpoints, x) - 1
        if i == len(self.breakpoints) - 1:
            return self.values[-1]
        x0, x1 = self.breakpoints[i], self.breakpoints[i + 1]
        v0, v1 = self.values[i], self.values[i + 1]
        return v0 + (v1 - v0) * (x - x0) / (x1 - x0)

    def __call__(self, x: Rat) -> Fraction:
        return self.eval(x)

    def sup_norm(self) -> Fraction:
        return max(abs(v) for v in self.values)

    def slopes(self) -> tuple[Fraction, ...]:
        return tuple(
            (v1 - v0) / (x1 - x0)
            for x0, x1, v0, v1 in zip(
                self.breakpoints, self.breakpoints[1:], self.values, self.values[1:]
            )
        )

    def lipschitz_bound(self) -> Fraction:
        if len(self.breakpoints) == 1:
            return Fraction(0)
        return max(abs(s) for s in self.slopes())

    # -- arithmetic (exact) ------------------------------------------------

    def _merged_breaks(self, other: "PwlFunction") -> tuple[Fraction, ...]:
        if self.domain != other.domain:
            raise ValueError("domain mismatch")
        return tuple(sorted(set(self.breakpoints) | set(other.breakpoints)))

    def add(self, other: "PwlFunction") -> "PwlFunction":
        bks = self._merged_breaks(other)
        return PwlFunction(bks, tuple(self.eval(x) + other.eval(x) for x in bks))

    def sub(self, other: "PwlFunction") -> "PwlFunction":
        return self.add(other.scale(-1))

    def scale(self, c: Rat) -> "PwlFunction":
        c = as_fraction(c)
        return PwlFunction(self.breakpoints, tuple(c * v for v in self.values))

    def negate(self) -> "PwlFunction":
        return self.scale(-1)

    def add_linear(self, slope: Rat, intercept: Rat = 0) -> "PwlFunction":
        slope, intercept = as_fraction(slope), as_fraction(intercept)
        return PwlFunction(
            self.breakpoints,
            tuple(v + slope * x + intercept for x, v in zip(self.breakpoints, self.values)),
        )

    def reflect(self) -> "PwlFunction":
        """x -> f(1-x); requires the full domain [0,1]."""
        if self.domain != (Fraction(0), Fraction(1)):
            raise ValueError("reflect needs domain [0,1]")
        return PwlFunction(
            tuple(1 - b for b in reversed(self.breakpoints)), tuple(reversed(self.values))
        )

    def sup_norm_diff(self, other: "PwlFunction") -> Fraction:
        return self.sub(other).sup_norm()

    # -- conversions -------------------------------------------------------

    def as_cubic_pieces(self) -> "CubicPieces":
        breaks = np.array([float(b) for b in self.breakpoints])
        coeffs = np.zeros((len(self.breakpoints) - 1, 4))
        coeffs[:, 0] = [float(v) for v in self.values[:-1]]
        coeffs[:, 1] = [float(s) for s in self.slopes()]
        return CubicPieces(breaks, coeffs)


# ---------------------------------------------------------------------------
# float piecewise cubic
# ---------------------------------------------------------------------------


def _hermite_coeffs(knots: np.ndarray, values: np.ndarray, slopes: np.ndarray) -> np.ndarray:
    """Power-basis coefficients per cell in the local coordinate s = x - x0."""
    h = np.diff(knots)
    v0, v1 = values[:-1], values[1:]
    m0, m1 = slopes[:-1], slopes[1:]
    d = (v1 - v0) / h
    c = np.empty((len(h), 4))
    c[:, 0] = v0
    c[:, 1] = m0
    c[:, 2] = (3.0 * d - 2.0 * m0 - m1) / h
    c[:, 3] = (m0 + m1 - 2.0 * d) / (h * h)
    return c


class C1Function:
    """C^1 piecewise-cubic Hermite interpolant on [0,1].

    members:
      knots  -- strictly increasing float array, knots[0] = 0, knots[-1] = 1
      values -- f at the knots
      slopes -- f' at the knots

    Treated as immutable; arithmetic returns new objects.  Sums are exact:
    the union of knot grids represents both addends exactly.
    """

    def __init__(self, knots: Sequence[float], values: Sequence[float], slopes: Sequence[float]):
        self.knots = np.asarray(knots, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self.slopes = np.asarray(slopes, dtype=float)
        if not (len(self.knots) == len(self.values) == len(self.slopes)):
            raise ValueError("knots/values/slopes length mismatch")
        if len(self.knots) < 2:
            raise ValueError("need at least two knots")
        if np.any(np.diff(self.knots) <= 0):
            raise ValueError("knots must be strictly increasing")
        if self.knots[0] != 0.0 or self.knots[-1] != 1.0:
            raise ValueError("C1Function lives on [0,1]")
        self._pieces = CubicPieces(
            self.knots, _hermite_coeffs(self.knots, self.values, self.slopes)
        )

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "C1Function":
        return C1Function([0.0, 1.0], [0.0, 0.0], [0.0, 0.0])

    @staticmethod
    def linear(slope: float, intercept: float = 0.0) -> "C1Function":
        return C1Function([0.0, 1.0], [intercept, intercept + slope], [slope, slope])

    # -- evaluation --------------------------------------------------------

    def _at(self, x, deriv: bool):
        xa = np.asarray(x, dtype=float)
        out = self._pieces.eval_vec(np.atleast_1d(xa), deriv)
        return out if xa.ndim else float(out[0])

    def eval(self, x) -> np.ndarray | float:
        return self._at(x, deriv=False)

    def __call__(self, x):
        return self.eval(x)

    def deriv(self, x) -> np.ndarray | float:
        return self._at(x, deriv=True)

    # -- norms (closed-form extrema, not sampling) -------------------------

    def _norm(self, kernel) -> float:
        """max |.| of the cubics, or of their derivatives, over every piece."""
        p = self._pieces
        lo, hi = kernel(p.coeffs.T, 0.0, np.diff(p.breaks))
        return max(abs(float(lo.min())), abs(float(hi.max())))

    def sup_norm(self) -> float:
        if not hasattr(self, "_sup_norm_cache"):
            self._sup_norm_cache = self._norm(cubic_range)
        return self._sup_norm_cache

    def deriv_sup_norm(self) -> float:
        if not hasattr(self, "_deriv_sup_norm_cache"):
            self._deriv_sup_norm_cache = self._norm(cubic_deriv_range)
        return self._deriv_sup_norm_cache

    def sup_norm_diff(self, other: "C1Function") -> float:
        return self.add(other.scale(-1.0)).sup_norm()

    # -- arithmetic --------------------------------------------------------

    def add(self, other: "C1Function") -> "C1Function":
        ks = np.union1d(self.knots, other.knots)
        return C1Function(
            ks,
            np.asarray(self.eval(ks)) + np.asarray(other.eval(ks)),
            np.asarray(self.deriv(ks)) + np.asarray(other.deriv(ks)),
        )

    def scale(self, c: float) -> "C1Function":
        return C1Function(self.knots, c * self.values, c * self.slopes)

    def negate(self) -> "C1Function":
        return self.scale(-1.0)

    def reflect(self) -> "C1Function":
        return C1Function(1.0 - self.knots[::-1], self.values[::-1], -self.slopes[::-1])

    def add_linear(self, slope: float, intercept: float = 0.0) -> "C1Function":
        return C1Function(
            self.knots, self.values + slope * self.knots + intercept, self.slopes + slope
        )

    def as_cubic_pieces(self) -> "CubicPieces":
        return self._pieces

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, C1Function)
            and np.array_equal(self.knots, other.knots)
            and np.array_equal(self.values, other.values)
            and np.array_equal(self.slopes, other.slopes)
        )


# ---------------------------------------------------------------------------
# shared low-level form
# ---------------------------------------------------------------------------


def cubic_eval(c: np.ndarray, s) -> np.ndarray:
    """Value of each cubic at s by Horner's rule; c has shape (4, n), c[k]
    the coefficient of s^k."""
    return ((c[3] * s + c[2]) * s + c[1]) * s + c[0]


def cubic_deriv_eval(c: np.ndarray, s) -> np.ndarray:
    """Value of each cubic's derivative at s."""
    return (3.0 * c[3] * s + 2.0 * c[2]) * s + c[1]


def cubic_critical_points(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The real roots of each cubic's derivative as two arrays, NaN or
    infinite where a root is missing or overflows (such a value lies strictly
    inside no interval)."""
    qa, qb = 3.0 * c[3], 2.0 * c[2]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        sq = np.sqrt(qb * qb - 4.0 * qa * c[1])
        den = 2.0 * qa
        r1 = np.where(qa != 0.0, (-qb - sq) / den, -c[1] / qb)
        r2 = (-qb + sq) / den
    return r1, r2


def cubic_deriv_vertex(c: np.ndarray) -> np.ndarray:
    """The vertex of each cubic's derivative parabola, NaN or infinite where
    there is none (c[3] = 0)."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return -c[2] / (3.0 * c[3])


def _widen_at(lo, hi, f, c, r, s_lo, s_hi) -> None:
    """Widen [lo, hi] by the value of f at the candidates r strictly inside
    (s_lo, s_hi), in place."""
    idx = np.flatnonzero((r > s_lo) & (r < s_hi))
    if len(idx):
        val = f(c[:, idx], r[idx])
        lo[idx] = np.minimum(lo[idx], val)
        hi[idx] = np.maximum(hi[idx], val)


def cubic_range(c: np.ndarray, s_lo, s_hi) -> tuple[np.ndarray, np.ndarray]:
    """(min, max) of each cubic over [s_lo, s_hi], from closed-form extrema.

    c has shape (4, n), c[k] the coefficient of s^k.  The range of cubic i
    is that of its values at both ends and at the critical points strictly
    inside.  The roots of -c are those of c and IEEE rounding is
    sign-symmetric, so the min for c is minus the max for -c (up to the sign
    of a zero).
    """
    s_lo, s_hi = np.asarray(s_lo, dtype=float), np.asarray(s_hi, dtype=float)
    v0, v1 = cubic_eval(c, s_lo), cubic_eval(c, s_hi)
    lo, hi = np.minimum(v0, v1), np.maximum(v0, v1)
    for r in cubic_critical_points(c):
        _widen_at(lo, hi, cubic_eval, c, r, s_lo, s_hi)
    return lo, hi


def cubic_deriv_range(c: np.ndarray, s_lo, s_hi) -> tuple[np.ndarray, np.ndarray]:
    """(min, max) of each cubic's derivative over [s_lo, s_hi]: the ends and
    the vertex of the derivative parabola when it lies strictly inside."""
    s_lo, s_hi = np.asarray(s_lo, dtype=float), np.asarray(s_hi, dtype=float)
    d0, d1 = cubic_deriv_eval(c, s_lo), cubic_deriv_eval(c, s_hi)
    lo, hi = np.minimum(d0, d1), np.maximum(d0, d1)
    _widen_at(lo, hi, cubic_deriv_eval, c, cubic_deriv_vertex(c), s_lo, s_hi)
    return lo, hi


class CubicPieces:
    """Piecewise cubic on [breaks[0], breaks[-1]], power basis per cell in the
    local coordinate s = x - breaks[i]: the float form every function is
    evaluated and bounded through.  Continuity is the caller's business."""

    def __init__(self, breaks: np.ndarray, coeffs: np.ndarray):
        self.breaks = np.asarray(breaks, dtype=float)
        self.coeffs = np.asarray(coeffs, dtype=float)
        if len(self.breaks) != len(self.coeffs) + 1:
            raise ValueError("need one coefficient row per cell")

    def eval_vec(self, xs: np.ndarray, deriv: bool = False) -> np.ndarray:
        """Values, or derivatives when `deriv` is set, at the points xs; the
        end cells extend past the breaks."""
        i = np.clip(np.searchsorted(self.breaks, xs, side="right") - 1, 0, len(self.coeffs) - 1)
        kernel = cubic_deriv_eval if deriv else cubic_eval
        return kernel(self.coeffs[i].T, xs - self.breaks[i])

    def add_linear(self, slope: float, intercept: float = 0.0) -> "CubicPieces":
        coeffs = self.coeffs.copy()
        coeffs[:, 0] += slope * self.breaks[:-1] + intercept
        coeffs[:, 1] += slope
        return CubicPieces(self.breaks, coeffs)


def pieces_of(f) -> CubicPieces:
    """CubicPieces view of a PwlFunction, C1Function, or CubicPieces."""
    if isinstance(f, CubicPieces):
        return f
    return f.as_cubic_pieces()


# ---------------------------------------------------------------------------
# random corpora
# ---------------------------------------------------------------------------


def random_function(
    seed: int, depth: int = 6, decay: Rat = Fraction(3, 5), amplitude: Rat = 1
) -> PwlFunction:
    """Midpoint-displacement roughness on the dyadic grid of the given depth.

    Exact rational output: displacements are dyadic rationals drawn from a
    seeded stdlib generator, scaled by decay^level.  depth 0 is a random line.
    The output is clamped into [-1, 1] range-wise only by choice of amplitude;
    no clipping is applied.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    rng = random.Random(seed)
    decay = as_fraction(decay)
    amplitude = as_fraction(amplitude)

    def draw() -> Fraction:
        return Fraction(rng.getrandbits(40), 2**39) - 1  # exact dyadic in [-1, 1)

    # values at the grid points i/2^level in x-order; each level draws its
    # midpoints left to right
    vals = [amplitude * draw(), amplitude * draw()]
    scale = amplitude
    for _ in range(depth):
        scale *= decay
        finer = [vals[0]]
        for va, vb in zip(vals, vals[1:]):
            finer += ((va + vb) / 2 + scale * draw(), vb)
        vals = finer
    n = len(vals) - 1
    return PwlFunction(tuple(Fraction(i, n) for i in range(n + 1)), tuple(vals))


def random_c1_function(
    seed: int, cells: int = 6, amplitude: float = 0.5, slope_scale: float = 2.0
) -> C1Function:
    """Random smooth-ish Hermite data on a uniform grid; float path corpus."""
    rng = random.Random(seed)
    knots = np.linspace(0.0, 1.0, cells + 1)
    values = np.array([amplitude * (2.0 * rng.random() - 1.0) for _ in knots])
    slopes = np.array([slope_scale * (2.0 * rng.random() - 1.0) for _ in knots])
    return C1Function(knots, values, slopes)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def function_to_json(f) -> dict:
    if isinstance(f, PwlFunction):
        return {
            "class": "pwl",
            "knots": [str(b) for b in f.breakpoints],
            "values": [str(v) for v in f.values],
        }
    if isinstance(f, C1Function):
        return {
            "class": "c1",
            "knots": [repr(float(k)) for k in f.knots],
            "values": [repr(float(v)) for v in f.values],
            "slopes": [repr(float(s)) for s in f.slopes],
        }
    raise TypeError(f"not serializable: {type(f)}")


def function_from_json(d: dict):
    cls = d.get("class")
    if cls == "pwl":
        return PwlFunction(
            tuple(Fraction(s) for s in d["knots"]), tuple(Fraction(s) for s in d["values"])
        )
    if cls == "c1":
        return C1Function(
            [float(s) for s in d["knots"]],
            [float(s) for s in d["values"]],
            [float(s) for s in d["slopes"]],
        )
    raise ValueError(f"unknown function class {cls!r}")
