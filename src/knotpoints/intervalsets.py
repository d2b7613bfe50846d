"""Closed subsets of [0,1] as finite unions of rational intervals.

Everything in this module is exact: set algebra and the Hausdorff metric are
computed symbolically, never sampled.  Degenerate intervals (single points)
are allowed, so finite point sets embed.

Representation
--------------
An `IntervalSet` stores its endpoints as one flat tuple of Python ints,
`nums = (lo_0, hi_0, lo_1, hi_1, ...)`, over a single denominator `den`: the
components are [lo_k/den, hi_k/den], sorted, pairwise disjoint and
non-adjacent.  `den` is canonical, the lcm of the reduced endpoint
denominators (1 for the empty and the full set), so two sets are equal as
values exactly when their (nums, den) pairs are equal.  Comparisons, merging,
measures and distances are therefore integer operations.

A binary operation first rescales both operands to the lcm of their
denominators (for two dyadic sets, the finer power of two), and every result
is reduced back to its canonical denominator.  So `den` grows only when a
result keeps endpoints that need it: a ball of a non-dyadic radius around a
dyadic set, or the union of a dyadic enclosure with a net of multiples of
1/(5*2^k).

`fractions.Fraction` is the boundary type.  Constructors accept ints, floats
(by their exact binary value), strings and Fractions; `.intervals`,
`measure`, distances and margins come back as Fractions.  `.intervals` is
computed on each read, so hot code should stay on the integer form.

A `FinitePointSet` is stored the same way: one sorted tuple of distinct
Python-int numerators `nums` over its canonical denominator `den`, the lcm
of the reduced point denominators, so equal sets have equal (nums, den)
pairs.  Unions, gaps, nearest points and cover tests rescale to a common
denominator and stay on integers; `as_interval_set` doubles the numerators
into degenerate components without building a Fraction.  `.points` and
iteration give the Fraction view, built on each read.  `floats()` gives the
points as the same floats as `float(p)`, without building a Fraction.

Conventions
-----------
* The ambient space is I = [0,1].
* d(K, L) is the Hausdorff distance; d(K, emptyset) = 1 for nonempty K and
  d(emptyset, emptyset) = 0.
* Open balls B(A, r) around a closed set have the same interval data as their
  closures.  Inclusion checks of the form "compact inside open" are decided
  through strict margins (`subset_within`), which is exact, so no separate
  open-set representation is needed.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import add, le, lt, sub
from typing import Iterable, Sequence, Union

Rat = Union[int, float, str, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


def as_fraction(x: Rat) -> Fraction:
    """Exact conversion; floats convert via their binary value (lossless)."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def _pairs(nums: Sequence[int]) -> Iterable[tuple[int, int]]:
    return zip(nums[0::2], nums[1::2])


def _normalize(pairs: Iterable[tuple[int, int]]) -> list[int]:
    """Flat endpoints of the union of integer intervals: sorted, with
    overlapping and touching intervals merged."""
    out: list[int] = []
    for lo, hi in sorted(pairs):
        if hi < lo:
            raise ValueError(f"interval with hi < lo: [{lo}, {hi}]")
        if out and lo <= out[-1]:
            if hi > out[-1]:
                out[-1] = hi
        else:
            out += (lo, hi)
    return out


def _gaps(nums: Sequence[int], den: int) -> list[tuple[int, int]]:
    """The closures of the nonempty gaps of a set in [0, den]."""
    return [p for p in _pairs((0, *nums, den)) if p[0] < p[1]]


def _scaled(nums: Sequence[int], m: int) -> Sequence[int]:
    return nums if m == 1 else list(map(m.__mul__, nums))


def _common(a: "IntervalSet", b: "IntervalSet") -> tuple[Sequence[int], Sequence[int], int]:
    """Endpoints of a and b over the lcm of their denominators."""
    if a.den == b.den:
        return a.nums, b.nums, a.den
    den = lcm(a.den, b.den)
    return _scaled(a.nums, den // a.den), _scaled(b.nums, den // b.den), den


def _directed_sup2(a: Sequence[int], b: Sequence[int]) -> int:
    """Twice sup_{x in A} dist(x, B) for nonempty A, B given by their flat
    endpoints over one denominator.

    dist(., B) is piecewise linear, peaking at component endpoints of A or at
    gap midpoints of B inside A, where it equals half the gap.  Working with
    doubled values keeps the midpoints integral."""
    nb = len(b)
    bhi, blo = b[1:-1:2], b[2::2]
    mids = list(map(add, bhi, blo))  # doubled gap midpoints, increasing
    gaps = list(map(sub, blo, bhi))  # doubled distance at each midpoint
    nm = len(mids)
    sup = gsup = 0
    for lo, hi in _pairs(a):
        for x in (lo,) if lo == hi else (lo, hi):
            i = bisect_right(b, x)
            if i & 1:
                continue  # x lies in a component of B
            if i == 0:
                d = b[0] - x
            elif i == nb:
                d = x - b[-1]
            else:
                d = x - b[i - 1]
                if b[i] - x < d:
                    d = b[i] - x
            if d > sup:
                sup = d
        g0 = bisect_left(mids, 2 * lo)
        if g0 < nm and mids[g0] <= 2 * hi:
            d = max(gaps[g0 : bisect_right(mids, 2 * hi, g0)])
            if d > gsup:
                gsup = d
    return max(2 * sup, gsup)


class _IntRationals:
    """Storage shared by `IntervalSet` and `FinitePointSet`: a sorted tuple
    of int numerators `nums` over the canonical denominator `den` (see the
    module docstring).  A subclass checks its own order in `_check`; this
    class checks that the values lie in [0,1], reduces to the canonical
    denominator and makes the instance immutable."""

    __slots__ = ("nums", "den")
    _OUTSIDE = ""

    def __init__(self, nums: Iterable[int] = (), den: int = 1) -> None:
        nums = tuple(nums)
        self._check(nums, den)
        if nums and (nums[0] < 0 or nums[-1] > den):
            raise ValueError(self._OUTSIDE)
        g = gcd(den, *nums)
        if g != 1:
            nums = tuple(x // g for x in nums)
            den //= g
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    @staticmethod
    def _check(nums: tuple[int, ...], den: int) -> None:
        raise NotImplementedError

    def __setattr__(self, name, value):
        raise AttributeError(f"{self.__class__.__name__} is immutable")

    def __reduce__(self):
        return self.__class__, (self.nums, self.den)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.den == other.den and self.nums == other.nums


class IntervalSet(_IntRationals):
    """A closed subset of [0,1]: sorted, pairwise disjoint, non-adjacent closed
    intervals with integer endpoints `nums` over the canonical denominator
    `den` (see the module docstring).  Immutable; `IntervalSet(nums, den)`
    checks the order and reduces to the canonical denominator, and the
    `from_pairs` constructor normalizes arbitrary rational pairs."""

    __slots__ = ()
    _OUTSIDE = "interval leaves [0,1]"

    @staticmethod
    def _check(nums: tuple[int, ...], den: int) -> None:
        if den <= 0 or len(nums) % 2:
            raise ValueError("need an even number of endpoints over a positive denominator")
        if not all(map(le, nums[0::2], nums[1::2])):
            raise ValueError("malformed interval")
        if not all(map(lt, nums[1:-1:2], nums[2::2])):
            raise ValueError("intervals not disjoint/sorted; use from_pairs")

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[Rat, Rat]]) -> "IntervalSet":
        conv = [(as_fraction(a), as_fraction(b)) for a, b in pairs]
        for lo, hi in conv:
            if lo < 0 or hi > 1:
                raise ValueError(f"interval [{lo}, {hi}] leaves [0,1]")
        den = lcm(*(x.denominator for pair in conv for x in pair))
        ints = [
            (lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator))
            for lo, hi in conv
        ]
        return IntervalSet(_normalize(ints), den)

    @staticmethod
    def empty() -> "IntervalSet":
        return IntervalSet()

    @staticmethod
    def full() -> "IntervalSet":
        return IntervalSet((0, 1))

    @staticmethod
    def points(xs: Iterable[Rat]) -> "IntervalSet":
        return IntervalSet.from_pairs([(x, x) for x in xs])

    # -- the Fraction view and value semantics -----------------------------

    @property
    def intervals(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """The components as normalized (lo, hi) Fraction pairs, built on
        each read."""
        den = self.den
        ends = iter([Fraction(x, den) for x in self.nums])
        return tuple(zip(ends, ends))

    def __hash__(self) -> int:
        return hash((self.intervals,))

    def __repr__(self) -> str:
        return f"IntervalSet(intervals={self.intervals!r})"

    # -- basic queries -----------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.nums

    def n_components(self) -> int:
        return len(self.nums) // 2

    def measure(self) -> Fraction:
        e = self.nums
        return Fraction(sum(e[1::2]) - sum(e[0::2]), self.den)

    def _locate(self, x: Fraction) -> tuple[int, bool]:
        """(i, inside): i counts the endpoints <= floor(x*den), and inside
        tells whether x lies in the set."""
        t, rem = divmod(x.numerator * self.den, x.denominator)
        e = self.nums
        i = bisect_right(e, t)
        return i, bool(i & 1) or (rem == 0 and i > 0 and e[i - 1] == t)

    def contains_point(self, x: Rat) -> bool:
        return self._locate(as_fraction(x))[1]

    # -- set algebra -------------------------------------------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        a, b, den = _common(self, other)
        return IntervalSet(_normalize(chain(_pairs(a), _pairs(b))), den)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        a, b, den = _common(self, other)
        out: list[int] = []
        i = j = 0
        na, nb = len(a), len(b)
        while i < na and j < nb:
            lo = max(a[i], b[j])
            hi = min(a[i + 1], b[j + 1])
            if lo <= hi:
                out += (lo, hi)
            if a[i + 1] < b[j + 1]:
                i += 2
            else:
                j += 2
        return IntervalSet(out, den)

    def complement_closure(self) -> "IntervalSet":
        """Closure of [0,1] minus this set.  Removing a single point removes
        nothing from the closure, so degenerate components vanish here."""
        return IntervalSet(_normalize(_gaps(self.nums, self.den)), self.den)

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        """Closure of self minus other."""
        return self.intersect(other.complement_closure())

    def reflect(self) -> "IntervalSet":
        """Image under x -> 1-x."""
        den = self.den
        return IntervalSet([den - x for x in reversed(self.nums)], den)

    def closed_complement_of_interior(self) -> "IntervalSet":
        """[0,1] minus the interior of this set (interior taken in the
        subspace topology of [0,1], so components touching 0 or 1 are open
        there).  The result is closed: the boundary of this set survives."""
        den = self.den
        pieces = _gaps(self.nums, den)
        for lo, hi in _pairs(self.nums):
            if lo == hi:
                pieces.append((lo, hi))  # a point has empty interior
            else:
                if lo != 0:
                    pieces.append((lo, lo))
                if hi != den:
                    pieces.append((hi, hi))
        return IntervalSet(_normalize(pieces), den)

    def subset_of_interior(self, other: "IntervalSet") -> bool:
        """self contained in the (subspace) interior of other, exactly."""
        return self.intersect(other.closed_complement_of_interior()).is_empty

    # -- metric ------------------------------------------------------------

    def _directed_sup(self, other: "IntervalSet") -> Fraction:
        """sup over x in self of dist(x, other); self, other nonempty."""
        a, b, den = _common(self, other)
        return Fraction(_directed_sup2(a, b), 2 * den)

    def hausdorff(self, other: "IntervalSet") -> Fraction:
        if self.is_empty and other.is_empty:
            return ZERO
        if self.is_empty or other.is_empty:
            return ONE
        a, b, den = _common(self, other)
        return Fraction(max(_directed_sup2(a, b), _directed_sup2(b, a)), 2 * den)

    def min_distance_to(self, other: "IntervalSet") -> Fraction | None:
        """min distance between the two sets; None when either is empty."""
        if self.is_empty or other.is_empty:
            return None
        a, b, den = _common(self, other)
        best: int | None = None
        i = j = 0
        na, nb = len(a), len(b)
        while i < na and j < nb:
            if max(a[i], b[j]) <= min(a[i + 1], b[j + 1]):
                return ZERO
            d = a[i] - b[j + 1] if a[i] > b[j + 1] else b[j] - a[i + 1]
            if best is None or d < best:
                best = d
            if a[i + 1] < b[j + 1]:
                i += 2
            else:
                j += 2
        return Fraction(best, den)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"intervals": [[str(lo), str(hi)] for lo, hi in self.intervals]}

    @staticmethod
    def from_json_dict(d: dict) -> "IntervalSet":
        return IntervalSet.from_pairs([(Fraction(a), Fraction(b)) for a, b in d["intervals"]])

    def __str__(self) -> str:
        if self.is_empty:
            return "{}"
        return " u ".join(
            f"{{{lo}}}" if lo == hi else f"[{lo}, {hi}]" for lo, hi in self.intervals
        )


FULL = IntervalSet.full()
EMPTY = IntervalSet.empty()


def ball(center: IntervalSet, r: Rat) -> IntervalSet:
    """Interval data of B(center, r) clipped to [0,1].  The open ball and its
    closure share this data; openness is handled by the strict checks below."""
    r = as_fraction(r)
    if r < 0:
        raise ValueError("radius must be >= 0")
    den = lcm(center.den, r.denominator)
    e = _scaled(center.nums, den // center.den)
    rn = r.numerator * (den // r.denominator)
    pairs = ((max(0, lo - rn), min(den, hi + rn)) for lo, hi in _pairs(e))
    return IntervalSet(_normalize(pairs), den)


def subset_within(inner: IntervalSet, outer: IntervalSet, r: Rat) -> tuple[bool, Fraction]:
    """Decide `inner` subset of the open ball B(outer, r), exactly.

    Returns (ok, margin) where margin = r - sup_{x in inner} dist(x, outer),
    the exact inclusion slack (sup convention: inner empty gives margin r).
    ok is True iff the margin is strictly positive.
    """
    r = as_fraction(r)
    if inner.is_empty:
        return True, r
    if outer.is_empty:
        return False, ZERO
    h = inner._directed_sup(outer)
    return h < r, r - h


def is_subset(inner: IntervalSet, outer: IntervalSet) -> bool:
    """Plain containment of closed sets (radius-0 closed inclusion)."""
    a, b, _ = _common(inner, outer)
    j = 0
    nb = len(b)
    for lo, hi in _pairs(a):
        while j < nb and b[j + 1] < lo:
            j += 2
        if j >= nb or b[j] > lo or hi > b[j + 1]:
            return False
    return True


def disjoint_gap(a: IntervalSet, b: IntervalSet) -> tuple[bool, Fraction | None]:
    """(disjoint?, gap).  gap is the positive separation when disjoint, 0 when
    they meet, None when either set is empty (vacuously disjoint)."""
    d = a.min_distance_to(b)
    if d is None:
        return True, None
    return d > 0, d


class FinitePointSet(_IntRationals):
    """Finite set of rational points in [0,1]: sorted, distinct integer
    numerators `nums` over the canonical denominator `den` (see the module
    docstring).  Immutable; `FinitePointSet(nums, den)` checks the order and
    reduces to the canonical denominator, and `of` and `from_ratios` accept
    arbitrary rationals in any order."""

    __slots__ = ("_iset",)
    _OUTSIDE = "point leaves [0,1]"

    def __init__(self, nums: Iterable[int] = (), den: int = 1) -> None:
        super().__init__(nums, den)
        object.__setattr__(self, "_iset", None)

    @staticmethod
    def _check(nums: tuple[int, ...], den: int) -> None:
        if den <= 0:
            raise ValueError("need a positive denominator")
        if not all(map(lt, nums, nums[1:])):
            raise ValueError("points not sorted and distinct; use of")

    @staticmethod
    def of(xs: Iterable[Rat]) -> "FinitePointSet":
        return FinitePointSet.from_ratios([_ratio(as_fraction(x)) for x in xs])

    @staticmethod
    def from_ratios(ratios: Sequence[tuple[int, int]]) -> "FinitePointSet":
        """The set of the points n/d over the (n, d) pairs, in any order and
        with repeats; d > 0 need not be reduced."""
        den = lcm(*{d for _, d in ratios})
        nums = [n * (den // d) for n, d in ratios]
        if not all(map(lt, nums, nums[1:])):
            nums = sorted(set(nums))
        if nums and (nums[0] < 0 or nums[-1] > den):
            bad = nums[0] if nums[0] < 0 else nums[-1]
            raise ValueError(f"point {Fraction(bad, den)} outside [0,1]")
        return FinitePointSet(nums, den)

    # -- the Fraction view and value semantics -----------------------------

    @property
    def points(self) -> tuple[Fraction, ...]:
        """The points as sorted Fractions, built on each read."""
        den = self.den
        return tuple([Fraction(x, den) for x in self.nums])

    def __hash__(self) -> int:
        return hash((self.points,))

    def __repr__(self) -> str:
        return f"FinitePointSet(points={self.points!r})"

    @property
    def is_empty(self) -> bool:
        return not self.nums

    def __len__(self) -> int:
        return len(self.nums)

    def __iter__(self):
        return iter(self.points)

    def floats(self) -> list[float]:
        """float(p) for every point p, in order.  n / den is the correctly
        rounded int division that `Fraction.__float__` performs, so the bits
        agree."""
        den = self.den
        return [x / den for x in self.nums]

    # -- queries -----------------------------------------------------------

    def as_interval_set(self) -> IntervalSet:
        """The points as degenerate components, cached on the instance."""
        if self._iset is None:
            # sorted distinct points over the canonical denominator are
            # already an IntervalSet in normal form
            doubled = list(chain.from_iterable(zip(self.nums, self.nums)))
            object.__setattr__(self, "_iset", IntervalSet(doubled, self.den))
        return self._iset

    def min_gap(self) -> Fraction | None:
        """Smallest spacing between consecutive points; None when fewer than 2."""
        e = self.nums
        if len(e) < 2:
            return None
        return Fraction(min(map(sub, e[1:], e)), self.den)

    def nearest(self, x: Rat) -> Fraction:
        """The point of the set closest to x (ties resolve to the left)."""
        if self.is_empty:
            raise ValueError("nearest point of an empty set")
        x = as_fraction(x)
        e, den = self.nums, self.den
        # compare den*x*q against the points scaled by q = x.denominator
        q = x.denominator
        t = x.numerator * den
        i = bisect_right(e, t // q)
        cands = e[max(i - 1, 0) : i + 1]
        return Fraction(min(cands, key=lambda p: abs(p * q - t)), den)

    def union(self, other: "FinitePointSet") -> "FinitePointSet":
        return union_of_point_sets((self, other))

    def intersection(self, other: "FinitePointSet") -> "FinitePointSet":
        (a, b), den = common_numerators((self, other))
        return FinitePointSet(sorted(set(a).intersection(b)), den)

    # -- serialization -----------------------------------------------------

    def to_json_list(self) -> list[str]:
        den = self.den
        out = []
        for x in self.nums:
            g = gcd(x, den)
            out.append(str(x // g) if g == den else f"{x // g}/{den // g}")
        return out

    @staticmethod
    def from_json_list(items: Sequence[str]) -> "FinitePointSet":
        return FinitePointSet.from_ratios([_ratio(Fraction(s)) for s in items])


def _ratio(x: Union[int, Fraction]) -> tuple[int, int]:
    return x.numerator, x.denominator


def common_numerators(sets: Sequence[FinitePointSet]) -> tuple[list[Sequence[int]], int]:
    """The numerators of every set over the lcm of their denominators."""
    den = lcm(*(s.den for s in sets))
    return [_scaled(s.nums, den // s.den) for s in sets], den


def open_cover_full(points: FinitePointSet, r: Rat) -> bool:
    """Exact test that the union of OPEN balls B(p, r), p in points, covers
    [0,1]: the first point must be < r from 0, the last < r from 1, and every
    consecutive gap must be < 2r (all strict)."""
    r = as_fraction(r)
    if points.is_empty:
        return False
    e, den = points.nums, points.den
    # x/den < r  <=>  x * r.denominator < r.numerator * den
    rd, rn = r.denominator, r.numerator * den
    if e[0] * rd >= rn or (den - e[-1]) * rd >= rn:
        return False
    return len(e) < 2 or max(map(sub, e[1:], e)) * rd < 2 * rn


def union_of_point_sets(sets: Iterable[FinitePointSet]) -> FinitePointSet:
    nums, den = common_numerators(list(sets))
    # sorting the concatenated sorted runs merges them
    merged = sorted(chain.from_iterable(nums))
    if not all(map(lt, merged, merged[1:])):
        merged = sorted(set(merged))
    return FinitePointSet(merged, den)


def pairwise_disjoint(sets: Sequence[FinitePointSet]) -> bool:
    nums, _ = common_numerators(sets)
    return len(set().union(*nums)) == sum(map(len, nums))


def prefix_distance(K: Sequence[IntervalSet], L: Sequence[IntervalSet], l: int) -> Fraction:
    """max_{n in [l]} d(K_n, L_n), the hyperspace-product gauge on prefixes."""
    if l < 1 or l > len(K) or l > len(L):
        raise ValueError("prefix length out of range")
    return max(K[n].hausdorff(L[n]) for n in range(l))
