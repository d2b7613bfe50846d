"""Finite combinatorics of index sequences and set-sequence inclusions.

The objects here are finite prefixes of three sequence spaces: index
sequences n_1 < n_2 < ... with n_{j+1} >= n_j + j, strictly decreasing
delta sequences in (0,1), and sequences of compact subsets of [0,1].  From an
index sequence we build the finite index sets

    A_j^m(n) = [n_j]  union  {n_i+1, ..., n_i+j-1} for i = j..m-1,

whose telescoping structure drives two families of covering conditions:
the S-condition relates consecutive difference blocks of a set sequence to
slightly earlier sets, and the Y-condition ties the sequence to the exception
sets of a function at a scale ladder.  All checks run on explicit prefixes
with a caller-supplied depth and report the exact (j,m) witnesses on failure.

Scales are exact rationals throughout; set inclusions use the exact interval
arithmetic from `intervalsets` (open balls checked with strict margin).

Every claim about an exception set N(f, a), here and in the ball game of
`bmgame`, reads N(f, a) from one store per function and tolerance,
`Enclosures`, and is decided by one rule, `enclosure_verdict`: certified
when the sound side of the enclosure passes, undecided when only the other
side does, failed when neither does.  A scale the enclosure engine refuses
is no exception: the store keeps the bracket it can still certify there.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .intervalsets import (
    EMPTY,
    FULL,
    IntervalSet,
    Rat,
    as_fraction,
    subset_within,
)
from .nsets import _ENGINE_SCALE_CAP, EnclosureRangeError, NSetEnclosure, n_set_enclosure

__all__ = [
    "IndexSeq",
    "DeltaSeq",
    "SeqOfSets",
    "ScaleLadder",
    "CombCheck",
    "Enclosures",
    "enclosure_verdict",
    "index_set_A",
    "shift_seq",
    "check_S_k",
    "check_Y_k",
    "check_perm_A",
    "random_index_seq",
    "random_finite_permutation",
]


@dataclass(frozen=True)
class IndexSeq:
    """Finite prefix of an index sequence with superlinear growth
    n_{j+1} >= n_j + j."""

    prefix: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "prefix", tuple(int(x) for x in self.prefix))
        if not self.prefix:
            raise ValueError("IndexSeq prefix must be nonempty")
        if self.prefix[0] < 1:
            raise ValueError("indices must be positive")
        for j, (x, y) in enumerate(zip(self.prefix, self.prefix[1:]), start=1):
            if y < x + j:
                raise ValueError(f"growth violated at position {j}: {y} < {x}+{j}")

    def __len__(self) -> int:
        return len(self.prefix)

    def n(self, j: int) -> int:
        """1-based entry n_j."""
        if not 1 <= j <= len(self.prefix):
            raise ValueError(f"n_{j} not available in prefix of length {len(self.prefix)}")
        return self.prefix[j - 1]

    def shift(self, k: int) -> "IndexSeq":
        return shift_seq(self, k)


def shift_seq(n: IndexSeq, k: int) -> IndexSeq:
    """Drop the first k entries: the shifted sequence n^k with n^k_j = n_{j+k}."""
    if k < 0:
        raise ValueError("shift must be nonnegative")
    if k >= len(n):
        raise ValueError(f"cannot shift a prefix of length {len(n)} by {k}")
    return IndexSeq(n.prefix[k:])


def index_set_A(j: int, m: int, n: IndexSeq) -> frozenset[int]:
    """The finite index set A_j^m(n); needs the prefix up to max(j, m-1)."""
    if j < 1 or m < j:
        raise ValueError("need 1 <= j <= m")
    need = max(j, m - 1)
    if need > len(n):
        raise ValueError(f"A_{j}^{m} needs a prefix of length {need}, got {len(n)}")
    out = set(range(1, n.n(j) + 1))
    for i in range(j, m):
        out.update(range(n.n(i) + 1, n.n(i) + j))
    return frozenset(out)


@dataclass(frozen=True)
class DeltaSeq:
    """Finite prefix of a strictly decreasing sequence in (0,1), exact."""

    prefix: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "prefix", tuple(as_fraction(x) for x in self.prefix))
        for x in self.prefix:
            if not 0 < x < 1:
                raise ValueError("delta entries must lie in (0,1)")
        for x, y in zip(self.prefix, self.prefix[1:]):
            if not y < x:
                raise ValueError("delta entries must strictly decrease")

    @staticmethod
    def geometric(first: Rat, ratio: Rat, length: int) -> "DeltaSeq":
        f, r = as_fraction(first), as_fraction(ratio)
        return DeltaSeq(tuple(f * r**i for i in range(length)))

    def __len__(self) -> int:
        return len(self.prefix)

    def d(self, m: int) -> Fraction:
        if not 1 <= m <= len(self.prefix):
            raise ValueError(f"delta_{m} not available in prefix of length {len(self.prefix)}")
        return self.prefix[m - 1]


@dataclass(frozen=True)
class SeqOfSets:
    """Finite prefix of a sequence of compact subsets of [0,1]."""

    prefix: tuple[IntervalSet, ...]

    def __post_init__(self) -> None:
        for s in self.prefix:
            if not isinstance(s, IntervalSet):
                raise TypeError("SeqOfSets entries must be IntervalSet")

    def __len__(self) -> int:
        return len(self.prefix)

    def K(self, n: int) -> IntervalSet:
        if not 1 <= n <= len(self.prefix):
            raise ValueError(f"K_{n} not available in prefix of length {len(self.prefix)}")
        return self.prefix[n - 1]

    def union_over(self, indices: Iterable[int]) -> IntervalSet:
        out = EMPTY
        for i in sorted(indices):
            out = out.union(self.K(i))
        return out


# ---------------------------------------------------------------------------
# scale ladders
# ---------------------------------------------------------------------------


# the refinement shape of every ladder (see ScaleLadder)
LADDER_RATIO = Fraction(4, 5)
LADDER_SCALE = Fraction(9, 10)


@dataclass(frozen=True)
class ScaleLadder:
    """Base scales a_j = j and b_j (given, with b_j > j+2) together with the
    four refined a-scales and three refined b-scales per (j,m).

    The refined scales interpolate strictly: for each j, walking (m,k) in
    lexicographic order descends from just below a_{j}+1 toward a_j on the
    a-side and ascends from just above b_j-1 toward b_j on the b-side, with
    the chain welds a_j^{m,4} = a_j^{m+1,1} and b_j^{m,3} = b_j^{m+1,1}.

    The offsets are LADDER_SCALE * LADDER_RATIO^(3(m-j)+k-1) on the a-side
    and LADDER_SCALE * LADDER_RATIO^(2(m-j)+k-1) on the b-side.  They
    approach the base scales far more slowly than dyadic offsets
    2^-(3m+k) would, and so leave wide gaps between neighbors: the certified
    numerics need those gaps at desk scale.  Everything is exact rational
    arithmetic.
    """

    b_values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "b_values", tuple(as_fraction(x) for x in self.b_values))
        for j, b in enumerate(self.b_values, start=1):
            if not b > j + 2:
                raise ValueError(f"b_{j} = {b} must exceed {j}+2")
        for x, y in zip(self.b_values, self.b_values[1:]):
            if not x < y:
                raise ValueError("b values must strictly increase")

    def a(self, j: int) -> Fraction:
        if j < 1:
            raise ValueError("j must be positive")
        return Fraction(j)

    def b(self, j: int) -> Fraction:
        if not 1 <= j <= len(self.b_values):
            raise ValueError(f"b_{j} not available ({len(self.b_values)} values)")
        return self.b_values[j - 1]

    def a_refined(self, j: int, m: int, k: int) -> Fraction:
        if not (1 <= j <= m and 1 <= k <= 4):
            raise ValueError("need 1 <= j <= m and k in [4]")
        return j + LADDER_SCALE * LADDER_RATIO ** (3 * (m - j) + k - 1)

    def b_refined(self, j: int, m: int, k: int) -> Fraction:
        if not (1 <= j <= m and 1 <= k <= 3):
            raise ValueError("need 1 <= j <= m and k in [3]")
        return self.b(j) - LADDER_SCALE * LADDER_RATIO ** (2 * (m - j) + k - 1)

# ---------------------------------------------------------------------------
# covering checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CombCheck:
    """Outcome of a family of inclusion checks: ok means every required
    inclusion was certified, so a family with a failed or an undecided key
    is not ok; failures/undecided list those keys; margins record the
    certified slack per checked key.  The keys are
    (family, j, m) triples here and (j, bullet, reading) triples in the
    bullet checks of `bmgame.star_bullets`."""

    ok: bool
    failures: tuple = ()
    undecided: tuple = ()
    margins: dict = field(default_factory=dict, compare=False)

    def __bool__(self) -> bool:
        return self.ok


def check_S_k(K: SeqOfSets, n: IndexSeq, delta: DeltaSeq, k: int, m_max: int) -> CombCheck:
    """The S-condition at shift k, truncated at depth m_max: for every
    2 <= j <= m-1 <= m_max-1, the sets indexed by the new block
    A_j^m(n^k) minus A_j^{m-1}(n^k) lie in the open delta_m-neighborhood of
    the sets indexed by A_{j-1}^{m-1}(n^k).  Failures are keyed ("s", j, m);
    too-short prefixes surface as argument errors from the accessors."""
    if k < 0 or m_max < 1:
        raise ValueError("need k >= 0 and m_max >= 1")
    nk = shift_seq(n, k) if k else n
    failures = []
    margins = {}
    for m in range(3, m_max + 1):
        for j in range(2, m):
            block = index_set_A(j, m, nk) - index_set_A(j, m - 1, nk)
            lhs = K.union_over(block)
            rhs = K.union_over(index_set_A(j - 1, m - 1, nk))
            ok, margin = subset_within(lhs, rhs, delta.d(m))
            margins[("s", j, m)] = margin
            if not ok:
                failures.append(("s", j, m))
    return CombCheck(not failures, tuple(failures), (), margins)


class Enclosures:
    """The enclosures of N(f, a) at one tolerance, each computed on first
    request and kept: get(a, variant) is n_set_enclosure(f, a, variant,
    tol).  A scale the engine refuses ("a" range error) is kept as the
    certified bracket it still allows: outer [0,1], and inner the
    enclosure's inner set at c = min(int(a), _ENGINE_SCALE_CAP) when
    0 < c < a, else empty; sound because every variant's set grows with
    the scale.  A tolerance the engine refuses, or any other error,
    propagates."""

    def __init__(self, f, tol: float) -> None:
        self.f, self.tol = f, tol
        self._store: dict[tuple[Fraction, str], NSetEnclosure] = {}

    def get(self, a: Rat, variant: str) -> NSetEnclosure:
        key = (as_fraction(a), variant)
        if key not in self._store:
            try:
                enc = n_set_enclosure(self.f, key[0], variant, self.tol)
            except EnclosureRangeError as e:
                if e.field != "a":
                    raise
                c = Fraction(min(int(key[0]), _ENGINE_SCALE_CAP))
                inner = self.get(c, variant).inner if 0 < c < key[0] else EMPTY
                enc = NSetEnclosure(inner, FULL, self.tol, 1 - inner.measure())
            self._store[key] = enc
        return self._store[key]


def enclosure_verdict(enclosures: Enclosures, a: Rat, variant: str, test, sound: str):
    """The rule that decides a claim about N(f, a), the `variant` set of the
    store's f at scale a, from its enclosure in `enclosures`.  `test(side)`
    gives (ok, margin) for the claim with N(f, a) replaced by one side of
    the enclosure; `sound` names the side whose pass implies the claim
    ("outer" where N(f, a) must be small, "inner" where it must be large).
    Returns (verdict, margin): "certified" when the sound side passes,
    "undecided" when only the other side does, "failed" when neither does,
    and always the sound side's margin."""
    enc = enclosures.get(a, variant)
    first, other = (enc.outer, enc.inner) if sound == "outer" else (enc.inner, enc.outer)
    ok, margin = test(first)
    if ok:
        return "certified", margin
    return ("undecided" if test(other)[0] else "failed"), margin


def check_Y_k(
    K: SeqOfSets,
    enclosures: Enclosures,
    n: IndexSeq,
    delta: DeltaSeq,
    ladder: ScaleLadder,
    k: int,
    m_max: int,
) -> CombCheck:
    """The Y-condition at shift k, truncated at depth m_max: the S-condition
    plus, for every j <= m <= m_max,

      (lower family) N(f, a_j) inside the union of open delta_m-balls around
      the sets indexed by A_j^m(n^k), and
      (upper family) the union of sets indexed by A_j^m(n) inside the open
      delta_m-ball around N(f, b_j),

    with N(f, .) the full set read from `enclosures`, the store of f at one
    tolerance.  Each triple is decided by `enclosure_verdict`: the sound
    side is the outer enclosure on the left of the lower family and the
    inner one on the right of the upper (both exact for piecewise-linear f
    at integer scales); its margin is recorded, and the check is ok only
    when every triple is certified.
    """
    s = check_S_k(K, n, delta, k, m_max)
    failures = list(s.failures)
    undecided = []
    margins = dict(s.margins)
    nk = shift_seq(n, k) if k else n

    def record(key, a, test, sound) -> None:
        verdict, margins[key] = enclosure_verdict(enclosures, a, "full", test, sound)
        if verdict != "certified":
            (failures if verdict == "failed" else undecided).append(key)

    for j in range(1, m_max + 1):
        for m in range(j, m_max + 1):
            dm = delta.d(m)
            rhs = K.union_over(index_set_A(j, m, nk))
            record(("lower", j, m), ladder.a(j), lambda side: subset_within(side, rhs, dm), "outer")
            lhs = K.union_over(index_set_A(j, m, n))
            record(("upper", j, m), ladder.b(j), lambda side: subset_within(lhs, side, dm), "inner")
    return CombCheck(not failures and not undecided, tuple(failures), tuple(undecided), margins)


# ---------------------------------------------------------------------------
# finite permutations
# ---------------------------------------------------------------------------


def _validate_permutation(sigma: Sequence[int]) -> tuple[int, ...]:
    p = tuple(int(x) for x in sigma)
    if sorted(p) != list(range(1, len(p) + 1)):
        raise ValueError("sigma must list the images of 1..p as a permutation")
    return p


def _sigma_apply(sigma: tuple[int, ...], i: int) -> int:
    return sigma[i - 1] if i <= len(sigma) else i


def check_perm_A(n: IndexSeq, sigma: Sequence[int], k: int, m_max: int | None = None) -> CombCheck:
    """Both invariance claims for a permutation fixing everything above n_k:
    (1) every A_j^m(n^k) is sigma-invariant; (2) sigma(A_j^m(n)) lies inside
    A_{max(j,k)}^{max(m,k)}(n); checked for all j <= m up to depth."""
    s = _validate_permutation(sigma)
    if not 1 <= k <= len(n):
        raise ValueError("need 1 <= k <= prefix length")
    bound = n.n(k)
    movers = [i for i in range(1, len(s) + 1) if _sigma_apply(s, i) != i and i > bound]
    if movers:
        raise ValueError(f"sigma moves indices above n_{k}={bound}: {movers}")
    if m_max is None:
        m_max = len(n)
    failures = []
    shifted = shift_seq(n, k) if k < len(n) else None
    for m in range(1, m_max + 1):
        for j in range(1, m + 1):
            if shifted is not None and max(j, m - 1) <= len(shifted):
                A = index_set_A(j, m, shifted)
                if frozenset(_sigma_apply(s, i) for i in A) != A:
                    failures.append(("invariant", j, m))
            if max(j, m - 1) <= len(n) and max(max(m, k) - 1, max(j, k)) <= len(n):
                img = frozenset(_sigma_apply(s, i) for i in index_set_A(j, m, n))
                target = index_set_A(max(j, k), max(m, k), n)
                if not img <= target:
                    failures.append(("image", j, m))
    return CombCheck(not failures, tuple(failures))


# ---------------------------------------------------------------------------
# corpus helpers
# ---------------------------------------------------------------------------


def random_index_seq(seed, length: int, slack: int = 3) -> IndexSeq:
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    vals = [rng.randint(1, 1 + slack)]
    for j in range(1, length):
        vals.append(vals[-1] + j + rng.randint(0, slack))
    return IndexSeq(tuple(vals))


def random_finite_permutation(seed, p: int) -> tuple[int, ...]:
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    table = list(range(1, p + 1))
    rng.shuffle(table)
    return tuple(table)
