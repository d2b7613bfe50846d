"""Two-player ball game on C[0,1] with a certified trapping strategy.

Player I proposes closed sup-norm balls B(f_m, alpha_m), each inside the
previous answer; Player II answers B(g_m, beta_m) with g_m = f_m + bump and
certifies, round by round, the three bullet families tying the small-scale
one-sided slope sets of every f in the answered ball to the located points:

  (i)   each tilde slope set at the fine scales lies inside the open
        w_m-balls of the selected located sets,
  (ii)  the selected located sets lie inside the w_m-ball of the coarse
        scale slope set,
  (iii) the fine slope sets avoid the closed w_m-balls of the unselected
        located sets.

Rounds nest: the located sets of round m sit within w_{m-1} of their round
m-1 ancestors and the radii at least halve, so the finite engine can verify
truncated limit statements (Cauchy prefixes, coverage of the slope sets of
the last answer with tripled radii, the nested-index inclusion chain, and
membership in every oracle certificate ball) with certified margins.

Everything "sufficiently small" in the construction is an explicit number
here: margins come from certified set inclusions, shrink loops stop at a
floor of 1e-12 and abort loudly, and net sizes are capped.  When a round's
perturbation radius mu_m collapses below what any buildable net could honor
the engine raises GameInfeasibleError carrying the measured cascade instead
of silently degrading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .bump import (
    BumpSpec,
    EpsilonSearchError,
    check_bump_properties,
    interval_length_l,
    lemma_epsilon,
    make_bump,
    mu,
)
from .indexcomb import DeltaSeq, IndexSeq, ScaleLadder, SeqOfSets, check_Y_k, index_set_A
from .intervalsets import (
    FinitePointSet,
    IntervalSet,
    Rat,
    as_fraction,
    ball,
    disjoint_gap,
    is_subset,
    open_cover_full,
    pairwise_disjoint,
    prefix_distance,
    subset_within,
    union_of_point_sets,
)
from .nsets import (
    EnclosureRangeError,
    NSetEnclosure,
    admissible_eps,
    continuity_delta,
    n_set_enclosure,
)
from .realfn import C1Function, function_from_json, function_to_json, random_c1_function

__all__ = [
    "GameError",
    "GameRuleError",
    "GameInfeasibleError",
    "OracleError",
    "GameParams",
    "HatCheckSet",
    "OracleReply",
    "RoundRecord",
    "GameState",
    "StarCheck",
    "oracle_everything",
    "oracle_avoid_point",
    "oracle_target_prefix",
    "random_player_one",
    "scripted_player_one",
    "round_one",
    "round_m",
    "check_star",
    "run_game",
    "state_to_json",
    "state_from_json",
    "game_report",
    "verify_report",
]


# ---------------------------------------------------------------------------
# errors and parameters
# ---------------------------------------------------------------------------


class GameError(RuntimeError):
    """Base class: the run cannot continue; details name the failed claim."""

    def __init__(self, message: str, details: dict | None = None) -> None:
        super().__init__(message)
        self.details = details or {}


class GameRuleError(GameError):
    """A player's move violates the nested-ball rule."""


class GameInfeasibleError(GameError):
    """A certified quantity collapsed below the engine's numeric range."""


class OracleError(GameError):
    """An oracle reply breaks its own contract, or retries are exhausted."""


@dataclass(frozen=True)
class GameParams:
    """Engine-wide knobs.  The defaults are the desk-scale operating point.

    net_factor: net spacing as a multiple of the covering radius (< 1 keeps
    a positive coverage margin).  w_safety: located-ball radius as a multiple
    of the minimum point gap (< 1/2 keeps closed balls disjoint).
    max_net_points caps every net the engine builds; a round whose mu would
    need more points raises GameInfeasibleError.
    """

    tol: float = 1e-4
    net_factor: Fraction = Fraction(9, 10)
    w_safety: Fraction = Fraction(45, 100)
    max_net_points: int = 2_000_000
    max_oracle_retries: int = 6
    shrink_floor: float = 1e-12
    ladder_kind: str = "geometric"
    ladder_ratio: Fraction = Fraction(4, 5)
    ladder_scale: Fraction = Fraction(9, 10)

    def __post_init__(self) -> None:
        object.__setattr__(self, "net_factor", as_fraction(self.net_factor))
        object.__setattr__(self, "w_safety", as_fraction(self.w_safety))
        object.__setattr__(self, "ladder_ratio", as_fraction(self.ladder_ratio))
        object.__setattr__(self, "ladder_scale", as_fraction(self.ladder_scale))
        if not 0 < self.net_factor < 1:
            raise ValueError("net_factor must lie in (0,1)")
        if not 0 < self.w_safety < Fraction(1, 2):
            raise ValueError("w_safety must lie in (0,1/2)")

    def ladder(self, b_values: Sequence[Rat]) -> ScaleLadder:
        if self.ladder_kind == "geometric":
            return ScaleLadder.geometric(b_values, self.ladder_ratio, self.ladder_scale)
        return ScaleLadder.default(b_values)


# ---------------------------------------------------------------------------
# located sets with a two-way partition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HatCheckSet:
    """A finite located set split into its positive-lobe and negative-lobe
    halves.  The tilde readings of the game see exactly one half each."""

    hat: FinitePointSet
    check: FinitePointSet

    def __post_init__(self) -> None:
        a, b = self.hat.points, self.check.points
        i = j = 0
        while i < len(a) and j < len(b):
            if a[i] < b[j]:
                i += 1
            elif b[j] < a[i]:
                j += 1
            else:
                raise ValueError(f"hat and check parts share the point {a[i]}")

    def tilde(self, reading: str) -> FinitePointSet:
        if reading == "hat":
            return self.hat
        if reading == "check":
            return self.check
        raise ValueError("reading must be 'hat' or 'check'")

    def flat(self) -> FinitePointSet:
        return self.hat.union(self.check)

    @property
    def n_points(self) -> int:
        return len(self.hat.points) + len(self.check.points)

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


def _tilde_union(sets: Sequence[HatCheckSet], indices, reading: str) -> FinitePointSet:
    return union_of_point_sets(sets[n - 1].tilde(reading) for n in sorted(indices))


def _flat_union(sets: Sequence[HatCheckSet]) -> FinitePointSet:
    return union_of_point_sets(s.flat() for s in sets)


# ---------------------------------------------------------------------------
# oracles for the dense open target sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleReply:
    """Self-certified reply: the returned prefix lies in the oracle's open
    dense set, together with (l, r) promising that every sequence within 2r
    of the prefix on the first l coordinates is in the set as well."""

    sets: tuple[FinitePointSet, ...]
    l: int
    r: Fraction
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "sets", tuple(self.sets))
        object.__setattr__(self, "r", as_fraction(self.r))
        if self.l < 1 or self.l > len(self.sets):
            raise ValueError("certificate length l must index the returned prefix")
        if self.r <= 0:
            raise ValueError("certificate radius r must be positive")


DenseOpenOracle = Callable[[tuple[FinitePointSet, ...], float], OracleReply]


def _dedupe_across(
    sets: Sequence[FinitePointSet], budget: Fraction
) -> tuple[FinitePointSet, ...]:
    """Shift later repeats of any point shared across sets by tiny distinct
    offsets within the budget, making the family pairwise disjoint."""
    seen: set[Fraction] = set()
    out = []
    bump_idx = 1
    for s in sets:
        pts = []
        for p in s.points:
            q = p
            while q in seen or q > 1 or q < 0:
                q = p + budget * Fraction(bump_idx, 8 * (bump_idx + len(seen) + 1))
                if q > 1:
                    q = p - budget * Fraction(bump_idx, 8 * (bump_idx + len(seen) + 1))
                bump_idx += 1
            seen.add(q)
            pts.append(q)
        out.append(FinitePointSet.of(pts))
    return tuple(out)


def oracle_everything() -> DenseOpenOracle:
    """The whole space: any reply is a member, so the target itself (snapped
    to pairwise disjoint sets) comes back with a free certificate."""

    def call(target: tuple[FinitePointSet, ...], eps: float) -> OracleReply:
        snapped = _dedupe_across(target, as_fraction(eps) / 4)
        return OracleReply(snapped, 1, Fraction(1, 4), "everything")

    return call


def oracle_avoid_point(p: Rat, rho: Rat | None = None) -> DenseOpenOracle:
    """Sequences whose returned prefix keeps all points off a closed ball
    around p.  The avoided radius adapts to the request (at most eps/8) so
    the reply can stay eps-close to any target; the certificate radius is a
    quarter of the clearance margin."""
    pf = as_fraction(p)
    rho_fixed = None if rho is None else as_fraction(rho)

    def call(target: tuple[FinitePointSet, ...], eps: float) -> OracleReply:
        ef = as_fraction(eps)
        radius = min(rho_fixed, ef / 8) if rho_fixed is not None else ef / 8
        pad = radius / 2
        moved = []
        for s in target:
            pts = []
            for q in s.points:
                if abs(q - pf) <= radius + pad:
                    side = 1 if (q > pf or (q == pf and pf <= Fraction(1, 2))) else -1
                    q = pf + side * (radius + pad)
                    q = min(max(q, Fraction(0)), Fraction(1))
                    if abs(q - pf) <= radius:
                        q = pf - side * (radius + pad)
                pts.append(q)
            moved.append(FinitePointSet.of(pts))
        snapped = _dedupe_across(moved, pad / 4)
        for s in snapped:
            for q in s.points:
                if abs(q - pf) <= radius:
                    raise OracleError("avoid-point oracle failed to clear its own ball")
        return OracleReply(snapped, len(snapped), pad / 4, f"avoid:{float(pf)}@{float(radius)}")

    return call


def oracle_target_prefix(T: Sequence[FinitePointSet], tol: Rat) -> DenseOpenOracle:
    """Sequences within tol of a fixed prefix T.  Dense only along targets
    already compatible with T; incompatible requests raise OracleError and
    the engine's bounded retry loop turns that into a failure report."""
    T = tuple(T)
    tolf = as_fraction(tol)

    def call(target: tuple[FinitePointSet, ...], eps: float) -> OracleReply:
        ef = as_fraction(eps)
        for n, tset in enumerate(T):
            if n < len(target):
                d = prefix_distance(
                    [tset.as_interval_set()], [target[n].as_interval_set()], 1
                )
                if d >= ef:
                    raise OracleError(
                        f"target prefix set {n+1} lies {float(d):.3g} from the request "
                        f"(> eps {eps:.3g}); the dense-open set misses this neighborhood",
                        {"coordinate": n + 1, "distance": float(d)},
                    )
        blended = T + tuple(target[len(T):])
        snapped = _dedupe_across(blended, min(ef, tolf) / 4)
        return OracleReply(snapped, len(T), tolf / 4, "target-prefix")

    return call


# ---------------------------------------------------------------------------
# adversaries (Player I)
# ---------------------------------------------------------------------------


PlayerI = Callable[[int, tuple[C1Function, Fraction] | None], tuple[C1Function, Rat]]


def random_player_one(
    seed: int,
    first_cells: int = 4,
    first_amplitude: float = 0.3,
    first_slope: float = 1.5,
) -> PlayerI:
    """Seeded adversary: an arbitrary first move, then centers perturbed by
    a random smooth function of norm about a quarter of the available radius,
    with the answer radius leaving an eighth of it as rule margin."""
    rng = np.random.default_rng(seed)

    def move(m: int, prev: tuple[C1Function, Fraction] | None):
        sub = int(rng.integers(1, 2**31))
        if prev is None:
            f = random_c1_function(
                seed=sub, cells=first_cells, amplitude=first_amplitude, slope_scale=first_slope
            )
            return f, Fraction(1)
        g, beta = prev
        bf = float(beta)
        if bf <= 0.0:
            # the available radius is below float resolution: the only
            # representable move is the center itself
            return g, beta / 2
        psi = random_c1_function(seed=sub, cells=3, amplitude=1.0, slope_scale=1.0)
        nrm = psi.sup_norm()
        if nrm > 0.0:
            psi = psi.scale(bf / 4 / nrm)
        f = g.add(psi)
        used = as_fraction(f.sup_norm_diff(g))
        alpha = beta - used - as_fraction(bf) / 8
        if alpha <= 0:
            alpha = (beta - used) / 2
        return f, alpha

    return move


def scripted_player_one(moves: Sequence[tuple[C1Function, Rat]]) -> PlayerI:
    """Replay a fixed move list; the engine still validates the ball rule."""
    moves = [(f, as_fraction(a)) for f, a in moves]

    def move(m: int, prev):
        if m > len(moves):
            raise GameError(f"scripted adversary has no move for round {m}")
        return moves[m - 1]

    return move


# ---------------------------------------------------------------------------
# records and state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoundRecord:
    """Everything Player II constructs in one round, plus certification
    margins.  Radii and heights are exact rationals; the analytic quantities
    (mu, eps) are certified floats."""

    m: int
    f_m: C1Function
    alpha_m: Fraction
    h_m: Fraction
    mu_m: float
    zeta_m: float | None
    L_sets: tuple[HatCheckSet, ...]
    K_sets: tuple[HatCheckSet, ...]
    n_m: int
    w_m: Fraction
    g_m: C1Function
    b_m: Fraction
    beta_m: Fraction
    eps_m: float
    oracle_l: int
    oracle_r: Fraction
    oracle_label: str = ""
    certifications: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if len(self.K_sets) != self.n_m:
            raise ValueError("K_sets must have exactly n_m entries")
        if not 0 < self.beta_m:
            raise ValueError("beta_m must be positive")
        if self.beta_m > self.alpha_m - self.h_m:
            raise ValueError("beta_m must leave the answered ball inside the move")

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "f_m": function_to_json(self.f_m),
            "alpha_m": str(self.alpha_m),
            "h_m": str(self.h_m),
            "mu_m": self.mu_m,
            "zeta_m": self.zeta_m,
            "L_sets": [s.to_json() for s in self.L_sets],
            "K_sets": [s.to_json() for s in self.K_sets],
            "n_m": self.n_m,
            "w_m": str(self.w_m),
            "g_m": function_to_json(self.g_m),
            "b_m": str(self.b_m),
            "beta_m": str(self.beta_m),
            "eps_m": self.eps_m,
            "oracle_l": self.oracle_l,
            "oracle_r": str(self.oracle_r),
            "oracle_label": self.oracle_label,
            "certifications": _json_clean(self.certifications),
        }

    @staticmethod
    def from_json(obj: dict) -> "RoundRecord":
        return RoundRecord(
            m=obj["m"],
            f_m=function_from_json(obj["f_m"]),
            alpha_m=Fraction(obj["alpha_m"]),
            h_m=Fraction(obj["h_m"]),
            mu_m=obj["mu_m"],
            zeta_m=obj["zeta_m"],
            L_sets=tuple(HatCheckSet.from_json(s) for s in obj["L_sets"]),
            K_sets=tuple(HatCheckSet.from_json(s) for s in obj["K_sets"]),
            n_m=obj["n_m"],
            w_m=Fraction(obj["w_m"]),
            g_m=function_from_json(obj["g_m"]),
            b_m=Fraction(obj["b_m"]),
            beta_m=Fraction(obj["beta_m"]),
            eps_m=obj["eps_m"],
            oracle_l=obj["oracle_l"],
            oracle_r=Fraction(obj["oracle_r"]),
            oracle_label=obj.get("oracle_label", ""),
            certifications=obj.get("certifications", {}),
        )


@dataclass(frozen=True)
class GameState:
    """Immutable after each round; rounds are indexed consecutively from 1."""

    rounds: tuple[RoundRecord, ...]
    params: GameParams = field(default_factory=GameParams)

    def __post_init__(self) -> None:
        for i, rec in enumerate(self.rounds, start=1):
            if rec.m != i:
                raise ValueError("round indices must be consecutive from 1")

    @property
    def ns(self) -> tuple[int, ...]:
        return tuple(rec.n_m for rec in self.rounds)

    def ladder(self) -> ScaleLadder:
        return self.params.ladder(tuple(rec.b_m for rec in self.rounds))

    def last(self) -> RoundRecord:
        return self.rounds[-1]


def _json_clean(obj):
    if isinstance(obj, dict):
        return {str(k): _json_clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_clean(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


# ---------------------------------------------------------------------------
# certified set helpers
# ---------------------------------------------------------------------------


class _EnclosureCache:
    """Per-function cache of N-set enclosures keyed by (scale, variant)."""

    def __init__(self, f: C1Function, tol: float) -> None:
        self.f = f
        self.tol = tol
        self._store: dict[tuple[Fraction, str], NSetEnclosure] = {}

    def get(self, a: Rat, variant: str) -> NSetEnclosure:
        key = (as_fraction(a), variant)
        if key not in self._store:
            self._store[key] = n_set_enclosure(self.f, key[0], variant, self.tol)
        return self._store[key]


@dataclass(frozen=True)
class StarCheck:
    """Verdict for the three bullet families over j in [m], both readings.
    Keys of margins/failures/undecided are (j, bullet, reading)."""

    ok: bool
    failures: tuple = ()
    undecided: tuple = ()
    margins: dict = field(default_factory=dict, compare=False)

    def __bool__(self) -> bool:
        return self.ok


def star_bullets(
    f: C1Function,
    K_sets: Sequence[HatCheckSet],
    n_m: int,
    w_m: Fraction,
    ns: Sequence[int],
    m: int,
    ladder: ScaleLadder,
    ka: int,
    kb: int,
    tol: float,
    cache: _EnclosureCache | None = None,
) -> StarCheck:
    """Certify the three bullet families at depth (ka, kb) of the refined
    scales: the invariant itself uses (4, 3); the in-round claims for g_m
    use the stronger (3, 2)."""
    cache = cache if cache is not None and cache.f is f else _EnclosureCache(f, tol)
    nseq = IndexSeq(tuple(ns))
    failures: list = []
    undecided: list = []
    margins: dict = {}

    for j in range(1, m + 1):
        A = index_set_A(j, m, nseq)
        out_idx = [n for n in range(1, n_m + 1) if n not in A]
        a_scale = ladder.a_refined(j, m, ka)
        b_scale = ladder.b_refined(j, m, kb)
        for rd in ("hat", "check"):
            sel = _tilde_union(K_sets, A, rd).as_interval_set()
            try:
                enc_a = cache.get(a_scale, rd)
            except EnclosureRangeError as e:
                undecided.append((j, 1, rd))
                margins[(j, 1, rd)] = f"enclosure unavailable: {e}"
                undecided.append((j, 3, rd))
                margins[(j, 3, rd)] = "enclosure unavailable"
                enc_a = None
            if enc_a is not None:
                # bullet (i): fine slope set inside the open w-balls of the
                # selected located points
                ok1, m1 = subset_within(enc_a.outer, sel, w_m)
                if ok1:
                    margins[(j, 1, rd)] = float(m1)
                else:
                    ok1_inner, _ = subset_within(enc_a.inner, sel, w_m)
                    if ok1_inner:
                        undecided.append((j, 1, rd))
                        margins[(j, 1, rd)] = "outer fails, inner passes"
                    else:
                        failures.append((j, 1, rd))
                        margins[(j, 1, rd)] = float(m1)
            # bullet (ii): selected located points near the coarse slope set
            try:
                enc_b = cache.get(b_scale, rd)
                ok2, m2 = subset_within(sel, enc_b.inner, w_m)
                if ok2:
                    margins[(j, 2, rd)] = float(m2)
                else:
                    ok2_out, _ = subset_within(sel, enc_b.outer, w_m)
                    if ok2_out:
                        undecided.append((j, 2, rd))
                        margins[(j, 2, rd)] = "inner fails, outer passes"
                    else:
                        failures.append((j, 2, rd))
                        margins[(j, 2, rd)] = float(m2)
            except EnclosureRangeError as e:
                undecided.append((j, 2, rd))
                margins[(j, 2, rd)] = f"enclosure unavailable: {e}"
            # bullet (iii): fine slope set avoids closed w-balls of the rest
            if enc_a is not None:
                if not out_idx:
                    margins[(j, 3, rd)] = "vacuous"
                    continue
                others = ball(_tilde_union(K_sets, out_idx, rd).as_interval_set(), w_m)
                apart, gap = disjoint_gap(enc_a.outer, others)
                if apart:
                    margins[(j, 3, rd)] = float(gap) if gap is not None else None
                else:
                    apart_inner, _ = disjoint_gap(enc_a.inner, others)
                    if apart_inner:
                        undecided.append((j, 3, rd))
                        margins[(j, 3, rd)] = "outer touches, inner clear"
                    else:
                        failures.append((j, 3, rd))
                        margins[(j, 3, rd)] = 0.0
    return StarCheck(not failures and not undecided, tuple(failures), tuple(undecided), margins)


def check_star(
    record: RoundRecord,
    f: C1Function,
    ns: Sequence[int],
    ladder: ScaleLadder,
    tol: float = 1e-4,
) -> StarCheck:
    """The round invariant for an arbitrary member f of the answered ball,
    at the weld scales (depth 4 on the fine side, 3 on the coarse side)."""
    return star_bullets(
        f, record.K_sets, record.n_m, record.w_m, ns, record.m, ladder, 4, 3, tol
    )


# ---------------------------------------------------------------------------
# nets and tagging
# ---------------------------------------------------------------------------


def _alternating_net(spacing: Fraction) -> tuple[FinitePointSet, FinitePointSet]:
    """Two interleaved grids, each an open cover net at radius just above
    spacing: hat points at multiples of spacing, check points offset by half."""
    hat = []
    i = 0
    while i * spacing <= 1:
        hat.append(i * spacing)
        i += 1
    check = []
    i = 0
    while i * spacing + spacing / 2 <= 1:
        check.append(i * spacing + spacing / 2)
        i += 1
    return FinitePointSet.of(hat), FinitePointSet.of(check)

def _grid_points(region: IntervalSet, step: Fraction) -> list[Fraction]:
    """Evenly spaced points on each component, spacing at most step, always
    including both endpoints; exact rationals inside the region."""
    out: list[Fraction] = []
    for lo, hi in region.intervals:
        if hi == lo:
            out.append(lo)
            continue
        k = max(1, math.ceil((hi - lo) / step))
        out.extend(lo + (hi - lo) * Fraction(i, k) for i in range(k + 1))
    return out


def _tag_by_nearest(
    pts: FinitePointSet,
    hat_target: FinitePointSet,
    check_target: FinitePointSet,
    within: Fraction,
) -> HatCheckSet | None:
    """Partition pts by the nearer of the two target halves; None when a
    point is ambiguous or farther than the snapping budget.  Queries are
    sorted, so one monotone pointer per target suffices."""

    def monotone_nearest(arr: tuple[Fraction, ...]):
        state = [0]

        def query(q: Fraction) -> Fraction | None:
            if not arr:
                return None
            i = state[0]
            while i + 1 < len(arr) and arr[i + 1] <= q:
                i += 1
            state[0] = i
            d = abs(q - arr[i])
            if i + 1 < len(arr):
                d2 = arr[i + 1] - q
                if d2 < d:
                    d = d2
            return d

        return query

    dist_h = monotone_nearest(hat_target.points)
    dist_c = monotone_nearest(check_target.points)
    hat_pts, check_pts = [], []
    for q in pts.points:
        dh = dist_h(q)
        dc = dist_c(q)
        if dh is None and dc is None:
            return None
        if dc is None or (dh is not None and dh < dc):
            if dh > within:
                return None
            hat_pts.append(q)
        elif dh is None or dc < dh:
            if dc > within:
                return None
            check_pts.append(q)
        else:
            return None
    return HatCheckSet(FinitePointSet.of(hat_pts), FinitePointSet.of(check_pts))


def _alternate_tags(pts: FinitePointSet) -> HatCheckSet:
    xs = pts.points
    return HatCheckSet(FinitePointSet.of(xs[0::2]), FinitePointSet.of(xs[1::2]))


def _infeasible_cascade(
    f: C1Function, a3: Fraction, a2: Fraction, h: Fraction, mu_val: float, need: float, cap: int, tol: float
) -> GameInfeasibleError:
    """Assemble the measured collapse chain for the error message."""
    try:
        eps = lemma_epsilon(f, a3, a2, (a3 + a2) / 2, tol)
        lval = interval_length_l(f, a3, a2, tol)
    except EpsilonSearchError:
        eps, lval = float("nan"), float("nan")
    return GameInfeasibleError(
        f"perturbation radius mu = {mu_val:.3g} would need a net of about "
        f"{need:.3g} points (cap {cap}).  Certified chain at scales "
        f"({float(a3):.6g}, {float(a2):.6g}): witness eps = {eps:.3g}, "
        f"interval length l = {lval:.3g}, slope norm = {f.deriv_sup_norm():.6g}. "
        "The located nets of the previous round force curvature of order "
        "height/width^2 on the played function, and the certified witness "
        "scale collapses proportionally; no parameter choice at this round "
        "recovers a buildable net.",
        {
            "mu": mu_val,
            "eps": eps,
            "l": lval,
            "net_points": need,
            "cap": cap,
            "deriv_norm": f.deriv_sup_norm(),
        },
    )


# ---------------------------------------------------------------------------
# round one
# ---------------------------------------------------------------------------


def round_one(
    f1: C1Function,
    alpha1: Rat,
    oracle: DenseOpenOracle,
    params: GameParams = GameParams(),
) -> RoundRecord:
    """First answer: a double net of located points fine enough that the
    bump of half the available height traps the fine-scale slope sets of
    everything in the answered ball."""
    alpha = as_fraction(alpha1)
    if alpha <= 0:
        raise GameRuleError("alpha_1 must be positive")
    tol = params.tol
    ladder0 = params.ladder(())
    a13 = ladder0.a_refined(1, 1, 3)
    a12 = ladder0.a_refined(1, 1, 2)
    a14 = ladder0.a_refined(1, 1, 4)

    h1 = alpha / 2
    try:
        mu1 = mu(f1, a13, a12, h1, tol)
    except EpsilonSearchError as e:
        raise GameInfeasibleError(f"round 1 perturbation radius failed: {e}") from e

    spacing = as_fraction(mu1) * params.net_factor
    need = 2.0 / float(spacing)
    if need > params.max_net_points:
        raise _infeasible_cascade(f1, a13, a12, h1, mu1, need, params.max_net_points, tol)
    hat_t, check_t = _alternating_net(spacing)
    flat_t = hat_t.union(check_t)
    target = (flat_t,)
    tagged_t = HatCheckSet(hat_t, check_t)

    eps_orc = float(spacing) / 16.0
    reply = tagged = None
    for _ in range(params.max_oracle_retries):
        reply = oracle(target, eps_orc)
        if not pairwise_disjoint([s for s in reply.sets]):
            raise OracleError("oracle reply is not a family of pairwise disjoint sets")
        if reply.sets[0].points == flat_t.points:
            tagged = tagged_t
        else:
            tagged = _tag_by_nearest(reply.sets[0], hat_t, check_t, as_fraction(eps_orc))
        if tagged is not None:
            cov_hat = open_cover_full(tagged.hat, mu1)
            cov_check = open_cover_full(tagged.check, mu1)
            if cov_hat and cov_check:
                break
        tagged = None
        eps_orc /= 4.0
    if tagged is None:
        raise OracleError(
            "oracle replies never allowed a partition whose halves both cover "
            f"the interval at radius mu_1 = {mu1:.3g} "
            f"(last snapping budget {eps_orc:.3g})",
            {"mu_1": mu1, "last_eps": eps_orc},
        )

    n1 = reply.l
    K_sets = [tagged] + [_alternate_tags(s) for s in reply.sets[1:n1]]
    all_pts = _flat_union(K_sets)
    gap = all_pts.min_gap()
    if gap is None or gap <= 0:
        raise OracleError("located points collapsed onto each other")
    w1 = min(as_fraction(reply.r), params.w_safety * gap)
    if float(w1) < params.shrink_floor:
        raise GameInfeasibleError(f"w_1 = {float(w1):.3g} fell below the floor")

    spec = BumpSpec(tagged.hat, tagged.check, h1, w1)
    phi = make_bump(spec)
    certs: dict = {"bump_properties": check_bump_properties(spec, phi)}
    if not certs["bump_properties"]:
        raise GameError("constructed bump violates its defining properties")
    g1 = f1.add(phi)

    b1 = Fraction(max(4, math.ceil(g1.deriv_sup_norm() + 0.72) + 1))
    ladder = params.ladder((b1,))
    if not ladder.b_refined(1, 1, 2) >= as_fraction(g1.deriv_sup_norm()):
        raise GameError("b_1 does not dominate the answered slope norm")

    # in-round claims at depth (3, 2), which also yield the margin for eps_1
    claims = star_bullets(g1, K_sets, n1, w1, (n1,), 1, ladder, 3, 2, tol)
    certs["claims_g"] = {
        "ok": claims.ok,
        "failures": list(claims.failures),
        "undecided": list(claims.undecided),
        "margins": _json_clean(claims.margins),
    }
    if not claims.ok:
        raise GameError(
            "round-1 claims for g_1 failed", {"failures": claims.failures, "undecided": claims.undecided}
        )

    margin1 = min(
        claims.margins[(1, 1, rd)]
        for rd in ("hat", "check")
        if isinstance(claims.margins.get((1, 1, rd)), float)
    )
    eps1 = margin1 / 2.0
    if eps1 < params.shrink_floor:
        raise GameInfeasibleError(f"eps_1 margin {eps1:.3g} below the floor")
    eps_adm = admissible_eps(a14, a13, as_fraction(eps1))
    beta1 = min(alpha - h1, continuity_delta(a14, a13, eps_adm))
    if float(beta1) < params.shrink_floor:
        raise GameInfeasibleError(f"beta_1 = {float(beta1):.3g} below the floor")

    rec = RoundRecord(
        m=1,
        f_m=f1,
        alpha_m=alpha,
        h_m=h1,
        mu_m=mu1,
        zeta_m=None,
        L_sets=(),
        K_sets=tuple(K_sets),
        n_m=n1,
        w_m=w1,
        g_m=g1,
        b_m=b1,
        beta_m=beta1,
        eps_m=eps1,
        oracle_l=reply.l,
        oracle_r=as_fraction(reply.r),
        oracle_label=reply.label,
        certifications=certs,
    )
    star = check_star(rec, g1, (n1,), ladder, tol)
    certs["star_self"] = {
        "ok": star.ok,
        "failures": list(star.failures),
        "undecided": list(star.undecided),
        "margins": _json_clean(star.margins),
    }
    if not star.ok:
        raise GameError(
            "round-1 invariant failed for the answered center",
            {"failures": star.failures, "undecided": star.undecided},
        )
    return rec


# ---------------------------------------------------------------------------
# later rounds
# ---------------------------------------------------------------------------


def round_m(
    state: GameState,
    f_m: C1Function,
    alpha_m: Rat,
    oracle: DenseOpenOracle,
) -> RoundRecord:
    """General round: refine the located sets of the previous round into
    nets at the new, smaller perturbation radius, snap them through the
    oracle, and certify every construction claim.  Raises
    GameInfeasibleError when the certified radius collapses below any
    buildable net (which it provably does at desk scale: the previous bump
    forces curvature ~ height/width^2, and the witness scale shrinks with
    its reciprocal)."""
    params = state.params
    tol = params.tol
    m = len(state.rounds) + 1
    if m < 2:
        raise GameError("round_m needs a completed first round")
    prev = state.last()
    alpha = as_fraction(alpha_m)
    used = as_fraction(f_m.sup_norm_diff(prev.g_m))
    if used >= prev.beta_m:
        raise GameRuleError(
            f"move center lies {float(used):.3g} from g_{m-1}, outside beta = {float(prev.beta_m):.3g}"
        )
    if used + alpha > prev.beta_m:
        raise GameRuleError(
            f"move ball of radius {float(alpha):.3g} does not fit inside the previous answer"
        )

    ladder = state.ladder()
    ns_prev = state.ns
    cache_f = _EnclosureCache(f_m, tol)

    # the previous invariant must hold for the actual move; this replaces
    # the inherited-by-continuity argument, whose coarse-side budget is
    # below float resolution at large slope scales
    inherited = star_bullets(
        f_m, prev.K_sets, prev.n_m, prev.w_m, ns_prev, m - 1, ladder, 4, 3, tol, cache_f
    )
    if inherited.failures:
        raise GameError(
            "previous-round invariant fails for the move center",
            {"failures": inherited.failures},
        )

    h_m = alpha / 2
    mu_vals = {}
    for j in range(1, m + 1):
        a3 = ladder.a_refined(j, m, 3)
        a2 = ladder.a_refined(j, m, 2)
        try:
            mu_vals[j] = mu(f_m, a3, a2, h_m, tol)
        except EpsilonSearchError as e:
            raise GameInfeasibleError(
                f"round {m} perturbation radius failed at j={j}: {e}"
            ) from e
    mu_m = min(mu_vals.values())
    j_min = min(mu_vals, key=mu_vals.get)

    spacing = as_fraction(mu_m) * params.net_factor
    need = 2.0 / float(spacing)
    if need > params.max_net_points:
        raise _infeasible_cascade(
            f_m,
            ladder.a_refined(j_min, m, 3),
            ladder.a_refined(j_min, m, 2),
            h_m,
            mu_m,
            need,
            params.max_net_points,
            tol,
        )

    # auxiliary inclusion slack: previous fine sets sit strictly inside the
    # previous located balls; half the least margin survives perturbation
    zeta_margins = []
    for j in range(1, m):
        A_prev = index_set_A(j, m - 1, IndexSeq(ns_prev))
        a1 = ladder.a_refined(j, m, 1)
        for rd in ("hat", "check"):
            sel = _tilde_union(prev.K_sets, A_prev, rd).as_interval_set()
            ok, marg = subset_within(cache_f.get(a1, rd).outer, sel, prev.w_m)
            if not ok:
                raise GameError(
                    f"previous located balls no longer catch the scale-{float(a1):.4g} set",
                    {"j": j, "reading": rd},
                )
            zeta_margins.append(float(marg))
    zeta_m = min(zeta_margins) / 2.0
    if zeta_m < params.shrink_floor:
        raise GameInfeasibleError(f"zeta_{m} = {zeta_m:.3g} below the floor")

    L_sets = _build_L_sets(state, f_m, mu_m, zeta_m, cache_f, ladder, m)
    l_margins = _certify_L_claims(state, f_m, L_sets, mu_m, cache_f, ladder, m)
    rho = as_fraction(min(l_margins.values())) / 4
    if float(rho) < params.shrink_floor:
        raise GameInfeasibleError(f"net perturbation budget {float(rho):.3g} below the floor")

    # snap the refined nets through the oracle, keeping every point within a
    # budget that the re-verified claims absorb
    built = len(L_sets)
    Q_flat = _dedupe_across([s.flat() for s in L_sets], rho / 2)
    eps_orc = float(min(rho / 2, as_fraction(mu_m) / 20))
    reply = None
    K_built: list[HatCheckSet] | None = None
    for _ in range(params.max_oracle_retries):
        reply = oracle(Q_flat, eps_orc)
        if not pairwise_disjoint(list(reply.sets)):
            raise OracleError("oracle reply is not a family of pairwise disjoint sets")
        if len(reply.sets) < built:
            raise OracleError("oracle reply dropped refined sets")
        budget = as_fraction(eps_orc) + rho / 2
        tagged = [
            _tag_by_nearest(reply.sets[i], L_sets[i].hat, L_sets[i].check, budget)
            for i in range(built)
        ]
        if all(t is not None for t in tagged):
            K_built = [t for t in tagged if t is not None]
            break
        eps_orc /= 4.0
    if K_built is None or reply is None:
        raise OracleError(
            "oracle replies never stayed within the snapping budget of the refined nets",
            {"last_eps": eps_orc, "rho": float(rho)},
        )

    n_m = max(reply.l, built)
    K_sets = tuple(K_built) + tuple(_alternate_tags(s) for s in reply.sets[built:n_m])
    ns_m = ns_prev + (n_m,)
    k_margins, sep_gaps = _certify_K_claims(
        state, f_m, K_sets, mu_m, cache_f, ladder, m, ns_m
    )

    flat_all = _flat_union(K_sets)
    gap = flat_all.min_gap()
    if gap is None or gap <= 0:
        raise OracleError("located points collapsed onto each other")
    w_half = prev.w_m / 2 * (1 - Fraction(1, 10**9))
    w_candidates = [as_fraction(reply.r), w_half, params.w_safety * gap]
    if sep_gaps:
        w_candidates.append(min(sep_gaps) / 2)
    w_m = min(w_candidates)
    if float(w_m) < params.shrink_floor:
        raise GameInfeasibleError(f"w_{m} = {float(w_m):.3g} fell below the floor")

    hat_u = union_of_point_sets(s.hat for s in K_sets[:built])
    check_u = union_of_point_sets(s.check for s in K_sets[:built])
    spec = BumpSpec(hat_u, check_u, h_m, w_m)
    phi = make_bump(spec)
    certs: dict = {
        "bump_properties": check_bump_properties(spec, phi),
        "L_margins": _json_clean(l_margins),
        "K_margins": _json_clean(k_margins),
        "claim_2_on_K": "inherited from the nets; not re-verified (documented skip)",
    }
    if not certs["bump_properties"]:
        raise GameError("constructed bump violates its defining properties")
    g_m = f_m.add(phi)

    b_m = Fraction(
        max(m + 3, math.floor(prev.b_m) + 1, math.ceil(g_m.deriv_sup_norm() + 0.72) + 1)
    )
    ladder_m = params.ladder(tuple(r.b_m for r in state.rounds) + (b_m,))
    if not ladder_m.b_refined(m, m, 2) >= as_fraction(g_m.deriv_sup_norm()):
        raise GameError(f"b_{m} does not dominate the answered slope norm")

    claims = star_bullets(g_m, K_sets, n_m, w_m, ns_m, m, ladder_m, 3, 2, tol)
    certs["claims_g"] = {
        "ok": claims.ok,
        "failures": list(claims.failures),
        "undecided": list(claims.undecided),
        "margins": _json_clean(claims.margins),
    }
    if not claims.ok:
        raise GameError(
            f"round-{m} claims for g_{m} failed",
            {"failures": claims.failures, "undecided": claims.undecided},
        )

    margin = min(
        v
        for (jj, bb, rr), v in claims.margins.items()
        if bb == 1 and isinstance(v, float)
    )
    eps_m = margin / 2.0
    if eps_m < params.shrink_floor:
        raise GameInfeasibleError(f"eps_{m} margin {eps_m:.3g} below the floor")
    beta_candidates = [alpha - h_m]
    for j in range(1, m + 1):
        a4 = ladder_m.a_refined(j, m, 4)
        a3 = ladder_m.a_refined(j, m, 3)
        adm = admissible_eps(a4, a3, as_fraction(eps_m))
        beta_candidates.append(continuity_delta(a4, a3, adm))
    beta_m = min(beta_candidates)
    if float(beta_m) < params.shrink_floor:
        raise GameInfeasibleError(f"beta_{m} = {float(beta_m):.3g} below the floor")

    rec = RoundRecord(
        m=m,
        f_m=f_m,
        alpha_m=alpha,
        h_m=h_m,
        mu_m=mu_m,
        zeta_m=zeta_m,
        L_sets=L_sets,
        K_sets=K_sets,
        n_m=n_m,
        w_m=w_m,
        g_m=g_m,
        b_m=b_m,
        beta_m=beta_m,
        eps_m=eps_m,
        oracle_l=reply.l,
        oracle_r=as_fraction(reply.r),
        oracle_label=reply.label,
        certifications=certs,
    )
    star = check_star(rec, g_m, ns_m, ladder_m, tol)
    certs["star_self"] = {
        "ok": star.ok,
        "failures": list(star.failures),
        "undecided": list(star.undecided),
        "margins": _json_clean(star.margins),
    }
    if not star.ok:
        raise GameError(
            f"round-{m} invariant failed for the answered center",
            {"failures": star.failures, "undecided": star.undecided},
        )
    return rec


def _build_L_sets(
    state: GameState,
    f_m: C1Function,
    mu_m: float,
    zeta_m: float,
    cache_f: _EnclosureCache,
    ladder: ScaleLadder,
    m: int,
) -> tuple[HatCheckSet, ...]:
    """Refinement nets: one per previous located set (covering it and the
    fine slope set near it), one per intermediate index (covering the
    annulus between consecutive fine scales), and a final net covering the
    residual.  Every point is drawn from a certified carrier."""
    params = state.params
    prev = state.last()
    ns_prev = state.ns
    nseq = IndexSeq(ns_prev)
    step = as_fraction(mu_m) * params.net_factor
    wp = prev.w_m
    zeta = as_fraction(zeta_m)
    total = 0
    halves: dict[str, list[FinitePointSet]] = {"hat": [], "check": []}

    n_prev = prev.n_m
    for n in range(1, n_prev + 1):
        j = next(
            j for j in range(1, m) if n in index_set_A(j, m - 1, nseq)
        )
        b1 = ladder.b_refined(j, m, 1)
        a1 = ladder.a_refined(j, m, 1)
        for rd in ("hat", "check"):
            anchor = prev.K_sets[n - 1].tilde(rd).as_interval_set()
            carrier = cache_f.get(b1, rd).inner.intersect(ball(anchor, wp))
            target = cache_f.get(a1, rd).outer.intersect(ball(anchor, wp - zeta))
            if carrier.is_empty and not target.is_empty:
                raise GameError(
                    f"carrier for refined net {n} ({rd}) is empty while its target is not"
                )
            pts = _grid_points(carrier, step)
            total += len(pts)
            if total > params.max_net_points:
                raise GameInfeasibleError(
                    f"refined nets exceed the point cap at set {n}"
                )
            halves[rd].append(FinitePointSet.of(pts))

    for j in range(2, m):
        a1j = ladder.a_refined(j, m, 1)
        a1jm = ladder.a_refined(j - 1, m, 1)
        A_prev = index_set_A(j - 1, m - 1, nseq)
        for rd in ("hat", "check"):
            balls_prev = ball(
                _tilde_union(prev.K_sets, A_prev, rd).as_interval_set(), wp - zeta
            )
            carrier = (
                cache_f.get(a1j, rd)
                .inner.difference(cache_f.get(a1jm, rd).outer)
                .intersect(balls_prev)
            )
            pts = _grid_points(carrier, step)
            total += len(pts)
            halves[rd].append(FinitePointSet.of(pts))

    mu_frac = as_fraction(mu_m)
    for rd in ("hat", "check"):
        covered = IntervalSet.empty()
        for s in halves[rd]:
            covered = covered.union(ball(s.as_interval_set(), mu_frac))
        residual = IntervalSet.full().difference(covered)
        pts = _grid_points(residual, step)
        total += len(pts)
        if total > params.max_net_points:
            raise GameInfeasibleError("residual net exceeds the point cap")
        halves[rd].append(FinitePointSet.of(pts))

    return tuple(
        HatCheckSet(h, c) for h, c in zip(halves["hat"], halves["check"])
    )


def _certify_L_claims(
    state: GameState,
    f_m: C1Function,
    L_sets: Sequence[HatCheckSet],
    mu_m: float,
    cache_f: _EnclosureCache,
    ladder: ScaleLadder,
    m: int,
) -> dict[str, float]:
    """The construction claims for the refinement nets, checked exactly on
    the finite sets and through enclosures where slope sets appear: (1)
    proximity to the previous located sets, (2) coverage of the top fine
    slope set, (3) membership in the coarse slope sets, (4) full coverage of
    the interval, (5) new selected indices stay near the previous selection,
    (6) the mid slope sets avoid the unselected nets.  Returns the positive
    margins; any failed claim aborts the round."""
    prev = state.last()
    nseq = IndexSeq(state.ns)
    wp = prev.w_m
    mu_frac = as_fraction(mu_m)
    margins: dict[str, float] = {}

    worst1 = None
    for n in range(1, prev.n_m + 1):
        for rd in ("hat", "check"):
            d = (
                L_sets[n - 1].tilde(rd).as_interval_set()
                .hausdorff(prev.K_sets[n - 1].tilde(rd).as_interval_set())
            )
            slack = wp - d
            if not slack > 0:
                raise GameError(
                    f"claim (1) fails at n={n} ({rd}): distance {float(d):.3g}"
                )
            worst1 = slack if worst1 is None else min(worst1, slack)
    if worst1 is not None:
        margins["claim_1"] = float(worst1)

    a_top = ladder.a_refined(m - 1, m, 1)
    for rd in ("hat", "check"):
        nets = union_of_point_sets(s.tilde(rd) for s in L_sets[: prev.n_m + m - 2])
        ok, marg = subset_within(cache_f.get(a_top, rd).outer, nets.as_interval_set(), mu_frac)
        if not ok:
            raise GameError(f"claim (2) fails ({rd})")
        margins[f"claim_2_{rd}"] = float(marg)

    for j in range(1, m):
        b1 = ladder.b_refined(j, m, 1)
        A = index_set_A(j, m, nseq)
        for rd in ("hat", "check"):
            sel = _tilde_union(L_sets, [n for n in A if n <= len(L_sets)], rd)
            inner = cache_f.get(b1, rd).inner
            for q in sel.points:
                if not inner.contains_point(q):
                    raise GameError(f"claim (3) fails at j={j} ({rd})")

    for rd in ("hat", "check"):
        full_cover = IntervalSet.empty()
        for s in L_sets:
            full_cover = full_cover.union(ball(s.tilde(rd).as_interval_set(), mu_frac))
        if not is_subset(IntervalSet.full(), full_cover):
            raise GameError(f"claim (4) fails ({rd})")
    # the nets are grids at spacing strictly below the covering radius;
    # that spacing slack is the coverage margin
    margins["claim_4"] = float(mu_frac * (1 - state.params.net_factor))

    nseq_m = IndexSeq(state.ns + (prev.n_m + m - 1,))
    for j in range(2, m):
        grown = index_set_A(j, m, nseq_m) - index_set_A(j, m - 1, nseq)
        A_prevj = index_set_A(j - 1, m - 1, nseq)
        for rd in ("hat", "check"):
            sel = _tilde_union(L_sets, [n for n in grown if n <= len(L_sets)], rd)
            near = (
                union_of_point_sets(
                    L_sets[n - 1].tilde(rd) for n in sorted(A_prevj)
                )
            ).as_interval_set()
            ok, marg = subset_within(sel.as_interval_set(), near, 2 * wp)
            if not ok:
                raise GameError(f"claim (5) fails at j={j} ({rd})")
            margins[f"claim_5_j{j}_{rd}"] = float(marg)

    for j in range(1, m):
        a2 = ladder.a_refined(j, m, 2)
        A = index_set_A(j, m, nseq_m)
        out_idx = [n for n in range(1, len(L_sets) + 1) if n not in A]
        for rd in ("hat", "check"):
            if not out_idx:
                continue
            others = _tilde_union(L_sets, out_idx, rd).as_interval_set()
            apart, gapv = disjoint_gap(cache_f.get(a2, rd).outer, others)
            if not apart:
                raise GameError(f"claim (6) fails at j={j} ({rd})")
            if gapv is not None:
                margins[f"claim_6_j{j}_{rd}"] = float(gapv)
    return margins


def _certify_K_claims(
    state: GameState,
    f_m: C1Function,
    K_sets: Sequence[HatCheckSet],
    mu_m: float,
    cache_f: _EnclosureCache,
    ladder: ScaleLadder,
    m: int,
    ns_m: tuple[int, ...],
) -> tuple[dict[str, float], list[Fraction]]:
    """Re-verify the net claims on the snapped located sets: proximity (1),
    interior membership in the coarse slope sets (3), full coverage (4),
    proximity of new selections (5), and separation of the mid slope sets
    from the unselected located points (6), whose gaps bound w_m."""
    prev = state.last()
    nseq = IndexSeq(state.ns)
    nseq_m = IndexSeq(ns_m)
    built = prev.n_m + m - 1
    wp = prev.w_m
    mu_frac = as_fraction(mu_m)
    margins: dict[str, float] = {}
    sep_gaps: list[Fraction] = []

    worst1 = None
    for n in range(1, prev.n_m + 1):
        for rd in ("hat", "check"):
            d = (
                K_sets[n - 1].tilde(rd).as_interval_set()
                .hausdorff(prev.K_sets[n - 1].tilde(rd).as_interval_set())
            )
            slack = wp - d
            if not slack > 0:
                raise GameError(f"located claim (1) fails at n={n} ({rd})")
            worst1 = slack if worst1 is None else min(worst1, slack)
    if worst1 is not None:
        margins["claim_1"] = float(worst1)

    for j in range(1, m):
        b2 = ladder.b_refined(j, m, 2)
        A = index_set_A(j, m, nseq_m)
        for rd in ("hat", "check"):
            sel = _tilde_union(K_sets, [n for n in A if n <= built], rd)
            if not sel.as_interval_set().subset_of_interior(cache_f.get(b2, rd).inner):
                raise GameError(f"located claim (3) fails at j={j} ({rd})")

    for rd in ("hat", "check"):
        full_cover = IntervalSet.empty()
        for s in K_sets[:built]:
            full_cover = full_cover.union(ball(s.tilde(rd).as_interval_set(), mu_frac))
        if not is_subset(IntervalSet.full(), full_cover):
            raise GameError(f"located claim (4) fails ({rd})")

    for j in range(2, m):
        grown = index_set_A(j, m, nseq_m) - index_set_A(j, m - 1, nseq)
        A_prevj = index_set_A(j - 1, m - 1, nseq)
        for rd in ("hat", "check"):
            sel = (
                _tilde_union(K_sets, [n for n in grown if n <= built], rd)
            ).as_interval_set()
            near = _tilde_union(K_sets, A_prevj, rd).as_interval_set()
            ok, marg = subset_within(sel, near, 2 * wp)
            if not ok:
                raise GameError(f"located claim (5) fails at j={j} ({rd})")
            margins[f"claim_5_j{j}_{rd}"] = float(marg)

    for j in range(1, m + 1):
        a2 = ladder.a_refined(j, m, 2)
        A = index_set_A(j, m, nseq_m)
        out_idx = [n for n in range(1, built + 1) if n not in A]
        if not out_idx:
            continue
        for rd in ("hat", "check"):
            others = _tilde_union(K_sets, out_idx, rd).as_interval_set()
            apart, gapv = disjoint_gap(cache_f.get(a2, rd).outer, others)
            if not apart:
                raise GameError(f"located claim (6) fails at j={j} ({rd})")
            if gapv is not None:
                sep_gaps.append(gapv)
                margins[f"claim_6_j{j}_{rd}"] = float(gapv)
    return margins, sep_gaps


# ---------------------------------------------------------------------------
# full runs and limit verification
# ---------------------------------------------------------------------------


def _oracle_for(oracles, m: int) -> DenseOpenOracle:
    if callable(oracles):
        return oracles
    return oracles[min(m - 1, len(oracles) - 1)]


def run_game(
    adversary: PlayerI,
    oracles,
    rounds: int,
    params: GameParams = GameParams(),
) -> tuple[GameState, dict]:
    """Play the given number of rounds and verify the truncated limit
    statements.  Returns the immutable state and the limit report."""
    if rounds < 1:
        raise ValueError("need at least one round")
    state = GameState((), params)
    for m in range(1, rounds + 1):
        prev = None if not state.rounds else (state.last().g_m, state.last().beta_m)
        f, alpha = adversary(m, prev)
        oracle = _oracle_for(oracles, m)
        if m == 1:
            rec = round_one(f, alpha, oracle, params)
        else:
            rec = round_m(state, f, alpha, oracle)
            _assert_monotone(state.last(), rec)
        state = GameState(state.rounds + (rec,), params)
    report = limit_report(state)
    return state, report


def _assert_monotone(prev: RoundRecord, rec: RoundRecord) -> None:
    if not rec.w_m < prev.w_m / 2:
        raise GameError("radius failed to halve between rounds")
    if not rec.n_m >= prev.n_m + rec.m - 1:
        raise GameError("located index count grew too slowly")
    if not rec.b_m > max(rec.m + 2, prev.b_m):
        raise GameError("slope bound failed to grow")


def limit_report(state: GameState) -> dict:
    """The four truncated limit verifications, with certified margins.

    (i) prefix Cauchy bounds, (ii) coverage of the slope sets of the last
    answer by tripled located balls, (iii) the nested-index inclusion chain
    at shrinking radii, (iv) membership in every oracle certificate ball.
    """
    M = len(state.rounds)
    ladder = state.ladder()
    last = state.last()
    limit_sets = [s.flat() for s in last.K_sets]
    report: dict = {"rounds": M, "checks": {}}

    cauchy_ok = True
    worst = None
    for mi in range(1, M + 1):
        rec = state.rounds[mi - 1]
        bound = 2 * rec.w_m
        for n in range(1, rec.n_m + 1):
            for mj in range(mi, M + 1):
                d = (
                    state.rounds[mj - 1].K_sets[n - 1].flat().as_interval_set()
                    .hausdorff(rec.K_sets[n - 1].flat().as_interval_set())
                )
                slack = float(bound - d)
                if worst is None or slack < worst:
                    worst = slack
                if not d <= bound:
                    cauchy_ok = False
    report["checks"]["prefix_cauchy"] = {"ok": cauchy_ok, "min_slack": worst}

    f = last.g_m
    cov_ok = True
    cov_entries = {}
    cache = _EnclosureCache(f, state.params.tol)
    nseq = IndexSeq(state.ns)
    for m in range(1, M + 1):
        rec = state.rounds[m - 1]
        radius = 3 * rec.w_m
        for j in range(1, m + 1):
            A = index_set_A(j, m, nseq)
            sel = (
                union_of_point_sets(limit_sets[n - 1] for n in sorted(A) if n <= len(limit_sets))
            ).as_interval_set()
            try:
                enc = cache.get(Fraction(j), "full")
                okf, margf = subset_within(enc.outer, sel, radius)
            except EnclosureRangeError as e:
                okf, margf = None, str(e)
            try:
                encb = cache.get(rec.b_m, "full")
                okb, margb = subset_within(sel, encb.inner, radius)
            except EnclosureRangeError as e:
                okb, margb = None, str(e)
            cov_entries[f"j={j},m={m}"] = {
                "fine_in_balls": okf,
                "fine_margin": float(margf) if isinstance(margf, Fraction) else margf,
                "points_near_coarse": okb,
                "coarse_margin": float(margb) if isinstance(margb, Fraction) else margb,
            }
            if okf is False or okb is False:
                cov_ok = False
    report["checks"]["limit_coverage"] = {"ok": cov_ok, "entries": cov_entries}

    w1 = state.rounds[0].w_m
    deltas = []
    w_prev = 2 * w1
    for rec in state.rounds:
        deltas.append(4 * rec.w_m + 2 * w_prev)
        w_prev = rec.w_m
    K_seq = SeqOfSets(tuple(s.as_interval_set() for s in limit_sets))
    comb = check_Y_k(
        K_seq,
        f,
        IndexSeq(state.ns),
        DeltaSeq(tuple(deltas)),
        ladder,
        0,
        M,
        state.params.tol,
        cache=cache,
    )
    report["checks"]["index_chain"] = {
        "ok": comb.ok,
        "failures": list(comb.failures),
        "undecided": list(comb.undecided),
    }

    orc_ok = True
    orc_entries = {}
    for rec in state.rounds:
        bound = 2 * rec.w_m
        worst_o = None
        for n in range(1, rec.n_m + 1):
            d = (
                limit_sets[n - 1].as_interval_set()
                .hausdorff(rec.K_sets[n - 1].flat().as_interval_set())
            )
            slack = float(bound - d)
            worst_o = slack if worst_o is None else min(worst_o, slack)
            if not d <= bound:
                orc_ok = False
        orc_entries[f"m={rec.m}"] = {"min_slack": worst_o, "l": rec.oracle_l, "r": str(rec.oracle_r)}
    report["checks"]["oracle_balls"] = {"ok": orc_ok, "entries": orc_entries}

    report["ok"] = all(block["ok"] for block in report["checks"].values())
    return report


# ---------------------------------------------------------------------------
# serialization and verification
# ---------------------------------------------------------------------------


def state_to_json(state: GameState) -> dict:
    return {
        "schema": "knotpoints.game/1",
        "params": {
            "tol": state.params.tol,
            "net_factor": str(state.params.net_factor),
            "w_safety": str(state.params.w_safety),
            "max_net_points": state.params.max_net_points,
            "max_oracle_retries": state.params.max_oracle_retries,
            "shrink_floor": state.params.shrink_floor,
            "ladder_kind": state.params.ladder_kind,
            "ladder_ratio": str(state.params.ladder_ratio),
            "ladder_scale": str(state.params.ladder_scale),
        },
        "rounds": [rec.to_json() for rec in state.rounds],
    }


def state_from_json(obj: dict) -> GameState:
    if obj.get("schema") != "knotpoints.game/1":
        raise ValueError(f"unknown game state schema: {obj.get('schema')!r}")
    p = obj["params"]
    params = GameParams(
        tol=p["tol"],
        net_factor=Fraction(p["net_factor"]),
        w_safety=Fraction(p["w_safety"]),
        max_net_points=p["max_net_points"],
        max_oracle_retries=p["max_oracle_retries"],
        shrink_floor=p["shrink_floor"],
        ladder_kind=p["ladder_kind"],
        ladder_ratio=Fraction(p["ladder_ratio"]),
        ladder_scale=Fraction(p["ladder_scale"]),
    )
    rounds = tuple(RoundRecord.from_json(r) for r in obj["rounds"])
    return GameState(rounds, params)


def game_report(state: GameState, limit: dict) -> dict:
    """Deterministic report: state, per-round certifications, limit checks.
    Callers may add volatile fields (timing) outside the canonical block."""
    return {
        "schema": "knotpoints.game-report/1",
        "state": state_to_json(state),
        "limit": _json_clean(limit),
    }


def verify_report(report: dict) -> tuple[bool, dict]:
    """Recompute the invariant for every recorded round (at the recorded
    centers) and the limit checks; compare with the stored verdicts."""
    state = state_from_json(report["state"])
    ladder = state.ladder()
    recomputed: dict = {"rounds": {}, "mismatches": []}
    for rec in state.rounds:
        star = check_star(rec, rec.g_m, state.ns[: rec.m], ladder, state.params.tol)
        stored = rec.certifications.get("star_self", {})
        entry = {"ok": star.ok, "failures": list(star.failures), "undecided": list(star.undecided)}
        recomputed["rounds"][rec.m] = entry
        if stored and bool(stored.get("ok")) != star.ok:
            recomputed["mismatches"].append(f"round {rec.m}: star verdict changed")
    limit = limit_report(state)
    recomputed["limit_ok"] = limit["ok"]
    stored_limit = report.get("limit", {})
    if stored_limit and bool(stored_limit.get("ok")) != limit["ok"]:
        recomputed["mismatches"].append("limit verdict changed")
    ok = not recomputed["mismatches"] and all(
        e["ok"] for e in recomputed["rounds"].values()
    )
    return ok and limit["ok"], recomputed
