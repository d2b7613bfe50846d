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

Round 1 is played in full, and the finite engine verifies the truncated
limit statements of the game played so far (Cauchy prefixes, coverage of
the slope sets of the last answer with tripled radii, the nested-index
inclusion chain, and membership in every oracle certificate ball) with
certified margins.  In the construction, round m refines the located sets
to within w_{m-1} of their round m-1 ancestors at radii that at least
halve; the engine does not build that refinement.  `round_m` checks the
move rules and the inherited invariant, bounds the perturbation radius
mu_m in exact rationals, and stops at the size of the net that bound
allows.

Why it stops there.  Player II's answer needs a radius mu with
2*mu*(|f'|+a) < h_m, where h_m = alpha_m/2 and alpha_m < beta_{m-1}.  The
radius chain eps_1 -> beta_1 -> h_2 makes h_2 tiny, while the round-1 bump
leaves the played function with a steep slope norm, and this one
constraint rules out every net, whatever witness eps the bump lemma would
certify.  The Hermite slope data are f' at the knots, so their largest
modulus is a certified lower bound of |f'|.  At `game run --rounds 2
--seed 1`: beta_1 = 5.58e-7, h_2 = 1.74e-7 and |f_2'| >= 38,146 at a =
2.576, so mu < 2.29e-12 and the net needs more than 9.72e11 points against
a cap of 2*10^6; the bound stops deciding only at h_2 >= 0.085.  Seeds 1-12
all end there, with net lower bounds of 1.8e11-5.2e14.  Local slopes do not
rescue it: on 4,000,001 grid points |g_1'| exceeds 10 on 45% of [0, 1] and
10^4 on 39% (median 1.76).  On that 39% a net graded by the local slope in
place of the norm is at most 3.9 times sparser.  A bound that does not
decide raises GameError; a real second round needs a different
construction scenario, not different constants.

Everything "sufficiently small" in the construction is an explicit number
here: margins come from certified set inclusions, shrink loops stop at a
floor of 1e-12 and abort loudly, and net sizes are capped.  When a round's
perturbation radius mu_m falls below what any buildable net could honor the
engine raises GameInfeasibleError carrying the certified bound instead of
silently degrading.

The game is played at one operating point: the module constants below and
the scale ladder of `indexcomb`.  A saved game records them in its `params`
block, and `state_from_json` refuses a game saved with other values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NoReturn, Sequence

import numpy as np

from .bump import (
    BumpSpec,
    EpsilonSearchError,
    HatCheckSet,
    check_bump_properties,
    make_bump,
    mu,
)
from .indexcomb import (
    LADDER_RATIO,
    LADDER_SCALE,
    CombCheck,
    DeltaSeq,
    Enclosures,
    IndexSeq,
    ScaleLadder,
    SeqOfSets,
    check_Y_k,
    enclosure_verdict,
    index_set_A,
)
from .intervalsets import (
    FinitePointSet,
    Rat,
    common_numerators,
    as_fraction,
    ball,
    disjoint_gap,
    open_cover_full,
    pairwise_disjoint,
    prefix_distance,
    subset_within,
    union_of_point_sets,
)
from .nsets import (
    admissible_eps,
    continuity_delta,
    n_set_enclosure,  # noqa: F401  (knotbench's tracer test checks it is rebound here)
)
from .realfn import C1Function, function_from_json, function_to_json, random_c1_function

__all__ = [
    "GameError",
    "GameRuleError",
    "GameInfeasibleError",
    "OracleError",
    "OracleReply",
    "DenseOpenOracle",
    "RoundRecord",
    "GameState",
    "oracle_everything",
    "oracle_avoid_point",
    "oracle_target_prefix",
    "random_player_one",
    "round_one",
    "round_m",
    "check_star",
    "run_game",
    "limit_report",
    "state_to_json",
    "state_from_json",
    "game_report",
    "verify_report",
]


# ---------------------------------------------------------------------------
# errors and the operating point
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


# enclosure tolerance of every certificate
TOL = 1e-4
# net spacing as a multiple of the covering radius mu; below 1 it keeps a
# positive coverage margin
NET_FACTOR = Fraction(9, 10)
# located-ball radius w_1 as a multiple of the least gap between located
# points; below 1/2 it keeps the closed balls disjoint
W_SAFETY = Fraction(9, 20)
# net-size diagnosis threshold: round 1 builds its net only below it, and a
# round whose radius would need a net of more points raises
# GameInfeasibleError; later rounds build none.
MAX_NET_POINTS = 2_000_000
# round 1 asks the oracle at most this often, quartering its snapping budget
MAX_ORACLE_RETRIES = 6
# w_1, eps_1 and beta_1 below this raise GameInfeasibleError
SHRINK_FLOOR = 1e-12

# the operating point as a saved game's `params` block records it
_PARAMS = {
    "tol": TOL,
    "net_factor": str(NET_FACTOR),
    "w_safety": str(W_SAFETY),
    "max_net_points": MAX_NET_POINTS,
    "max_oracle_retries": MAX_ORACLE_RETRIES,
    "shrink_floor": SHRINK_FLOOR,
    "ladder_kind": "geometric",
    "ladder_ratio": str(LADDER_RATIO),
    "ladder_scale": str(LADDER_SCALE),
}


# ---------------------------------------------------------------------------
# located sets with a two-way partition (`bump.HatCheckSet`)
# ---------------------------------------------------------------------------


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
    nums, den = common_numerators(sets)
    # points scaled by den: ints, and Fractions once shifted off a repeat
    seen: set = set()
    out = []
    bump_idx = 1
    for s in nums:
        pts = []
        for p in s:
            q = p
            while q in seen or q > den or q < 0:
                step = budget * den * Fraction(bump_idx, 8 * (bump_idx + len(seen) + 1))
                q = p + step
                if q > den:
                    q = p - step
                bump_idx += 1
            seen.add(q)
            pts.append(q)
        out.append(FinitePointSet.from_ratios([(q.numerator, q.denominator * den) for q in pts]))
    return tuple(out)


def oracle_everything() -> DenseOpenOracle:
    """The whole space: any reply is a member, so the target itself (snapped
    to pairwise disjoint sets) comes back with a free certificate."""

    def call(target: tuple[FinitePointSet, ...], eps: float) -> OracleReply:
        snapped = _dedupe_across(target, as_fraction(eps) / 4)
        return OracleReply(snapped, 1, Fraction(1, 4), "everything")

    return call


def oracle_avoid_point(p: Rat) -> DenseOpenOracle:
    """Sequences whose returned prefix keeps all points off a closed ball
    around p.  The avoided radius adapts to the request (eps/8) so the reply
    can stay eps-close to any target; the certificate radius is a quarter of
    the clearance margin."""
    pf = as_fraction(p)

    def call(target: tuple[FinitePointSet, ...], eps: float) -> OracleReply:
        radius = as_fraction(eps) / 8
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
    already compatible with T; an incompatible request raises OracleError,
    which `round_one` does not catch: the run ends at once (the CLI reports
    status "error")."""
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


def random_player_one(seed: int) -> PlayerI:
    """Seeded adversary: an arbitrary first move, then centers perturbed by
    a random smooth function of norm about a quarter of the available radius,
    with the answer radius leaving an eighth of it as rule margin."""
    rng = np.random.default_rng(seed)

    def move(m: int, prev: tuple[C1Function, Fraction] | None):
        sub = int(rng.integers(1, 2**31))
        if prev is None:
            f = random_c1_function(seed=sub, cells=4, amplitude=0.3, slope_scale=1.5)
            return f, Fraction(1)
        g, beta = prev
        bf = float(beta)
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


# ---------------------------------------------------------------------------
# records and state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoundRecord:
    """Everything Player II constructs in one round, plus certification
    margins.  Radii and heights are exact rationals; the analytic quantities
    (mu, eps) are certified floats.  A saved round also carries "zeta_m":
    null and "L_sets": [], the refinement data of a round m >= 2, which the
    engine never builds (see `round_m`)."""

    m: int
    f_m: C1Function
    alpha_m: Fraction
    h_m: Fraction
    mu_m: float
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
            "zeta_m": None,
            "L_sets": [],
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
        if obj["zeta_m"] is not None:
            raise ValueError(f"zeta_m is {obj['zeta_m']!r}; the engine records null")
        if obj["L_sets"] != []:
            raise ValueError("L_sets is not empty; the engine builds no refined located sets")
        certs = obj.get("certifications", {})
        if not isinstance(certs, dict) or not isinstance(certs.get("star_self", {}), dict):
            raise ValueError("certifications and their star_self entry must be objects")
        return RoundRecord(
            m=obj["m"],
            f_m=function_from_json(obj["f_m"]),
            alpha_m=Fraction(obj["alpha_m"]),
            h_m=Fraction(obj["h_m"]),
            mu_m=obj["mu_m"],
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
            certifications=certs,
        )


@dataclass(frozen=True)
class GameState:
    """Immutable after each round; rounds are indexed consecutively from 1."""

    rounds: tuple[RoundRecord, ...]

    def __post_init__(self) -> None:
        for i, rec in enumerate(self.rounds, start=1):
            if rec.m != i:
                raise ValueError("round indices must be consecutive from 1")

    @property
    def ns(self) -> tuple[int, ...]:
        return tuple(rec.n_m for rec in self.rounds)

    def ladder(self) -> ScaleLadder:
        return ScaleLadder(tuple(rec.b_m for rec in self.rounds))

    def last(self) -> RoundRecord:
        return self.rounds[-1]


def _verdict_json(check: CombCheck) -> dict:
    """A verdict as reports record it; the in-round ones add the margins."""
    return {"ok": check.ok, "failures": list(check.failures), "undecided": list(check.undecided)}


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


def star_bullets(
    f: C1Function,
    K_sets: Sequence[HatCheckSet],
    w_m: Fraction,
    ns: Sequence[int],
    ladder: ScaleLadder,
    ka: int,
    kb: int,
) -> CombCheck:
    """Certify the three bullet families of round m = len(ns) over j in
    [m], both readings, at depth (ka, kb) of the refined scales: the
    invariant itself uses (4, 3); the in-round claims for g_m use the
    stronger (3, 2).  K_sets are the round's located sets, n_m of them.
    Every bullet is decided by `indexcomb.enclosure_verdict` on the store
    of f's enclosures at tolerance TOL, which also brackets a scale the
    engine refuses, and the verdict is ok only when every bullet is
    certified.  Its keys are (j, bullet, reading)."""
    enclosures = Enclosures(f, TOL)
    m = len(ns)
    nseq = IndexSeq(tuple(ns))
    failures: list = []
    undecided: list = []
    margins: dict = {}

    def settle(key, a, rd, test, reason: str, sound: str = "outer") -> None:
        """Record bullet `key` on the `rd` set at scale a, with `test(side)`
        giving (ok, margin) on one side of its enclosure and `sound` naming
        the side whose pass certifies it; an undecided bullet records
        `reason`."""
        verdict, marg = enclosure_verdict(enclosures, a, rd, test, sound)
        if verdict == "undecided":
            undecided.append(key)
            margins[key] = reason
            return
        if verdict == "failed":
            failures.append(key)
        margins[key] = None if marg is None else float(marg)

    for j in range(1, m + 1):
        A = index_set_A(j, m, nseq)
        out_idx = [n for n in range(1, len(K_sets) + 1) if n not in A]
        a_scale = ladder.a_refined(j, m, ka)
        b_scale = ladder.b_refined(j, m, kb)
        for rd in ("hat", "check"):
            sel = _tilde_union(K_sets, A, rd).as_interval_set()
            # bullet (i): fine slope set inside the open w-balls of the
            # selected located points
            settle(
                (j, 1, rd), a_scale, rd, lambda s: subset_within(s, sel, w_m),
                "outer fails, inner passes",
            )
            # bullet (ii): selected located points near the coarse slope set
            settle(
                (j, 2, rd), b_scale, rd, lambda s: subset_within(sel, s, w_m),
                "inner fails, outer passes", "inner",
            )
            # bullet (iii): fine slope set avoids closed w-balls of the rest
            if not out_idx:
                margins[(j, 3, rd)] = "vacuous"
                continue
            others = ball(_tilde_union(K_sets, out_idx, rd).as_interval_set(), w_m)
            settle(
                (j, 3, rd), a_scale, rd, lambda s: disjoint_gap(s, others),
                "outer touches, inner clear",
            )
    return CombCheck(not failures and not undecided, tuple(failures), tuple(undecided), margins)


def check_star(
    record: RoundRecord,
    f: C1Function,
    ns: Sequence[int],
    ladder: ScaleLadder,
) -> CombCheck:
    """The round invariant for an arbitrary member f of the answered ball,
    at the weld scales (depth 4 on the fine side, 3 on the coarse side)."""
    return star_bullets(f, record.K_sets, record.w_m, ns, ladder, 4, 3)


# ---------------------------------------------------------------------------
# nets and tagging
# ---------------------------------------------------------------------------


def _alternating_net(spacing: Fraction) -> FinitePointSet:
    """The multiples of half the spacing in [0, 1].  Its even multiples, the
    hat half, and its odd ones, the check half, are each an open cover net at
    radius just above spacing; `_tag_on_net` splits a set near it."""
    p, q = spacing.numerator, spacing.denominator
    return FinitePointSet(range(0, 2 * q + 1, p), 2 * q)


def _tag_on_net(pts: FinitePointSet, spacing: Fraction, within: Fraction) -> HatCheckSet | None:
    """Tag each point by its strictly nearest point of
    `_alternating_net(spacing)`: hat for an even multiple k of half the
    spacing, check for an odd one.  The two net neighbours of a point are k
    and k + 1, one of each half, so the nearer one decides.  None when a
    point is as far from both, or farther than `within` from the net."""
    p, q = spacing.numerator, spacing.denominator
    den = math.lcm(pts.den, 2 * q)
    scale = den // pts.den
    # half a spacing over den, and the last multiple of it in [0, 1]
    half = p * (den // (2 * q))
    last = den // half
    # d > within  <=>  d * wd > wn, for a distance d over den
    wd, wn = within.denominator, within.numerator * den
    halves: tuple[list[int], list[int]] = ([], [])
    for x in pts.nums:
        x *= scale
        k, d = divmod(x, half)
        if k < last and half - d <= d:
            if half - d == d:
                return None
            k, d = k + 1, half - d
        if d * wd > wn:
            return None
        halves[k % 2].append(x)
    return HatCheckSet(FinitePointSet(halves[0], den), FinitePointSet(halves[1], den))


def _alternate_tags(pts: FinitePointSet) -> HatCheckSet:
    xs, den = pts.nums, pts.den
    return HatCheckSet(FinitePointSet(xs[0::2], den), FinitePointSet(xs[1::2], den))


# ---------------------------------------------------------------------------
# round one
# ---------------------------------------------------------------------------


def round_one(f1: C1Function, alpha1: Rat, oracle: DenseOpenOracle) -> RoundRecord:
    """First answer: a double net of located points fine enough that the
    bump of half the available height traps the fine-scale slope sets of
    everything in the answered ball."""
    alpha = as_fraction(alpha1)
    if alpha <= 0:
        raise GameRuleError("alpha_1 must be positive")
    ladder0 = ScaleLadder(())
    a13 = ladder0.a_refined(1, 1, 3)
    a12 = ladder0.a_refined(1, 1, 2)
    a14 = ladder0.a_refined(1, 1, 4)

    h1 = alpha / 2
    try:
        chain = mu(f1, a13, a12, h1, TOL)
    except EpsilonSearchError as e:
        raise GameInfeasibleError(f"round 1 perturbation radius failed: {e}") from e
    mu1 = chain.mu

    spacing = as_fraction(mu1) * NET_FACTOR
    need = 2.0 / float(spacing)
    if need > MAX_NET_POINTS:
        raise GameInfeasibleError(
            f"perturbation radius mu = {mu1:.3g} would need a net of about "
            f"{need:.3g} points (cap {MAX_NET_POINTS}).  Certified chain at scales "
            f"({float(a13):.6g}, {float(a12):.6g}): witness eps = {chain.eps:.3g}, "
            f"interval length l = {chain.l:.3g}, slope norm = {f1.deriv_sup_norm():.6g}. "
            "The first move's slope norm and the witness eps it allows at these "
            "scales leave round 1 no radius that a net under the cap can honor.",
            {
                "mu": mu1,
                "eps": chain.eps,
                "l": chain.l,
                "net_points": need,
                "cap": MAX_NET_POINTS,
                "deriv_norm": f1.deriv_sup_norm(),
            },
        )
    target = (_alternating_net(spacing),)

    eps_orc = float(spacing) / 16.0
    reply = tagged = None
    for _ in range(MAX_ORACLE_RETRIES):
        reply = oracle(target, eps_orc)
        if not pairwise_disjoint([s for s in reply.sets]):
            raise OracleError("oracle reply is not a family of pairwise disjoint sets")
        tagged = _tag_on_net(reply.sets[0], spacing, as_fraction(eps_orc))
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
    w1 = min(as_fraction(reply.r), W_SAFETY * gap)
    if float(w1) < SHRINK_FLOOR:
        raise GameInfeasibleError(f"w_1 = {float(w1):.3g} fell below the floor")

    spec = BumpSpec(tagged.hat, tagged.check, h1, w1)
    phi = make_bump(spec)
    certs: dict = {"bump_properties": check_bump_properties(spec, phi)}
    if not certs["bump_properties"]:
        raise GameError("constructed bump violates its defining properties")
    g1 = f1.add(phi)

    b1 = Fraction(max(4, math.ceil(g1.deriv_sup_norm() + 0.72) + 1))
    ladder = ScaleLadder((b1,))
    if not ladder.b_refined(1, 1, 2) >= as_fraction(g1.deriv_sup_norm()):
        raise GameError("b_1 does not dominate the answered slope norm")

    # in-round claims at depth (3, 2), which also yield the margin for eps_1
    claims = star_bullets(g1, K_sets, w1, (n1,), ladder, 3, 2)
    certs["claims_g"] = {**_verdict_json(claims), "margins": _json_clean(claims.margins)}
    if not claims.ok:
        raise GameError(
            "round-1 claims for g_1 failed", {"failures": claims.failures, "undecided": claims.undecided}
        )

    margin1 = min(claims.margins[(1, 1, rd)] for rd in ("hat", "check"))
    eps1 = margin1 / 2.0
    if eps1 < SHRINK_FLOOR:
        raise GameInfeasibleError(f"eps_1 margin {eps1:.3g} below the floor")
    eps_adm = admissible_eps(a14, a13, as_fraction(eps1))
    beta1 = min(alpha - h1, continuity_delta(a14, a13, eps_adm))
    if float(beta1) < SHRINK_FLOOR:
        raise GameInfeasibleError(f"beta_1 = {float(beta1):.3g} below the floor")

    rec = RoundRecord(
        m=1,
        f_m=f1,
        alpha_m=alpha,
        h_m=h1,
        mu_m=mu1,
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
    star = check_star(rec, g1, (n1,), ladder)
    certs["star_self"] = {**_verdict_json(star), "margins": _json_clean(star.margins)}
    if not star.ok:
        raise GameError(
            "round-1 invariant failed for the answered center",
            {"failures": star.failures, "undecided": star.undecided},
        )
    return rec


# ---------------------------------------------------------------------------
# later rounds
# ---------------------------------------------------------------------------


def round_m(state: GameState, f_m: C1Function, alpha_m: Rat) -> NoReturn:
    """Move-rule checks plus diagnosis for a round m >= 2; never returns.

    Raises GameRuleError when the move ball does not lie inside the previous
    answer, and GameError when the previous invariant fails at the move
    center.  Otherwise it bounds the perturbation radius in exact rationals
    from 2*mu*(|f'|+a) < h_m alone, with |f'| >= max|slopes| and a the
    largest a_refined(j, m, 3): mu < h_m/(2(max|slopes| + a)).  When a net at
    that radius needs more than MAX_NET_POINTS, as the radius chain
    eps_1 -> beta_1 -> h_2 against the slope norm of the round-1 bump makes
    it at every seed, it raises GameInfeasibleError; otherwise GameError, as
    the engine builds no round-m net (see the module docstring).  Both carry
    the bound in their details.  No witness eps is searched and no oracle
    is consulted."""
    m = len(state.rounds) + 1
    if m < 2:
        raise GameError("round_m needs a completed first round")
    prev = state.last()
    alpha = as_fraction(alpha_m)
    if alpha <= 0:
        raise GameRuleError(f"alpha_{m} must be positive")
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

    # the previous invariant must hold for the actual move; this replaces
    # the inherited-by-continuity argument, whose coarse-side budget is
    # below float resolution at large slope scales
    inherited = check_star(prev, f_m, ns_prev, ladder)
    if inherited.failures:
        raise GameError(
            "previous-round invariant fails for the move center",
            {"failures": inherited.failures},
        )

    # the Hermite slope data are f' at the knots, so their largest modulus
    # is a certified lower bound of |f'|; one float converts exactly
    h_m = alpha / 2
    slope_lo = Fraction(float(np.abs(f_m.slopes).max()))
    a = max(ladder.a_refined(j, m, 3) for j in range(1, m + 1))
    mu_hi = h_m / (2 * (slope_lo + a))
    net_lo = 2 / (NET_FACTOR * mu_hi)
    bound = dict(
        h_m=h_m, slope_lower=slope_lo, a=a, mu_upper=mu_hi, net_lower=net_lo, cap=MAX_NET_POINTS
    )
    constraint = (
        f"2*mu*(|f'|+a) < h_m = {float(h_m):.3g} with |f'| >= {float(slope_lo):.6g} "
        f"and a = {float(a):.6g} keeps mu below {float(mu_hi):.3g}"
    )
    if net_lo > MAX_NET_POINTS:
        raise GameInfeasibleError(
            f"round {m}: {constraint}, so its net needs more than {float(net_lo):.3g} "
            f"points (cap {MAX_NET_POINTS}).  The radius chain eps_1 -> beta_1 -> h_{m} "
            f"leaves h_{m} far below what the slope norm of the round-1 bump asks "
            "for; no witness eps recovers a buildable net.",
            bound,
        )
    raise GameError(
        f"round {m}: {constraint}; that bound allows a net under the cap, but the "
        "engine builds no round-m net; see the knotpoints.bmgame module docstring",
        bound,
    )


# ---------------------------------------------------------------------------
# full runs and limit verification
# ---------------------------------------------------------------------------


def run_game(
    adversary: PlayerI,
    oracle: DenseOpenOracle,
    rounds: int,
) -> tuple[GameState, dict]:
    """Play round 1 and verify the truncated limit statements.  Returns the
    immutable state and the limit report.  With rounds > 1, `round_m` ends
    the run at round 2 with its diagnosis; only round 1 consults the
    oracle."""
    if rounds < 1:
        raise ValueError("need at least one round")
    state = GameState((round_one(*adversary(1, None), oracle),))
    if rounds > 1:
        round_m(state, *adversary(2, (state.last().g_m, state.last().beta_m)))
    return state, limit_report(state)


def limit_report(state: GameState) -> dict:
    """The four truncated limit verifications, with certified margins.

    (i) prefix Cauchy bounds, (ii) coverage of the slope sets of the last
    answer by tripled located balls, (iii) the nested-index inclusion chain
    at shrinking radii, (iv) membership in every oracle certificate ball.

    Checks (ii) and (iii) read one store of the last answer's enclosures
    and decide each claim by `indexcomb.enclosure_verdict`: a coverage
    entry is true, and the check ok, only when its claim is certified, and
    each margin is the sound side's.
    """
    M = len(state.rounds)
    ladder = state.ladder()
    last = state.last()
    # each round's located sets, flattened once; their interval sets are
    # cached on them, and round M's row is the limit prefix
    located = [[s.flat() for s in rec.K_sets] for rec in state.rounds]
    limit_sets = located[-1]
    report: dict = {"rounds": M, "checks": {}}

    # the Hausdorff distance d between the n-th located sets of rounds
    # mj >= mi, each computed once (a set is at distance 0 from itself); the
    # last d of each n, to round M, also decides the oracle ball of round mi
    cauchy_ok = orc_ok = True
    worst = None
    orc_entries = {}
    for mi, rec in enumerate(state.rounds, start=1):
        bound = 2 * rec.w_m
        worst_o = None
        for n in range(1, rec.n_m + 1):
            ref = located[mi - 1][n - 1].as_interval_set()
            for mj in range(mi, M + 1):
                d = Fraction(0)
                if mj > mi:
                    d = located[mj - 1][n - 1].as_interval_set().hausdorff(ref)
                slack = float(bound - d)
                if worst is None or slack < worst:
                    worst = slack
                if not d <= bound:
                    cauchy_ok = False
            worst_o = slack if worst_o is None else min(worst_o, slack)
            orc_ok = orc_ok and d <= bound
        orc_entries[f"m={rec.m}"] = {"min_slack": worst_o, "l": rec.oracle_l, "r": str(rec.oracle_r)}
    report["checks"]["prefix_cauchy"] = {"ok": cauchy_ok, "min_slack": worst}

    f = last.g_m
    cov_ok = True
    cov_entries = {}
    enclosures = Enclosures(f, TOL)
    nseq = IndexSeq(state.ns)
    for m in range(1, M + 1):
        rec = state.rounds[m - 1]
        radius = 3 * rec.w_m
        for j in range(1, m + 1):
            A = index_set_A(j, m, nseq)
            sel = union_of_point_sets(limit_sets[n - 1] for n in sorted(A)).as_interval_set()
            fine, margf = enclosure_verdict(
                enclosures, j, "full", lambda s: subset_within(s, sel, radius), "outer"
            )
            coarse, margb = enclosure_verdict(
                enclosures, rec.b_m, "full", lambda s: subset_within(sel, s, radius), "inner"
            )
            cov_entries[f"j={j},m={m}"] = {
                "fine_in_balls": fine == "certified",
                "fine_margin": float(margf),
                "points_near_coarse": coarse == "certified",
                "coarse_margin": float(margb),
            }
            cov_ok = cov_ok and fine == coarse == "certified"
    report["checks"]["limit_coverage"] = {"ok": cov_ok, "entries": cov_entries}

    w1 = state.rounds[0].w_m
    deltas = []
    w_prev = 2 * w1
    for rec in state.rounds:
        deltas.append(4 * rec.w_m + 2 * w_prev)
        w_prev = rec.w_m
    K_seq = SeqOfSets(tuple(s.as_interval_set() for s in limit_sets))
    comb = check_Y_k(K_seq, enclosures, nseq, DeltaSeq(tuple(deltas)), ladder, 0, M)
    report["checks"]["index_chain"] = _verdict_json(comb)

    report["checks"]["oracle_balls"] = {"ok": orc_ok, "entries": orc_entries}

    report["ok"] = all(block["ok"] for block in report["checks"].values())
    return report


# ---------------------------------------------------------------------------
# serialization and verification
# ---------------------------------------------------------------------------


def state_to_json(state: GameState) -> dict:
    return {
        "schema": "knotpoints.game/1",
        "params": dict(_PARAMS),
        "rounds": [rec.to_json() for rec in state.rounds],
    }


def state_from_json(obj: dict) -> GameState:
    """Read a saved game back; a game saved at another operating point than
    the module constants is refused, naming the first key that differs."""
    schema = obj.get("schema") if isinstance(obj, dict) else None
    if schema != "knotpoints.game/1":
        raise ValueError(f"unknown game state schema: {schema!r}")
    p = obj["params"]
    if not isinstance(p, dict):
        raise ValueError("params is not an object")
    for key in sorted(set(p) | set(_PARAMS)):
        if p.get(key) != _PARAMS.get(key):
            raise ValueError(
                f"params.{key} is {p.get(key)!r}; the engine plays only at {_PARAMS.get(key)!r}"
            )
    return GameState(tuple(RoundRecord.from_json(r) for r in obj["rounds"]))


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
    if not state.rounds:
        raise ValueError("rounds is empty; a game report holds at least one round")
    ladder = state.ladder()
    recomputed: dict = {"rounds": {}, "mismatches": []}
    for rec in state.rounds:
        star = check_star(rec, rec.g_m, state.ns[: rec.m], ladder)
        stored = rec.certifications.get("star_self", {})
        entry = _verdict_json(star)
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
