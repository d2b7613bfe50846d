"""Certified computation with one-sided slope sets of continuous functions.

The package follows one construction from end to end: finite located point
sets trap the sets where a function's increments stay under a linear bound
on dyadic windows, and a two-player ball game on C[0,1] refines the trap
round by round.  Every analytic statement the code makes is certified: set
computations are exact over the rationals, function-level computations carry
two-sided enclosures, and anything undecided is reported as such rather than
guessed.
"""

from .bmgame import (
    DenseOpenOracle,
    GameError,
    GameInfeasibleError,
    GameRuleError,
    GameState,
    OracleError,
    OracleReply,
    RoundRecord,
    check_star,
    game_report,
    limit_report,
    oracle_avoid_point,
    oracle_everything,
    oracle_target_prefix,
    random_player_one,
    round_m,
    round_one,
    run_game,
    state_from_json,
    state_to_json,
    verify_report,
)
from .bump import (
    BumpSpec,
    EpsilonSearchError,
    HatCheckSet,
    SizingChain,
    check_bump_easy,
    check_bump_properties,
    lemma_epsilon,
    lobe_half_width,
    make_bump,
    mu,
)
from .indexcomb import (
    CombCheck,
    DeltaSeq,
    Enclosures,
    IndexSeq,
    ScaleLadder,
    SeqOfSets,
    check_S_k,
    check_Y_k,
    check_perm_A,
    enclosure_verdict,
    index_set_A,
    random_finite_permutation,
    random_index_seq,
    shift_seq,
)
from .intervalsets import (
    EMPTY,
    FULL,
    FinitePointSet,
    IntervalSet,
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
    BASIC_VARIANTS,
    VARIANTS,
    DomainError,
    EnclosureRangeError,
    NSetEnclosure,
    admissible_eps,
    continuity_delta,
    n_set_enclosure,
    n_set_exact,
    point_defects_float,
    pow2_bounds,
    pow2_gap_bounds,
)
from .realfn import (
    C1Function,
    CubicPieces,
    PwlFunction,
    function_from_json,
    function_to_json,
    random_c1_function,
    random_function,
)

__version__ = "0.1.0"
