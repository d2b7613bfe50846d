"""Index combinatorics: the A-set identities, shift and permutation claims,
scale ladders, and the S/Y covering conditions on set sequences."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotpoints import indexcomb
from knotpoints.indexcomb import (
    DeltaSeq,
    Enclosures,
    IndexSeq,
    ScaleLadder,
    SeqOfSets,
    check_perm_A,
    check_S_k,
    check_Y_k,
    index_set_A,
    random_finite_permutation,
    random_index_seq,
    shift_seq,
)
from knotpoints.intervalsets import EMPTY, FULL, IntervalSet
from knotpoints.nsets import NSetEnclosure, n_set_enclosure, n_set_exact
from knotpoints.realfn import C1Function, random_c1_function
from oracles import zigzag

F = Fraction

seeds = st.integers(0, 10 ** 6)


def seq(seed, length=11):
    return random_index_seq(seed, length)


# -- index sequences --------------------------------------------------------


def test_index_seq_growth_enforced():
    IndexSeq((1, 2, 4, 7))  # minimal growth n_{j+1} = n_j + j
    with pytest.raises(ValueError):
        IndexSeq((1, 2, 3))  # 3 < 2 + 2
    with pytest.raises(ValueError):
        IndexSeq((0, 1))
    with pytest.raises(ValueError):
        IndexSeq(())


def test_index_seq_accessors():
    n = IndexSeq((2, 3, 5, 9))
    assert n.n(1) == 2 and n.n(4) == 9
    with pytest.raises(ValueError):
        n.n(5)
    assert shift_seq(n, 2).prefix == (5, 9)
    assert shift_seq(n, 0).prefix == n.prefix
    with pytest.raises(ValueError):
        shift_seq(n, 4)
    with pytest.raises(ValueError):
        shift_seq(n, -1)


@given(seeds)
def test_random_index_seq_valid_and_deterministic(seed):
    a = random_index_seq(seed, 8)
    b = random_index_seq(seed, 8)
    assert a == b
    for j, (x, y) in enumerate(zip(a.prefix, a.prefix[1:]), start=1):
        assert y >= x + j


def test_index_set_A_needs_long_enough_prefix():
    n = IndexSeq((1, 2, 4))
    assert index_set_A(1, 1, n) == frozenset({1})
    with pytest.raises(ValueError):
        index_set_A(1, 5, n)
    with pytest.raises(ValueError):
        index_set_A(0, 1, n)
    with pytest.raises(ValueError):
        index_set_A(3, 2, n)


def test_index_set_A_explicit_example():
    n = IndexSeq((2, 4, 7))
    # A_2^3 = [n_2] u {n_2+1} = [4] u {5}
    assert index_set_A(2, 3, n) == frozenset({1, 2, 3, 4, 5})
    # A_1^3 = [n_1]
    assert index_set_A(1, 3, n) == frozenset({1, 2})
    # A_3^3 = [n_3]
    assert index_set_A(3, 3, n) == frozenset(range(1, 8))


# -- the four basic structural claims ---------------------------------------


@given(seeds)
@settings(max_examples=40)
def test_basic_claim_one_chains(seed):
    """[n_j] = A_j^j, growing in m; A_1^m through A_m^m grows to [n_m];
    every A_j^m sits between [n_j] and [n_m]."""
    n = seq(seed)
    for m in range(1, 9):
        chain = [index_set_A(j, m, n) for j in range(1, m + 1)]
        assert chain[-1] == frozenset(range(1, n.n(m) + 1))
        for a, b in zip(chain, chain[1:]):
            assert a <= b
    for j in range(1, 9):
        assert index_set_A(j, j, n) == frozenset(range(1, n.n(j) + 1))
        prev = index_set_A(j, j, n)
        for m in range(j + 1, 9):
            cur = index_set_A(j, m, n)
            assert prev <= cur
            assert frozenset(range(1, n.n(j) + 1)) <= cur <= frozenset(range(1, n.n(m) + 1))
            prev = cur


@given(seeds, st.integers(0, 3))
@settings(max_examples=40)
def test_basic_claim_two_shift_inclusion(seed, k):
    """A_j^{m+1} of the k-shift is inside A_j^m of the (k+1)-shift."""
    n = seq(seed)
    nk = shift_seq(n, k) if k else n
    nk1 = shift_seq(n, k + 1)
    for m in range(1, 8):
        for j in range(1, m + 1):
            if max(j, m) > len(nk) or max(j, m - 1) > len(nk1):
                continue
            assert index_set_A(j, m + 1, nk) <= index_set_A(j, m, nk1)


@given(seeds, st.integers(0, 3))
@settings(max_examples=30)
def test_basic_claim_three_shift_equivalence(seed, k):
    """Checking the S-condition at shift k equals checking at shift 0 on the
    pre-shifted sequence: same verdict, same witnesses, same margins."""
    n = seq(seed)
    rng = random.Random(seed)
    K = random_interval_seq(rng, n.n(11) + 8)
    delta = DeltaSeq(tuple(F(1, 4) / 2**i for i in range(8)))
    lhs = check_S_k(K, n, delta, k, 8)
    rhs = check_S_k(K, shift_seq(n, k) if k else n, delta, 0, 8)
    assert lhs.ok == rhs.ok
    assert lhs.failures == rhs.failures
    assert lhs.margins == rhs.margins


@given(seeds)
@settings(max_examples=30)
def test_basic_claim_four_shift_monotone(seed):
    """S at shift k implies S at shift k+1.  Non-vacuous on the clustered
    corpus (all sets within half the last radius of each other)."""
    n = seq(seed)
    rng = random.Random(seed + 1)
    delta = DeltaSeq(tuple(F(1, 4) / 2**i for i in range(8)))
    spread = delta.d(8) / 2
    base = F(rng.randint(10, 50), 100)
    K = SeqOfSets(
        tuple(
            IntervalSet.from_pairs(
                [(base, base + F(rng.randint(0, int(spread * 400)), 400))]
            )
            for _ in range(n.n(11) + 8)
        )
    )
    verdicts = [check_S_k(K, n, delta, k, 8).ok for k in range(4)]
    assert verdicts[0]
    for a, b in zip(verdicts, verdicts[1:]):
        assert (not a) or b


@given(seeds, st.integers(0, 2))
@settings(max_examples=40)
def test_new_block_identity(seed, k):
    """The fresh indices added at depth m+1 are the same whether seen as a
    difference of consecutive A-sets of the k-shift or of the (k+1)-shift."""
    n = seq(seed)
    nk = shift_seq(n, k) if k else n
    nk1 = shift_seq(n, k + 1)
    for m in range(3, 8):
        for j in range(2, m):
            if max(j, m) > len(nk) or max(j, m - 1) > len(nk1):
                continue
            lhs = index_set_A(j, m, nk1) - index_set_A(j, m - 1, nk1)
            rhs = index_set_A(j, m + 1, nk) - index_set_A(j, m, nk)
            block = frozenset(range(nk1.n(m - 1) + 1, nk1.n(m - 1) + j))
            assert lhs == rhs == block


# -- delta sequences and set sequences --------------------------------------


def test_delta_seq_validation():
    DeltaSeq((F(1, 2), F(1, 4)))
    with pytest.raises(ValueError):
        DeltaSeq((F(1, 2), F(1, 2)))
    with pytest.raises(ValueError):
        DeltaSeq((F(1, 2), F(3, 4)))
    with pytest.raises(ValueError):
        DeltaSeq((F(3, 2),))


def test_delta_seq_geometric():
    d = DeltaSeq((F(1, 4), F(1, 8), F(1, 16)))
    assert d.prefix == (F(1, 4), F(1, 8), F(1, 16))
    assert d.d(2) == F(1, 8)
    with pytest.raises(ValueError):
        d.d(4)


def test_seq_of_sets():
    K = SeqOfSets((FULL, EMPTY, IntervalSet.from_pairs([(0, F(1, 2))])))
    assert K.K(1) == FULL
    assert K.union_over([2, 3]) == IntervalSet.from_pairs([(0, F(1, 2))])
    assert len(K) == 3
    with pytest.raises(ValueError):
        K.K(4)


# -- scale ladders ----------------------------------------------------------


LADDER_B = (5, 6, 7, 8, 9, 10, 11, 12)
# b_j as close to j+2 as the ladder allows, and non-integer
OTHER_B = tuple(j + 2 + F(1, 7) for j in range(1, 9))


def test_ladder_chains_validate():
    """Walking (m, k) in lexicographic order up to depth 8, the refined
    a-scales descend strictly from below j+1 toward a_j and the refined
    b-scales ascend strictly from above b_j-1 toward b_j, except at the
    welds (m, last) = (m+1, 1), where they are equal."""
    m_max = 8
    for lad in (ScaleLadder(LADDER_B), ScaleLadder(OTHER_B)):
        for j in range(1, len(LADDER_B) + 1):
            a_walk = [(k, lad.a_refined(j, m, k)) for m in range(j, m_max + 1) for k in (1, 2, 3, 4)]
            b_walk = [(k, lad.b_refined(j, m, k)) for m in range(j, m_max + 1) for k in (1, 2, 3)]
            for (k1, x), (k2, y) in zip(a_walk, a_walk[1:]):
                assert x == y if (k1, k2) == (4, 1) else x > y
            for (k1, x), (k2, y) in zip(b_walk, b_walk[1:]):
                assert x == y if (k1, k2) == (3, 1) else x < y
            assert lad.a(j) < a_walk[-1][1] and a_walk[0][1] < j + 1 < b_walk[0][1]
            assert lad.b(j) - 1 < b_walk[0][1] and b_walk[-1][1] < lad.b(j)
            assert lad.b(j) - 1 > j + 1


def test_ladder_validation_errors():
    with pytest.raises(ValueError):
        ScaleLadder((3,))  # b_1 must exceed 3
    with pytest.raises(ValueError):
        ScaleLadder((5, 5))


def test_ladder_base_scales():
    lad = ScaleLadder(LADDER_B)
    assert lad.a(3) == 3
    assert lad.b(2) == 6
    with pytest.raises(ValueError):
        lad.b(9)


@pytest.mark.parametrize("lad", [ScaleLadder(LADDER_B), ScaleLadder(OTHER_B)])
def test_ladder_welds_exact(lad):
    for j in range(1, 5):
        for m in range(j, 6):
            assert lad.a_refined(j, m, 4) == lad.a_refined(j, m + 1, 1)
            assert lad.b_refined(j, m, 3) == lad.b_refined(j, m + 1, 1)


def test_ladder_refined_ordering():
    lad = ScaleLadder(LADDER_B)
    for j in (1, 2, 3):
        assert lad.a(j) < lad.a_refined(j, j + 2, 4) < lad.a_refined(j, j, 1) < lad.a(j) + 1
        assert lad.b(j) - 1 < lad.b_refined(j, j, 1) < lad.b_refined(j, j + 2, 3) < lad.b(j)
        assert lad.a_refined(j, j, 1) < j + 1 < lad.b_refined(j, j, 1)


def test_ladder_refined_rejects_bad_indices():
    lad = ScaleLadder(LADDER_B)
    with pytest.raises(ValueError):
        lad.a_refined(2, 1, 1)
    with pytest.raises(ValueError):
        lad.a_refined(1, 1, 5)
    with pytest.raises(ValueError):
        lad.b_refined(1, 1, 4)


# -- covering conditions ----------------------------------------------------


def random_interval_seq(rng: random.Random, length: int) -> SeqOfSets:
    out = []
    for _ in range(length):
        lo = F(rng.randint(0, 90), 100)
        hi = lo + F(rng.randint(1, 10), 100)
        out.append(IntervalSet.from_pairs([(lo, min(hi, F(1)))]))
    return SeqOfSets(tuple(out))


def test_check_s_reports_witnesses():
    n = IndexSeq((1, 2, 4, 7))
    delta = DeltaSeq(tuple(F(1, 100) / 2**i for i in range(4)))
    far = [IntervalSet.from_pairs([(0, F(1, 100))])] * 4
    # index 5 enters A_2^4 - A_2^3 = {n_3+1} and sits far from the early sets
    far += [IntervalSet.from_pairs([(F(9, 10), 1)])] * 4
    res = check_S_k(SeqOfSets(tuple(far)), n, delta, 0, 4)
    assert not res.ok
    assert ("s", 2, 4) in res.failures
    assert res.margins[("s", 2, 4)] <= 0


def test_check_s_rejects_bad_args():
    n = IndexSeq((1, 2, 4))
    delta = DeltaSeq(tuple(F(1, 4) / 2**i for i in range(3)))
    K = SeqOfSets((FULL,) * 6)
    with pytest.raises(ValueError):
        check_S_k(K, n, delta, -1, 3)
    with pytest.raises(ValueError):
        check_S_k(K, n, delta, 0, 0)


def zigzag_scenario():
    """K_n = exact exception set at scale matching the base ladder wherever
    the index is some n_j, the coarsest set elsewhere: makes the lower family
    exact at distance zero, and scale monotonicity does the rest."""
    zz = zigzag()
    n = IndexSeq((2, 4, 7, 11, 16))
    lad = ScaleLadder((4, 5, 6))
    target = {n.n(j): j for j in (1, 2, 3)}
    sets = []
    for idx in range(1, n.n(4) + 1):
        j = target.get(idx, 1)
        sets.append(n_set_exact(zz, int(lad.a(j)), "full"))
    K = SeqOfSets(tuple(sets))
    delta = DeltaSeq(tuple(F(1, 4) / 2**i for i in range(5)))
    return K, zz, n, delta, lad


def test_check_y_holds_on_exact_construction():
    K, zz, n, delta, lad = zigzag_scenario()
    res0 = check_Y_k(K, Enclosures(zz, 1e-4), n, delta, lad, 0, 3)
    assert res0.ok, (res0.failures, res0.undecided)
    res1 = check_Y_k(K, Enclosures(zz, 1e-4), n, delta, lad, 1, 3)
    assert res1.ok, (res1.failures, res1.undecided)


def test_check_y_detects_a_broken_set():
    K, zz, n, delta, lad = zigzag_scenario()
    sets = list(K.prefix)
    for idx in range(n.n(1)):  # every candidate for j=1 is now useless
        sets[idx] = IntervalSet.points([F(99, 100)])
    res = check_Y_k(SeqOfSets(tuple(sets)), Enclosures(zz, 1e-4), n, delta, lad, 0, 3)
    assert not res.ok
    assert any(fam == "lower" for fam, _, _ in res.failures)


def test_check_y_is_not_ok_while_a_claim_is_undecided(monkeypatch):
    """An enclosure whose outer set exceeds its inner set by more than delta
    leaves every lower-family claim undecided (only the inner side passes),
    and a check with an undecided claim is not ok."""
    half = IntervalSet.points([F(1, 2)])
    monkeypatch.setattr(
        indexcomb, "n_set_enclosure", lambda f, a, variant, tol: NSetEnclosure(half, FULL, F(1))
    )
    K = SeqOfSets((half,) * 11)
    delta = DeltaSeq(tuple(F(1, 4) / 2**i for i in range(4)))
    res = check_Y_k(K, Enclosures(None, 1e-4), IndexSeq((2, 4, 7, 11)), delta, ScaleLadder((4, 5, 6)), 0, 3)
    assert not res.ok and not res.failures
    assert res.undecided == tuple(("lower", j, m) for j in (1, 2, 3) for m in range(j, 4))


def test_check_y_fetches_every_c1_enclosure_through_the_cache(monkeypatch):
    """check_Y_k computes every enclosure through the store it is given,
    each once, the range fallback included (b_3 = 40 is past the engine's
    range for a slope near 50, so its inner bound comes from the capped
    scale 17).  A second check on the same store computes none again, the
    out-of-range scale included, and gives the same verdict."""
    K, _, n, delta, _ = zigzag_scenario()
    f = random_c1_function(3, cells=6, amplitude=0.5, slope_scale=2.0)
    f = f.add(C1Function([0.0, 1.0], [0.0, 50.0], [50.0, 50.0]))
    lad = ScaleLadder((4, 5, 40))
    fetches = []

    def counted(g, a, variant, tol):
        fetches.append((a, variant))
        return n_set_enclosure(g, a, variant, tol)

    monkeypatch.setattr(indexcomb, "n_set_enclosure", counted)
    store = Enclosures(f, 1e-4)
    first = check_Y_k(K, store, n, delta, lad, 0, 3)
    assert fetches == [
        (F(1), "full"), (F(4), "full"),
        (F(2), "full"), (F(5), "full"),
        (F(3), "full"), (F(40), "full"), (F(17), "full"),
    ]
    again = check_Y_k(K, store, n, delta, lad, 0, 3)
    assert fetches[7:] == []
    assert (again.ok, again.failures, again.undecided) == (
        first.ok, first.failures, first.undecided
    )
    assert again.margins == first.margins


# -- finite permutations ----------------------------------------------------


@given(seeds, st.integers(1, 3))
@settings(max_examples=50)
def test_perm_claims_hold_for_admissible_sigma(seed, k):
    n = seq(seed)
    sigma = random_finite_permutation(seed + 1, n.n(k))
    res = check_perm_A(n, sigma, k, 8)
    assert res.ok, res.failures


def test_perm_rejects_sigma_moving_high_indices():
    n = IndexSeq((2, 3, 5))
    # swaps 4 and 5, both above n_1 = 2
    with pytest.raises(ValueError):
        check_perm_A(n, (1, 2, 3, 5, 4), 1)
    with pytest.raises(ValueError):
        check_perm_A(n, (2, 1), 0)
    # a table that is not a permutation of 1..p
    with pytest.raises(ValueError, match="as a permutation"):
        check_perm_A(n, (2, 2), 1)
