import hashlib
import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullinf import indexsets as ix

N = F(4)


def bounds(e, powers=(0, 1, 2, 3)):
    return tuple(e.log_bound(p) if F(p) < e.truncation else None for p in powers)


# -- strategies ----------------------------------------------------------

powers_st = st.fractions(min_value=0, max_value=3, max_denominator=8)
pair_st = st.tuples(powers_st, st.integers(min_value=0, max_value=5))


@st.composite
def index_sets(draw, allow_empty=True):
    n = draw(st.integers(min_value=0 if allow_empty else 1, max_value=5))
    pairs = [draw(pair_st) for _ in range(n)]
    return ix.IndexSet.make(pairs, N)


# -- representation ------------------------------------------------------


def test_normalizer_idempotent():
    e = ix.IndexSet.make([(F(1, 2), 3), (1, 1), (1, 2), (0, 0), (F(1, 2), 1)], N)
    again = ix.IndexSet.make(e.generators, e.truncation)
    assert again == e
    # strictly increasing powers and log orders
    ps = [p for p, _ in e.generators]
    ks = [k for _, k in e.generators]
    assert ps == sorted(ps) and len(set(ps)) == len(ps)
    assert ks == sorted(ks) and len(set(ks)) == len(ks)


@given(index_sets())
@settings(max_examples=200)
def test_normalizer_idempotent_random(e):
    assert ix.IndexSet.make(e.generators, e.truncation) == e


def test_log_bound_step_function():
    e = ix.IndexSet.make([(0, 0), (2, 3)], N)
    assert e.log_bound(0) == 0
    assert e.log_bound(F(3, 2)) == 0
    assert e.log_bound(2) == 3
    assert e.log_bound(F(7, 2)) == 3
    with pytest.raises(ValueError):
        e.log_bound(4)


def test_denominator_limit():
    with pytest.raises(ValueError):
        ix.IndexSet.make([(F(1, 128), 0)], N)


def test_integral_float_and_text_powers_are_exact():
    assert ix.IndexSet.make([(1.0, 0), ("3/2", 1)], N) == ix.IndexSet.make([(1, 0), (F(3, 2), 1)], N)


def test_contains_fails_where_a_log_bound_is_missing_or_lower():
    e = ix.IndexSet.make([(1, 0)], N)
    assert ix.elog(N).contains(e)
    assert not e.contains(ix.elog(N))  # no bound at power 0
    assert not ix.elog(N).contains(ix.IndexSet.make([(0, 1)], N))


def test_drop_zero_log_leaves_a_set_without_the_constant_slot():
    for e in (ix.IndexSet.make([(1, 2)], N), ix.IndexSet.empty(N)):
        assert ix.drop_zero_log(e) is e


# -- union / extended union ----------------------------------------------


def test_extended_union_zero_zero():
    z = ix.IndexSet.zero(N)
    assert bounds(ix.extended_union(z, z)) == (1, 1, 1, 1)


def test_extended_union_with_empty_is_identity():
    b = ix.IndexSet.make([(1, 2)], N)
    assert ix.extended_union(ix.IndexSet.empty(N), b) == b


def test_extended_union_zero_minus_i():
    z = ix.IndexSet.zero(N)
    mi = ix.IndexSet.single(1, 0, N)
    e = ix.extended_union(z, mi)
    assert e.log_bound(0) == 0
    assert e.log_bound(1) == 1


@given(index_sets(), index_sets())
@settings(max_examples=200)
def test_extended_union_commutative(a, b):
    assert ix.extended_union(a, b) == ix.extended_union(b, a)


@given(index_sets(), index_sets(), index_sets())
@settings(max_examples=100)
def test_union_associative_commutative_idempotent(a, b, c):
    assert ix.union(ix.union(a, b), c) == ix.union(a, ix.union(b, c))
    assert ix.union(a, b) == ix.union(b, a)
    assert ix.union(a, a) == a


@given(index_sets(), index_sets(), index_sets())
@settings(max_examples=100)
def test_extended_union_monotone(a, b, c):
    big = ix.union(a, c)
    assert ix.extended_union(big, b).contains(ix.extended_union(a, b))


# -- sums ----------------------------------------------------------------


def test_sum_elog_elog():
    e = ix.elog(N)
    assert ix.sum_sets(e, e) == e


def test_sum_minus_i_twice():
    mi = ix.IndexSet.single(1, 0, N)
    s = ix.sum_sets(mi, mi)
    assert s.min_power == 2 and s.log_bound(2) == 0


def test_shift_of_extended_zero():
    z = ix.IndexSet.zero(N)
    e = ix.shift(ix.extended_union(z, z), 1)
    assert e.min_power == 1 and e.log_bound(1) == 1


def test_sum_minus_i_elog_prime():
    mi = ix.IndexSet.single(1, 0, N)
    s = ix.sum_sets(mi, ix.elog_prime(N))
    # enumerate pairs by hand for p <= 4: (1,0)+(j,j) -> (1+j, j)
    assert s.min_power == 2
    assert s.log_bound(2) == 1
    assert s.log_bound(3) == 2


@given(index_sets(allow_empty=False), index_sets(allow_empty=False), index_sets(allow_empty=False))
@settings(max_examples=100)
def test_sum_commutative_associative(a, b, c):
    assert ix.sum_sets(a, b) == ix.sum_sets(b, a)
    assert ix.sum_sets(ix.sum_sets(a, b), c) == ix.sum_sets(a, ix.sum_sets(b, c))


# -- elog ----------------------------------------------------------------


def test_elog_generators():
    e = ix.elog(N)
    assert e.generators == ((F(0), 0), (F(1), 1), (F(2), 2), (F(3), 3))
    ep = ix.elog_prime(N)
    assert ep.min_power == 1
    assert ep.generators == ((F(1), 1), (F(2), 2), (F(3), 3))


# -- transport bookkeeping ------------------------------------------------


def test_transport_index_rho():
    mi = ix.IndexSet.single(1, 0, N)
    e = ix.transport_index_rho(mi)
    assert bounds(e) == (0, 0, 0, 0)
    z = ix.IndexSet.zero(N)
    assert bounds(ix.transport_index_rho(z)) == (1, 1, 1, 1)
    assert ix.transport_index_rho(ix.IndexSet.empty(N)) == z


def test_transport_index_two_face():
    z = ix.IndexSet.zero(N)
    assert bounds(ix.transport_index_two_face(z, z)) == (1, 1, 1, 1)
    e2 = ix.IndexSet.make([(F(1, 2), 0), (2, 3)], N)
    assert ix.transport_index_two_face(ix.IndexSet.empty(N), e2) == e2


# -- the recursion --------------------------------------------------------


def test_recursion_schwartz_seed():
    r = ix.solve_index_recursion(ix.IndexSet.empty(N), N, include_elog_prime=True)
    assert r.e0.is_empty
    assert bounds(r.ei) == (1, 4, 7, 10)
    assert bounds(r.ei_prime) == (None, 2, 5, 8)
    assert r.ei_bar == ix.union(ix.IndexSet.zero(N), r.ei_prime)
    assert bounds(r.eplus) == (0, 6, 15, 27)


def test_recursion_taylor_seed_with_log_ladder():
    seed = ix.IndexSet.single(1, 0, N)
    r = ix.solve_index_recursion(seed, N, include_elog_prime=True)
    assert bounds(r.e0) == (None, 0, 1, 2)
    assert bounds(r.ei) == (1, 6, 14, 25)
    assert bounds(r.ei_prime) == (None, 3, 9, 18)
    assert bounds(r.ei_bar) == (0, 4, 11, 21)
    assert bounds(r.eplus) == (0, 8, 24, 51)


def test_recursion_taylor_seed_without_log_ladder():
    seed = ix.IndexSet.single(1, 0, N)
    r = ix.solve_index_recursion(seed, N, include_elog_prime=False)
    assert bounds(r.e0) == (None, 0, 0, 0)
    assert bounds(r.ei) == (1, 6, 11, 16)       # 5j + 1
    assert bounds(r.ei_prime) == (None, 3, 8, 13)  # 5j - 2
    assert bounds(r.ei_bar) == (0, 4, 9, 14)    # 5j - 1 with constant slot
    assert bounds(r.eplus) == (0, 8, 21, 39)


def test_spatial_closure_grows_by_the_nonlinear_sums():
    # without the log ladder only the nonlinear sums grow the seed (1, 1): the two-fold
    # sum of the set shifted up one, shifted back down, adds (3, 2), and that plus the
    # seed adds (5, 3), the three-fold sum of the seed
    r = ix.solve_index_recursion(ix.IndexSet.single(1, 1, 6), 6, include_elog_prime=False)
    assert r.e0.generators == ((1, 1), (3, 2), (5, 3))


def _nonlinear_terms(e, trunc):
    """Union of the j-fold sums of E = e shifted up one, shifted back down, j >= 1.

    Built from generator j-tuples, not from the recursion's two-fold sum.  Every
    power of E is at least 1, so a j-fold sum shifted down starts at j - 1 or above
    and j <= floor(trunc) + 1 reaches every power below the truncation.
    """
    up = [(p + 1, k) for p, k in e.generators]
    pairs = [(sum(p for p, _ in terms) - 1, sum(k for _, k in terms))
             for j in range(1, math.floor(trunc) + 2)
             for terms in itertools.combinations_with_replacement(up, j)]
    return ix.IndexSet.make(pairs, trunc)


def _reapply(r, trunc):
    """One application of each defining map, with every j-fold sum, to a claimed fixed point."""
    z = ix.IndexSet.zero(trunc)
    two_down = ix.shift(ix.sum_sets(r.ei, r.ei), 1).restrict(trunc)
    new_prime = ix.extended_union(r.e0, two_down).restrict(trunc)
    inner = ix.union(ix.sum_sets(r.ei_bar, r.ei_prime).restrict(trunc), two_down)
    new_bar = ix.union(z, ix.extended_union(r.e0, inner)).restrict(trunc)
    inner2 = ix.union(
        ix.sum_sets(r.ei, r.ei_prime).restrict(trunc),
        ix.sum_sets(r.ei_bar, r.ei_bar).restrict(trunc),
    )
    new_ei = ix.union(ix.extended_union(z, r.e0, inner2).restrict(trunc),
                      _nonlinear_terms(r.ei, trunc))
    mi = ix.IndexSet.single(1, 0, trunc)
    new_plus = ix.union(
        ix.extended_union(mi, z),
        ix.extended_union(ix.shift(r.eplus, 1).restrict(trunc), mi, ix.drop_zero_log(r.ei)),
    ).restrict(trunc)
    return new_prime, new_bar, new_ei, new_plus


@pytest.mark.parametrize("seed_pairs,flag", [([], True), ([(1, 0)], True), ([(1, 0)], False), ([(F(3, 2), 1)], True),
                                            ([(1, 2)], True), ([(1, 1)], False)])
def test_recursion_results_are_fixed_points(seed_pairs, flag):
    seed = ix.IndexSet.make(seed_pairs, N)
    r = ix.solve_index_recursion(seed, N, include_elog_prime=flag)
    assert ix.union(r.e0, ix.sum_sets(r.e0, ix.elog_prime(N) if flag else ix.IndexSet.empty(N)),
                    _nonlinear_terms(r.e0, N)) == r.e0
    new_prime, new_bar, new_ei, new_plus = _reapply(r, N)
    assert new_prime == r.ei_prime
    assert new_bar == r.ei_bar
    assert new_ei == r.ei
    assert new_plus == r.eplus
    # nesting of the radiation-face sets
    assert r.ei_bar.contains(r.ei_prime)
    assert r.ei.contains(r.ei_bar)


@pytest.mark.parametrize("seed_pairs,trunc,steps", [([(1, 2)], F(5, 4), 6), ([(1, 1), (2, 3)], F(9, 4), 9)])
def test_recursion_takes_three_steps_per_power_level(seed_pairs, trunc, steps):
    # c = 1: these take 3 (floor(trunc) + 1) steps, one below the cap
    for flag in (True, False):
        r = ix.solve_index_recursion(ix.IndexSet.make(seed_pairs, trunc), trunc, include_elog_prime=flag)
        assert r.iterations_used == steps


@given(
    st.lists(st.tuples(st.fractions(min_value=F(1, 8), max_value=4, max_denominator=8),
                       st.integers(min_value=0, max_value=4)), max_size=2),
    st.fractions(min_value=F(1, 8), max_value=4, max_denominator=8),
    st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_recursion_stabilizes_within_its_step_cap(seed_pairs, trunc, flag):
    try:
        ix.solve_index_recursion(ix.IndexSet.make(seed_pairs, trunc), trunc, include_elog_prime=flag)
    except ValueError:
        pass  # a seed power between 0 and 1 is rejected; only RuntimeError fails here


def test_recursion_monotone_in_seed():
    small = ix.IndexSet.single(1, 0, N)
    large = ix.IndexSet.make([(1, 1), (2, 3)], N)
    r1 = ix.solve_index_recursion(small, N, include_elog_prime=True)
    r2 = ix.solve_index_recursion(large, N, include_elog_prime=True)
    for a, b in [(r1.e0, r2.e0), (r1.ei, r2.ei), (r1.ei_prime, r2.ei_prime),
                 (r1.ei_bar, r2.ei_bar), (r1.eplus, r2.eplus)]:
        assert b.contains(a)


def test_recursion_rejects_nonpositive_seed():
    with pytest.raises(ValueError):
        ix.solve_index_recursion(ix.IndexSet.zero(N), N, include_elog_prime=True)


@pytest.mark.parametrize("flag", [True, False])
def test_seed_power_between_0_and_1_is_rejected_before_any_closure(monkeypatch, flag):
    monkeypatch.setattr(ix, "sum_sets", None)
    with pytest.raises(ValueError, match="drop_zero_log expects no generators strictly between 0 and 1"):
        ix.solve_index_recursion(ix.IndexSet.single(F(1, 8), 4, N), N, include_elog_prime=flag)


#: seeds and truncations of the pinned grid; a seed power between 0 and 1 below
#: the truncation is rejected with drop_zero_log's error, pinned with the rest
GRID_SEEDS = ([], [(1, 0)], [(F(3, 2), 1)], [(F(1, 2), 0)], [(1, 1), (2, 3)], [(F(1, 3), 0)],
              [(F(1, 2), 0), (1, 2)], [(2, 0)])
GRID_TRUNCATIONS = (F(1, 2), 1, F(3, 2), 2, F(5, 2), 3, F(7, 2), 4)
GRID_SHA256 = "a8483800dcc8c0bf1f1614cc256958e14946aa3cf4d79c21317d06951f090276"


def test_recursion_grid_is_pinned():
    # repr of every result (its five sets and iterations_used) or of the error it raised
    seen = []
    for pairs in GRID_SEEDS:
        for trunc in GRID_TRUNCATIONS:
            for flag in (True, False):
                try:
                    seen.append(repr(ix.solve_index_recursion(ix.IndexSet.make(pairs, trunc), trunc, flag)))
                except Exception as exc:
                    seen.append(repr(exc))
    assert len(seen) == 128 and sum(s.startswith("ValueError(") for s in seen) == 44
    assert hashlib.sha256("\n".join(seen).encode()).hexdigest() == GRID_SHA256


#: repr digest of the three cases `nullinf index-sets` runs, at truncations 6 to 12
CLI_CASES_SHA256 = "87cac0641d0887271c63e51ac645ac84bddbf821c978127d2e279fd23013bd22"


def test_cli_cases_at_large_truncations_are_pinned():
    seen = [
        repr(ix.solve_index_recursion(ix.IndexSet.make(pairs, trunc), trunc, flag))
        for trunc in (6, 8, 10, 12)
        for pairs, flag in (([], True), ([(1, 0)], True), ([(1, 0)], False))
    ]
    assert hashlib.sha256("\n".join(seen).encode()).hexdigest() == CLI_CASES_SHA256


# -- serialization ---------------------------------------------------------


def test_serialize_round_trip():
    e = ix.IndexSet.make([(F(1, 2), 0), (2, 3)], N)
    text = ix.serialize(e)
    assert text == "1/2 0\n2 3\n"
    assert ix.parse(text, N) == e
    assert ix.parse("# generators\n\n1/2 0  # the first\n2 3\n", N) == e
