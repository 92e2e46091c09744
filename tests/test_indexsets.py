import hashlib
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


def test_transport_index_two_face():
    z = ix.IndexSet.zero(N)
    assert bounds(ix.transport_index_two_face(z, z)) == (1, 1, 1, 1)


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
    # without the log ladder only the j-fold sums grow the seed (1, 1): the j-fold sum
    # of the set shifted up one, shifted back down, starts at (2j - 1, j)
    r = ix.solve_index_recursion(ix.IndexSet.single(1, 1, 6), 6, include_elog_prime=False)
    assert r.e0.generators == ((1, 1), (3, 2), (5, 3))


def _reapply(r, trunc):
    """One application of each defining map to a claimed fixed point."""
    z = ix.IndexSet.zero(trunc)
    two_down = ix.shift(ix.sum_sets(r.ei, r.ei), 1).restrict(trunc)
    new_prime = ix.extended_union(r.e0, two_down).restrict(trunc)
    inner = ix.union(ix.sum_sets(r.ei_bar, r.ei_prime).restrict(trunc), two_down)
    new_bar = ix.union(z, ix.extended_union(r.e0, inner)).restrict(trunc)
    inner2 = ix.union(
        ix.sum_sets(r.ei, r.ei_prime).restrict(trunc),
        ix.sum_sets(r.ei_bar, r.ei_bar).restrict(trunc),
    )
    new_ei = ix.extended_union(z, r.e0, inner2).restrict(trunc)
    for t in ix._nonlinear_closure_terms(r.ei, trunc):
        new_ei = ix.union(new_ei, t.restrict(trunc))
    mi = ix.IndexSet.single(1, 0, trunc)
    new_plus = ix.union(
        ix.extended_union(mi, z),
        ix.extended_union(ix.shift(r.eplus, 1).restrict(trunc), mi, ix.drop_zero_log(r.ei)),
    ).restrict(trunc)
    return new_prime, new_bar, new_ei, new_plus


@pytest.mark.parametrize("seed_pairs,flag", [([], True), ([(1, 0)], True), ([(1, 0)], False), ([(F(3, 2), 1)], True)])
def test_recursion_results_are_fixed_points(seed_pairs, flag):
    seed = ix.IndexSet.make(seed_pairs, N)
    r = ix.solve_index_recursion(seed, N, include_elog_prime=flag)
    new_prime, new_bar, new_ei, new_plus = _reapply(r, N)
    assert new_prime == r.ei_prime
    assert new_bar == r.ei_bar
    assert new_ei == r.ei
    assert new_plus == r.eplus
    # nesting of the radiation-face sets
    assert r.ei_bar.contains(r.ei_prime)
    assert r.ei.contains(r.ei_bar)


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


#: seeds and truncations of the pinned grid; a seed power between 0 and 1 below
#: the truncation makes drop_zero_log raise, and that error is pinned with the rest
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
