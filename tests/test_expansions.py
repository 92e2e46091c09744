from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullinf import expansions as ex
from nullinf import indexsets as ix

N = F(4)


def test_transport_sqrt_power():
    f = ex.PolyhomExpansion.make([(F(1, 2), 0, F(1))], N)
    u, _ = ex.transport_rho(f)
    assert u.terms == ((F(1, 2), 0, F(2)),)
    assert ex.differentiate_rho(u) == f


def test_transport_constant_gives_log():
    f = ex.PolyhomExpansion.make([(0, 0, F(1))], N)
    u, predicted = ex.transport_rho(f)
    assert u.terms == ((F(0), 1, F(1)),)
    assert predicted == ix.IndexSet.make([(0, 1)], N)


def test_transport_set_matches_cross_module_rule():
    f = ex.PolyhomExpansion.make([(1, 0, F(3))], N)
    _, predicted = ex.transport_rho(f)
    assert predicted == ix.transport_index_rho(f.index_hull())


term_st = st.tuples(
    st.fractions(min_value=0, max_value=3, max_denominator=8),
    st.integers(min_value=0, max_value=4),
    st.one_of(st.fractions(min_value=-5, max_value=5), st.integers(min_value=-5, max_value=5)).filter(lambda c: c != 0),
)


@given(st.lists(term_st, min_size=1, max_size=6))
@settings(max_examples=200)
def test_transport_differentiates_back_exactly(terms):
    f = ex.PolyhomExpansion.make([(p, k, c) for p, k, c in terms], N)
    if not f.terms:
        return
    u, predicted = ex.transport_rho(f)
    assert all(isinstance(c, F) for _, _, c in u.terms)
    assert ex.differentiate_rho(u) == f
    assert predicted == ix.transport_index_rho(f.index_hull())


def test_two_face_constant():
    f = ex.ProductExpansion.make([(0, 0, 0, 0, F(1))])
    u, predicted = ex.transport_two_face(f, N)
    assert ex.differentiate_two_face(u) == f
    # u = (log rho1 - log rho2) / 2
    assert set(u.terms) == {(F(0), 1, F(0), 0, F(1, 2)), (F(0), 0, F(0), 1, F(-1, 2))}
    assert predicted == ix.IndexSet.make([(0, 1)], N)


prod_term_st = st.tuples(
    st.fractions(min_value=0, max_value=3, max_denominator=4),
    st.integers(min_value=0, max_value=3),
    st.fractions(min_value=0, max_value=3, max_denominator=4),
    st.integers(min_value=0, max_value=3),
    st.fractions(min_value=-5, max_value=5).filter(lambda c: c != 0),
)


@given(st.lists(prod_term_st, min_size=1, max_size=4))
@settings(max_examples=200)
def test_two_face_differentiates_back_exactly(terms):
    f = ex.ProductExpansion.make(terms)
    if not f.terms:
        return
    u, predicted = ex.transport_two_face(f, N)
    assert ex.differentiate_two_face(u) == f
    assert predicted == ix.transport_index_two_face(f.face_hull(1, N), f.face_hull(2, N))


def test_two_face_numeric_sanity():
    # one coincident-power term with logs, checked against finite differences
    f = ex.ProductExpansion.make([(1, 1, 1, 0, F(2))])
    u, _ = ex.transport_two_face(f, N)
    r1, r2 = 0.37, 0.11
    h = 1e-6
    du = (
        u.evaluate(r1 * np.exp(h), r2 * np.exp(-h))
        - u.evaluate(r1 * np.exp(-h), r2 * np.exp(h))
    ) / (2.0 * h)
    assert du == pytest.approx(float(f.evaluate(r1, r2)), rel=1e-8)


def test_transport_rejects_float_powers():
    with pytest.raises(ValueError):
        ex.PolyhomExpansion.make([(0.5, 0, 1.0)], N)
