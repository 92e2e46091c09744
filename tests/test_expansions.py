import hashlib
import random
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


def test_transport_set_holds_the_solution():
    f = ex.PolyhomExpansion.make([(1, 0, F(3))], N)
    u, predicted = ex.transport_rho(f)
    assert predicted == ix.IndexSet.make([(0, 0)], N)
    assert predicted.contains(u.index_hull())


def test_transport_of_empty_hulls():
    # an empty input hull predicts the constant slot; an empty first face leaves the second face's hull
    _, predicted = ex.transport_rho(ex.PolyhomExpansion.make([], N))
    assert str(predicted) == "IndexSet[(0,0); p<4]"
    _, predicted = ex.transport_two_face(ex.ProductExpansion.make([(5, 0, 1, 1, 1)]), N)
    assert str(predicted) == "IndexSet[(1,1); p<4]"
    _, predicted = ex.transport_two_face(ex.ProductExpansion.make([(5, 0, 6, 1, 1)]), N)
    assert str(predicted) == "IndexSet[; p<4]"


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
    assert predicted.contains(u.index_hull())


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
    assert predicted.contains(u.face_hull(1, N))


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


def _transport_grid():
    """Seeded exact inputs: p = 0 terms, coincident and distinct corner powers, logs 0 to 3, negative coefficients."""
    rng = random.Random(19)
    powers = [F(n, d) for d in (1, 2, 3, 4) for n in range(3 * d + 1)]

    def coeff():
        return F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))

    radial = [ex.PolyhomExpansion.make([(rng.choice(powers), rng.randint(0, 3), coeff())
                                        for _ in range(rng.randint(1, 5))], N) for _ in range(300)]
    corner = []
    for _ in range(300):
        terms = []
        for _ in range(rng.randint(1, 4)):
            p1 = rng.choice(powers)
            p2 = p1 if rng.random() < 0.4 else rng.choice(powers)
            terms.append((p1, rng.randint(0, 3), p2, rng.randint(0, 3), coeff()))
        corner.append(ex.ProductExpansion.make(terms))
    return radial, corner


#: SHA-256 of the repr of (u.terms, u.remainder_order, predicted) of transport_rho and of
#: (u.terms, predicted) of transport_two_face on the grid above
TRANSPORT_SHA256 = "ec6fd700b3b7f91c764e629a091809deb1dfceef63a651ade31994f271921edb"


def test_transport_grid_is_pinned():
    radial, corner = _transport_grid()
    assert any(p == 0 for f in radial for p, _, _ in f.terms)
    assert {p1 == p2 for f in corner for p1, _, p2, _, _ in f.terms} == {True, False}
    assert {k for f in radial for _, k, _ in f.terms} == {0, 1, 2, 3}
    assert any(c < 0 for f in corner for *_, c in f.terms)
    seen = []
    for f in radial:
        u, predicted = ex.transport_rho(f)
        seen.append(repr((u.terms, u.remainder_order, predicted)))
        assert all(isinstance(c, F) for *_, c in u.terms) and predicted.contains(u.index_hull())
    for f in corner:
        u, predicted = ex.transport_two_face(f, N)
        seen.append(repr((u.terms, predicted)))
        assert all(isinstance(c, F) for *_, c in u.terms) and predicted.contains(u.face_hull(1, N))
    assert hashlib.sha256("\n".join(seen).encode()).hexdigest() == TRANSPORT_SHA256
