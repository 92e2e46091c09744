import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nullinf import compactify as cp


def test_tortoise_direct_values():
    assert cp.tortoise(4.0, 1.0) == pytest.approx(4.0 + 2.0 * math.log(2.0), abs=1e-14)
    assert cp.tortoise(10.0, 0.0) == pytest.approx(10.0, abs=0.0)
    assert cp.tortoise(100.0, 0.25) == pytest.approx(100.0 + 0.5 * math.log(99.5), abs=1e-12)


def test_tortoise_domain_error():
    with pytest.raises(ValueError):
        cp.tortoise(1.9, 1.0)
    with pytest.raises(ValueError):
        cp.tortoise(-1.0, -2.0)
    for m in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            cp.tortoise(10.0, m)
    with pytest.raises(ValueError, match="out of range"):
        cp.inverse_tortoise(0.0, 0.0)


def _bisect_tortoise(rstar, m, lo, hi, tol=1e-12):
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cp.tortoise(mid, m) < rstar:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def test_inverse_tortoise_values():
    rstar = cp.tortoise(4.0, 1.0)
    assert cp.inverse_tortoise(rstar, 1.0) == pytest.approx(4.0, abs=1e-10)
    assert cp.inverse_tortoise(50.0, 0.0) == pytest.approx(50.0, abs=1e-10)
    # independent bisection oracle for r + 2 ln(r - 2) = 1000
    oracle = _bisect_tortoise(1000.0, 1.0, 2.0 + 1e-9, 1001.0)
    assert cp.inverse_tortoise(1000.0, 1.0) == pytest.approx(oracle, abs=1e-9)


def test_inverse_tortoise_matches_asymptotic_form():
    m = 0.3
    for rstar in (1e3, 1e5):
        r = cp.inverse_tortoise(rstar, m)
        asym = rstar - 2.0 * m * math.log(rstar)
        assert abs(r - asym) < 10.0 * math.log(rstar) / rstar


@given(
    st.floats(min_value=10.0, max_value=1e6),
    st.floats(min_value=0.0, max_value=0.4),
)
@settings(max_examples=200, deadline=None)
def test_tortoise_round_trip(rstar, m):
    r = cp.inverse_tortoise(rstar, m)
    assert abs(cp.tortoise(r, m) - rstar) <= 1e-10 * (1.0 + abs(rstar))


@st.composite
def _mass_and_radius(draw):
    m = draw(st.floats(min_value=0.0, max_value=1.0))
    r = draw(st.floats(min_value=2.0 * m * (1.0 + 1e-9), max_value=1e8, exclude_min=True))
    return m, r


@given(_mass_and_radius())
@example((0.0, 5e-324))
@example((1.0, 2.0 * (1.0 + 1e-9)))
@settings(max_examples=300, deadline=None)
def test_inverse_tortoise_round_trip_from_horizon_to_far_field(mr):
    m, r = mr
    rstar = cp.tortoise(r, m)
    back = cp.tortoise(cp.inverse_tortoise(rstar, m), m)
    assert abs(back - rstar) < 1e-13 * (1.0 + abs(rstar))


def test_inverse_tortoise_near_horizon_lands_within_one_ulp():
    # r_* = -30 puts r within 2e-10 of 2m, where one ulp of r moves r_* by 2e-6;
    # from -48.09 down to the floor -49.06 the root lies within one ulp of 2m
    m = 0.7
    floor = cp.tortoise(np.nextafter(2.0 * m, np.inf), m)
    near = [-15.0, -20.0, -30.0, -48.9, -49.0, -49.05, -49.061]
    rstar = np.concatenate([near, [floor], np.linspace(-30.0, 1e6, 1001)])
    r = cp.inverse_tortoise(rstar, m)
    assert np.all(r > 2.0 * m)
    assert r[len(near)] == np.nextafter(2.0 * m, np.inf)
    met = np.abs(cp.tortoise(r, m) - rstar) < 1e-13 * (1.0 + np.abs(rstar))
    assert not np.any(met[: len(near)])
    # where no r meets the tolerance, the root lies within one ulp of r
    left = np.maximum(np.nextafter(r[~met], -np.inf), np.nextafter(2.0 * m, np.inf))
    below = cp.tortoise(left, m) - rstar[~met]
    above = cp.tortoise(np.nextafter(r[~met], np.inf), m) - rstar[~met]
    assert np.all((below < 0.0) & (above > 0.0))
    for x, want in zip(rstar[3:], r[3:]):
        assert cp.inverse_tortoise(x, m) == want
    # below the image of the smallest double above 2m no r exists
    for x in (-49.1, np.nextafter(floor, -np.inf), [-20.0, -50.0]):
        with pytest.raises(ValueError, match=r"at m = 0.7 the smallest reachable r\* is -49.06.*got r\* = -(49|50)"):
            cp.inverse_tortoise(x, m)


# SHA-256 of inverse_tortoise on the grid below, recorded before the bracket search
# that only a negative mass could enter was deleted
INVERSE_TORTOISE_SHA256 = "8bfae773f1bbbf25009ae2906ce539636ba88de09e5dea2caff86a2f9b450272"


def test_inverse_tortoise_is_pinned_from_each_horizon_floor_to_1e300():
    digest = hashlib.sha256()
    for m in (0.0, 0.1, 0.7, 1e6):
        floor = cp.tortoise(np.nextafter(2.0 * m, np.inf), m)
        rstar = np.concatenate([[floor], np.linspace(floor, floor + 100.0, 201)[1:],
                                floor + np.geomspace(1e-3, 1e300, 301)])
        r = cp.inverse_tortoise(rstar, m)
        digest.update(np.ascontiguousarray(r).tobytes())
        for i in (0, 100, 400):
            assert cp.inverse_tortoise(rstar[i], m) == r[i]
    assert digest.hexdigest() == INVERSE_TORTOISE_SHA256


def test_chart_transition_values():
    p = cp.to_nullcone(cp.TemporalPoint(0.0, (0.12, 0.16, 0.0)))
    assert p.rho == 0.0 and p.v == pytest.approx(4.0, abs=1e-15)
    assert np.allclose(p.omega, (0.6, 0.8, 0.0))

    with pytest.raises(ValueError, match="singular at X = 0"):
        cp.to_nullcone(cp.TemporalPoint(0.01, (0.0, 0.0, 0.0)))

    # the inverse transition is singular at v = -1 and has no image below it,
    # though NullConePoint admits v in (-7/4, 5)
    with pytest.raises(ValueError, match="singular at v = -1.0"):
        cp.to_temporal(cp.NullConePoint(0.01, -1.0, (0.0, 0.0, 1.0)))
    with pytest.raises(ValueError, match="singular at v = -1.5"):
        cp.to_temporal(cp.NullConePoint(0.01, -1.5, (0.0, 0.0, 1.0)))


@given(
    st.floats(min_value=0.1667, max_value=0.2499),
    st.floats(min_value=0.0, max_value=0.0999),
    st.floats(min_value=0.0, max_value=np.pi),
    st.floats(min_value=0.0, max_value=2.0 * np.pi),
)
@settings(max_examples=100)
def test_chart_transition_round_trip(aX, frac, theta, phi):
    # points of the chart overlap: |X| in (1/6, 1/4) keeps v = 1/|X| - 1 below 5,
    # and rho_+ < |X|/10 keeps rho = rho_+/|X| below EPSILON0 (with a margin for rounding)
    X = aX * np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
    rp = frac * aX
    p = cp.TemporalPoint(rp, tuple(X))
    back = cp.to_temporal(cp.to_nullcone(p))
    assert abs(back.rho_plus - rp) < 1e-14
    assert np.max(np.abs(np.subtract(back.X, X))) < 1e-14


def test_boundary_defining_past_corner():
    m = 0.25
    bt = cp.boundary_defining(100.0, -100.0, m)  # t = 0, r_* = 100
    r = cp.inverse_tortoise(100.0, m)
    assert bt.region == "past"
    assert bt.rho0 == pytest.approx(0.01, abs=1e-15)
    assert bt.rhoI == pytest.approx(100.0 / r, rel=1e-14)


def test_boundary_defining_future_corner_flat():
    bt = cp.boundary_defining(300.0, 100.0, 0.0)  # t = 200, r_* = 100, m = 0
    assert bt.region == "future"
    assert bt.rhoI == pytest.approx(1.0, abs=1e-14)
    assert bt.rho_plus == pytest.approx(0.01, abs=1e-15)


def test_boundary_defining_product_identity():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        m = rng.uniform(0.0, 0.4)
        rstar = rng.uniform(10.0, 1e4)
        t = rng.uniform(-rstar, rstar - 1.0)
        bt = cp.boundary_defining(t + rstar, t - rstar, m)
        r = cp.inverse_tortoise(rstar, m)
        assert abs(bt.rho0 * bt.rhoI - 1.0 / r) < 1e-14 * (1.0 / r) + 1e-300
    # future-corner identity
    for _ in range(100):
        m = rng.uniform(0.0, 0.4)
        rstar = rng.uniform(10.0, 1e4)
        t = rng.uniform(rstar + 1.0, 3.0 * rstar)
        bt = cp.boundary_defining(t + rstar, t - rstar, m)
        r = cp.inverse_tortoise(rstar, m)
        assert abs(bt.rhoI * bt.rho_plus - 1.0 / r) < 1e-14 * (1.0 / r)


def test_boundary_defining_cone_error():
    with pytest.raises(ValueError):
        cp.boundary_defining(100.0, 0.0, 0.1)


def test_null_frame_rows():
    bt = cp.BoundaryTriple(0.01, 0.1, 0.0, "past")
    mat = cp.null_frame_coefficients(bt, 0.0)
    assert mat[0, 0] == 0.0
    assert mat[0, 1] == pytest.approx(-5e-4, rel=1e-14)

    bt0 = cp.BoundaryTriple(0.02, 0.0, 0.0, "past")
    mat0 = cp.null_frame_coefficients(bt0, 0.3)
    assert mat0[1, 0] == pytest.approx(0.02, rel=1e-14)
    assert mat0[1, 1] == pytest.approx(-0.02, rel=1e-14)


@pytest.mark.parametrize("m", [0.0, 0.25])
def test_null_frame_chain_rule_oracle(m):
    # apply the frame to F(q, s) = q s and compare with dF/dq = s, dF/ds = q
    rho0, rhoI = 0.01, 0.1

    def F(r0, rI):
        s = -1.0 / r0
        r = 1.0 / (r0 * rI)
        q = s + 2.0 * cp.tortoise(r, m)
        return q * s

    h = 1e-6
    d0 = (F(rho0 * math.exp(h), rhoI) - F(rho0 * math.exp(-h), rhoI)) / (2.0 * h)
    dI = (F(rho0, rhoI * math.exp(h)) - F(rho0, rhoI * math.exp(-h))) / (2.0 * h)
    mat = cp.null_frame_coefficients(cp.BoundaryTriple(rho0, rhoI, 0.0, "past"), m)
    got_q = mat[0, 0] * d0 + mat[0, 1] * dI
    got_s = mat[1, 0] * d0 + mat[1, 1] * dI

    s = -1.0 / rho0
    r = 1.0 / (rho0 * rhoI)
    q = s + 2.0 * cp.tortoise(r, m)
    assert abs(got_q - s) <= 1e-8 * (1.0 + abs(s))
    assert abs(got_s - q) <= 1e-8 * (1.0 + abs(q))


def test_scaled_time_fixed_point_massless():
    rho = np.geomspace(1e-6, 1e-2, 50)
    f, exp, _ = cp.scaled_time_fixed_point(v=0.3, m=0.0, rho_grid=rho)
    assert np.max(np.abs(f - 1.3)) == 0.0
    assert exp.evaluate(rho) == pytest.approx(1.3)


def test_scaled_time_fixed_point_against_bisection_oracle():
    m, v = 0.2, 0.0
    rho = np.array([1e-3])
    f, _, _ = cp.scaled_time_fixed_point(v, m, rho)

    def g(fv):
        chi = float(cp.cutoff_lower(fv))
        return fv - (1.0 + v) + 2.0 * m * rho[0] * chi * (math.log(rho[0]) - math.log1p(-2.0 * m * rho[0]))

    lo, hi = 0.25, 8.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    assert f[0] == pytest.approx(oracle, abs=1e-12)


def test_scaled_time_expansion_and_index_set():
    from nullinf.indexsets import elog

    m, v = 0.2, 0.5
    rho = np.geomspace(1e-6, 1e-3, 60)
    f, exp, certified = cp.scaled_time_fixed_point(v, m, rho)
    assert certified == elog(2)
    resid = np.abs(f - exp.evaluate(rho))
    slope = np.polyfit(np.log(rho), np.log(resid), 1)[0]
    assert slope >= 2.0 - 0.1


def test_scaled_time_fixed_point_unique():
    m, v = 0.3, 1.0
    rho = np.geomspace(1e-5, 5e-3, 40)
    f1, _, _ = cp.scaled_time_fixed_point(v, m, rho, initial=np.full_like(rho, 0.6))
    f2, _, _ = cp.scaled_time_fixed_point(v, m, rho, initial=np.full_like(rho, 5.0))
    assert np.max(np.abs(f1 - f2)) < 1e-12


def test_chart_point_ranges():
    with pytest.raises(ValueError):
        cp.NullConePoint(0.2, 0.0, (1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        cp.NullConePoint(0.01, -1.8, (1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        cp.TemporalPoint(0.01, (0.3, 0.0, 0.0))
    p = cp.TemporalPoint(0.01, (0.2, 0.0, 0.0))
    q = cp.to_nullcone(p)
    assert q.rho == pytest.approx(0.05) and q.v == pytest.approx(4.0)
    back = cp.to_temporal(q)
    assert back.rho_plus == pytest.approx(0.01, abs=1e-15)
