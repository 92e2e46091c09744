import math
import warnings

import numpy as np
import pytest
import sympy as sp

from nullinf import bondi, geodesics, tensors
from nullinf.compactify import inverse_tortoise
from nullinf.geodesics import _cumulative_simpson, _sweep_force, integrate_radial_null_geodesic, retarded_time
from nullinf.metrics import (
    PH,
    RHO0,
    RHOI,
    TH,
    MetricField,
    PerturbationField,
    Weights,
    rate_saturating_field,
    schwarzschild_exact,
)

warnings.filterwarnings("ignore", message="tail truncation")


@pytest.fixture(scope="module")
def schwarzschild_traj():
    g = MetricField(0.1)
    return g, integrate_radial_null_geodesic(g, -30.0, np.array([1.1, 0.7]), s0=20.0)


def test_schwarzschild_components_constant(schwarzschild_traj):
    _, traj = schwarzschild_traj
    assert np.max(np.abs(traj.x[:, 1] + 30.0)) < 1e-10
    assert np.max(np.abs(traj.x[:, 2] - 1.1)) < 1e-10
    assert np.max(np.abs(traj.x[:, 3] - 0.7)) < 1e-10


def test_schwarzschild_null_norm(schwarzschild_traj):
    g, traj = schwarzschild_traj
    assert np.max(np.abs(traj.null_norm(g))) < 1e-8


def test_picard_differences_decrease(schwarzschild_traj):
    _, traj = schwarzschild_traj
    d = traj.diffs
    assert all(d[i + 1] < d[i] for i in range(1, len(d) - 1))


def test_x0_against_fine_ode_oracle(schwarzschild_traj):
    # independent fine integration of the exact radial equations, run in the
    # logarithmic parameter on the shifted variable xi = x0 - (s + 4m log s)
    g, traj = schwarzschild_traj
    m = g.m
    x1bar = -30.0
    i_far = int(np.argmin(np.abs(traj.s - 1e4)))  # anchor where the tail is quiet
    tau0, tau1 = math.log(traj.s[i_far]), math.log(traj.s[0])
    n = 12000
    h = (tau1 - tau0) / n

    def rhs(tau, y):
        s = math.exp(tau)
        xi, v = y
        x0 = xi + s + 4 * m * math.log(s)
        r = inverse_tortoise(0.5 * (x0 - x1bar), m)
        return np.array([s * v - s - 4 * m, -s * m / r**2 * v**2])

    xi_far = traj.x[i_far, 0] - (traj.s[i_far] + 4 * m * math.log(traj.s[i_far]))
    y = np.array([xi_far, traj.v[i_far, 0]])
    tau = tau0
    for _ in range(n):
        k1 = rhs(tau, y)
        k2 = rhs(tau + h / 2, y + h / 2 * k1)
        k3 = rhs(tau + h / 2, y + h / 2 * k2)
        k4 = rhs(tau + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        tau += h
    xi_got = traj.x[0, 0] - (traj.s[0] + 4 * m * math.log(traj.s[0]))
    assert abs(y[0] - xi_got) < 2e-6
    assert abs(y[1] - traj.v[0, 0]) < 1e-9


def test_x0_shift_converges_with_log_rate(schwarzschild_traj):
    g, traj = schwarzschild_traj
    m = g.m
    shift = traj.x[:, 0] - (traj.s + 4 * m * np.log(traj.s))
    # increments between decades decay like log(s)/s
    idx = [np.argmin(np.abs(traj.s - v)) for v in (1e2, 1e3, 1e4, 1e5)]
    incs = np.abs([shift[i] - shift[-1] for i in idx])
    model = np.log(traj.s[idx]) / traj.s[idx]
    ratio = incs / model
    assert np.all(ratio < 10.0 * ratio[-1] + 1e-12)
    assert incs[-1] < 1e-3


def test_fitted_rates_in_windows():
    h = rate_saturating_field()
    w = h.weights
    gp = MetricField(0.1, h)
    traj = integrate_radial_null_geodesic(gp, -30.0, np.array([1.1, 0.7]), s0=30.0)
    assert np.max(np.abs(traj.null_norm(gp))) < 1e-8
    rates = traj.fitted_rates(0.1)
    # open windows; fitted values at the endpoints are accepted with margin
    assert 0.0 < rates["alpha0"] <= w.bI + 0.15
    assert 0.0 < rates["alpha1"] <= w.bI_prime + 0.1
    assert 0.5 < rates["alpha_sph"] <= 1.0 + w.bI_prime + 0.1


def test_retarded_time_schwarzschild():
    g = MetricField(0.2)
    u, _ = retarded_time(g, (140.0, -17.0, 1.2, 0.4), s0=20.0)
    assert abs(u - (-17.0)) < 1e-10


def _long_range_pair(c):
    # order-one h_01 with the matching decaying h_00, so the long-range
    # structure of the outgoing cones is unchanged
    return PerturbationField({"01": c, "00": c * RHOI}, Weights())


def test_retarded_time_monotone_in_t():
    gp = MetricField(0.1, _long_range_pair(0.3))
    rstar = 80.0
    us = []
    for t in (-40.0, -35.0, -30.0):
        u, _ = retarded_time(gp, (t + rstar, t - rstar, 1.0, 0.0), s0=25.0)
        us.append(u)
    assert us[0] < us[1] < us[2]


def test_retarded_time_derivative_matches_long_range_term():
    c = 0.3
    gp = MetricField(0.1, _long_range_pair(c))
    diffs = []
    radii = np.array([60.0, 180.0, 540.0])
    for rstar in radii:
        t = rstar - 70.0
        delta = 0.05
        vals = []
        for ds in (+delta, -delta):
            u, _ = retarded_time(gp, (t + rstar, t - rstar + ds, 1.0, 0.0), s0=25.0)
            vals.append(u)
        d1u = (vals[0] - vals[1]) / (2 * delta)
        r = inverse_tortoise(rstar, 0.1)
        diffs.append(abs(d1u - (1.0 + 2.0 * c / r)))
    slope = np.polyfit(np.log(radii), np.log(diffs), 1)[0]
    assert slope < -1.2  # faster than 1/r


@pytest.mark.parametrize("perturbed", [False, True])
def test_one_connection_evaluation_per_sweep(monkeypatch, perturbed):
    # one metric (or closed-form) evaluation per sweep; the returned
    # acceleration reuses the last sweep's at the final x and adds none
    g = MetricField(0.1, rate_saturating_field() if perturbed else None)
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(np.size(args[1]))  # q, or theta of the closed form
            return fn(*args)

        return wrapper

    monkeypatch.setattr(MetricField, "at", counted(MetricField.at))
    monkeypatch.setattr(geodesics, "schwarzschild_exact", counted(schwarzschild_exact))
    traj = integrate_radial_null_geodesic(g, -30.0, np.array([[1.1, 0.7], [0.4, 2.0]]), s0=30.0)
    assert len(calls) == traj.iterations
    assert set(calls) == {traj.x[..., 0].size}
    assert np.array_equal(traj.acc, -_sweep_force(g, traj.x)(traj.v))


def _gamma_route_force(metric, x):
    """The reference the sweep force replaces: the connection, contracted twice with v."""
    if metric.h is None:
        r = metric.radius(x[..., 0], x[..., 1])
        gam = schwarzschild_exact(r.ravel(), x[..., 2].ravel(), metric.m).gamma.reshape(x.shape[:-1] + (4, 4, 4))
    else:
        gam = tensors.christoffel(metric.at(x[..., 0], x[..., 1], x[..., 2], x[..., 3]))
    return lambda v: np.einsum("...kmn,...m,...n->...k", gam, v, v)


def _news_field(mode=(2, 0)):
    h, _ = bondi.news_compatible_field(0.1, 1 / (1 + 5 * RHO0), mode=mode)
    return h


def _news_field_21():
    return _news_field((2, 1))


def _all_ten_field():
    # the rate-saturating field with the four slots it leaves empty filled in, so
    # every block of the metric, the coupling of null and sphere included, is perturbed
    h = rate_saturating_field()
    amp, w = sp.Rational(1, 20), h.weights
    a0 = amp * RHO0 ** sp.nsimplify(w.b0)
    aI, aIp = RHOI ** sp.nsimplify(w.bI), RHOI ** sp.nsimplify(w.bI_prime)
    st, ct, cp = sp.sin(TH), sp.cos(TH), sp.cos(PH)
    extra = {"02": a0 * aIp * st * ct, "03": a0 * aIp * st**2 * cp,
             "13": a0 * (1 + aI) * st**2 / 2, "23": a0 * (1 + aI) * st**3 * cp / 2}
    return PerturbationField({**h.comps, **extra}, w, label="all-ten")


@pytest.mark.parametrize("field", [None, rate_saturating_field, _news_field, _news_field_21, _all_ten_field])
def test_sweep_force_matches_the_connection_route(monkeypatch, field):
    g = MetricField(0.1, field() if field else None)
    targets = np.array([[1.1, 0.7], [0.4, 2.0], [2.5, 4.0]])
    traj = integrate_radial_null_geodesic(g, -20.0, targets, s0=20.0)
    assert traj.tail_bound < 1e-8
    monkeypatch.setattr(geodesics, "_sweep_force", _gamma_route_force)
    ref = integrate_radial_null_geodesic(g, -20.0, targets, s0=20.0)
    assert traj.iterations == ref.iterations
    if field is None:
        for got, want in ((traj.x, ref.x), (traj.v, ref.v), (traj.acc, ref.acc)):
            assert np.array_equal(got, want)
        return

    def rel(got, want):
        return np.max(np.abs(got - want)) / np.max(np.abs(want))

    assert rel(_sweep_force(g, ref.x)(ref.v), _gamma_route_force(g, ref.x)(ref.v)) <= 1e-14
    assert rel(traj.x, ref.x) <= 1e-13
    assert rel(traj.v, ref.v) <= 1e-13


def test_a_singular_metric_on_the_geodesics_is_an_error_not_a_warning():
    # at theta = 0 the sphere block of the perturbed metric has a zero determinant
    g = MetricField(0.1, rate_saturating_field())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^the metric is singular on the sampled geodesics: its sphere block "):
            integrate_radial_null_geodesic(g, -30.0, np.array([[1.1, 0.7], [0.0, 0.7]]))


@pytest.mark.parametrize("shape", [(2, 3, 2), (3,), (4, 3), ()])
def test_target_shapes_other_than_one_pair_or_a_list_are_rejected(monkeypatch, shape):
    # before the first sweep: no force is built
    monkeypatch.setattr(geodesics, "_sweep_force", None)
    with pytest.raises(ValueError, match=r"target_angles must have shape \(2,\) or \(n, 2\), got "):
        integrate_radial_null_geodesic(MetricField(0.1), -30.0, np.ones(shape))


def test_tail_bound_reported_small(schwarzschild_traj):
    _, traj = schwarzschild_traj
    assert traj.tail_bound < 1e-8


def test_short_tail_pairs_its_panels_and_warns():
    # 32 nodes per decade over 1.1 decades round to 35 panels; one more keeps Simpson's
    # panels paired, and a tail that short leaves a truncation bound far above 1e-8
    with pytest.warns(UserWarning, match=r"tail truncation bound .* exceeds 1e-08"):
        traj = integrate_radial_null_geodesic(MetricField(0.1), -30.0, np.array([1.1, 0.7]), tail_decades=1.1)
    assert len(traj.s) == 37
    assert traj.tail_bound > 1e-8


def test_fitted_rates_of_a_flat_radial_geodesic_are_infinite():
    # at m = 0 the velocity components the rates read vanish identically
    traj = integrate_radial_null_geodesic(MetricField(0.0), -30.0, np.array([1.1, 0.7]))
    assert traj.fitted_rates(0.0) == {"alpha0": math.inf, "alpha1": math.inf, "alpha_sph": math.inf}


def _cumulative_simpson_loop(H, h):
    """Node-by-node reference: the same additions in the same order as the batched rule."""
    n = H.shape[-1]
    out = np.zeros_like(H)
    if n < 3:
        if n == 2:
            out[..., 1] = 0.5 * h * (H[..., 0] + H[..., 1])
        return out
    inc_odd = h / 12.0 * (5.0 * H[..., :-2:2] + 8.0 * H[..., 1:-1:2] - H[..., 2::2])
    inc_even = h / 3.0 * (H[..., :-2:2] + 4.0 * H[..., 1:-1:2] + H[..., 2::2])
    for k in range(inc_odd.shape[-1]):
        out[..., 2 * k + 1] = out[..., 2 * k] + inc_odd[..., k]
        out[..., 2 * k + 2] = out[..., 2 * k] + inc_even[..., k]
    if n % 2 == 0:
        out[..., -1] = out[..., -2] + 0.5 * h * (H[..., -2] + H[..., -1])
    return out


@pytest.mark.parametrize("n", range(2, 10))
def test_cumulative_simpson_is_bitwise_the_loop(n):
    H = np.random.default_rng(n).normal(size=(3, 5, n))
    got, want = _cumulative_simpson(H, 0.07), _cumulative_simpson_loop(H, 0.07)
    assert got.tobytes() == want.tobytes()
