import math
import warnings

import numpy as np
import pytest

from nullinf import geodesics
from nullinf.compactify import inverse_tortoise
from nullinf.geodesics import _christoffel_at, _cumulative_simpson, integrate_radial_null_geodesic, retarded_time
from nullinf.metrics import MetricField, PerturbationField, Weights, rate_saturating_field

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
    from nullinf.metrics import RHOI

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
    # the returned acceleration reuses the last sweep's connection at the final x
    g = MetricField(0.1, rate_saturating_field() if perturbed else None)
    calls = []

    def counted(metric, x):
        calls.append(x.shape)
        return _christoffel_at(metric, x)

    monkeypatch.setattr(geodesics, "_christoffel_at", counted)
    traj = integrate_radial_null_geodesic(g, -30.0, np.array([[1.1, 0.7], [0.4, 2.0]]), s0=30.0)
    assert len(calls) == traj.iterations
    gam = _christoffel_at(g, traj.x)
    assert np.array_equal(traj.acc, -np.einsum("...kmn,...m,...n->...k", gam, traj.v, traj.v))


@pytest.mark.parametrize("shape", [(2, 3, 2), (3,), (4, 3), ()])
def test_target_shapes_other_than_one_pair_or_a_list_are_rejected(monkeypatch, shape):
    # before the first sweep: no connection is evaluated
    monkeypatch.setattr(geodesics, "_christoffel_at", None)
    with pytest.raises(ValueError, match=r"target_angles must have shape \(2,\) or \(n, 2\), got "):
        integrate_radial_null_geodesic(MetricField(0.1), -30.0, np.ones(shape))


def test_tail_bound_reported_small(schwarzschild_traj):
    _, traj = schwarzschild_traj
    assert traj.tail_bound < 1e-8


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
