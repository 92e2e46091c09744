"""Connection, curvature, gauge 1-form, modified gradients and K-currents.

Numeric tensor assembly sits on top of the exact derivative evaluators of
:mod:`nullinf.metrics`: the inverse metric and all contractions are done
pointwise with numpy, so every quantity is analytic-in-derivatives up to
roundoff.  Energy-current algebra is generated symbolically per chart and
compiled once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import sympy as sp

from .compactify import _mass, inverse_tortoise
from .metrics import (PH, Q, RR, S, TH, MetricEval, MetricField, PerturbationField, _diff_ops,
                      compile_fields, sphere_dot)


# -- connection and curvature ----------------------------------------------


def _first_kind(dg):
    """(d_m g_kn + d_n g_km - d_k g_mn) / 2, indexed [..., k, m, n].

    ``dg`` is indexed [..., derivative, m, n]; leading axes ride along, so
    the same combination of d2g is the derivative of the first one.
    """
    return 0.5 * (
        np.einsum("...mkn->...kmn", dg)
        + np.einsum("...nkm->...kmn", dg)
        - np.einsum("...kmn->...kmn", dg)
    )


def christoffel(ev: MetricEval) -> np.ndarray:
    """Gamma^kappa_{mu nu} from the metric and its first derivatives."""
    return np.einsum("...lk,...kmn->...lmn", ev.ginv, _first_kind(ev.dg))


def _dchristoffel(ev: MetricEval):
    ginv = ev.ginv
    dg = ev.dg
    first = _first_kind(dg)
    dfirst = _first_kind(ev.d2g)    # [..., s, k, m, n]
    dginv = -np.einsum("...ma,...sab,...bn->...smn", ginv, dg, ginv)
    gamma = np.einsum("...lk,...kmn->...lmn", ginv, first)
    dgamma = np.einsum("...slk,...kmn->...slmn", dginv, first) + np.einsum(
        "...lk,...skmn->...slmn", ginv, dfirst
    )
    return gamma, dgamma


def riemann_ricci(ev: MetricEval):
    """Curvature R^kappa_{lambda mu nu} and its Ricci contraction."""
    gamma, dgamma = _dchristoffel(ev)
    riem = (
        np.einsum("...mknl->...klmn", dgamma)
        - np.einsum("...nkml->...klmn", dgamma)
        + np.einsum("...kms,...snl->...klmn", gamma, gamma)
        - np.einsum("...kns,...sml->...klmn", gamma, gamma)
    )
    ricci = np.einsum("...klkn->...ln", riem)
    return riem, ricci


def covariant_metric_derivative(ev: MetricEval) -> np.ndarray:
    """nabla_kappa g_{mu nu}; vanishes identically up to roundoff."""
    gamma = christoffel(ev)
    return (
        ev.dg
        - np.einsum("...lkm,...ln->...kmn", gamma, ev.g)
        - np.einsum("...lkn,...ml->...kmn", gamma, ev.g)
    )


def gauge_oneform(ev_g: MetricEval, ev_bg: MetricEval) -> np.ndarray:
    """Upsilon_mu = g_{mu nu} g^{kappa lambda} (Gamma(g) - Gamma(bg))^nu_{kappa lambda}."""
    diff = christoffel(ev_g) - christoffel(ev_bg)
    return np.einsum("...mn,...kl,...nkl->...m", ev_g.g, ev_g.ginv, diff)


def trace_reversal(g: np.ndarray, T: np.ndarray) -> np.ndarray:
    """T minus half the metric times its trace."""
    ginv = np.linalg.inv(g)
    tr = np.einsum("...mn,...mn->...", ginv, T)
    return T - 0.5 * g * tr[..., None, None]


# -- 1-form fields and symmetric gradients ----------------------------------


class OneFormField:
    """Covariant 1-form with closed-form components in (r, q, s, theta, phi)."""

    def __init__(self, exprs, m):
        self.exprs = tuple(sp.sympify(e) for e in exprs)
        D = _diff_ops(_mass(m))
        flat = list(self.exprs) + [D[k](e) for k in range(4) for e in self.exprs]
        self._fn = compile_fields((RR, Q, S, TH, PH), flat)

    def eval(self, ev: MetricEval):
        vals = self._fn(ev.r, ev.q, ev.s, ev.theta, ev.phi)
        omega = vals[..., :4]
        domega = vals[..., 4:].reshape(vals.shape[:-1] + (4, 4))  # (..., kappa, mu) = d_kappa omega_mu
        return omega, domega


def symmetric_gradient(bg: MetricField, omega: OneFormField, q, s, theta, phi) -> np.ndarray:
    """(delta* omega)_{mu nu} = (nabla_mu omega_nu + nabla_nu omega_mu) / 2."""
    ev = bg.at(q, s, theta, phi)
    gamma = christoffel(ev)
    w, dw = omega.eval(ev)
    sym = 0.5 * (dw + np.einsum("...nm->...mn", dw))
    return sym - np.einsum("...kmn,...k->...mn", gamma, w)


def modified_gradient_correction(gamma1, gamma2, ev: MetricEval, omega_vals: np.ndarray) -> np.ndarray:
    """The zeroth-order damping correction applied to a 1-form value.

    Uses rho_t = 1/t with t = (q + s)/2, which fixes the boundary profile of
    the time weight; the ambiguity at higher order is irrelevant here.
    """
    t = 0.5 * (ev.q + ev.s)
    a = np.zeros(ev.q.shape + (4,))
    a[..., 0] = -0.5 / t
    a[..., 1] = -0.5 / t
    sym = 0.5 * (
        np.einsum("...m,...n->...mn", a, omega_vals)
        + np.einsum("...n,...m->...mn", a, omega_vals)
    )
    dt_form = np.zeros_like(a)
    dt_form[..., 0] = 0.5
    dt_form[..., 1] = 0.5
    X = -np.einsum("...mn,...n->...m", ev.ginv, dt_form) / t[..., None]
    iota = np.einsum("...m,...m->...", omega_vals, X)
    return -2.0 * gamma1 * sym + gamma2 * iota[..., None, None] * ev.g


# -- K-currents --------------------------------------------------------------


@dataclass(frozen=True)
class BFrameChart:
    """Local chart with an explicit b-metric, for energy-current algebra."""

    coords: tuple
    metric: sp.Matrix
    name: str = "chart"


def ds_static_chart() -> BFrameChart:
    """Static chart (rho_+, R, theta, phi) of the de Sitter model at the temporal face."""
    rp, Rr, th, ph = sp.symbols("rho_plus R theta phi", positive=True)
    g = sp.zeros(4, 4)
    g[0, 0] = (1 - Rr**2) / rp**2
    g[0, 1] = g[1, 0] = -Rr / rp
    g[1, 1] = -1
    g[2, 2] = -(Rr**2)
    g[3, 3] = -(Rr**2) * sp.sin(th) ** 2
    return BFrameChart((rp, Rr, th, ph), g, "ds-static")


@dataclass(frozen=True)
class CurrentSpec:
    """Multiplier vector field on a chart; ``params`` are further symbols of ``W``."""

    chart: BFrameChart
    W: tuple
    params: tuple = ()


def _lie_inverse(coords, W, G):
    L = sp.zeros(4, 4)
    for mu in range(4):
        for nu in range(4):
            e = sum(W[s_] * sp.diff(G[mu, nu], coords[s_]) for s_ in range(4))
            e -= sum(G[s_, nu] * sp.diff(W[mu], coords[s_]) for s_ in range(4))
            e -= sum(G[mu, s_] * sp.diff(W[nu], coords[s_]) for s_ in range(4))
            L[mu, nu] = e
    return L


def k_current(spec: CurrentSpec):
    """Compile K_W = -(L_W G + (div W) G)/2 and div W on the chart.

    Returns a callable mapping four coordinate arrays to the contravariant
    current (..., 4, 4) and the scalar divergence (standard orientation:
    the metric divergence of W).
    """
    coords = spec.chart.coords
    g = spec.chart.metric
    G = g.inv()
    W = [sp.sympify(w) for w in spec.W]
    sqrt_det = sp.sqrt(-g.det())
    div = sum(sp.diff(sqrt_det * W[mu], coords[mu]) for mu in range(4)) / sqrt_det
    K = -(_lie_inverse(coords, W, G) + div * G) / 2
    flat = [K[i, j] for i in range(4) for j in range(4)] + [div]
    fn = compile_fields(tuple(coords) + tuple(spec.params), flat)

    def evaluate(x0, x1, x2, x3, *param_values):
        arrs = np.broadcast_arrays(*(np.atleast_1d(np.asarray(a, dtype=float)) for a in (x0, x1, x2, x3)))
        vals = fn(*arrs, *param_values)
        return vals[..., :16].reshape(vals.shape[:-1] + (4, 4)), vals[..., 16]

    return evaluate


# the temporal-face weight exponent a_+ of the multiplier, and the point
# (rho_+, theta) of the static chart where its current is reported
_A_PLUS = -1.5
_RHO_PLUS = 0.5
_THETA = 1.1


def temporal_multiplier(aI) -> CurrentSpec:
    """The weighted timelike multiplier of the temporal-face estimate."""
    chart = ds_static_chart()
    rp, Rr = chart.coords[0], chart.coords[1]
    rhoI = 1 - Rr**2
    w = rhoI ** (-2 * sp.nsimplify(aI)) * rp ** (-2 * sp.nsimplify(_A_PLUS))
    W = (-(1 + Rr**2) * rp * w, -rhoI * Rr * w, 0, 0)
    return CurrentSpec(chart, W)


def dilation_field_dS() -> CurrentSpec:
    """The temporal-face scaling field, a Killing field of the static model."""
    chart = ds_static_chart()
    return CurrentSpec(chart, (chart.coords[0], 0, 0, 0))


def multiplier_features(aI, R):
    """Frame components of the weighted current at the temporal face.

    Evaluated at (rho_+, R, theta, phi) = (1/2, R, 1.1, 0) and reported in
    the frame (rho_+ d/drho_+, rhoI d/dR, edge spherical frame) after
    removing the weight rhoI^(2 aI + 1) rho_+^(2 a+); ``div`` carries the
    weight rhoI^(2 aI) rho_+^(2 a+) and the sign convention of the negative
    divergence.
    """
    Kv, div = k_current(temporal_multiplier(aI))(_RHO_PLUS, R, _THETA, 0.0)
    R = np.atleast_1d(np.asarray(R, dtype=float))
    rhoI = 1.0 - R**2
    s1 = rhoI ** (2 * aI + 1) * _RHO_PLUS ** (2 * _A_PLUS)
    k00 = s1 * Kv[..., 0, 0] / _RHO_PLUS**2
    k01 = s1 * Kv[..., 0, 1] / (_RHO_PLUS * rhoI)
    k11 = s1 * Kv[..., 1, 1] / rhoI**2
    kslash = rhoI ** (2 * aI) * _RHO_PLUS ** (2 * _A_PLUS) * Kv[..., 2, 2] * R**2
    div_neg = rhoI ** (2 * aI) * _RHO_PLUS ** (2 * _A_PLUS) * (-div)
    return {
        "trK1": k00 + k11,
        "detK1": k00 * k11 - k01**2,
        "kslash": kslash,
        "div": div_neg,
    }


def energy_momentum(chart: BFrameChart, X, Y):
    """Abstract stress tensor T(X, Y) = X sym Y - g(X, Y) G / 2 on the chart."""
    g = chart.metric
    G = g.inv()
    Xv = sp.Matrix(4, 1, [sp.sympify(x) for x in X])
    Yv = sp.Matrix(4, 1, [sp.sympify(y) for y in Y])
    sym = (Xv * Yv.T + Yv * Xv.T) / 2
    scal = (Xv.T * g * Yv)[0, 0]
    return sym - scal * G / 2


def gradient_vector(chart: BFrameChart, f):
    g = chart.metric
    G = g.inv()
    df = sp.Matrix(4, 1, [sp.diff(sp.sympify(f), c) for c in chart.coords])
    return list(G * df)


def product_rule_residual(chart: BFrameChart, V, f, points, params=(), param_values=()):
    """max |K_{fV} - T(grad f, V) - f K_V| over the sample points."""
    V = [sp.sympify(v) for v in V]
    f = sp.sympify(f)
    fV = [f * v for v in V]
    k_fv = k_current(CurrentSpec(chart, tuple(fV), params=tuple(params)))
    k_v = k_current(CurrentSpec(chart, tuple(V), params=tuple(params)))
    T = energy_momentum(chart, gradient_vector(chart, f), V)
    flat = [T[i, j] for i in range(4) for j in range(4)] + [f]
    fn = compile_fields(tuple(chart.coords) + tuple(params), flat)

    K1, _ = k_fv(*points, *param_values)
    K2, _ = k_v(*points, *param_values)
    vals = fn(*(np.atleast_1d(np.asarray(p, dtype=float)) for p in points), *param_values)
    Tv = vals[..., :16].reshape(vals.shape[:-1] + (4, 4))
    fv = vals[..., 16]
    resid = K1 - Tv - fv[..., None, None] * K2
    return float(np.max(np.abs(resid)))


# -- de Sitter conjugation and indicial roots --------------------------------


def _shifted(fn, args, axis, k, h):
    shifted = list(args)
    shifted[axis] = args[axis] + k * h
    return fn(*shifted)


def _second_derivative(fn, args, axis, h):
    # fourth-order central stencil
    f = [_shifted(fn, args, axis, k, h) for k in (-2, -1, 0, 1, 2)]
    return (-f[0] + 16.0 * f[1] - 30.0 * f[2] + 16.0 * f[3] - f[4]) / (12.0 * h**2)


def _first_derivative(fn, args, axis, h):
    f = [_shifted(fn, args, axis, k, h) for k in (-2, -1, 1, 2)]
    return (f[0] - 8.0 * f[1] + 8.0 * f[2] - f[3]) / (12.0 * h)


def _richardson(op, h):
    # both stencils are O(h^4); one extrapolation step removes that order
    return (16.0 * op(h / 2.0) - op(h)) / 15.0


def desitter_conjugation_check(phi, t, x):
    """|t^3 Box(phi/t) - (Box_dS - 2) phi| at (t, x), both sides by finite differences.

    Box here is the negative d'Alembertian; the left side differentiates the
    rescaled function phi/t on flat spacetime, the right side applies the
    hyperbolic-slicing operator 2 t d_t - t^2 d_t^2 + t^2 Lap directly to phi.
    """
    t = float(t)
    x = [float(xi) for xi in x]
    args = [t] + x
    step = 0.02 * max(abs(t), 1.0)  # balances stencil truncation against roundoff

    def u(tt, x1, x2, x3):
        return phi(tt, x1, x2, x3) / tt

    def lhs(h):
        lap = sum(_second_derivative(u, args, i, h) for i in (1, 2, 3))
        return t**3 * (lap - _second_derivative(u, args, 0, h))

    def rhs(h):
        lap = sum(_second_derivative(phi, args, i, h) for i in (1, 2, 3))
        return (
            2.0 * t * _first_derivative(phi, args, 0, h)
            - t**2 * _second_derivative(phi, args, 0, h)
            + t**2 * lap
            - 2.0 * phi(*args)
        )

    return abs(_richardson(lhs, step) - _richardson(rhs, step))


def indicial_polynomial(sigma):
    """Frozen-coefficient symbol of the conjugated wave operator on pure powers."""
    return -((sigma - 1.5) ** 2) + 0.25


def indicial_roots_dS():
    """Roots of the indicial polynomial at the temporal face, sorted."""
    roots = np.roots([-1.0, 3.0, -2.0])
    return tuple(sorted(float(np.real(r)) for r in roots))


# -- leading (1,1) residual of the gauged field equations ---------------------


def gauged_residual_11(h: PerturbationField, m, q, s, theta, phi):
    """The two leading terms of the (1,1) component of the gauged equations.

    Returns their sum and the pair of terms, evaluated at the given points.
    """
    m = _mass(m)
    D = _diff_ops(m)
    hq = h.qs_exprs()
    t1 = -2 * RR**2 * D[1](D[0](hq["11"]))
    d1h = sp.Matrix([[hq["22"], hq["23"]], [hq["23"], hq["33"]]]).applyfunc(D[1])
    t2 = -sp.Rational(1, 4) * RR * sphere_dot(d1h, d1h)
    fn = compile_fields((RR, Q, S, TH, PH), [t1, t2])
    q, s, theta, phi = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, dtype=float)) for v in (q, s, theta, phi))
    )
    r = inverse_tortoise(0.5 * (q - s), m)
    t = fn(r, q, s, theta, phi)
    t1, t2 = t[..., 0], t[..., 1]
    return t1 + t2, (t1, t2)
