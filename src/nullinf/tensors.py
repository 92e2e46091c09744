"""Connection, curvature, gauge 1-form, modified gradients and K-currents.

Numeric tensor assembly sits on top of the exact derivative evaluators of
:mod:`nullinf.metrics`: the inverse metric and all contractions are done
pointwise with numpy, so every quantity is analytic-in-derivatives up to
roundoff.  Energy-current algebra is generated symbolically on the static
chart of the temporal face and compiled once per multiplier.
"""

from __future__ import annotations

from functools import cache, lru_cache

import numpy as np
import sympy as sp

from .compactify import _mass
from .metrics import (CHART, RR, MetricEval, MetricField, PerturbationField, _diff_ops, chart_point,
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
        - dg
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
        exprs = [sp.sympify(e) for e in exprs]
        D = _diff_ops(_mass(m))
        self._fn = compile_fields(CHART, [sp.Array(exprs), sp.Array([[D[k](e) for e in exprs] for k in range(4)])])

    def eval(self, ev: MetricEval):
        """The pair omega_mu (..., 4) and d_kappa omega_mu (..., 4, 4), indexed (kappa, mu)."""
        return self._fn(ev.r, ev.q, ev.s, ev.theta, ev.phi)


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


@cache
def ds_static_chart():
    """Static chart (rho_+, R, theta, phi) of the de Sitter model at the temporal face.

    Returns the coordinates, the metric and its inverse; built on first use.
    """
    rp, Rr, th, ph = sp.symbols("rho_plus R theta phi", positive=True)
    g = sp.zeros(4, 4)
    g[0, 0] = (1 - Rr**2) / rp**2
    g[0, 1] = g[1, 0] = -Rr / rp
    g[1, 1] = -1
    g[2, 2] = -(Rr**2)
    g[3, 3] = -(Rr**2) * sp.sin(th) ** 2
    return (rp, Rr, th, ph), sp.ImmutableMatrix(g), sp.ImmutableMatrix(g.inv())


def _lie_inverse(coords, W, G):
    L = sp.zeros(4, 4)
    for mu in range(4):
        for nu in range(4):
            e = sum(W[s_] * sp.diff(G[mu, nu], coords[s_]) for s_ in range(4))
            e -= sum(G[s_, nu] * sp.diff(W[mu], coords[s_]) for s_ in range(4))
            e -= sum(G[mu, s_] * sp.diff(W[nu], coords[s_]) for s_ in range(4))
            L[mu, nu] = e
    return L


@cache
def k_current(W, params=()):
    """Compile K_W = -(L_W G + (div W) G)/2 and div W on the static chart.

    ``W`` is a tuple of the multiplier's components and ``params`` a tuple
    of the further symbols they hold.  Returns a callable mapping four coordinate
    arrays and the parameter values to the contravariant current (..., 4, 4)
    and the scalar divergence (...) (standard orientation: the metric
    divergence of W).
    """
    coords, g, G = ds_static_chart()
    W = [sp.sympify(w) for w in W]
    sqrt_det = sp.sqrt(-g.det())
    div = sum(sp.diff(sqrt_det * W[mu], coords[mu]) for mu in range(4)) / sqrt_det
    K = -(_lie_inverse(coords, W, G) + div * G) / 2
    return compile_fields(coords + params, [K, div])


# the temporal-face weight exponent a_+ of the multiplier, the symbol of its
# weight exponent a_I (a runtime argument of the compiled current), and the
# point (rho_+, theta) of the static chart where its current is reported
_A_PLUS = -1.5
_A_I = sp.Symbol("a_I")
_RHO_PLUS = 0.5
_THETA = 1.1


def temporal_multiplier():
    """The weighted timelike multiplier of the temporal-face estimate, its weight exponent a_I left symbolic."""
    rp, Rr = ds_static_chart()[0][:2]
    rhoI = 1 - Rr**2
    w = rhoI ** (-2 * _A_I) * rp ** (-2 * sp.nsimplify(_A_PLUS))
    return (-(1 + Rr**2) * rp * w, -rhoI * Rr * w, 0, 0)


def dilation_field_dS():
    """The temporal-face scaling field, a Killing field of the static model."""
    return (ds_static_chart()[0][0], 0, 0, 0)


def multiplier_features(aI, R):
    """Frame components of the weighted current at the temporal face.

    Evaluated at (rho_+, R, theta, phi) = (1/2, R, 1.1, 0) and reported in
    the frame (rho_+ d/drho_+, rhoI d/dR, edge spherical frame) after
    removing the weight rhoI^(2 aI + 1) rho_+^(2 a+); ``div`` carries the
    weight rhoI^(2 aI) rho_+^(2 a+) and the sign convention of the negative
    divergence.
    """
    R = np.atleast_1d(np.asarray(R, dtype=float))
    Kv, div = k_current(temporal_multiplier(), (_A_I,))(*np.broadcast_arrays(_RHO_PLUS, R, _THETA, 0.0), aI)
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


def energy_momentum(X, Y):
    """Abstract stress tensor T(X, Y) = X sym Y - g(X, Y) G / 2 on the static chart."""
    _, g, G = ds_static_chart()
    Xv = sp.Matrix(4, 1, [sp.sympify(x) for x in X])
    Yv = sp.Matrix(4, 1, [sp.sympify(y) for y in Y])
    sym = (Xv * Yv.T + Yv * Xv.T) / 2
    scal = (Xv.T * g * Yv)[0, 0]
    return sym - scal * G / 2


def gradient_vector(f):
    coords, _, G = ds_static_chart()
    df = sp.Matrix(4, 1, [sp.diff(sp.sympify(f), c) for c in coords])
    return list(G * df)


def product_rule_residual(V, f, points, params=(), param_values=()):
    """max |K_{fV} - T(grad f, V) - f K_V| over the sample points."""
    V = tuple(sp.sympify(v) for v in V)
    f = sp.sympify(f)
    params = tuple(params)
    # float arrays, so a scalar point is evaluated as a batch of one, bit for bit
    points = np.broadcast_arrays(*(np.atleast_1d(np.asarray(x, dtype=float)) for x in points))
    K1, _ = k_current(tuple(f * v for v in V), params)(*points, *param_values)
    K2, _ = k_current(V, params)(*points, *param_values)
    T = energy_momentum(gradient_vector(f), V)
    Tv, fv = compile_fields(ds_static_chart()[0] + params, [T, f])(*points, *param_values)
    resid = K1 - Tv - fv[..., None, None] * K2
    return float(np.max(np.abs(resid)))


# -- de Sitter conjugation and indicial roots --------------------------------


_T, _X = sp.Symbol("t"), sp.symbols("x1:4")


def _box(f):
    """The negative d'Alembertian Lap - d_t^2 of flat spacetime, exact."""
    return sum(sp.diff(f, xi, 2) for xi in _X) - sp.diff(f, _T, 2)


@lru_cache(maxsize=256)
def _conjugation_residual(phi):
    p = sp.sympify(phi(_T, *_X))
    lhs = _T**3 * _box(p / _T)
    rhs = 2 * _T * sp.diff(p, _T) + _T**2 * _box(p) - 2 * p
    return compile_fields((_T, *_X), [lhs - rhs])


def desitter_conjugation_check(phi, t, x):
    """|t^3 Box(phi/t) - (Box_dS - 2) phi| at (t, x), both sides by exact differentiation.

    Box here is the negative d'Alembertian; the left side differentiates the
    rescaled function phi/t on flat spacetime, the right side applies the
    hyperbolic-slicing operator 2 t d_t - t^2 d_t^2 + t^2 Lap directly to phi.
    ``phi(t, x1, x2, x3)`` is called once on sympy symbols, so it must be
    built from arithmetic and sympy functions; its residual is compiled once
    per callable.
    """
    return float(abs(_conjugation_residual(phi)(float(t), *(float(xi) for xi in x))[0]))


def indicial_polynomial(sigma):
    """Frozen-coefficient symbol of the conjugated wave operator on pure powers."""
    return -((sigma - 1.5) ** 2) + 0.25


def indicial_roots_dS():
    """Roots of the indicial polynomial at the temporal face, sorted."""
    sigma = sp.Symbol("sigma")
    return tuple(sorted(float(r) for r in sp.solve(indicial_polynomial(sigma), sigma)))


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
    t1, t2 = compile_fields(CHART, [t1, t2])(*chart_point(q, s, theta, phi, m))
    return t1 + t2, (t1, t2)
