"""Spheres at large radius, Hawking and Bondi masses, and the mass-loss budget.

A congruence of asymptotically radial null geodesics carries the cut
geometry: sphere tangents and curvatures come from angular stencils of
trajectories, masses from quadrature over the cuts, and the retarded-time
evolution of the mass aspect from the leading transport law of the gauged
field equations.  The flux coefficient is derived from the (1,1) equation:
the O(r) parts of its two leading terms cancel only when the log coefficient
c of the long component obeys d_u c = |N|^2 / 4, and the log term's
transport value is -c/2, so d_u mu = -|N|^2 / 8.

The angular data of the news modes (ell, em) = (2, 0) and (2, 1) are exact
sympy literals, each written with the ``srepr`` that ``sp.simplify`` returned
for it.  The compiled code, and so every output bit, depends on the form of a
tree and not only on its value, so the literals must keep that ``srepr``.
They replace the ``sp.simplify`` calls that took most of the news field's
set-up; one call is left, on the long component of ``news_compatible_field``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np
import sympy as sp

from .compactify import _mass
from .geodesics import integrate_radial_null_geodesic
from .metrics import (PH, RHO0, RHOI, TH, MetricField, PerturbationField, Weights, compile_fields,
                      round_metric, sphere_cov_vector, sphere_div_tensor, sphere_dot, sphere_trace)
from . import tensors

#: coefficient of |news|^2 in the retarded-time transport of the mass aspect:
#: (1/2) * (1/4), the log term's transport value times the rate of its coefficient
MASS_ASPECT_FLUX_COEFF = 0.125


def sphere_quadrature(n_theta=24, n_phi=48):
    """Gauss-Legendre in the polar cosine times uniform azimuth."""
    xg, wg = np.polynomial.legendre.leggauss(n_theta)
    theta = np.arccos(xg)
    phi = (np.arange(n_phi) + 0.5) * (2.0 * np.pi / n_phi)
    w2 = np.outer(wg, np.full(n_phi, 2.0 * np.pi / n_phi))
    TH2, PH2 = np.meshgrid(theta, phi, indexing="ij")
    return TH2.ravel(), PH2.ravel(), w2.ravel()


_STENCIL = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]
_CENTER = 4
#: angular step of the stencil
_DELTA = 5e-3


def _central_differences(P):
    """d_theta and d_phi of stencil values ``P[:, 9, ...]`` by central differences, on axis 1."""
    return np.stack([P[:, 7] - P[:, 1], P[:, 5] - P[:, 3]], axis=1) / (2 * _DELTA)


class Congruence:
    """Batched radial null geodesics toward one cut of the radiation face."""

    def __init__(self, metric: MetricField, u, theta, phi, s0=15.0, tail_decades=7.0):
        self.metric = metric
        theta = np.asarray(theta, dtype=float)
        phi = np.asarray(phi, dtype=float)
        n = len(theta)
        angles = np.empty((n * 9, 2))
        for o, (a, b) in enumerate(_STENCIL):
            angles[o::9, 0] = theta + a * _DELTA
            angles[o::9, 1] = phi + b * _DELTA
        self.traj = integrate_radial_null_geodesic(metric, u, angles, s0=s0, tail_decades=tail_decades)
        self.n = n

    def _radius_along(self):
        x = self.traj.x
        return self.metric.radius(x[..., 0], x[..., 1])

    def affine_at_radius(self, r_coord):
        """Affine parameters where each congruence member crosses the radius."""
        r = self._radius_along()
        if r[:, 0].max() > r_coord or r[:, -1].min() < r_coord:
            raise ValueError(
                f"radius {r_coord} is outside the congruence window "
                f"[{r[:, 0].max():.3g}, {r[:, -1].min():.3g}]"
            )
        tau = np.log(self.traj.s)
        lr = np.log(r)
        target = math.log(r_coord)
        out = np.empty(r.shape[0])
        for i in range(r.shape[0]):
            out[i] = np.exp(np.interp(target, lr[i], tau))
        # Newton refinement on the interpolated trajectory: r* = (q - s) / 2, so
        # dr/ds = (1 - 2m/r) (v0 - v1) / 2
        lo, hi = self.traj.s[0], self.traj.s[-1]
        for _ in range(4):
            x_here, v_here = self.traj.interpolate_per_member(out)
            r_here = self.metric.radius(x_here[:, 0], x_here[:, 1])
            slope = (1.0 - 2.0 * self.metric.m / r_here) * (v_here[:, 0] - v_here[:, 1]) / 2.0
            step = (r_coord - r_here) / slope
            out = np.clip(out + step, lo, hi)
            if np.max(np.abs(step / out)) < 1e-13:
                break
        return out

    def cut(self, r_coord):
        """Points, velocities, tangents and curvature data of one sphere."""
        s_star = self.affine_at_radius(r_coord)
        n = self.n
        d = _DELTA
        x_all, v_all = self.traj.interpolate_per_member(s_star)
        P = x_all.reshape(n, 9, 4)
        V = v_all.reshape(n, 9, 4)

        Pc = P[:, _CENTER, :]
        L = V[:, _CENTER, :]
        T = _central_differences(P)  # (n, 2, 4)
        # second differences of the embedding, d_a d_b x
        D = np.empty((n, 2, 2, 4))
        D[:, 0, 0] = (P[:, 7] - 2 * Pc + P[:, 1]) / d**2
        D[:, 1, 1] = (P[:, 5] - 2 * Pc + P[:, 3]) / d**2
        D[:, 0, 1] = D[:, 1, 0] = (P[:, 8] - P[:, 6] - P[:, 2] + P[:, 0]) / (4 * d**2)

        ev = self.metric.at(Pc[:, 0], Pc[:, 1], Pc[:, 2], Pc[:, 3])
        g = ev.g
        cov = D + np.einsum("nkmu,nam,nbu->nabk", tensors.christoffel(ev), T, T)

        return SphereCut(self, s_star[_CENTER::9], Pc, L, T, cov, g)


@dataclass
class SphereCut:
    congruence: "Congruence"
    s_star: np.ndarray
    points: np.ndarray     # (n, 4)
    L: np.ndarray          # (n, 4) outgoing null generator (velocity normalization)
    T: np.ndarray          # (n, 2, 4) sphere tangents
    cov: np.ndarray        # (n, 2, 2, 4) nabla_{T_a} T_b
    g: np.ndarray          # (n, 4, 4)

    def induced_metric(self):
        return np.einsum("nmk,nam,nbk->nab", self.g, self.T, self.T)

    def conjugate_normal(self):
        """The unique future null normal with g(L, Lbar) = 2."""
        # rows g(T_1, .), g(T_2, .), g(L, .) of each point's normal system
        A = np.einsum("nam,nmk->nak", np.concatenate([self.T, self.L[:, None]], axis=1), self.g)
        # minimum-norm solutions of A sol = (0, 0, 2), all points at once
        sol = np.linalg.pinv(A)[..., 2] * 2.0
        if np.any(np.abs(np.einsum("nk,nk->n", A[:, 2], sol) - 2.0) > 1e-6):
            raise ValueError("degenerate cut: cannot normalize the conjugate normal")
        # one-parameter family sol + t L; fix t by the null condition
        t = -np.einsum("nm,nmk,nk->n", sol, self.g, sol) / 4.0
        return sol + t[:, None] * self.L

    def second_fundamental_forms(self):
        """(tr chi, chihat, tr chibar, chibarhat, induced metric)."""
        Lbar = self.conjugate_normal()
        chi = -np.einsum("nm,nabm->nab", np.einsum("nk,nkm->nm", self.L, self.g), self.cov)
        chibar = -np.einsum("nm,nabm->nab", np.einsum("nk,nkm->nm", Lbar, self.g), self.cov)
        q = self.induced_metric()
        qinv = np.linalg.inv(q)
        trchi = np.einsum("nab,nab->n", qinv, chi)
        trchibar = np.einsum("nab,nab->n", qinv, chibar)
        chihat = chi - 0.5 * q * trchi[:, None, None]
        chibarhat = chibar - 0.5 * q * trchibar[:, None, None]
        return trchi, chihat, trchibar, chibarhat, q


def area_radius(cut: SphereCut):
    """Fourth root of det([pi* round]^{-1}[g]) on gauge-fixed tangents.

    Tangent representatives are f_a d_1 + d_a with f_a chosen orthogonal to
    the null generator; the angular projection differentiates the congruence
    parameterization at fixed affine parameter.
    """
    con = cut.congruence
    n = cut.points.shape[0]
    # embedding-derivative columns at the center affine parameter
    s_members = np.repeat(cut.s_star, 9)
    xc, _ = con.traj.interpolate_per_member(s_members)
    dx = _central_differences(xc.reshape(n, 9, 4))
    # columns d_theta x, d_phi x and d_s x (= L) of each point's (4, 3) embedding Jacobian
    J = np.stack([dx[:, 0], dx[:, 1], cut.L], axis=-1)

    # tangents e_a + f_a d_1, with f_a making them orthogonal to the generator
    gv = np.einsum("nk,nkm->nm", cut.L, cut.g)
    va = np.zeros((n, 2, 4))
    va[:, 0, 2] = va[:, 1, 3] = 1.0
    va[:, :, 1] = -gv[:, 2:] / gv[:, 1:2]
    # angular parts of the least-squares solutions J c = v_a, all points at once
    dpi = np.einsum("nck,nak->nac", np.linalg.pinv(J), va)[..., :2]
    gmat = np.einsum("nam,nmk,nbk->nab", va, cut.g, va)
    pg = np.einsum("nac,ncd,nbd->nab", dpi, round_metric(cut.points[:, 2]), dpi)
    det = np.linalg.det(np.linalg.solve(pg, gmat))
    if np.any(det <= 0):
        raise ValueError("degenerate sphere: non-positive area determinant")
    return det**0.25


def hawking_mass(metric: MetricField, u, r_coord, quad):
    """Hawking mass of the constant-radius cut of the outgoing cone.

    ``quad`` is the (theta, phi) node count of the sphere quadrature; the
    cost grows with their product.
    """
    th, ph, w = sphere_quadrature(*quad)
    s0 = max(2.5, 0.3 * (2.0 * r_coord + u))
    con = Congruence(metric, u, th, ph, s0=s0, tail_decades=7.5)
    return hawking_mass_of_cut(con.cut(r_coord), w)


def hawking_mass_of_cut(cut: SphereCut, w):
    trchi, _, trchibar, _, q = cut.second_fundamental_forms()
    sin_th = np.sin(cut.points[:, 2])
    dets = np.linalg.det(q)
    if np.any(dets <= 0):
        raise ValueError("degenerate sphere metric")
    area_density = np.sqrt(dets) / sin_th
    area = float(np.sum(w * area_density))
    r_area = math.sqrt(area / (4.0 * math.pi))
    integral = float(np.sum(w * trchi * trchibar * area_density))
    return 0.5 * r_area * (1.0 + integral / (16.0 * math.pi))


# -- news tensors and the mass aspect ----------------------------------------


#: the (ell, em) modes whose angular data are written out in ``_angular_table``
HARMONIC_MODES = ((2, 0), (2, 1))


class _Angular(NamedTuple):
    """Angular data of one mode: Y, E, (1/2) div E, div div E and E.E."""

    Y: sp.Expr
    E: sp.ImmutableMatrix
    half_div: tuple
    div_div: sp.Expr
    square: sp.Expr


@cache
def _angular_table():
    """Exact angular data of every implemented mode, built on first use.

    Each entry is the literal whose ``srepr`` equals what ``sp.simplify``
    returns for it under sympy 1.14: Y from ``Znm`` expanded, E from the
    trace-free Hessian of Y, and the divergences and square of E with the
    round-sphere calculus of ``metrics``.  Keep every literal exactly as it is,
    the ``tan(theta)`` form of E(2, 1)'s theta-phi entry included: the trees
    downstream, and so the compiled bits, depend on the form and not only on
    the value (``tests/test_compiled_trees.py``).
    """
    sin, cos, tan = sp.sin, sp.cos, sp.tan
    r5, r15, rpi = sp.sqrt(5), sp.sqrt(15), sp.sqrt(sp.pi)
    e21_mixed = r15 * (-sin(2 * TH) + 2 * cos(2 * TH) * tan(TH)) * sin(PH) / (4 * rpi * tan(TH))
    return {
        (2, 0): _Angular(
            Y=r5 * (3 * cos(TH) ** 2 - 1) / (4 * rpi),
            E=sp.ImmutableMatrix([[3 * r5 * sin(TH) ** 2 / (4 * rpi), 0], [0, -3 * r5 * sin(TH) ** 4 / (4 * rpi)]]),
            half_div=(3 * r5 * sin(2 * TH) / (4 * rpi), sp.S.Zero),
            div_div=r5 * (6 - 9 * sin(TH) ** 2) / rpi,
            square=45 * sin(TH) ** 4 / (8 * sp.pi),
        ),
        (2, 1): _Angular(
            Y=-r15 * sin(2 * TH) * cos(PH) / (4 * rpi),
            E=sp.ImmutableMatrix([[r15 * sin(2 * TH) * cos(PH) / (4 * rpi), e21_mixed],
                                  [e21_mixed, -r15 * sin(TH) ** 3 * cos(PH) * cos(TH) / (2 * rpi)]]),
            half_div=(r15 * (1 - 2 * sin(TH) ** 2) * cos(PH) / (2 * rpi),
                      -r15 * (cos(PH - 2 * TH) - cos(PH + 2 * TH)) / (8 * rpi)),
            div_div=3 * r15 * (sin(PH - 2 * TH) - sin(PH + 2 * TH)) / (2 * rpi),
            # 15/16 before the sum: an integer times a bare sum would be distributed over it
            square=sp.Rational(15, 16) / sp.pi * (2 * (sin(2 * TH) - 2 * cos(2 * TH) * tan(TH)) ** 2 * sin(PH) ** 2
                                                 + 8 * sin(TH) ** 6 * cos(PH) ** 2) / (sin(TH) ** 2 * tan(TH) ** 2),
        ),
    }


def _angular(ell, em):
    """The table entry of mode (ell, em); any other mode is rejected first."""
    if (ell, em) not in HARMONIC_MODES:
        raise ValueError(f"harmonic modes {', '.join(map(str, HARMONIC_MODES))} are implemented, not ({ell}, {em})")
    return _angular_table()[ell, em]


def real_spherical_harmonic(ell, em):
    """Real spherical harmonic Y_(ell, em) on (theta, phi); the same object on every call."""
    return _angular(ell, em).Y


def tensor_harmonic(ell, em):
    """Trace-free symmetric spherical 2-tensor from a scalar harmonic.

    E = nabla nabla Y - ghat Lap Y / 2, read from ``_angular_table``.  Its
    literals must keep their ``srepr``: a tidier but equal tree compiles to
    different code and moves output bits.  The matrix is immutable and the
    same object on every call.
    """
    return _angular(ell, em).E


def news_compatible_field(amplitude, profile, mode=(2, 0), with_log=False):
    """Radiating perturbation compatible with the gauge structure.

    The spherical part carries the news; the mixed and long components are
    fixed by the angular and long-direction gauge relations (including the
    quadratic term), so cut geometry reproduces the boundary mass formulas.
    ``profile`` is a sympy expression in the spatial-face defining function;
    ``mode`` is one of ``HARMONIC_MODES``.  ``with_log=c`` adds c (1 + cos^2 theta)
    log rhoI to the long component and returns that coefficient; the term is not
    admissible alone.  In this chart the Hawking mass of the cuts is then
    m + (m - M_B) ln(r/|u|) + O(1/r), with M_B = m - c <1 + cos^2 theta> / 2 from
    ``bondi_mass_from_data``.  The same law holds for a log coefficient that the
    news drives, d_u c = |d_u h_AB|^2 / 4, with the M_B(u) of ``evolve_mass_aspect``:
    the Bondi mass loss is the coefficient of the log.
    """
    ang = _angular(*mode)
    A = sp.nsimplify(amplitude) * sp.sympify(profile)
    hmat = A * ang.E
    # A depends on rho0 alone and the angular operators are linear, so
    # div(A E) = A div E and div div(A E) = A div div E
    dA = RHO0**2 * sp.diff(A, RHO0)
    h11 = sp.simplify(A * A * ang.div_div / 2 - A * dA * ang.square / 2)
    log_coeff = 0
    if with_log:
        log_coeff = sp.nsimplify(with_log) * (1 + sp.cos(TH) ** 2)
        h11 = h11 + log_coeff * sp.log(RHOI)
    comps = {
        "22": hmat[0, 0],
        "23": hmat[0, 1],
        "33": hmat[1, 1],
        "12": A * ang.half_div[0],
        "13": A * ang.half_div[1],
        "11": h11,
    }
    return PerturbationField(comps, Weights(0.45, 0.3, 0.4, -0.1), label="news-compatible"), log_coeff


@dataclass
class NewsTensor:
    """Separable news: sum of retarded-time profiles times angular tensors."""

    modes: list                     # [(profile callable u -> array, E 2x2 sympy)]
    support: tuple                  # (u_start, u_end)

    def __post_init__(self):
        mats = [m for _, m in self.modes]
        for E in mats:
            if sp.simplify(sphere_trace(E)) != 0:
                raise ValueError("news angular part is not trace-free")
        # the angular factors Ek.El of every pair (k, l), and the double divergence of each Ek
        self._pairs = compile_fields((TH, PH), [sp.Matrix([[sphere_dot(Ek, El) for El in mats] for Ek in mats])])
        self._divdiv = compile_fields((TH, PH), [sp.Array([_double_divergence(E) for E in mats])])

    def squared_norm(self, u, theta, phi):
        """|N|^2 with round-metric contractions, on (u-grid) x (angular nodes)."""
        u = np.atleast_1d(np.asarray(u, dtype=float))
        amps = [np.asarray(p(u), dtype=float) for p, _ in self.modes]
        n = len(self.modes)
        ang = self._pairs(theta, phi)[0]
        out = np.zeros((len(u), len(theta)))
        for k in range(n):
            for l in range(n):
                out += np.outer(amps[k] * amps[l], ang[..., k, l])
        return out


def _double_divergence(mat):
    """nabla^a nabla^b T_ab on the round sphere, symbolic."""
    return sphere_trace(sphere_cov_vector(sphere_div_tensor(mat)))


@dataclass
class BondiReport:
    u: np.ndarray
    mass: np.ndarray              # M_B(u)
    flux: np.ndarray              # E(u)
    budget_residual: np.ndarray
    mass_aspect: np.ndarray       # (n_u, n_nodes)


def _cumulative_trapezoid(f, u):
    """Running trapezoid integral of ``f`` over ``u`` along the first axis, zero at u[0]."""
    du = np.diff(u).reshape((-1,) + (1,) * (f.ndim - 1))
    out = np.zeros_like(f)
    out[1:] = np.cumsum(0.5 * du * (f[1:] + f[:-1]), axis=0)
    return out


def evolve_mass_aspect(news: NewsTensor, m, u_grid, quad=(24, 48)) -> BondiReport:
    """Integrate the leading (1,1) transport law through the news flux.

    The mass-aspect density loses |N|^2 / 8 (``MASS_ASPECT_FLUX_COEFF``); its
    angular average gives the Bondi mass, whose drop balances the flux
    integral identically on the shared grids.
    """
    m = _mass(m)
    u = np.asarray(u_grid, dtype=float)
    if not (u[0] <= news.support[0] and news.support[1] <= u[-1]):
        raise ValueError("news support must lie inside the retarded-time grid")
    th, ph, w = sphere_quadrature(*quad)
    n2 = news.squared_norm(u, th, ph)
    mu = _cumulative_trapezoid(-MASS_ASPECT_FLUX_COEFF * n2, u)

    # divergence part of the aspect: -1/4 nabla nabla integral of the news
    aspect = m + mu
    angs = news._divdiv(th, ph)[0]
    for k, (p, _) in enumerate(news.modes):
        cum = _cumulative_trapezoid(np.asarray(p(u), dtype=float), u)
        aspect = aspect - 0.25 * np.outer(cum, angs[..., k])

    mass = m + (0.25 / math.pi) * (mu @ w)
    flux = (n2 @ w) / (32.0 * math.pi)
    budget = np.abs(mass - mass[0] + _cumulative_trapezoid(flux, u))
    return BondiReport(u, mass, flux, budget, aspect)


def bondi_mass_from_data(log_coeff, h_sphere, m):
    """Mass aspect and Bondi mass from radiation-face data.

    ``log_coeff`` is the log coefficient of the long-direction component
    (its boundary transport value is -1/2 of it), ``h_sphere`` the 2x2
    spherical part; the double-divergence term integrates to zero.  The
    aspect is sampled on the 24 x 48 nodes of ``sphere_quadrature()``.
    With log coefficient c f the mass is M_B = m - c <f> / 2.  In this chart the
    Hawking mass of the cuts does not tend to M_B: it is m + (m - M_B) ln(r/|u|) + O(1/r),
    so the mass loss m - M_B is the coefficient of its log.
    """
    m = _mass(m)
    th, ph, w = sphere_quadrature()
    transport = -0.5 * compile_fields((TH, PH), [sp.sympify(log_coeff)])(th, ph)[0]
    divdiv = np.zeros_like(th)
    if h_sphere is not None:
        divdiv = compile_fields((TH, PH), [_double_divergence(sp.Matrix(h_sphere))])(th, ph)[0]
    aspect = m + transport - 0.25 * divdiv
    mass = m + (0.25 / math.pi) * float(np.sum(w * transport))
    div_integral = float(np.sum(w * divdiv))
    return aspect, mass, div_integral


# -- static scattering solutions ----------------------------------------------


_R = sp.Symbol("R", positive=True)
_LOG = sp.log((1 - _R) / (1 + _R))
#: closed-form static mode solutions on the temporal face, for ell = 0, 1, 2, in R
SCATTERING_SOLUTIONS = (
    _LOG / _R,
    _LOG / _R**2 + 2 / _R,
    (3 - _R**2) / (2 * _R**3) * _LOG + 3 / _R**2,
)


def _static_mode(ell):
    if ell not in (0, 1, 2):
        raise ValueError("modes 0, 1, 2 are implemented")
    return SCATTERING_SOLUTIONS[ell]


def _on_static_chart(expr, R):
    """``expr`` compiled and evaluated at ``R``, which must lie in 0 < R < 1."""
    R = np.asarray(R, dtype=float)
    if np.any((R <= 0) | (R >= 1)):
        raise ValueError("the static chart needs 0 < R < 1")
    if np.any(R > 1 - 1e-6):
        warnings.warn("evaluating a static solution within 1e-6 of the pole")
    return compile_fields((_R,), [expr])(R)[0]


def scattering_solution(ell, R):
    """Closed-form static mode solutions on the temporal face."""
    return _on_static_chart(_static_mode(ell), R)


def scattering_operator_residual(ell, R):
    """|static mode operator applied to the closed form| at R, differentiated exactly."""
    u = _static_mode(ell)
    op = -sp.diff(_R**2 * (1 - _R**2) * sp.diff(u, _R), _R) / _R**2 + ell * (ell + 1) / _R**2 * u + 2 * u
    return float(abs(_on_static_chart(op, R)))


def scattering_limit_combination():
    """Exact limit R -> 1- of the quarter/half/quarter combination, in which the logarithms cancel."""
    u0, u1, u2 = SCATTERING_SOLUTIONS
    return float(sp.limit((u0 - 2 * u1 + u2) / 4, _R, 1, "-"))
