import math
import warnings

import numpy as np
import pytest
import sympy as sp

from nullinf import bondi as bd
from nullinf import tensors as tn
from nullinf.compactify import BoundaryTriple, null_frame_coefficients, tortoise
from nullinf.metrics import (PH, RHO0, RHOI, TH, ROUND_INV, MetricField, PerturbationField, compile_fields,
                             sphere_dot)

warnings.filterwarnings("ignore", message="tail truncation")

M = 0.1


@pytest.fixture(scope="module")
def schwarzschild_cut():
    g = MetricField(M)
    th, ph, w = bd.sphere_quadrature(4, 6)
    con = bd.Congruence(g, -20.0, th, ph, s0=15.0)
    return con, con.cut(50.0), w


@pytest.fixture(scope="module")
def news_metric():
    h, _ = bd.news_compatible_field(0.1, 1 / (1 + 5 * RHO0))
    return MetricField(M, h), h


@pytest.fixture(scope="module")
def news_congruence(news_metric):
    gp, _ = news_metric
    th, ph, w = bd.sphere_quadrature(8, 12)
    return bd.Congruence(gp, -20.0, th, ph, s0=20.0), w


# -- cut geometry ---------------------------------------------------------------


def test_schwarzschild_area_radius_exact(schwarzschild_cut):
    _, cut, _ = schwarzschild_cut
    assert np.max(np.abs(bd.area_radius(cut) - 50.0)) < 1e-10


def test_schwarzschild_curvature_product(schwarzschild_cut):
    _, cut, _ = schwarzschild_cut
    trchi, chihat, trchibar, chibarhat, q = cut.second_fundamental_forms()
    expect = -(4.0 / 50.0**2) * (1.0 - 2.0 * M / 50.0)
    assert np.max(np.abs(trchi * trchibar - expect)) < 1e-12
    qinv = np.linalg.inv(q)
    assert np.max(np.abs(np.einsum("nab,nab->n", qinv, chihat))) < 1e-10
    assert np.max(np.abs(np.einsum("nab,nab->n", qinv, chibarhat))) < 1e-10


def test_schwarzschild_trchi_closed_form(schwarzschild_cut):
    # with the velocity normalization, tr chi = v0 (1 - 2m/r) / r and the
    # conjugate trace balances it to the closed-form product
    _, cut, _ = schwarzschild_cut
    trchi, _, trchibar, _, _ = cut.second_fundamental_forms()
    v0 = cut.L[:, 0]
    r = 50.0
    assert np.max(np.abs(trchi - v0 * (1 - 2 * M / r) / r)) < 1e-13
    assert np.max(np.abs(trchibar + 4.0 / (v0 * r))) < 1e-13


def test_conjugate_normal_normalization(schwarzschild_cut):
    _, cut, _ = schwarzschild_cut
    Lbar = cut.conjugate_normal()
    for i in range(cut.points.shape[0]):
        gi = cut.g[i]
        assert abs(cut.L[i] @ gi @ Lbar[i] - 2.0) < 1e-11
        assert abs(Lbar[i] @ gi @ Lbar[i]) < 1e-11
        assert abs(cut.L[i] @ gi @ cut.L[i]) < 1e-11


def _conjugate_normal_per_point(cut):
    """Reference: one least-squares solve per point."""
    out = np.empty((cut.points.shape[0], 4))
    for i, gi in enumerate(cut.g):
        A = np.stack([cut.T[i, 0] @ gi, cut.T[i, 1] @ gi, cut.L[i] @ gi])
        sol = np.linalg.lstsq(A, np.array([0.0, 0.0, 2.0]), rcond=None)[0]
        out[i] = sol - (sol @ gi @ sol) / 4.0 * cut.L[i]
    return out


def _area_radius_per_point(cut):
    """Reference: the least-squares angular projections solved one point at a time."""
    n = cut.points.shape[0]
    xc = cut.congruence.traj.interpolate_per_member(np.repeat(cut.s_star, 9))[0].reshape(n, 9, 4)
    out = np.empty(n)
    for i, gi in enumerate(cut.g):
        J = np.stack([(xc[i, 7] - xc[i, 1]) / (2 * bd._DELTA), (xc[i, 5] - xc[i, 3]) / (2 * bd._DELTA), cut.L[i]], axis=1)
        gv = cut.L[i] @ gi
        va = np.zeros((2, 4))
        va[0, 2] = va[1, 3] = 1.0
        va[:, 1] = -gv[2:] / gv[1]
        dpi = np.stack([np.linalg.lstsq(J, va[a], rcond=None)[0][:2] for a in range(2)])
        ghat = np.diag([1.0, math.sin(cut.points[i, 2]) ** 2])
        out[i] = np.linalg.det(np.linalg.solve(dpi @ ghat @ dpi.T, va @ gi @ va.T)) ** 0.25
    return out


def test_batched_cut_solves_match_per_point_lstsq(schwarzschild_cut):
    _, cut, _ = schwarzschild_cut
    assert np.max(np.abs(cut.conjugate_normal() - _conjugate_normal_per_point(cut))) < 1e-12
    assert np.max(np.abs(bd.area_radius(cut) / _area_radius_per_point(cut) - 1.0)) < 1e-12


def test_hawking_mass_schwarzschild_radii():
    g = MetricField(M)
    for rc in (10.0, 50.0, 200.0):
        mh = bd.hawking_mass(g, u=-5.0, r_coord=rc, quad=(6, 8))
        assert abs(mh - M) < 1e-8
    assert abs(bd.hawking_mass(MetricField(0.0), u=-5.0, r_coord=50.0, quad=(4, 6))) < 1e-10


def test_area_radius_decay_for_tracefree_perturbation(news_congruence):
    con, _ = news_congruence
    radii = np.array([100.0, 300.0, 1000.0])
    devs = []
    for rc in radii:
        cut = con.cut(rc)
        devs.append(np.max(np.abs(bd.area_radius(cut) - rc)))
    slope = np.polyfit(np.log(radii), np.log(devs), 1)[0]
    # deviation r_area - r decays at least like the good-component class
    assert slope <= -(0.4 - 0.1) + 1.0  # relative to the r-scale: dev/r ~ r^(slope-1)
    rel = np.array(devs) / radii
    rel_slope = np.polyfit(np.log(radii), np.log(rel), 1)[0]
    assert rel_slope <= -(0.4 - 0.1)


def test_area_radius_outgoing_derivative_fit(news_congruence):
    con, _ = news_congruence
    radii = np.array([200.0, 400.0, 800.0, 1600.0, 3200.0])
    vals = []
    for rc in radii:
        cut = con.cut(rc)
        ra = bd.area_radius(cut)
        cut2 = con.cut(rc * 1.02)
        ra2 = bd.area_radius(cut2)
        ds = cut2.s_star - cut.s_star
        v0 = cut.L[:, 0]
        d0r = (ra2 - ra) / ds / v0
        vals.append(np.mean(d0r))
    coef = np.polyfit(1.0 / radii, vals, 1)
    assert coef[1] == pytest.approx(0.5, abs=5e-4)
    assert coef[0] == pytest.approx(-M, rel=0.05)


def test_chibarhat_matches_news(news_metric, news_congruence):
    gp, h = news_metric
    con, _ = news_congruence
    E = bd.tensor_harmonic(2, 0)
    dA = sp.lambdify((RHO0, TH, PH), sp.diff(sp.nsimplify(0.1) / (1 + 5 * RHO0), RHO0) * RHO0**2 * E[0, 0], "numpy")
    radii = np.array([100.0, 400.0, 1600.0])
    rel = []
    for rc in radii:
        cut = con.cut(rc)
        _, _, _, chibarhat, _ = cut.second_fundamental_forms()
        # rescale the conjugate form to the generator normalized by unit
        # area-radius advance (our generator is the affine velocity)
        chibarhat = chibarhat * (cut.L[:, 0] / 2.0)[:, None, None]
        rho0 = -1.0 / cut.points[:, 1]
        news_th = dA(rho0, cut.points[:, 2], cut.points[:, 3])
        ra = bd.area_radius(cut)
        target = ra * news_th
        big = np.abs(target) > 0.1 * np.max(np.abs(target))
        rel.append(np.max(np.abs((chibarhat[:, 0, 0] - target)[big] / target[big])))
    slope = np.polyfit(np.log(radii), np.log(rel), 1)[0]
    assert slope < -0.8


def test_hawking_approaches_bondi(news_metric, news_congruence):
    gp, h = news_metric
    con, w = news_congruence
    _, mass_b, _ = bd.bondi_mass_from_data(0, None, M)
    radii = np.array([100.0, 300.0, 1000.0, 3000.0])
    devs = []
    for rc in radii:
        mh = bd.hawking_mass_of_cut(con.cut(rc), w)
        devs.append(abs(mh - mass_b))
    assert all(devs[i + 1] < devs[i] for i in range(len(devs) - 1))
    slope = np.polyfit(np.log(radii), np.log(devs), 1)[0]
    assert slope <= -(0.3 - 0.1)


def test_log_term_grows_the_hawking_mass_and_bondi_mass_from_data_reads_its_coefficient():
    # h11 carrying c (1 + cos^2 theta) log rhoI: the Hawking mass of the cuts grows like
    # (c <1 + cos^2 theta> / 2) ln(r / |u|) above m, to O(1/r), while bondi_mass_from_data
    # returns m - c <1 + cos^2 theta> / 2; in this chart the two routes differ
    h, c = bd.news_compatible_field(0.1, 1 / (1 + 5 * RHO0), with_log=0.03)
    g = MetricField(M, h)
    th, ph, w = bd.sphere_quadrature(4, 6)
    slope = 0.03 * (4 / 3) / 2
    assert bd.bondi_mass_from_data(c, None, M)[1] == pytest.approx(M - slope, abs=1e-15)
    radii = np.array([100.0, 300.0, 1000.0])
    # the residual times r / 100, measured when this law was first pinned
    for u, scaled_residual in ((-20.0, -2.292e-5), (-40.0, -2.830e-5)):
        con = bd.Congruence(g, u, th, ph, s0=20.0)
        mh = np.array([bd.hawking_mass_of_cut(con.cut(r), w) for r in radii])
        scaled = (mh - M - slope * np.log(radii / -u)) * radii / 100.0
        assert np.ptp(scaled) <= 2.5e-4 * abs(scaled_residual)
        assert scaled == pytest.approx(scaled_residual, rel=1e-3)


def test_log_coefficient_of_the_hawking_mass_is_the_bondi_mass_loss():
    # h_AB = A(rho0) E and h_11 carries c log rhoI with d_u c = (1/4)|d_u (A E)|^2, the
    # coefficient of test_flux_coefficient_from_the_gauged_field_equation: in this chart
    # m_H(r, u) = m + (m - M_B(u)) ln(r/|u|) + O(1/r), M_B from the news by evolve_mass_aspect
    sigma = sp.Symbol("sigma", positive=True)
    A = 1 / (10 * (1 + 5 * RHO0))
    E = bd.tensor_harmonic(2, 0)
    c = sp.Rational(1, 4) * sphere_dot(E, E) * sp.integrate((sp.diff(A, RHO0).subs(RHO0, sigma) * sigma) ** 2,
                                                            (sigma, 0, RHO0))
    h, _ = bd.news_compatible_field(1, A)

    # the news rho0^2 A'(rho0) at rho0 = -1/u, from u = -2560 on a grid through u = -40 and -10
    def news_profile(u):
        rho0 = -1.0 / np.asarray(u, dtype=float)
        return -0.5 * (rho0 / (1.0 + 5.0 * rho0)) ** 2

    ug = -np.geomspace(2560.0, 10.0, 4097)
    rep = bd.evolve_mass_aspect(bd.NewsTensor([(news_profile, E)], (ug[0], ug[-1])), M, ug, quad=(4, 6))
    th, ph, w = bd.sphere_quadrature(4, 6)
    radii = np.geomspace(100.0, 3000.0, 6)

    def gaps(scale, u):
        """|beta / (m - M_B(u)) - 1| and |a - m| of the fits a + beta ln(r/|u|) + sum_(k <= K) d_k / r^k, K = 0, 1, 2."""
        comps = dict(h.comps, **{"11": h.comps["11"] + scale * c * sp.log(RHOI)})
        con = bd.Congruence(MetricField(M, PerturbationField(comps, h.weights)), u, th, ph, s0=20.0)
        mh = np.array([bd.hawking_mass_of_cut(con.cut(r), w) for r in radii])
        loss = M - np.interp(u, ug, rep.mass)
        out = []
        for K in range(3):
            X = np.stack([np.ones_like(radii), np.log(radii / -u)] + [radii**-k for k in range(1, K + 1)], axis=1)
            a, beta = np.linalg.lstsq(X, mh, rcond=None)[0][:2]
            out.append((abs(beta / loss - 1.0), abs(a - M)))
        return out

    # measured gaps of the K = 2 fit: 1.5e-4 at u = -40, 1.3e-5 at u = -10
    tol = 1e-3
    for u in (-40.0, -10.0):
        fits = gaps(1.0, u)
        beta_gaps = [g for g, _ in fits]
        assert beta_gaps[0] > beta_gaps[1] > beta_gaps[2]
        assert beta_gaps[2] < tol and fits[2][1] < 1e-9
    # a flux coefficient 1% off moves the log coefficient 1% off the mass loss
    for scale in (0.99, 1.01):
        assert gaps(scale, -10.0)[2][0] > 5 * tol


# -- news evolution ---------------------------------------------------------------


def gaussian_profile(center, width=1.0, cut=10.0):
    def f(u):
        u = np.asarray(u, dtype=float)
        z = (u - center) / width
        return np.exp(-(z**2)) * (np.abs(z) < cut)

    return f


def test_zero_news_keeps_mass_constant():
    news = bd.NewsTensor([(lambda u: np.zeros_like(np.asarray(u)), bd.tensor_harmonic(2, 0))], (-1.0, 1.0))
    rep = bd.evolve_mass_aspect(news, M, np.linspace(-5, 5, 101))
    assert np.max(np.abs(rep.mass - M)) == 0.0
    assert np.max(rep.flux) == 0.0


def test_mass_loss_budget_two_profiles():
    E20 = bd.tensor_harmonic(2, 0)
    E21 = bd.tensor_harmonic(2, 1)
    profiles = [
        bd.NewsTensor([(gaussian_profile(-4.0, 0.8), E20)], (-13.0, 5.0)),
        bd.NewsTensor(
            [
                (gaussian_profile(-6.0, 1.2), E20),
                (lambda u: 0.5 * np.sin(np.asarray(u)) * gaussian_profile(-2.0, 1.5)(u), E21),
            ],
            (-19.0, 11.0),
        ),
    ]
    for news in profiles:
        ug = np.linspace(-20.0, 12.0, 400)
        rep = bd.evolve_mass_aspect(news, M, ug)
        assert np.max(rep.budget_residual) < 1e-6
        # nonincreasing mass with nonnegative flux
        assert np.all(np.diff(rep.mass) <= 1e-15)
        assert np.all(rep.flux >= 0.0)


def test_mass_constant_outside_support():
    news = bd.NewsTensor([(gaussian_profile(-5.0, 0.7, cut=5.0), bd.tensor_harmonic(2, 0))], (-8.5, -1.5))
    ug = np.linspace(-20.0, 10.0, 601)
    rep = bd.evolve_mass_aspect(news, M, ug)
    before = ug <= -9.0
    after = ug >= -1.0
    assert np.ptp(rep.mass[before]) < 1e-15
    assert np.ptp(rep.mass[after]) < 1e-15
    assert rep.mass[0] == M


def test_flux_coefficient_against_hand_integration():
    # single mode with Gaussian profile: the angular norm and the time
    # integral are known in closed form, fixing the transport coefficient
    E = bd.tensor_harmonic(2, 0)
    expr = sum(
        ROUND_INV[a, c] * ROUND_INV[b, d] * E[a, b] * E[c, d]
        for a in range(2) for b in range(2) for c in range(2) for d in range(2)
    ) * sp.sin(TH)
    angular = float(sp.integrate(sp.integrate(expr, (TH, 0, sp.pi)), (PH, 0, 2 * sp.pi)))
    time_integral = math.sqrt(math.pi / 2.0)  # integral of exp(-2 z^2)
    expected_drop = angular * time_integral / (32.0 * math.pi)

    news = bd.NewsTensor([(gaussian_profile(-5.0), E)], (-16.0, 6.0))
    ug = np.linspace(-18.0, 8.0, 1001)
    rep = bd.evolve_mass_aspect(news, M, ug)
    assert rep.mass[0] - rep.mass[-1] == pytest.approx(expected_drop, rel=1e-9)


def test_mass_aspect_pointwise_vs_mean():
    # the divergence term moves the aspect around but not its average
    E = bd.tensor_harmonic(2, 0)
    news = bd.NewsTensor([(gaussian_profile(-5.0), E)], (-16.0, 6.0))
    ug = np.linspace(-18.0, 8.0, 301)
    rep = bd.evolve_mass_aspect(news, M, ug, quad=(16, 24))
    th, ph, w = bd.sphere_quadrature(16, 24)
    mean = rep.mass_aspect @ w / (4.0 * math.pi)
    assert np.max(np.abs(mean - rep.mass)) < 1e-12
    assert np.ptp(rep.mass_aspect[-1]) > 1e-3  # pointwise structure survives


# -- boundary data mass -------------------------------------------------------------


def test_harmonics_are_memoised_and_the_tensor_cannot_be_mutated():
    E = bd.tensor_harmonic(2, 0)
    assert bd.tensor_harmonic(2, 0) is E
    assert bd.real_spherical_harmonic(2, 0) is bd.real_spherical_harmonic(2, 0)
    with pytest.raises(TypeError, match="Cannot set values"):
        E[0, 0] = 0


def test_simplify_runs_once_per_news_field_and_never_for_a_harmonic(monkeypatch):
    calls = []
    simplify = sp.simplify
    monkeypatch.setattr(sp, "simplify", lambda e: calls.append(e) or simplify(e))
    bd._angular_table.cache_clear()
    for ell, em in bd.HARMONIC_MODES:
        bd.tensor_harmonic(ell, em)
    assert calls == []
    bd.news_compatible_field(0.1, 1 / (1 + 5 * RHO0))
    assert len(calls) == 1


@pytest.mark.parametrize("call", [bd.real_spherical_harmonic, bd.tensor_harmonic,
                                  lambda ell, em: bd.news_compatible_field(0.1, 1, mode=(ell, em))])
@pytest.mark.parametrize("mode", [(3, 0), (2, 2), (2, -1)])
def test_a_mode_outside_the_table_is_rejected_before_any_sympy_work(monkeypatch, call, mode):
    monkeypatch.setattr(bd, "sp", None)
    monkeypatch.setattr(bd, "_angular_table", None)
    with pytest.raises(ValueError, match=r"^harmonic modes \(2, 0\), \(2, 1\) are implemented, not "):
        call(*mode)


@pytest.mark.parametrize("ell, em", bd.HARMONIC_MODES)
def test_double_divergence_of_tensor_harmonic_closed_form(ell, em):
    # nabla^a nabla^b (nabla_a nabla_b Y - ghat_ab Lap Y / 2) = (L^2 / 2 - L) Y with L = l (l + 1)
    big_l = ell * (ell + 1)
    th, ph, _ = bd.sphere_quadrature(16, 24)
    divdiv, y = compile_fields(
        (TH, PH), [bd._double_divergence(bd.tensor_harmonic(ell, em)), bd.real_spherical_harmonic(ell, em)]
    )(th, ph)
    assert np.max(np.abs(divdiv - (big_l**2 / 2 - big_l) * y)) < 1e-12


def test_bondi_mass_trivial_data():
    _, mass, divint = bd.bondi_mass_from_data(0, None, M)
    assert mass == M and divint == 0.0


def test_bondi_mass_pure_mode():
    E = bd.tensor_harmonic(2, 0)
    aspect, mass, divint = bd.bondi_mass_from_data(0, E, M)
    assert mass == pytest.approx(M, abs=1e-14)
    assert abs(divint) < 1e-10
    assert np.ptp(aspect) > 1e-3


def test_log_coefficient_transport_value():
    # r d_0 h_11 at the face from h_11 = c log rhoI, through the frame matrix
    c = 0.8
    for m in (0.0, 0.25):
        for rhoI in (1e-3, 1e-5):
            mat = null_frame_coefficients(BoundaryTriple(0.01, rhoI, 0.0, "past"), m)
            # d_0 (c log rhoI) = c * (coefficient of rhoI d/drhoI); r = 1/(rho0 rhoI)
            val = c * mat[0, 1] / (0.01 * rhoI)
            assert val == pytest.approx(-c / 2.0, rel=3e-3 if m else 1e-12)
    aspect, mass, _ = bd.bondi_mass_from_data(c, None, M)
    assert mass == pytest.approx(M - c / 2.0, abs=1e-14)


@pytest.mark.parametrize("mode", [(2, 0), (2, 1)])
@pytest.mark.parametrize("profile", [1 / (10 * (1 + 5 * RHO0)), RHO0**2 * sp.exp(-RHO0) / 20])
def test_flux_coefficient_from_the_gauged_field_equation(mode, profile):
    # h_AB = A(rho0) E and h_11 = c log rhoI with d_u c = (1/4)|d_u (A E)|^2
    # (u = s = -1/rho0, so d_u = rho0^2 d/drho0): the O(r) parts of the two
    # leading (1,1) terms cancel.  With the transport value -c/2 of the log
    # term this is d_u mu = -(1/8)|N|^2, the mass-aspect flux coefficient.
    sigma = sp.Symbol("sigma", positive=True)
    E = bd.tensor_harmonic(*mode)
    dA = sp.diff(profile, RHO0).subs(RHO0, sigma)
    c = sp.Rational(1, 4) * sphere_dot(E, E) * sp.integrate(dA**2 * sigma**2, (sigma, 0, RHO0))
    h = PerturbationField({"22": profile * E[0, 0], "23": profile * E[0, 1], "33": profile * E[1, 1],
                           "11": c * sp.log(RHOI)})
    s = -20.0
    r = np.array([1e4, 1e5])
    _, (t1, t2) = tn.gauged_residual_11(h, M, s + 2 * tortoise(r, M), s, 1.1, 0.7)

    def growth(t):  # log-log slope in r
        return math.log10(abs(t[1] / t[0]))

    assert growth(t2) == pytest.approx(1.0, abs=1e-9)
    assert abs(growth(t1 + t2)) < 0.01 and abs(t1[1] + t2[1]) < 1e-4 * abs(t2[1])
    # t1 is linear in h_11: a coefficient 1% off leaves a remainder growing like r
    for k in (0.99, 1.01):
        assert growth(k * t1 + t2) > 0.95
    # d_u mu = (transport value -1/2) * (d_u c = |N|^2 / 4)
    assert -bd.MASS_ASPECT_FLUX_COEFF == -0.5 * 0.25


def test_bondi_mass_with_log_and_mode():
    E = bd.tensor_harmonic(2, 0)
    log_coeff = sp.nsimplify(0.4) * (1 + sp.cos(TH) ** 2)
    aspect, mass, divint = bd.bondi_mass_from_data(log_coeff, E, M)
    # average of (1 + cos^2) over the sphere is 4/3
    assert mass == pytest.approx(M - 0.5 * 0.4 * 4.0 / 3.0, abs=1e-12)
    assert abs(divint) < 1e-10


# -- static scattering solutions -------------------------------------------------------


def test_scattering_limit():
    val = bd.scattering_limit_combination()
    assert val == pytest.approx(-0.25, abs=1e-6)


def test_scattering_operator_residuals():
    for ell in (0, 1, 2):
        assert bd.scattering_operator_residual(ell, 0.5) < 1e-8


def test_scattering_small_radius_limit():
    assert bd.scattering_solution(0, 1e-5) == pytest.approx(-2.0, abs=1e-6)


def _numpy_scattering_solution(ell, R):
    """The static mode solutions written out in numpy: the reference for the compiled closed forms."""
    L = np.log((1.0 - R) / (1.0 + R))
    return [L / R, L / R**2 + 2.0 / R, (3.0 - R**2) / (2.0 * R**3) * L + 3.0 / R**2][ell]


def test_scattering_solutions_match_the_numpy_closed_forms():
    R = np.concatenate([np.linspace(1e-3, 0.999, 9991), 1.0 - np.geomspace(1e-3, 1e-7, 41)])
    with pytest.warns(UserWarning, match="pole"):
        got = [bd.scattering_solution(ell, R) for ell in range(3)]
    for ell in (0, 1):
        assert np.array_equal(got[ell], _numpy_scattering_solution(ell, R))
    # for ell = 2 two terms near 3 / R^2 cancel to about -4 R^2 / 15, so round-off
    # grows as R falls; the largest difference on this grid is 2.1e-11, at R = 0.1
    want = _numpy_scattering_solution(2, R)
    far = R >= 0.1
    assert np.max(np.abs(got[2][far] - want[far]) / np.abs(want[far])) <= 2.2e-11


def test_scattering_pole_warning():
    with pytest.warns(UserWarning):
        bd.scattering_solution(0, 1.0 - 1e-8)
    with pytest.raises(ValueError):
        bd.scattering_solution(1, 1.2)
