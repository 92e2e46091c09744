import inspect
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import sympy as sp

import nullinf
from nullinf import metrics
from nullinf import tensors as tn
from nullinf.bondi import news_compatible_field
from nullinf.compactify import tortoise
from nullinf.metrics import (
    _COMP_KEYS,
    _IDX,
    RHO0,
    RHOI,
    RR,
    PH,
    Q,
    S,
    ROUND_INV,
    ROUND_METRIC,
    TH,
    MetricField,
    PerturbationField,
    _diff_ops,
    compile_fields,
    manufactured_suite,
    schwarzschild_exact,
)
from nullinf.leading_terms import excess_decay_slopes


def random_points(rng, n, m, rmin=5.0, rmax=1e4):
    rstar = tortoise(np.exp(rng.uniform(np.log(rmin), np.log(rmax), n)), m)
    t = rng.uniform(-0.5, 0.5, n) * rstar
    th = np.arccos(rng.uniform(-0.9, 0.9, n))
    ph = rng.uniform(0.0, 2.0 * np.pi, n)
    return t + rstar, t - rstar, th, ph


# -- exact closed forms ------------------------------------------------------


def test_schwarzschild_exact_golden_values():
    ex = schwarzschild_exact(10.0, 1.2, 1.0)
    assert ex.gamma[0, 0, 0, 0] == pytest.approx(0.01, rel=1e-14)
    assert ex.riemann[0, 0, 0, 0, 1] == pytest.approx(-8e-4, rel=1e-14)
    assert np.max(np.abs(ex.ricci)) == 0.0


def test_schwarzschild_exact_massless_table():
    th = 0.9
    ex = schwarzschild_exact(7.0, th, 0.0)
    g = ex.gamma[0]
    ghat = np.array([[1.0, 0.0], [0.0, math.sin(th) ** 2]])
    expected = np.zeros((4, 4, 4))
    for a in (2, 3):
        for b in (2, 3):
            expected[0, a, b] = -7.0 * ghat[a - 2, b - 2]
            expected[1, a, b] = 7.0 * ghat[a - 2, b - 2]
    for c in (2, 3):
        expected[c, 0, c] = expected[c, c, 0] = 0.5 / 7.0
        expected[c, 1, c] = expected[c, c, 1] = -0.5 / 7.0
    expected[2, 3, 3] = -math.sin(th) * math.cos(th)
    expected[3, 2, 3] = expected[3, 3, 2] = math.cos(th) / math.sin(th)
    assert np.max(np.abs(g - expected)) < 1e-14


def test_christoffel_matches_exact_table():
    rng = np.random.default_rng(11)
    for m in (0.0, 0.1, 0.4):
        q, s, th, ph = random_points(rng, 50, m)
        mf = MetricField(m)
        ev = mf.at(q, s, th, ph)
        ex = schwarzschild_exact(ev.r, th, m)
        gam = tn.christoffel(ev)
        scale = np.maximum(np.abs(ex.gamma), 1e-30)
        assert np.max(np.abs(gam - ex.gamma) / (1.0 + scale)) < 1e-10
        riem, ric = tn.riemann_ricci(ev)
        assert np.max(np.abs(riem - ex.riemann) / (1.0 + np.abs(ex.riemann))) < 1e-10
        assert np.max(np.abs(ric)) < 1e-9


def test_torsion_free_and_bianchi():
    rng = np.random.default_rng(5)
    h = manufactured_suite()[2]
    mf = MetricField(0.2, h)
    q, s, th, ph = random_points(rng, 20, 0.2, rmin=20.0, rmax=500.0)
    ev = mf.at(q, s, -th + np.pi, ph)
    gam = tn.christoffel(ev)
    assert np.max(np.abs(gam - np.einsum("...knm->...kmn", gam))) < 1e-12
    riem, _ = tn.riemann_ricci(ev)
    bianchi = (
        riem
        + np.einsum("...kmnl->...klmn", riem)
        + np.einsum("...knlm->...klmn", riem)
    )
    assert np.max(np.abs(bianchi)) < 1e-8


def test_metric_compatibility():
    rng = np.random.default_rng(9)
    h = manufactured_suite()[4]
    mf = MetricField(0.25, h)
    q, s, th, ph = random_points(rng, 30, 0.25, rmin=10.0, rmax=1e3)
    ev = mf.at(q, s, th, ph)
    assert np.max(np.abs(tn.covariant_metric_derivative(ev))) < 1e-8


def test_ricci_vanishes_wide_range():
    rng = np.random.default_rng(21)
    for m in (0.0, 0.1, 0.4):
        q, s, th, ph = random_points(rng, 40, m, rmin=3.0, rmax=1e4)
        ev = MetricField(m).at(q, s, th, ph)
        _, ric = tn.riemann_ricci(ev)
        assert np.max(np.abs(ric)) < 1e-9


# -- gauge 1-form -------------------------------------------------------------


def test_gauge_oneform_vanishes_on_background():
    mf = MetricField(0.3)
    ev = mf.at(np.array([250.0]), np.array([-30.0]), np.array([1.0]), np.array([0.3]))
    assert np.max(np.abs(tn.gauge_oneform(ev, ev))) < 1e-12


def test_gauge_oneform_leading_term_h00():
    h = PerturbationField({"00": RHO0 ** sp.Rational(3, 5) * RHOI})
    res = excess_decay_slopes(h, 0.2, line_ids=["Upsilon_0"])
    assert len(res) == 1 and res[0].passed


def test_gauge_oneform_linear_in_small_h():
    h = manufactured_suite()[2]
    m = 0.2
    bg = MetricField(m)
    q, s, th, ph = (np.array([300.0]), np.array([-40.0]), np.array([1.1]), np.array([0.5]))
    ev_bg = bg.at(q, s, th, ph)

    def ups_at(eps):
        scaled = PerturbationField({k: eps * v for k, v in h.comps.items()}, h.weights)
        ev = MetricField(m, scaled).at(q, s, th, ph)
        return tn.gauge_oneform(ev, ev_bg)

    u1 = ups_at(1e-3)
    u2 = ups_at(5e-4)
    ratio = np.abs(u1) / np.maximum(np.abs(u2), 1e-300)
    big = np.abs(u1) > 1e-12
    assert np.allclose(ratio[big], 2.0, atol=5e-3)


# -- trace reversal and modified gradient -------------------------------------


def test_trace_reversal_properties():
    rng = np.random.default_rng(2)
    mf = MetricField(0.25, manufactured_suite()[1])
    q, s, th, ph = random_points(rng, 25, 0.25, rmin=8.0, rmax=200.0)
    ev = mf.at(q, s, th, ph)
    T = rng.normal(size=ev.g.shape)
    T = 0.5 * (T + np.swapaxes(T, -1, -2))
    GT = tn.trace_reversal(ev.g, T)
    assert np.max(np.abs(tn.trace_reversal(ev.g, ev.g) + ev.g)) < 1e-9
    assert np.max(np.abs(tn.trace_reversal(ev.g, GT) - T)) < 1e-9
    ginv = ev.ginv
    tr = np.einsum("...mn,...mn->...", ginv, T)
    trG = np.einsum("...mn,...mn->...", ginv, GT)
    assert np.max(np.abs(trG + tr)) < 1e-9


def test_modified_gradient_correction_matches_direct_matrix():
    # omega = ds at r = 10, m = 0, gamma1 = 1, gamma2 = 0
    m, g1, g2 = 0.0, 1.0, 0.0
    mf = MetricField(m)
    r = 10.0
    t = 37.0
    q, s = t + r, t - r
    ev = mf.at(np.array([q]), np.array([s]), np.array([1.3]), np.array([0.2]))
    omega = np.zeros((1, 4))
    omega[0, 1] = 1.0
    got = tn.modified_gradient_correction(g1, g2, ev, omega)
    # direct evaluation: -2 g1 (d rho_t / rho_t) sym omega with rho_t = 1/t
    a = np.array([-0.5 / t, -0.5 / t, 0.0, 0.0])
    expected = -2.0 * g1 * 0.5 * (np.outer(a, omega[0]) + np.outer(omega[0], a))
    assert np.max(np.abs(got[0] - expected)) < 1e-14
    # the only nonzero slots are the (q,s) pair and the (s,s) entry
    assert got[0, 0, 1] == pytest.approx(g1 / (2.0 * t))
    assert got[0, 1, 1] == pytest.approx(g1 / t)


def test_modified_gradient_gamma2_term():
    m, g1, g2 = 0.25, 0.0, 0.7
    mf = MetricField(m)
    r = 50.0
    rstar = tortoise(r, m)
    t = 400.0
    ev = mf.at(np.array([t + rstar]), np.array([t - rstar]), np.array([1.0]), np.array([0.0]))
    omega = np.array([[0.3, -1.2, 0.4, 0.9]])
    got = tn.modified_gradient_correction(g1, g2, ev, omega)
    dt_form = np.array([0.5, 0.5, 0.0, 0.0])
    X = -np.einsum("mn,n->m", ev.ginv[0], dt_form) / t
    iota = omega[0] @ X
    assert np.max(np.abs(got[0] - g2 * iota * ev.g[0])) < 1e-12


def test_symmetric_gradient_of_killing_time_translation():
    # dt is Killing for the static metric: delta*(dt) = 0
    m = 0.3
    mf = MetricField(m)
    dt = tn.OneFormField(((1 - 2 * m / RR) / 2, (1 - 2 * m / RR) / 2, 0, 0), m)
    q = np.array([500.0, 130.0])
    s = np.array([-40.0, -55.0])
    th = np.array([0.8, 2.0])
    ph = np.array([0.1, 4.0])
    out = tn.symmetric_gradient(mf, dt, q, s, th, ph)
    assert np.max(np.abs(out)) < 1e-11


# -- K-currents ----------------------------------------------------------------


def test_killing_current_vanishes():
    kv, dv = tn.k_current(tn.dilation_field_dS())(0.37, 0.61, 1.2, 0.4)
    assert np.max(np.abs(kv)) < 1e-9
    assert np.max(np.abs(dv)) < 1e-9


def test_temporal_multiplier_features_match_displayed_polynomials():
    rng = np.random.default_rng(14)
    R = rng.uniform(0.15, 0.95, 20)
    aI = rng.uniform(-0.45, -0.02, 20)
    for Rv, av in zip(R, aI):
        feats = tn.multiplier_features(av, Rv)
        assert feats["trK1"][0] == pytest.approx(
            -2.0 * (1 - Rv**4 - av * Rv**2 * (4 + Rv**2)), abs=1e-8
        )
        assert feats["detK1"][0] == pytest.approx(
            -4.0 * av * (1 + av) * Rv**2 * (1 - Rv**2), abs=1e-8
        )
        assert feats["kslash"][0] == pytest.approx(-2.0 * (1 + av * Rv**2), abs=1e-8)
        assert feats["div"][0] == pytest.approx(6.0 - (2.0 - 4.0 * av) * Rv**2, abs=1e-8)


def test_spec_point_values():
    feats = tn.multiplier_features(-0.1, 0.5)
    assert feats["trK1"][0] == pytest.approx(-2.0875, abs=1e-10)
    assert feats["kslash"][0] == pytest.approx(-1.95, abs=1e-10)


def test_k_current_product_rule():
    chart = tn.ds_static_chart()
    rp, Rr, th, ph = chart.coords
    c = sp.symbols("c0:6")
    V = (
        c[0] * rp * (1 + Rr**2),
        c[1] * Rr * (1 - Rr**2) + c[2] * Rr**2,
        c[3] * sp.sin(th),
        c[4] * sp.cos(ph),
    )
    f = sp.exp(c[5] * Rr) * rp + sp.sin(th) * c[2]
    rng = np.random.default_rng(8)
    pts = (
        rng.uniform(0.2, 0.9, 10),
        rng.uniform(0.2, 0.8, 10),
        rng.uniform(0.6, 2.4, 10),
        rng.uniform(0.1, 6.0, 10),
    )
    worst = 0.0
    for _ in range(10):  # 10 draws x 10 points = 100 (f, V) samples
        vals = rng.normal(size=6)
        worst = max(worst, tn.product_rule_residual(chart, V, f, pts, params=c, param_values=vals))
    assert worst < 1e-8


# -- de Sitter conjugation and indicial roots -----------------------------------


def test_desitter_conjugation_trivial_cases():
    assert tn.desitter_conjugation_check(lambda t, a, b, c: t, 5.0, (1.0, 0.5, 0.2)) < 1e-10
    assert tn.desitter_conjugation_check(lambda t, a, b, c: t * t, 5.0, (1.0, 0.5, 0.2)) < 5e-7


def test_desitter_conjugation_random_polynomials():
    rng = np.random.default_rng(13)
    for _ in range(5):
        coef = rng.normal(size=12)

        def phi(t, x1, x2, x3, c=coef):
            return (
                c[0] * t**3 + c[1] * t * x1**2 + c[2] * x2 * x3 * t + c[3] * x3**2
                + c[4] * x1 * x2 * x3 + c[5] * t**2 * x2 + c[6] * x1**3 + c[7]
                + c[8] * t * x1 * x3 + c[9] * x2**2 + c[10] * t**2 * x1 + c[11] * x3 * t**3
            )

        for _ in range(4):
            t = rng.uniform(3.0, 8.0)
            x = rng.uniform(-2.0, 2.0, 3)
            assert tn.desitter_conjugation_check(phi, t, x) < 1e-8


def test_indicial_roots():
    roots = tn.indicial_roots_dS()
    assert roots == (1.0, 2.0)
    assert abs(tn.indicial_polynomial(roots[0])) < 1e-14
    assert abs(tn.indicial_polynomial(roots[1])) < 1e-14
    assert roots[0] + roots[1] == pytest.approx(3.0)
    assert roots[0] * roots[1] == pytest.approx(2.0)


# -- gauged (1,1) residual -------------------------------------------------------


def test_gauged_residual_vanishes_for_zero_field():
    h = PerturbationField({})
    total, _ = tn.gauged_residual_11(h, 0.2, 300.0, -20.0, 1.1, 0.4)
    assert np.max(np.abs(total)) == 0.0


def test_gauged_residual_pure_spherical_field():
    # u-dependent trace-free spherical part: first term zero, second term
    # -(1/4) r |d_1 h|^2 with round-metric contractions
    f = 1 / (1 + RHO0)  # function of s through rho0
    h = PerturbationField({"22": f, "33": -f * sp.sin(TH) ** 2})
    m = 0.0
    q, s, th, ph = 500.0, -25.0, 1.2, 0.3
    total, (t1, t2) = tn.gauged_residual_11(h, m, q, s, th, ph)
    assert np.max(np.abs(t1)) < 1e-14
    # oracle for |d1 h|^2: components h_22 = f, h_33 = -f sin^2
    r = MetricField(m).radius(q, s)
    rho0 = -1.0 / s
    drho0_ds = rho0**2
    d1f = -1.0 / (1.0 + rho0) ** 2 * drho0_ds
    sin2 = math.sin(th) ** 2
    quad = d1f**2 + (d1f * sin2) ** 2 / sin2**2
    assert t2[0] == pytest.approx(-0.25 * r * quad, rel=1e-10)


def test_gauged_residual_log_field_against_chain_rule_oracle():
    from nullinf.compactify import BoundaryTriple, null_frame_coefficients

    fexp = 2 + sp.sin(1 / RHO0)
    h = PerturbationField({"11": -fexp * sp.log(RHOI)})
    m = 0.15
    rho0, rhoI = 0.05, 1e-3
    s = -1.0 / rho0
    r = -s / rhoI
    rstar = tortoise(r, m)
    q = s + 2 * rstar
    total, (t1, t2) = tn.gauged_residual_11(h, m, q, s, 1.0, 0.0)
    assert np.max(np.abs(t2)) == 0.0

    # chain-rule oracle: d0 log rhoI from the null frame, then d1 by finite
    # differences of the frame-applied field
    def d0_field(r0, rI):
        mat = null_frame_coefficients(BoundaryTriple(r0, rI, 0.0, "past"), m)
        fval = 2 + math.sin(1.0 / r0)
        # d0 (f log rhoI) = f * d0 log rhoI ; d0 rho0 = 0
        return fval * mat[0, 1]

    hgrid = 1e-6
    mat = null_frame_coefficients(BoundaryTriple(rho0, rhoI, 0.0, "past"), m)
    dd0 = (
        mat[1, 0] * (d0_field(rho0 * math.exp(hgrid), rhoI) - d0_field(rho0 * math.exp(-hgrid), rhoI))
        + mat[1, 1] * (d0_field(rho0, rhoI * math.exp(hgrid)) - d0_field(rho0, rhoI * math.exp(-hgrid)))
    ) / (2.0 * hgrid)
    oracle_t1 = 2.0 * r**2 * dd0
    assert t1[0] == pytest.approx(oracle_t1, rel=1e-6)


# -- appendix leading-term suite --------------------------------------------------


@pytest.mark.parametrize("idx", range(6))
def test_leading_term_suite(idx):
    h = manufactured_suite()[idx]
    res = excess_decay_slopes(h, m=0.25)
    assert len(res) >= 12
    failures = [c for c in res if not c.passed]
    assert not failures, [(c.line_id, c.slope, c.required) for c in failures]


def test_christoffel_sqrt_perturbation_line():
    h = PerturbationField({"11": sp.sqrt(RHOI)})
    res = excess_decay_slopes(h, 0.25, line_ids=["Gamma^0_01"])
    assert res[0].passed


def test_round_sphere_christoffel_literal_matches_derivation():
    from nullinf.metrics import _GHAT_GAMMA

    coords = (TH, PH)
    for (c, a, b), literal in _GHAT_GAMMA.items():
        e = sum(
            ROUND_INV[c, d] * (
                sp.diff(ROUND_METRIC[d, a], coords[b])
                + sp.diff(ROUND_METRIC[d, b], coords[a])
                - sp.diff(ROUND_METRIC[a, b], coords[d])
            )
            for d in range(2)
        )
        assert sp.simplify(e / 2) == literal
    assert len(_GHAT_GAMMA) == 8


# -- compiled fields and the gathered metric evaluator ----------------------------


def scatter_assembly(vals, n):
    """Reference: the per-slot scatter that assembled g, dg and d2g from columns."""
    g = np.zeros(n + (4, 4))
    dg = np.zeros(n + (4, 4, 4))
    d2g = np.zeros(n + (4, 4, 4, 4))
    idx_pairs = list(_IDX.keys())
    for i, (mu, nu) in enumerate(idx_pairs):
        g[..., mu, nu] = g[..., nu, mu] = vals[i]
    pos = len(idx_pairs)
    for k in range(4):
        for i, (mu, nu) in enumerate(idx_pairs):
            dg[..., k, mu, nu] = dg[..., k, nu, mu] = vals[pos]
            pos += 1
    for k in range(4):
        for l in range(k, 4):
            for i, (mu, nu) in enumerate(idx_pairs):
                d2g[..., k, l, mu, nu] = d2g[..., k, l, nu, mu] = vals[pos]
                d2g[..., l, k, mu, nu] = d2g[..., l, k, nu, mu] = vals[pos]
                pos += 1
    return g, dg, d2g


def single_compile_columns(mf, r, q, s, th, ph):
    """Reference: all 150 component and derivative expressions in one compile."""
    g = mf._component_exprs()
    D = _diff_ops(mf.m)
    first = {(k, key): D[k](g[key]) for key in _COMP_KEYS for k in range(4)}
    exprs = [g[key] for key in _COMP_KEYS]
    exprs += [first[(k, key)] for k in range(4) for key in _COMP_KEYS]
    exprs += [D[l](first[(k, key)]) for k in range(4) for l in range(k, 4) for key in _COMP_KEYS]
    return compile_fields((RR, Q, S, TH, PH), exprs)(r, q, s, th, ph)


def perturbation_for(label):
    if label == "background":
        return None
    if label == "manufactured":
        return manufactured_suite()[5]
    return news_compatible_field(0.1, 1 / (1 + 5 * RHO0))[0]


@pytest.mark.parametrize(
    "label, batch",
    [pytest.param(label, batch, id=label + suffix)
     for label in ("background", "manufactured", "news-compatible")
     for batch, suffix in (((270,), ""), ((30, 9), "-2d"))],  # Picard sweeps evaluate 2-D batches
)
def test_gathered_metric_matches_scatter_assembly(label, batch):
    m = 0.1
    mf = MetricField(m, perturbation_for(label))
    q, s, th, ph = (x.reshape(batch) for x in random_points(np.random.default_rng(5), 270, m))
    ev = mf.at(q, s, th, ph)
    gamma = tn.christoffel(ev)
    assert "d2g" not in vars(ev)  # never built unless read
    riem, _ = tn.riemann_ricci(ev)

    cols = single_compile_columns(mf, ev.r, ev.q, ev.s, ev.theta, ev.phi)
    g, dg, d2g = scatter_assembly([cols[..., i] for i in range(cols.shape[-1])], batch)
    ref = SimpleNamespace(g=g, dg=dg, d2g=d2g, ginv=np.linalg.inv(g))
    assert ev.g.shape == batch + (4, 4) and ev.d2g.shape == batch + (4, 4, 4, 4)
    assert np.array_equal(ev.g, g)
    assert np.array_equal(ev.dg, dg)
    assert np.array_equal(ev.d2g, d2g)
    assert np.array_equal(gamma, tn.christoffel(ref))
    assert np.array_equal(riem, tn.riemann_ricci(ref)[0])


def test_christoffel_compiles_only_the_first_order_group(monkeypatch):
    compiled = []
    lambdify = sp.lambdify

    def counting(args, exprs, **kw):
        compiled.append(len(exprs))
        return lambdify(args, exprs, **kw)

    monkeypatch.setattr(metrics.sp, "lambdify", counting)
    # an expression no other test compiles, so the memo cannot hold it
    h = PerturbationField({"13": sp.Rational(17, 29) * RHO0 * RHOI * sp.sin(TH) ** 2})
    mf = MetricField(0.3, h)
    ev = mf.at(*random_points(np.random.default_rng(2), 12, 0.3))
    tn.christoffel(ev)
    assert compiled == [50]
    ev.d2g
    assert compiled == [50, 100]
    ev2 = mf.at(*random_points(np.random.default_rng(3), 5, 0.3))
    ev2.d2g
    assert compiled == [50, 100]


def test_compile_fields_shape_constants_and_memo():
    x, y = sp.symbols("x y")
    exprs = [x * sp.exp(y) + sp.sin(x) ** 2, sp.Integer(0), sp.Rational(3, 2), sp.cos(y)]
    xs = np.linspace(0.1, 2.0, 7)
    out = compile_fields((x, y), exprs)(xs, 0.4)
    assert out.shape == (7, 4)
    assert np.all(out[:, 1] == 0.0) and np.all(out[:, 2] == 1.5)
    direct = sp.lambdify((x, y), exprs, modules="numpy", cse=True)(xs, 0.4)
    for i, col in enumerate(direct):
        assert np.array_equal(out[:, i], np.broadcast_to(col, xs.shape))
    rebuilt = [x * sp.exp(y) + sp.sin(x) ** 2, 0, sp.Rational(3, 2), sp.cos(y)]
    assert compile_fields([x, y], rebuilt) is compile_fields((x, y), exprs)


def test_lambdify_called_only_inside_compile_fields():
    package = Path(nullinf.__file__).parent
    calls = sum(p.read_text().count("lambdify(") for p in package.glob("*.py"))
    assert calls == 1
    assert "lambdify(" in inspect.getsource(metrics._Evaluator.compile)
    assert "_compiled(" in inspect.getsource(metrics.compile_fields)
