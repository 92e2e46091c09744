"""The values every caller of ``compile_fields`` returns, pinned by SHA-256 on seeded points.

The digests hash the C-order bytes of each float output, so they do not
depend on how many length-one axes an output carries.  A refactor of how
compiled values reach their callers keeps every digest.
"""

import hashlib

import numpy as np
import pytest
import sympy as sp

from nullinf import bondi as bd
from nullinf import modelpde as mp
from nullinf import tensors as tn
from nullinf.compactify import tortoise
from nullinf.metrics import RHO0, RR, MetricField, manufactured_suite


def _points(seed, n, m):
    rng = np.random.default_rng(seed)
    rstar = tortoise(np.exp(rng.uniform(np.log(20.0), np.log(2e3), n)), m)
    t = rng.uniform(-0.3, 0.3, n) * rstar
    return t + rstar, t - rstar, np.arccos(rng.uniform(-0.9, 0.9, n)), rng.uniform(0.0, 2.0 * np.pi, n)


def _symmetric_gradient():
    m = 0.3
    dt = tn.OneFormField(((1 - 2 * m / RR) / 2, (1 - 2 * m / RR) / 2, 0, 0), m)
    return [tn.symmetric_gradient(MetricField(m), dt, *_points(1, 12, m))]


def _coupling_matrices():
    fns = mp.full_coupling_matrices(manufactured_suite()[5], 0.2, 0.45, 0.4)
    return [fn(*_points(2, 9, 0.2)) for fn in fns] + [fn(400.0, -20.0, 1.1, 0.3) for fn in fns]


def _gauged_residual():
    h, _ = bd.news_compatible_field(0.1, 1 / (1 + 5 * RHO0), mode=(2, 1), with_log=0.3)
    total, (t1, t2) = tn.gauged_residual_11(h, 0.1, *_points(3, 10, 0.1))
    return [total, t1, t2, *tn.gauged_residual_11(manufactured_suite()[3], 0.1, 300.0, -20.0, 1.1, 0.4)[1]]


def _product_rule():
    rp, Rr, th, ph = tn.ds_static_chart()[0]
    c = sp.symbols("c0:3")
    V = (c[0] * rp * (1 + Rr**2), c[1] * Rr * (1 - Rr**2), sp.sin(th), c[2] * sp.cos(ph))
    f = sp.exp(c[2] * Rr) * rp + sp.sin(th)
    rng = np.random.default_rng(4)
    pts = tuple(rng.uniform(lo, hi, 8) for lo, hi in ((0.2, 0.9), (0.2, 0.8), (0.6, 2.4), (0.1, 6.0)))
    values = rng.normal(size=3)
    return [tn.product_rule_residual(V, f, pts, params=c, param_values=values),
            tn.product_rule_residual(V, f, (0.4, 0.3, 1.2, 0.5), params=c, param_values=values)]


def _k_current_and_features():
    kv, dv = tn.k_current(tn.dilation_field_dS())(0.37, 0.61, 1.2, 0.4)
    feats = [tn.multiplier_features(aI, R) for aI in (-0.2, -0.37) for R in (0.2, 0.5, 0.85, np.array([0.3, 0.7]))]
    return [kv, dv] + [f[k] for f in feats for k in sorted(f)]


def _news_tensor():
    profile = lambda u: np.exp(-np.asarray(u) ** 2)
    news = bd.NewsTensor([(profile, bd.tensor_harmonic(2, 0)), (profile, bd.tensor_harmonic(2, 1))], (-5.0, 5.0))
    th, ph, _ = bd.sphere_quadrature(4, 6)
    rep = bd.evolve_mass_aspect(news, 0.1, np.linspace(-6.0, 6.0, 25), quad=(4, 6))
    return [news.squared_norm(np.linspace(-2.0, 2.0, 5), th, ph), rep.mass_aspect, rep.mass]


def _bondi_mass():
    log_coeff = sp.Rational(3, 100) * (1 + sp.cos(bd.TH) ** 2)
    aspect, mass, div_integral = bd.bondi_mass_from_data(log_coeff, bd.tensor_harmonic(2, 1), 0.1)
    return [aspect, mass, div_integral, bd.bondi_mass_from_data(0, None, 0.1)[0]]


def _scattering():
    R = np.linspace(0.05, 0.95, 7)
    return ([bd.scattering_solution(ell, R) for ell in range(3)] + [bd.scattering_solution(1, 0.4)]
            + [bd.scattering_operator_residual(ell, 0.3) for ell in range(3)])


def _conjugation():
    phis = (lambda t, a, b, c: t * t, lambda t, a, b, c: t**3 * a + sp.sin(b) * c * t)
    return [tn.desitter_conjugation_check(phi, 5.0, (1.0, 0.5, 0.2)) for phi in phis]


#: case -> (work, SHA-256 of the float bytes of its outputs in order)
CASES = {
    "symmetric-gradient": (_symmetric_gradient,
        "26119da43aa6527c768869d15cda20ceaf4f45961b0dffccc47ef1c075a862f6"),
    "coupling-matrices": (_coupling_matrices,
        "4ae2b4a47f402ff55deffba16ebd5db50c669a0fa5cc025e5babb98dd3f4adde"),
    "gauged-residual-11": (_gauged_residual,
        "6bba344d246e9be6c6451f198abee0bf01ae16ea91f8b3b311380f0335627501"),
    "product-rule-residual": (_product_rule,
        "afcb609f36722659b7ecff4e6c4dbe4c10add5f6bcf3a279e328a28f4ff6a3f8"),
    "k-current-and-multiplier-features": (_k_current_and_features,
        "e0d252dcc4f82962bfab4956afdacc148ec018db38a950a7c931e87132562747"),
    "news-tensor": (_news_tensor,
        "f81891af562eb9d426115b6948339e97efad1c989e71c25f9199188b2fb9e836"),
    "bondi-mass-from-data": (_bondi_mass,
        "59d7c2aedb4fe944a8baabfef3eb0c90c5a181d1840b2e96968d689caf1be532"),
    "scattering-solution": (_scattering,
        "8ad598a708fe93703d39b7063e98546012d047f2c8c6faed8b622c57e0378f18"),
    "desitter-conjugation": (_conjugation,
        "a11f4df4be578bbd34c5e56104eed156d17ac8e4bf199c98afcc70294705f045"),
}


def _digest(outputs):
    return hashlib.sha256(b"".join(np.asarray(x, dtype=float).tobytes() for x in outputs)).hexdigest()


@pytest.mark.parametrize("case", list(CASES))
def test_compiled_outputs_are_pinned(case):
    work, want = CASES[case]
    assert _digest(work()) == want
