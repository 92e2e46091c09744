"""Each input guard of the library rejects one bad argument with its own message."""

import math

import numpy as np
import pytest

from nullinf import bondi as bd, compactify as cf, expansions as ex, indexsets as ix, metrics, modelpde as mp


def _congruence():
    th, ph, _ = bd.sphere_quadrature(1, 1)
    return bd.Congruence(metrics.MetricField(0.1), -20.0, th, ph)


def _news():
    return bd.NewsTensor([(np.zeros_like, bd.tensor_harmonic(2, 0))], (-1.0, 1.0))


GUARDS = {
    "congruence-window": (lambda: _congruence().affine_at_radius(1e12), "outside the congruence window"),
    "news-not-trace-free": (lambda: bd.NewsTensor([(np.zeros_like, metrics.ROUND_METRIC)], (-1.0, 1.0)),
                            "news angular part is not trace-free"),
    "news-support": (lambda: bd.evolve_mass_aspect(_news(), 0.1, np.linspace(0.0, 5.0, 11)),
                     "news support must lie inside the retarded-time grid"),
    "scattering-mode": (lambda: bd.scattering_solution(3, 0.5), "modes 0, 1, 2 are implemented"),
    "harmonic-mode": (lambda: bd.tensor_harmonic(3, 0), r"harmonic modes \(2, 0\), \(2, 1\) are implemented"),
    "weights-order": (lambda: metrics.Weights(b_plus=0.1), "weights must satisfy"),
    "schwarzschild-horizon": (lambda: metrics.schwarzschild_exact(0.2, 1.0, 0.1), r"need r > 2m and r > 0"),
    "grid-mode-number": (lambda: mp.CharacteristicGrid(ell=-1), "mode number must be nonnegative"),
    "damping-exponent": (lambda: mp.solve_damped_mode(mp.CharacteristicGrid(), -0.5),
                         "damping exponent must be nonnegative"),
    "fit-model": (lambda: mp.fit_leading_terms(np.geomspace(1e-3, 1e-2, 8), np.ones(8), "power"),
                  "unknown fit model 'power'"),
    "temporal-window": (lambda: cf.TemporalPoint(1.0, (0.0, 0.0, 0.0)), r"rho_plus = 1.0 outside \[0, "),
    "frame-region": (lambda: cf.null_frame_coefficients(cf.BoundaryTriple(0.0, 0.1, 0.1, "future"), 0.1),
                     "null frame coefficients are set up near the past corner"),
    "rho-grid": (lambda: cf.scaled_time_fixed_point(1.0, 0.1, [0.0, 0.1]), "rho grid must be positive"),
    "power-not-finite": (lambda: ix.IndexSet.make([(math.inf, 0)], 4),
                         "power inf is not exactly representable; pass a Fraction"),
    "coefficient-not-finite": (lambda: ex.PolyhomExpansion.make([(0, 0, math.nan)], 4), "coefficient nan is not finite"),
    "coefficient-sum-not-finite": (lambda: ex.PolyhomExpansion.make([(0, 0, 1e308), (0, 0, 1e308)], 4),
                                   "coefficient inf is not finite"),
    "product-coefficient-sum-not-finite": (lambda: ex.ProductExpansion.make([(0, 0, 1, 0, 1e308), (0, 0, 1, 0, 1e308)]),
                                           "coefficient inf is not finite"),
}


@pytest.mark.parametrize("name", list(GUARDS))
def test_guard_rejects_a_bad_argument(name):
    call, message = GUARDS[name]
    with pytest.raises(ValueError, match=message):
        call()


def test_congruence_window_is_checked_before_interpolating(monkeypatch):
    con = _congruence()
    monkeypatch.setattr(np, "interp", None)
    with pytest.raises(ValueError, match="outside the congruence window"):
        con.affine_at_radius(1e12)
