"""Each input guard of the library rejects one bad argument with its own message."""

import dataclasses
import functools
import itertools
import math
import types
from fractions import Fraction

import numpy as np
import pytest

from nullinf import (bondi as bd, compactify as cf, expansions as ex, geodesics as gd, indexsets as ix,
                     leading_terms as lt, metrics, modelpde as mp, tensors as tn)


def _congruence():
    th, ph, _ = bd.sphere_quadrature(1, 1)
    return bd.Congruence(metrics.MetricField(0.1), -20.0, th, ph)


@functools.cache
def _cut():
    """A Schwarzschild cut of one quadrature node at r = 100; callers must not modify it."""
    return _congruence().cut(100.0)


# every public entry that takes a mass; each other argument is unusable, so the mass
# must be rejected before anything else is read
MASS_ENTRIES = {
    "tortoise": lambda m: cf.tortoise(None, m),
    "inverse-tortoise": lambda m: cf.inverse_tortoise(None, m),
    "double-null-radius": lambda m: cf.double_null_radius(0.0, 0.0, m),
    "boundary-defining": lambda m: cf.boundary_defining(None, None, m),
    "null-frame": lambda m: cf.null_frame_coefficients(cf.BoundaryTriple(0.1, 0.1, 0.0, "past"), m),
    "scaled-time": lambda m: cf.scaled_time_fixed_point(None, m, None),
    "metric-field": lambda m: metrics.MetricField(m),
    "schwarzschild-exact": lambda m: metrics.schwarzschild_exact(None, None, m),
    "one-form-field": lambda m: tn.OneFormField([], m),
    "gauged-residual": lambda m: tn.gauged_residual_11(None, m, None, None, None, None),
    "excess-decay": lambda m: lt.excess_decay_slopes(None, m),
    "coupling-matrices": lambda m: mp.full_coupling_matrices(None, m, None, None),
    "fitted-rates": lambda m: gd.GeodesicTrajectory.fitted_rates(None, m),
    "evolve-mass-aspect": lambda m: bd.evolve_mass_aspect(None, m, None),
    "bondi-mass-from-data": lambda m: bd.bondi_mass_from_data(None, None, m),
}
BAD_MASSES = (-1.0, -5e-324, math.nan, math.inf, -math.inf)


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
    **{f"mass-{name}-{m!r}": (functools.partial(call, m), f"^mass must be finite and nonnegative, got {m!r}$")
       for name, call in MASS_ENTRIES.items() for m in BAD_MASSES},
    "power-negative": (lambda: ix.IndexSet.make([(-1, 0)], 4), "negative power -1 in index set"),
    "restrict-past-truncation": (lambda: ix.elog(2).restrict(3), "cannot extend a truncation"),
    "extended-union-of-nothing": (lambda: ix.extended_union(), "extended_union needs at least one argument"),
    "drop-zero-log-fractional": (lambda: ix.drop_zero_log(ix.IndexSet.make([(0, 1), (Fraction(1, 2), 2)], 4)),
                                 "drop_zero_log expects no generators strictly between 0 and 1"),
    "recursion-truncation": (lambda: ix.solve_index_recursion(ix.IndexSet.empty(1), 0, False),
                             "truncation must be positive"),
    "transport-float-power": (lambda: ex.transport_rho(ex.PolyhomExpansion(((0.5, 0, 1.0),), Fraction(2))),
                              "transport needs rational powers"),
    "retarded-time-window": (lambda: gd.retarded_time(metrics.MetricField(0.0), (1e12, -30.0, 1.1, 0.7)),
                             "point is outside the affine window of the shot geodesic"),
    "scaled-time-not-contracting": (lambda: cf.scaled_time_fixed_point(-0.6, 0.5, [0.05]),
                                    "fixed-point recursion is not contracting on this grid"),
    "scaled-time-cap": (lambda: cf.scaled_time_fixed_point(-0.6, 1.0, [0.4]),
                        "fixed-point recursion did not converge within the iteration cap"),
    "degenerate-cut": (lambda: dataclasses.replace(_cut(), g=np.zeros((1, 4, 4))).conjugate_normal(),
                       "degenerate cut: cannot normalize the conjugate normal"),
}

# guards that raise another type than ValueError, keyed by that type
RAISES = {
    TypeError: {
        "power-type": (lambda: ix.IndexSet.make([(1j, 0)], 4), r"cannot interpret 1j as a rational power"),
    },
    RuntimeError: {
        "fixed-point-cap": (lambda: ix._least_fixed_point(lambda n: n + 1, 0, 5, "counting"),
                            "counting did not stabilize within 5 iterations"),
        "march-unfilled": (lambda: mp.solve_damped_mode(mp.CharacteristicGrid(), 0.0, lambda r0, rI: np.nan),
                           "characteristic march left unfilled cells in the core window"),
    },
}


@pytest.mark.parametrize("name", list(GUARDS))
def test_guard_rejects_a_bad_argument(name):
    call, message = GUARDS[name]
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("kind, name", [(kind, name) for kind, rows in RAISES.items() for name in rows])
def test_guard_raises_its_own_type(kind, name):
    call, message = RAISES[kind][name]
    with pytest.raises(kind, match=message):
        call()


# -- guards that only a monkeypatched solver or geometry reaches


def _picard(monkeypatch, scales):
    """Run the Picard construction with a force field A = scale * ones, one scale per sweep."""
    scales = iter(scales)
    monkeypatch.setattr(gd, "_sweep_force", lambda metric, x: lambda v: np.full_like(v, next(scales)))
    gd.integrate_radial_null_geodesic(types.SimpleNamespace(m=0.0), -30.0, (1.1, 0.7))


def test_picard_cap(monkeypatch):
    with pytest.raises(RuntimeError, match="Picard iteration did not converge within the cap"):
        _picard(monkeypatch, itertools.count(1))


def test_picard_that_settles_after_growing_is_not_contracting(monkeypatch):
    # the velocity changes by 1, 1e-3, 1, 0 (times one tail integral): settled, but not by contraction
    with pytest.raises(RuntimeError, match="Picard iteration is not contracting"):
        _picard(monkeypatch, itertools.chain([1.0, 1.001, 2.001], itertools.repeat(2.001)))


def test_retarded_time_shooting_that_oscillates(monkeypatch):
    # a shot geodesic whose retarded time at the point is twice its label: the update
    # x1bar -= mismatch swaps x1bar between s and 0 and never settles
    def shoot(metric, x1bar, angles, s0):
        q = np.linspace(-1e3, 1e3, 3)
        return types.SimpleNamespace(x=np.stack([q, np.full(3, 2.0 * x1bar)], axis=-1)[None])

    monkeypatch.setattr(gd, "integrate_radial_null_geodesic", shoot)
    with pytest.raises(RuntimeError, match="retarded-time shooting did not converge"):
        gd.retarded_time(None, (0.0, -30.0, 1.1, 0.7))


def test_point_inside_the_horizon(monkeypatch):
    monkeypatch.setattr(cf, "inverse_tortoise", lambda rstar, m: 2.0 * m)
    with pytest.raises(ValueError, match="point inside the excluded horizon region"):
        cf.boundary_defining(10.0, -30.0, 0.1)


def test_degenerate_area_determinant(monkeypatch):
    # a round metric of signature (+, -) makes the area determinant negative
    monkeypatch.setattr(bd, "round_metric", lambda theta: metrics.round_metric(theta) * np.array([1.0, -1.0]))
    with pytest.raises(ValueError, match="degenerate sphere: non-positive area determinant"):
        bd.area_radius(_cut())


def test_degenerate_sphere_metric(monkeypatch):
    monkeypatch.setattr(bd.SphereCut, "induced_metric", lambda self: np.diag([1.0, -1.0])[None])
    with pytest.raises(ValueError, match="degenerate sphere metric"):
        bd.hawking_mass_of_cut(_cut(), np.ones(1))


def test_congruence_window_is_checked_before_interpolating(monkeypatch):
    con = _congruence()
    monkeypatch.setattr(np, "interp", None)
    with pytest.raises(ValueError, match="outside the congruence window"):
        con.affine_at_radius(1e12)
