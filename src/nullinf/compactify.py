"""Coordinate charts and boundary structure of the compactified far field.

Tortoise coordinate and its inverse, the transition between the temporal
chart and the null-cone chart, boundary defining functions for the faces
meeting the radiation face, the null coordinate frame written in
logarithmic boundary derivatives, and the contraction-mapping construction
of the rescaled time profile f = rho * t together with its expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .expansions import PolyhomExpansion
from .indexsets import elog

#: default chart half-width
EPSILON0 = 0.1


def _mass(m) -> float:
    """The one check of a mass argument: the library works on finite m >= 0."""
    m = float(m)
    if not (math.isfinite(m) and m >= 0.0):
        raise ValueError(f"mass must be finite and nonnegative, got {m}")
    return m


def smoothstep(x):
    """C^2 ramp 6x^5 - 15x^4 + 10x^3 clipped to [0, 1]."""
    x = np.clip(x, 0.0, 1.0)
    return x**3 * (10.0 + x * (-15.0 + 6.0 * x))


def cutoff_lower(x):
    """Smooth switch: identically 0 below 1/3, identically 1 above 1/2."""
    return smoothstep((np.asarray(x, dtype=float) - 1.0 / 3.0) / (0.5 - 1.0 / 3.0))


# -- tortoise coordinate --------------------------------------------------


def tortoise(r, m):
    """r + 2m log(r - 2m); requires r > 2m."""
    m = _mass(m)
    r = np.asarray(r, dtype=float)
    if np.any(r <= 2.0 * m):
        raise ValueError("tortoise coordinate needs r > 2m and r > 0")
    out = r + 2.0 * m * np.log(r - 2.0 * m)
    return float(out) if out.ndim == 0 else out


def inverse_tortoise(rstar, m):
    """Radius with the given tortoise coordinate, by bracketed Newton.

    Converges on the monotone branch r > 2m; raises if after 100
    steps |tortoise(r) - rstar| is not below 1e-13 * (1 + |rstar|) and the
    root does not lie within one ulp of r (close to the horizon).  For
    m > 0 the smallest reachable rstar is the image of the smallest double
    above 2m; a smaller rstar raises a ValueError that names that bound.
    For m = 0 the radius is rstar itself, which must be positive.
    """
    tol = 1e-13
    maxiter = 100
    m = _mass(m)
    rstar_arr = np.atleast_1d(np.asarray(rstar, dtype=float))
    lo_edge = 2.0 * m

    lo = np.full_like(rstar_arr, lo_edge + max(1e-12, 1e-12 * lo_edge))
    # hi - 2m >= 1 makes 2m log(hi - 2m) >= 0, so tortoise(hi) >= hi >= rstar: hi is an upper bracket
    hi = np.maximum(rstar_arr + 1.0, lo + 1.0)
    if np.any(tortoise(lo, m) > rstar_arr):
        # shrink the lower edge toward the horizon where r_* -> -inf (m > 0),
        # or toward r = 0 where r_* = r (m = 0)
        if m == 0.0 and np.any(rstar_arr <= 0.0):
            raise ValueError("tortoise coordinate out of range for m = 0")
        floor = tortoise(np.nextafter(lo_edge, np.inf), m)
        if np.any(rstar_arr < floor):
            raise ValueError(
                f"tortoise coordinate needs r > 2m: at m = {m} the smallest reachable r* is "
                f"{float(floor)} (the smallest double r above 2m), got r* = {float(np.min(rstar_arr))}"
            )
        for _ in range(2000):
            bad = tortoise(lo, m) > rstar_arr
            if not np.any(bad):
                break
            lo = np.where(bad, lo_edge + 0.5 * (lo - lo_edge), lo)
        else:
            raise ValueError("could not bracket the tortoise inversion")

    r = np.clip(rstar_arr - 2.0 * m * np.log(np.maximum(np.abs(rstar_arr), lo - lo_edge + 1.0)), lo, hi)
    target = tol * (1.0 + np.abs(rstar_arr))
    for _ in range(maxiter):
        f = tortoise(r, m) - rstar_arr
        done = np.abs(f) < target
        if np.all(done):
            break
        lo = np.where(f < 0.0, r, lo)
        hi = np.where(f > 0.0, r, hi)
        fprime = r / (r - 2.0 * m)
        step = f / fprime
        r_new = r - step
        outside = (r_new <= lo) | (r_new >= hi)
        r_new = np.where(outside, 0.5 * (lo + hi), r_new)
        r = np.where(done, r, r_new)
    else:
        # close to the horizon one ulp of r moves tortoise(r) by more than the
        # tolerance: there, accept an r whose two neighbouring doubles bracket
        # the root.  The left one is clamped to the smallest double above 2m,
        # whose image is at most rstar once the bracket above exists.
        # Tested only at the cap, so every r that meets the tolerance is unchanged.
        f = tortoise(r, m) - rstar_arr
        left = np.maximum(np.nextafter(r, -np.inf), np.nextafter(lo_edge, np.inf))
        within = (tortoise(left, m) <= rstar_arr) & (tortoise(np.nextafter(r, np.inf), m) >= rstar_arr)
        if not np.all((np.abs(f) < target) | within):
            raise ValueError("tortoise inversion did not converge within the iteration cap")
    return float(r[0]) if np.isscalar(rstar) or np.ndim(rstar) == 0 else r.reshape(np.shape(rstar))


def double_null_radius(q, s, m):
    """Radius r(q, s) at the double-null coordinates q = t + r_*, s = t - r_*."""
    return inverse_tortoise(0.5 * (np.asarray(q, dtype=float) - np.asarray(s, dtype=float)), m)


# -- chart points and transitions -------------------------------------------


@dataclass(frozen=True)
class NullConePoint:
    """Point of the chart covering the future light cone at infinity."""

    rho: float
    v: float
    omega: tuple

    def __post_init__(self):
        if not (0.0 <= self.rho < EPSILON0):
            raise ValueError(f"rho = {self.rho} outside [0, {EPSILON0})")
        if not (-1.75 < self.v < 5.0):
            raise ValueError(f"v = {self.v} outside (-7/4, 5)")


@dataclass(frozen=True)
class TemporalPoint:
    """Point of the chart covering future timelike infinity."""

    rho_plus: float
    X: tuple

    def __post_init__(self):
        if not (0.0 <= self.rho_plus < EPSILON0):
            raise ValueError(f"rho_plus = {self.rho_plus} outside [0, {EPSILON0})")
        if float(np.linalg.norm(self.X)) >= 0.25:
            raise ValueError("|X| must be below 1/4")


def to_nullcone(p: TemporalPoint) -> NullConePoint:
    """(rho_+', X) -> (rho, v, omega) across the chart overlap; singular at X = 0."""
    X = np.asarray(p.X, dtype=float)
    aX = float(np.linalg.norm(X))
    if aX == 0.0:
        raise ValueError("chart transition is singular at X = 0")
    return NullConePoint(float(p.rho_plus) / aX, 1.0 / aX - 1.0, tuple(X / aX))


def to_temporal(p: NullConePoint) -> TemporalPoint:
    """Inverse transition: (rho, v, omega) -> (rho_+', X); singular at v <= -1."""
    if 1.0 + float(p.v) <= 0.0:
        raise ValueError(f"chart transition is singular at v = {p.v} <= -1")
    scale = 1.0 / (1.0 + float(p.v))
    return TemporalPoint(float(p.rho) * scale, tuple(np.asarray(p.omega, dtype=float) * scale))


# -- boundary defining functions and the null frame ------------------------


@dataclass(frozen=True)
class BoundaryTriple:
    rho0: float       # spatial-face defining function (0 in the future region)
    rhoI: float       # radiation-face defining function
    rho_plus: float   # temporal-face defining function (0 in the past region)
    region: str       # "past" (towards spatial infinity) or "future"


def boundary_defining(q, s, m) -> BoundaryTriple:
    """Defining functions of the faces through the double-null point (q, s)."""
    m = _mass(m)
    w = -float(s)  # r_* - t
    if w == 0.0:
        raise ValueError("the point lies on the reference light cone")
    r = double_null_radius(q, s, m)
    if r <= 2.0 * m:
        raise ValueError("point inside the excluded horizon region")
    if w > 0.0:
        return BoundaryTriple(1.0 / w, w / r, 0.0, "past")
    return BoundaryTriple(0.0, -w / r, -1.0 / w, "future")


def null_frame_coefficients(bt: BoundaryTriple, m) -> np.ndarray:
    """Rows express (d/dq, d/ds) in the frame (rho0 d/drho0, rhoI d/drhoI)."""
    if bt.region != "past":
        raise ValueError("null frame coefficients are set up near the past corner")
    m = _mass(m)
    rho0, rhoI = bt.rho0, bt.rhoI
    rho = rho0 * rhoI
    a = 1.0 - 2.0 * m * rho
    return np.array(
        [
            [0.0, -0.5 * rho0 * rhoI * a],
            [rho0, -rho0 * (1.0 - 0.5 * rhoI * a)],
        ]
    )


# -- rescaled time profile -------------------------------------------------


def scaled_time_fixed_point(v, m, rho_grid, initial=None):
    """Fixed point f = rho * t of the gluing recursion, on a grid in rho.

    Returns the sampled profile, its truncated expansion in (rho, log rho),
    and the index set certified for the expansion.  The recursion is a
    contraction for small ``rho |log rho|``; the iteration aborts if the
    sup-norm change ever grows.  The expansion is truncated at order 2.
    """
    tol = 1e-13
    maxiter = 200
    m = _mass(m)
    v = float(v)
    rho = np.asarray(rho_grid, dtype=float)
    if np.any(rho <= 0.0):
        raise ValueError("rho grid must be positive")

    def recursion(f):
        return 1.0 + v - 2.0 * m * rho * cutoff_lower(f) * (np.log(rho) - np.log1p(-2.0 * m * rho))

    f = np.full_like(rho, 1.0 + v) if initial is None else np.asarray(initial, dtype=float).copy()
    last_change = np.inf
    for _ in range(maxiter):
        f_new = recursion(f)
        change = float(np.max(np.abs(f_new - f)))
        f = f_new
        if change < tol:
            break
        if change > last_change * (1.0 + 1e-12) and change > 10 * tol:
            raise ValueError("fixed-point recursion is not contracting on this grid")
        last_change = change
    else:
        raise ValueError("fixed-point recursion did not converge within the iteration cap")

    chi = float(cutoff_lower(1.0 + v))
    terms = [(Fraction(0), 0, 1.0 + v), (Fraction(1), 1, -2.0 * m * chi)]
    expansion = PolyhomExpansion.make(terms, Fraction(2))
    certified = elog(2)
    return f, expansion, certified
