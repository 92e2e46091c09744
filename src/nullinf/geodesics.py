"""Asymptotically radial null geodesics by Picard iteration from infinity.

Velocities are fixed points of the update v(s) = v(inf) + int_s^inf Gamma v v,
with the improper integrals carried out in the reciprocal variable so that
the anchoring at the radiation face is exact up to a reported tail bound.
Targets are batched: one call integrates a whole congruence.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .metrics import MetricField, schwarzschild_exact
from . import tensors


def _cumulative_simpson(H, h):
    """Cumulative integral of samples on a uniform grid, fourth order.

    Even nodes sum Simpson pairs from the start; each odd node adds the
    three-point closed rule to the even node before it; an even sample count
    ends with a trapezoid.
    """
    a, b, c = H[..., :-2:2], H[..., 1:-1:2], H[..., 2::2]
    inc_even = h / 3.0 * (a + 4.0 * b + c)
    out = np.empty_like(H)
    out[..., ::2] = np.cumsum(np.concatenate((np.zeros_like(H[..., :1]), inc_even), axis=-1), axis=-1)
    out[..., 1 : 2 * inc_even.shape[-1] : 2] = out[..., :-2:2] + h / 12.0 * (5.0 * a + 8.0 * b - c)
    if H.shape[-1] % 2 == 0:
        out[..., -1] = out[..., -2] + 0.5 * h * (H[..., -2] + H[..., -1])
    return out


def _christoffel_at(metric: MetricField, x):
    """Connection coefficients along sampled points; closed form when unperturbed."""
    if metric.h is None:
        r = metric.radius(x[..., 0], x[..., 1])
        return schwarzschild_exact(r.ravel(), x[..., 2].ravel(), metric.m).gamma.reshape(
            x.shape[:-1] + (4, 4, 4)
        )
    ev = metric.at(x[..., 0], x[..., 1], x[..., 2], x[..., 3])
    return tensors.christoffel(ev).reshape(x.shape[:-1] + (4, 4, 4))


@dataclass
class GeodesicTrajectory:
    """Sampled null geodesics ending on the radiation face."""

    s: np.ndarray            # (n_s,) affine grid, ascending
    x: np.ndarray            # (..., n_s, 4)
    v: np.ndarray            # (..., n_s, 4)
    target_angles: np.ndarray
    iterations: int
    diffs: list
    tail_bound: float
    acc: np.ndarray | None = None

    def interpolate_per_member(self, s_values):
        """Evaluate member i at its own parameter s_values[i]."""
        tau = np.log(self.s)
        t_eval = np.log(np.asarray(s_values, dtype=float))
        idx = np.clip(np.searchsorted(tau, t_eval) - 1, 0, len(tau) - 2)
        hseg = tau[idx + 1] - tau[idx]
        w = (t_eval - tau[idx]) / hseg
        h00 = ((1 + 2 * w) * (1 - w) ** 2)[:, None]
        h10 = (w * (1 - w) ** 2)[:, None]
        h01 = (w**2 * (3 - 2 * w))[:, None]
        h11 = (w**2 * (w - 1))[:, None]
        rows = np.arange(len(t_eval))

        def hermite(Y, dY):
            y0 = Y[rows, idx, :]
            y1 = Y[rows, idx + 1, :]
            m0 = dY[rows, idx, :] * (self.s[idx] * hseg)[:, None]
            m1 = dY[rows, idx + 1, :] * (self.s[idx + 1] * hseg)[:, None]
            return h00 * y0 + h10 * m0 + h01 * y1 + h11 * m1

        return hermite(self.x, self.v), hermite(self.v, self.acc)

    def null_norm(self, metric: MetricField):
        ev = metric.at(self.x[..., 0], self.x[..., 1], self.x[..., 2], self.x[..., 3])
        g = ev.g.reshape(self.x.shape[:-1] + (4, 4))
        return np.einsum("...mn,...m,...n->...", g, self.v, self.v)

    def fitted_rates(self, m):
        """Decay exponents of the velocity components against the affine parameter.

        The fit window runs from 10 to 1000 times the first affine parameter.
        """
        s = self.s
        mask = (s >= 10.0 * s[0]) & (s <= 1000.0 * s[0])
        ls = np.log(s[mask])
        v = self.v
        tilde0 = np.abs(v[..., mask, 0] - (1.0 + 4.0 * m / s[mask]))
        out = {}
        for name, comp in (
            ("alpha0", tilde0),
            ("alpha1", np.abs(v[..., mask, 1])),
            ("alpha_sph", np.maximum(np.abs(v[..., mask, 2]), np.abs(v[..., mask, 3]))),
        ):
            flat = comp.reshape(-1, comp.shape[-1])
            rates = []
            for row in flat:
                if np.max(row) < 1e-13:
                    rates.append(math.inf)
                    continue
                good = row > 1e-300
                slope = np.polyfit(ls[good], np.log(row[good]), 1)[0]
                rates.append(-slope - 1.0)
            out[name] = np.array(rates).reshape(comp.shape[:-1]) if comp.ndim > 1 else rates[0]
        return out


def _master_grid(s0, tail_decades):
    nodes_per_decade = 32
    n = int(round(nodes_per_decade * tail_decades))
    if n % 2 == 1:
        n += 1
    h = math.log(10.0) / nodes_per_decade
    tau = math.log(1.0 / s0) - h * np.arange(n + 1)  # descending log sigma
    sigma = np.exp(tau)[::-1]                         # ascending sigma
    return sigma, h


def integrate_radial_null_geodesic(
    metric: MetricField,
    x1bar,
    target_angles,
    s0=20.0,
    tail_decades=7.0,
):
    """Batched Picard construction of radial null geodesics.

    The geodesics end at retarded time ``x1bar``; ``target_angles`` is
    one (theta, phi) pair of shape (2,) or n of them of shape (n, 2), and
    for n pairs the returned arrays have a leading axis of length n.  The
    affine parameter runs over a fixed logarithmic master grid
    from ``s0`` through ``tail_decades`` decades; contributions from beyond
    the grid enter through an extrapolated end panel whose size is reported
    as ``tail_bound``.
    """
    max_iter = 40
    # sweeps stop once the change is below tol; below flo it may be evaluation noise
    tol = 1e-13
    flo = 6e-8
    m = metric.m
    angles = np.asarray(target_angles, dtype=float)
    if angles.ndim not in (1, 2) or angles.shape[-1] != 2:
        raise ValueError(f"target_angles must have shape (2,) or (n, 2), got {angles.shape}")
    squeeze = angles.ndim == 1
    angles = np.atleast_2d(angles)
    ntar = angles.shape[0]

    sigma, h = _master_grid(s0, tail_decades)
    s = 1.0 / sigma[::-1]  # ascending affine values, s[0] = s0
    ns = len(s)

    def tail_integrals(F):
        """int_s^inf F du for samples F(..., s) on the master grid."""
        G = F[..., ::-1]  # reorder to ascending sigma; du = -dsigma/sigma^2
        H = G * (1.0 / sigma) ** 2 * sigma  # integrand in d log sigma
        inner = _cumulative_simpson(H, h)
        # end panel [0, sigma_min]: trapezoid with the value extrapolated to 0
        g0 = H[..., 0] / sigma[0]
        g1_val = H[..., 1] / sigma[1]
        gz = g0 + (g0 - g1_val) * sigma[0] / (sigma[1] - sigma[0])
        stub = 0.5 * sigma[0] * (gz + g0)
        total = inner + stub[..., None]
        return total[..., ::-1], float(np.max(np.abs(stub)))

    vinf = np.zeros((ntar, ns, 4))
    vinf[..., 0] = 1.0

    v = vinf.copy()
    x = np.empty_like(v)
    diffs = []
    it = 0
    for it in range(1, max_iter + 1):
        # positions from the current velocity, all four components in one tail integral
        tilde0 = v[..., 0] - (1.0 + 4.0 * m / s)
        Tx, _ = tail_integrals(np.stack([tilde0, v[..., 1], v[..., 2], v[..., 3]]))
        x[..., 0] = s + 4.0 * m * np.log(s) - Tx[0]
        x[..., 1] = x1bar - Tx[1]
        x[..., 2:] = angles[:, None, :] - np.moveaxis(Tx[2:], 0, -1)

        gam = _christoffel_at(metric, x).reshape((ntar, ns, 4, 4, 4))
        acc = np.einsum("...kmn,...m,...n->...k", gam, v, v)
        Tv, tail_bound = tail_integrals(np.moveaxis(acc, -1, 0))
        v_new = vinf + np.moveaxis(Tv, 0, -1)
        change = float(np.max(np.abs(v_new - v)))
        diffs.append(change)
        v = v_new
        if change < tol:
            break
        # evaluation noise floor: successive changes stop contracting while
        # already far below any resolvable scale
        if len(diffs) >= 4 and change < flo and change > 0.5 * diffs[-2]:
            break
    else:
        raise RuntimeError("Picard iteration did not converge within the cap")

    if len(diffs) >= 4 and not all(
        diffs[i + 1] <= max(diffs[i] * (1.0 + 1e-9), flo) for i in range(1, len(diffs) - 2)
    ):
        raise RuntimeError("Picard iteration is not contracting")

    if tail_bound > 1e-8:
        warnings.warn(f"tail truncation bound {tail_bound:.2e} exceeds 1e-08")

    # x has not moved since the last sweep, so its connection is still gam
    acc = -np.einsum("...kmn,...m,...n->...k", gam, v, v)

    if squeeze:
        x, v, acc = x[0], v[0], acc[0]
    return GeodesicTrajectory(s, x, v, angles, it, diffs, tail_bound, acc)


def retarded_time(metric: MetricField, point, s0=20.0):
    """Retarded time of a spacetime point: the label of the unique
    asymptotically radial null geodesic through it, found by shooting."""
    tol = 1e-11
    max_iter = 30
    q0, s_coord, theta, phi = (float(c) for c in point)
    x1bar = s_coord
    traj = None
    for _ in range(max_iter):
        traj = integrate_radial_null_geodesic(metric, x1bar, np.array([[theta, phi]]), s0=s0)
        xq = traj.x[0, :, 0]
        if not (xq[0] <= q0 <= xq[-1]):
            raise ValueError("point is outside the affine window of the shot geodesic")
        x1_at_q = np.interp(q0, xq, traj.x[0, :, 1])
        mismatch = x1_at_q - s_coord
        if abs(mismatch) < tol:
            return x1bar, traj
        x1bar -= mismatch
    raise RuntimeError("retarded-time shooting did not converge")
