"""Metric fields in the double-null spherical splitting.

The mass-m static metric plus an optional perturbation with prescribed
decay classes is built symbolically in coordinates (q, s, theta, phi) with
the area radius r entering implicitly through r_* = (q - s)/2; the implicit
dependence is differentiated exactly via dr/dr_* = 1 - 2m/r.  The component
values and their first and second coordinate derivatives share one
common-subexpression pass; the components with their first derivatives are
compiled to a vectorized numpy callable with the field, the second
derivatives on their first use.  The symbolic calculus of the round sphere
(trace, index raising, contraction, covariant derivative and divergence)
is written here once for every module that builds angular expressions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
import sympy as sp

from .compactify import _mass, inverse_tortoise

Q, S, TH, PH, RR = sp.symbols("q s theta phi r", real=True, positive=False)
RHO0, RHOI = sp.symbols("rho0 rhoI", positive=True)

_COMP_KEYS = ("00", "01", "02", "03", "11", "12", "13", "22", "23", "33")
_IDX = {(0, 0): "00", (0, 1): "01", (0, 2): "02", (0, 3): "03",
        (1, 1): "11", (1, 2): "12", (1, 3): "13",
        (2, 2): "22", (2, 3): "23", (3, 3): "33"}

ROUND_METRIC = sp.Matrix([[1, 0], [0, sp.sin(TH) ** 2]])
ROUND_INV = sp.Matrix([[1, 0], [0, 1 / sp.sin(TH) ** 2]])


# -- calculus on the round sphere ---------------------------------------------

_ANGLES = (TH, PH)
#: Christoffel symbols Gamma^c_ab of the round metric on (theta, phi), keyed (c, a, b)
_GHAT_GAMMA = {(c, a, b): sp.S.Zero for c in range(2) for a in range(2) for b in range(2)}
_GHAT_GAMMA[(0, 1, 1)] = -sp.sin(2 * TH) / 2
_GHAT_GAMMA[(1, 0, 1)] = _GHAT_GAMMA[(1, 1, 0)] = 1 / sp.tan(TH)


def sphere_trace(t):
    """ghat^{ab} T_ab of a spherical 2-tensor indexed ``t[a, b]``."""
    return sum(ROUND_INV[a, b] * t[a, b] for a in range(2) for b in range(2))


def sphere_raise(t):
    """Indices raised with the round metric: v^a of a covector, T^{ab} of a 2x2 tensor."""
    t = sp.Matrix(t)
    return ROUND_INV * t * ROUND_INV if t.shape == (2, 2) else ROUND_INV * t


def sphere_dot(a, b):
    """Full contraction A^{..} B_{..} of two covectors or of two 2x2 tensors."""
    return sum(x * y for x, y in zip(sphere_raise(a), b))


def sphere_cov_vector(v):
    """nabla_a v_b of a covector (v_theta, v_phi), as a 2x2 matrix."""
    return sp.Matrix([[sp.diff(v[b], _ANGLES[a]) - sum(_GHAT_GAMMA[c, a, b] * v[c] for c in range(2))
                       for b in range(2)] for a in range(2)])


def sphere_div_tensor(t):
    """(div T)_c = nabla^d T_cd of a symmetric spherical 2-tensor, as a covector."""

    def cov(e, c, d):   # nabla_e T_cd
        expr = sp.diff(t[c, d], _ANGLES[e])
        for f in range(2):
            expr -= _GHAT_GAMMA[f, e, c] * t[f, d]
            expr -= _GHAT_GAMMA[f, e, d] * t[c, f]
        return expr

    return [sphere_trace(sp.Matrix([[cov(e, c, d) for e in range(2)] for d in range(2)])) for c in range(2)]


def _diff_ops(m):
    """Coordinate derivatives with the implicit radius chained in exactly."""
    drdq = (1 - 2 * m / RR) / 2

    def dq(e):
        return sp.diff(e, Q) + drdq * sp.diff(e, RR)

    def ds(e):
        return sp.diff(e, S) - drdq * sp.diff(e, RR)

    return (dq, ds, lambda e: sp.diff(e, TH), lambda e: sp.diff(e, PH))


def compile_fields(args, exprs):
    """Compile sympy expressions in ``args`` to one vectorized numpy callable.

    The callable takes one value per symbol, passes them to the compiled
    code unchanged, and returns a float array of shape ``(..., len(exprs))``
    over the broadcast shape of its inputs; constant expressions are
    broadcast to that shape.  Equal argument and expression lists share one
    compiled function.
    """
    return _compiled(tuple(args), (tuple(exprs),))[0].compile()


@lru_cache(maxsize=1024)
def _compiled(args, groups):
    """One CSE over every group's expressions, and one evaluator per group.

    Each evaluator keeps the common subexpressions its own expressions need
    and is compiled by ``compile`` or else on its first call.
    """
    subs, reduced = sp.cse([e for group in groups for e in group], list=False)
    evaluators, start = [], 0
    for group in groups:
        exprs = reduced[start:start + len(group)]
        start += len(group)
        needed = set().union(*(sp.sympify(e).free_symbols for e in exprs))
        kept = []
        for sym, e in reversed(subs):
            if sym in needed:
                kept.append((sym, e))
                needed |= e.free_symbols
        evaluators.append(_Evaluator(args, kept[::-1], exprs))
    return tuple(evaluators)


class _Evaluator:
    """Compiled numpy evaluation of one expression group."""

    def __init__(self, args, subs, exprs):
        self._args, self._subs, self._exprs = args, subs, exprs
        self._fn = None

    def compile(self):
        """Generate and compile the numpy code once; returns the evaluator."""
        if self._fn is None:
            self._fn = sp.lambdify(self._args, self._exprs, modules="numpy",
                                   cse=lambda exprs: (self._subs, exprs))
        return self

    def rows(self, *values):
        """Array of shape ``(len(exprs), ...)``: one contiguous row per expression."""
        self.compile()
        shape = np.broadcast_shapes(*(np.shape(v) for v in values))
        out = np.empty((len(self._exprs),) + shape)
        for i, row in enumerate(self._fn(*values)):
            out[i] = row
        return out

    def __call__(self, *values):
        """C-contiguous array of shape ``(..., len(exprs))``."""
        return np.ascontiguousarray(np.moveaxis(self.rows(*values), 0, -1))


@dataclass(frozen=True)
class Weights:
    b0: float = 0.6
    bI: float = 0.3
    bI_prime: float = 0.4
    b_plus: float = -0.1

    def __post_init__(self):
        if not (-0.5 < self.b_plus < 0 < self.bI < self.bI_prime < min(0.5, self.b0)):
            raise ValueError("weights must satisfy -1/2 < b+ < 0 < bI < bI' < min(1/2, b0)")


@dataclass(frozen=True)
class PerturbationField:
    """Rescaled (barred) perturbation components on (rho0, rhoI, theta, phi).

    Keys "00", "01", "02"/"03", "11", "12"/"13" and "22"/"23"/"33" follow
    the null/spherical splitting, one key per coordinate pair with the
    angles 2 (theta) and 3 (phi); each value is a sympy expression.
    Missing components are zero; ``weights`` declares the decay class the
    field is built to satisfy.
    """

    comps: dict = field(default_factory=dict)
    weights: Weights = Weights()
    label: str = "h"

    def expr(self, key):
        return sp.sympify(self.comps.get(key, 0))

    def qs_exprs(self):
        """Barred components as expressions in (r, q, s, theta, phi)."""
        subs = {RHO0: -1 / S, RHOI: -S / RR}
        return {k: self.expr(k).subs(subs) for k in _COMP_KEYS}


def _row_tables():
    """Row of the compiled arrays behind each slot of g, dg and d2g.

    The components and their first derivatives are the 50 rows of the
    order <= 1 group; the second derivatives are the 100 rows of the
    order-2 group.
    """
    n = len(_COMP_KEYS)
    pair = np.empty((4, 4), dtype=np.intp)
    for (mu, nu), key in _IDX.items():
        pair[mu, nu] = pair[nu, mu] = _COMP_KEYS.index(key)
    block = np.empty((4, 4), dtype=np.intp)
    for b, (k, l) in enumerate((k, l) for k in range(4) for l in range(k, 4)):
        block[k, l] = block[l, k] = b
    first = n + n * np.arange(4)[:, None, None] + pair
    second = n * block[:, :, None, None] + pair
    return pair, first, second


_G_ROWS, _DG_ROWS, _D2G_ROWS = _row_tables()


def _gather(rows, index):
    """Points-first view of ``rows[index]``.

    The index axes stay outermost in memory, so no transpose is copied.
    """
    picked = rows[index]
    return np.moveaxis(picked, tuple(range(index.ndim)), tuple(range(-index.ndim, 0)))


@dataclass
class MetricEval:
    """Metric data evaluated on a batch of points.

    ``rows`` holds the order <= 1 group: the ten components, then their
    first derivatives.  ``g`` and ``dg`` are gathered from it on first read;
    ``d2g`` evaluates the order-2 group on its first read, so a caller that
    never reads it never computes it.
    """

    q: np.ndarray
    s: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    r: np.ndarray
    rows: np.ndarray     # (50, N)
    second: _Evaluator   # the order-2 group, 100 rows

    @cached_property
    def g(self):
        """(N, 4, 4)"""
        return _gather(self.rows, _G_ROWS)

    @cached_property
    def dg(self):
        """(N, 4, 4, 4), index order (kappa, mu, nu)"""
        return _gather(self.rows, _DG_ROWS)

    @cached_property
    def d2g(self):
        """(N, 4, 4, 4, 4), index order (kappa, lambda, mu, nu)"""
        return _gather(self.second.rows(self.r, self.q, self.s, self.theta, self.phi), _D2G_ROWS)

    @cached_property
    def ginv(self):
        return np.linalg.inv(self.g)


class MetricField:
    """The static background of mass m, optionally perturbed."""

    def __init__(self, m, h: PerturbationField | None = None):
        self.m = _mass(m)
        self.h = h
        self._build()

    def _component_exprs(self):
        m = self.m
        gh = {k: sp.Integer(0) for k in _COMP_KEYS}
        if self.h is not None:
            gh = self.h.qs_exprs()
        g = {}
        g["00"] = gh["00"] / RR
        g["01"] = (1 - 2 * m / RR) / 2 + gh["01"] / RR
        g["02"] = gh["02"]
        g["03"] = gh["03"]
        g["11"] = gh["11"] / RR
        g["12"] = gh["12"]
        g["13"] = gh["13"]
        g["22"] = -(RR**2) * ROUND_METRIC[0, 0] + RR * gh["22"]
        g["23"] = -(RR**2) * ROUND_METRIC[0, 1] + RR * gh["23"]
        g["33"] = -(RR**2) * ROUND_METRIC[1, 1] + RR * gh["33"]
        return g

    def _build(self):
        g = self._component_exprs()
        D = _diff_ops(self.m)
        first = {}
        second = {}
        for key, e in g.items():
            for k in range(4):
                first[(k, key)] = D[k](e)
        for key in g:
            for k in range(4):
                for l in range(k, 4):
                    second[(k, l, key)] = D[l](first[(k, key)])

        order1 = [g[k] for k in _COMP_KEYS]
        order1 += [first[(k, key)] for k in range(4) for key in _COMP_KEYS]
        order2 = [second[(k, l, key)] for k in range(4) for l in range(k, 4) for key in _COMP_KEYS]
        # one CSE over both orders keeps every row bitwise equal to a single
        # compile; the order-2 group is compiled on the first read of d2g
        self._low, self._high = _compiled((RR, Q, S, TH, PH), (tuple(order1), tuple(order2)))
        self._low.compile()

    def radius(self, q, s):
        rstar = 0.5 * (np.asarray(q, dtype=float) - np.asarray(s, dtype=float))
        return inverse_tortoise(rstar, self.m)

    def at(self, q, s, theta, phi) -> MetricEval:
        q, s, theta, phi = np.broadcast_arrays(
            *(np.atleast_1d(np.asarray(x, dtype=float)) for x in (q, s, theta, phi))
        )
        r = np.atleast_1d(self.radius(q, s))
        return MetricEval(q, s, theta, phi, r, self._low.rows(r, q, s, theta, phi), self._high)


# -- exact closed forms for the unperturbed metric --------------------------


def round_metric(theta):
    """(N, 2, 2) round-sphere metric."""
    ghat = np.zeros(theta.shape + (2, 2))
    ghat[..., 0, 0] = 1.0
    ghat[..., 1, 1] = np.sin(theta) ** 2
    return ghat


@dataclass
class SchwarzschildExact:
    """Closed-form connection and curvature of the mass-m metric at a batch of points.

    ``riemann`` and ``ricci`` are built on first read, so a caller that
    needs only the connection never builds them.
    """

    r: np.ndarray
    theta: np.ndarray
    m: float
    gamma: np.ndarray     # (N, 4, 4, 4): Gamma^kappa_{mu nu}

    @cached_property
    def riemann(self):
        """(N, 4, 4, 4, 4): R^kappa_{lambda mu nu}"""
        m, r = self.m, self.r
        ghat = round_metric(self.theta)
        f = 1.0 - 2.0 * m / r
        riem = np.zeros(r.shape + (4, 4, 4, 4))

        def put(k, lam, mu, nu, val):
            riem[..., k, lam, mu, nu] += val
            riem[..., k, lam, nu, mu] -= val

        mr3f = m / r**3 * f
        put(0, 0, 0, 1, -mr3f)
        put(1, 1, 0, 1, mr3f)
        for b in (2, 3):
            for d in (2, 3):
                gh = ghat[..., b - 2, d - 2]
                put(0, b, 0, d, -m / r * gh)
                put(1, b, 1, d, -m / r * gh)
        for a in (2, 3):
            put(a, 0, 1, a, -0.5 * mr3f)
            put(a, 1, 0, a, -0.5 * mr3f)
        # spherical block: R^a_{bcd} = 2 m / r (delta^a_c ghat_bd - delta^a_d ghat_bc)
        for a in (2, 3):
            for b in (2, 3):
                for c in (2, 3):
                    for d in (2, 3):
                        val = 2.0 * m / r * (
                            (1.0 if a == c else 0.0) * ghat[..., b - 2, d - 2]
                            - (1.0 if a == d else 0.0) * ghat[..., b - 2, c - 2]
                        )
                        riem[..., a, b, c, d] = val
        return riem

    @cached_property
    def ricci(self):
        """(N, 4, 4); vanishes identically"""
        return np.zeros(self.r.shape + (4, 4))


def schwarzschild_exact(r, theta, m) -> SchwarzschildExact:
    """Closed-form connection and curvature of the mass-m metric.

    Components are in the coordinate frame (q, s, theta, phi); the Ricci
    tensor vanishes identically.
    """
    m = _mass(m)
    r = np.atleast_1d(np.asarray(r, dtype=float))
    theta = np.broadcast_to(np.atleast_1d(np.asarray(theta, dtype=float)), r.shape).copy()
    if np.any(r <= 2 * m) or np.any(r <= 0):
        raise ValueError("need r > 2m and r > 0")
    sin, cos = np.sin(theta), np.cos(theta)
    ghat = round_metric(theta)

    f = 1.0 - 2.0 * m / r
    gamma = np.zeros(r.shape + (4, 4, 4))
    gamma[..., 0, 0, 0] = m / r**2
    gamma[..., 1, 1, 1] = -m / r**2
    half_f_over_r = 0.5 * f / r
    for c in (2, 3):
        gamma[..., c, 0, c] = gamma[..., c, c, 0] = half_f_over_r
        gamma[..., c, 1, c] = gamma[..., c, c, 1] = -half_f_over_r
    for a in (2, 3):
        for b in (2, 3):
            gamma[..., 0, a, b] = -r * ghat[..., a - 2, b - 2]
            gamma[..., 1, a, b] = r * ghat[..., a - 2, b - 2]
    # round-sphere symbols
    gamma[..., 2, 3, 3] = -sin * cos
    with np.errstate(divide="ignore", invalid="ignore"):
        cot = np.where(sin != 0.0, cos / sin, 0.0)
    gamma[..., 3, 2, 3] = gamma[..., 3, 3, 2] = cot
    return SchwarzschildExact(r, theta, m, gamma)


# -- manufactured perturbations --------------------------------------------


def manufactured_suite():
    """Closed-form perturbations inside the admissible decay classes.

    Each field decays like rho0^b0 at the spatial face; good components
    carry rhoI^bI', the remaining remainders rhoI^bI, and the (1,1) slot of
    the last fields carries a log term.
    """
    w = Weights()
    a0 = RHO0 ** sp.nsimplify(w.b0)
    aI = RHOI ** sp.nsimplify(w.bI)
    aIp = RHOI ** sp.nsimplify(w.bI_prime)
    ct, st, cp = sp.cos(TH), sp.sin(TH), sp.cos(PH)

    fields = [
        PerturbationField({"11": a0 * sp.sqrt(RHOI)}, w, label="h11-sqrt"),
        PerturbationField({"00": a0 * aIp * (1 + ct**2 / 2)}, w, label="h00-good"),
        PerturbationField(
            {"01": a0 * (1 + aI * (2 + ct)), "00": a0 * aIp},
            w,
            label="h01-leading",
        ),
        PerturbationField(
            {
                "22": a0 * (1 + aI) * st**2 * cp,
                "33": -a0 * (1 + aI) * st**4 * cp,
                "23": a0 * (sp.Rational(1, 2) + aI) * st**3,
            },
            w,
            label="hab-tracefree",
        ),
        PerturbationField(
            {"12": a0 * (1 + 2 * aI) * st, "13": a0 * (1 - aI) * st**2, "01": a0 * (2 + aI)},
            w,
            label="h1b-leading",
        ),
        PerturbationField(
            {
                "11": a0 * (-sp.log(RHOI) + 1 + aI),
                "01": a0 * (1 + aI),
                "22": a0 * (1 + aI) * st**2,
                "33": -a0 * (1 + aI) * st**4,
                "00": a0 * aIp * ct,
            },
            w,
            label="mixed-log",
        ),
    ]
    return fields


def rate_saturating_field(weights: Weights | None = None):
    """Perturbation whose components saturate their decay classes.

    The long-range slot is built from the product of the two corner defining
    functions, so its outgoing-null derivative gains an order; this mimics
    the improvement the gauge condition enforces and lets null geodesics
    pick up velocity corrections at the class rates.  Every component has
    amplitude 1/20.
    """
    w = weights or Weights(b0=0.45, bI=0.3, bI_prime=0.4, b_plus=-0.1)
    amp = sp.Rational(1, 20)
    a0 = amp * RHO0 ** sp.nsimplify(w.b0)
    aI = RHOI ** sp.nsimplify(w.bI)
    st, ct = sp.sin(TH), sp.cos(TH)
    long_range = amp * (RHO0 * RHOI) ** sp.nsimplify(max(w.b0, w.bI_prime))
    return PerturbationField(
        {
            "00": long_range * (1 + ct / 3),
            "01": a0 * aI * (2 + ct),
            "11": a0 * (1 + aI),
            "12": a0 * (1 + aI) * st / 2,
            "22": a0 * (1 + aI) * st**2 / 2,
            "33": -a0 * (1 + aI) * st**4 / 2,
        },
        w,
        label="rate-saturating",
    )
