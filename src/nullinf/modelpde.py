"""Characteristic solvers for the model equations at the radiation face.

The model operator factors into a radial-logarithmic transport for the
auxiliary w = (rho0 d/drho0 - rhoI d/drhoI) u and a transport for u along
the diagonals rho0 * rhoI = const.  Both are integrated with the implicit
trapezoid (second order) on a shared logarithmic grid; the damped first
factor is integrated exactly through its exponential weight.  The grid is
extended to the left so that every diagonal through the requested window
starts on the data edge.

A forcing is a callable f(rho0, rhoI) of elementwise numpy operations: a
mode solve calls it once, with broadcastable arrays of shapes (1, n_ext)
and (nJ, 1) covering the whole extended grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CharacteristicGrid:
    """Shared logarithmic grids in the two corner defining functions."""

    eps: float = 0.1
    rho0_min: float = 1e-5
    rhoI_min: float = 1e-5
    points_per_decade: int = 16
    ell: int = 0

    def __post_init__(self):
        if self.points_per_decade < 16:
            raise ValueError("need at least 16 points per decade")
        if min(self.rho0_min, self.rhoI_min) < 1e-8:
            raise ValueError("grid floor below 1e-8")
        if not (0 < self.rho0_min < self.eps and 0 < self.rhoI_min < self.eps):
            raise ValueError("grid ordering is wrong: need 0 < rho_min < eps")
        if self.ell < 0:
            raise ValueError("mode number must be nonnegative")

    @property
    def h(self) -> float:
        return math.log(10.0) / self.points_per_decade

    def _count(self, lo) -> int:
        n = round(math.log(self.eps / lo) / self.h)
        return int(n) + 1

    @property
    def rho0(self) -> np.ndarray:
        n = self._count(self.rho0_min)
        return self.eps * np.exp(self.h * (np.arange(n) - (n - 1)))

    @property
    def rhoI(self) -> np.ndarray:
        n = self._count(self.rhoI_min)
        return self.eps * np.exp(self.h * (np.arange(n) - (n - 1)))

    def refined(self, factor: int) -> "CharacteristicGrid":
        return CharacteristicGrid(
            self.eps, self.rho0_min, self.rhoI_min, self.points_per_decade * factor, self.ell
        )


@dataclass(frozen=True)
class BoundaryData:
    """Data on the two inflow edges; callables of the edge coordinate."""

    u_top: object = None      # u at rhoI = eps, function of rho0
    w_top: object = None      # auxiliary w at rhoI = eps, function of rho0
    u_right: object = None    # optional consistency data at rho0 = eps

    def top_values(self, rho0):
        u = np.zeros_like(rho0) if self.u_top is None else np.asarray(self.u_top(rho0), dtype=float)
        w = np.zeros_like(rho0) if self.w_top is None else np.asarray(self.w_top(rho0), dtype=float)
        return np.broadcast_to(u, rho0.shape).copy(), np.broadcast_to(w, rho0.shape).copy()


@dataclass
class ModeSolution:
    grid: CharacteristicGrid
    gamma: float
    u: np.ndarray          # (n_rho0, n_rhoI), core window
    w: np.ndarray
    corner_mismatch: float = 0.0

    def column(self, rho0_value=None):
        rho0 = self.grid.rho0
        i = len(rho0) // 2 if rho0_value is None else int(np.argmin(np.abs(rho0 - rho0_value)))
        return rho0[i], self.u[i, :]

    def leading_fit(self, model="const", rho0_value=None):
        _, col = self.column(rho0_value)
        return fit_leading_terms(self.grid.rhoI, col, model)

    def rhoI_log_derivative(self):
        """rhoI d/drhoI of u by centered differences on the log grid."""
        h = self.grid.h
        out = np.empty_like(self.u)
        out[:, 1:-1] = (self.u[:, 2:] - self.u[:, :-2]) / (2.0 * h)
        out[:, 0] = (self.u[:, 1] - self.u[:, 0]) / h
        out[:, -1] = (self.u[:, -1] - self.u[:, -2]) / h
        return out

    def d1(self):
        """The flat outgoing-null derivative through the corner frame (m = 0)."""
        rho0 = self.grid.rho0[:, None]
        rhoI = self.grid.rhoI[None, :]
        di = self.rhoI_log_derivative()
        return rho0 * (self.w + 0.5 * rhoI * di)


def _march(grid: CharacteristicGrid, gamma, forcing, data: BoundaryData):
    """Integrate the factored model inward from the top edge.

    Works on the grid extended to the left by one diagonal sweep so that the
    whole requested window is reached from the data edge.  The forcing is
    evaluated once on the whole extended grid; each step turns the rows
    (u, w) at rhoI[j + 1] into those at rhoI[j] and keeps only their core
    part, so no extended array outlives the step.  Returns C-contiguous core
    arrays (u, w).
    """
    h = grid.h
    rhoI = grid.rhoI
    nJ = len(rhoI)
    ncore = len(grid.rho0)
    next_ = ncore + nJ - 1
    rho0_ext = grid.eps * np.exp(h * (np.arange(next_) - (next_ - 1)))

    lam = float(grid.ell * (grid.ell + 1))
    F = 0.0 if forcing is None else forcing(rho0_ext[None, :], rhoI[:, None])
    F = np.broadcast_to(np.asarray(F, dtype=float), (nJ, next_))
    # row j holds the core of the column rhoI[j]
    u_rows = np.empty((nJ, ncore))
    w_rows = np.empty((nJ, ncore))
    U, W = data.top_values(rho0_ext)
    u_rows[nJ - 1], w_rows[nJ - 1] = U[nJ - 1 :], W[nJ - 1 :]

    decay = math.exp(-gamma * h)
    # A[0] stays NaN: cells that no diagonal from the data edge reaches come out NaN
    A = np.empty(next_)
    A[0] = np.nan
    for j in range(nJ - 2, -1, -1):
        S_above = 0.5 * rhoI[j + 1] * (F[j + 1] + lam * U)
        B = decay * (W - 0.5 * h * S_above)
        c = 0.25 * h * rhoI[j]
        A[1:] = U[:-1] + 0.5 * h * W[:-1]
        W = (B - c * F[j] - c * lam * A) / (1.0 + 0.5 * c * lam * h)
        U = A + 0.5 * h * W
        u_rows[j], w_rows[j] = U[nJ - 1 :], W[nJ - 1 :]
    del F

    u = u_rows.T.copy()
    w = w_rows.T.copy()
    if np.any(np.isnan(u)) or np.any(np.isnan(w)):
        raise RuntimeError("characteristic march left unfilled cells in the core window")

    mismatch = 0.0
    if data.u_right is not None:
        target = np.asarray(data.u_right(rhoI), dtype=float)
        mismatch = float(np.max(np.abs(u[-1, :] - target)))
    return u, w, mismatch


def solve_damped_mode(grid: CharacteristicGrid, gamma, forcing=None, data: BoundaryData | None = None) -> ModeSolution:
    """Mode solver with the damped first factor (rhoI d/drhoI - gamma).

    ``forcing(rho0, rhoI)`` is called once, with rho0 of shape (1, n_ext)
    over the extended grid and rhoI of shape (nJ, 1); its result must
    broadcast to (nJ, n_ext).
    """
    if gamma < 0:
        raise ValueError("damping exponent must be nonnegative")
    data = data or BoundaryData()
    u, w, mismatch = _march(grid, float(gamma), forcing, data)
    return ModeSolution(grid, float(gamma), u, w, mismatch)


def solve_wave_mode(grid: CharacteristicGrid, forcing=None, data: BoundaryData | None = None) -> ModeSolution:
    """Undamped model: identical code path with the damping set to zero."""
    return solve_damped_mode(grid, 0.0, forcing, data)


# -- the weak-null triangular system ----------------------------------------


@dataclass
class WeakNullSolution:
    u0: ModeSolution
    u1c: ModeSolution
    u1: ModeSolution


def _quadratic_source(sol: ModeSolution):
    """rho^{-1} (d_1 u)^2 sampled on the core grid."""
    rho0 = sol.grid.rho0[:, None]
    rhoI = sol.grid.rhoI[None, :]
    d1u = sol.d1()
    return d1u**2 / (rho0 * rhoI)


def _grid_interp(grid: CharacteristicGrid, table):
    """Nearest-node interpolant for grid-sampled sources, elementwise.

    Each (r0, rI) reads the table at the nearest grid node in log of both
    coordinates.  Sources vanish off the core window (the extension sits at
    smaller rho0, where the quadratic sources are below the data floor by
    construction).
    """
    rho0 = grid.rho0
    rhoI = grid.rhoI

    def nearest(x, nodes):
        return np.clip(np.round(np.log(x / nodes[0]) / grid.h).astype(int), 0, len(nodes) - 1)

    def f(r0, rI):
        inside = r0 >= rho0[0] * (1.0 - 1e-12)
        return np.where(inside, table[nearest(r0, rho0), nearest(rI, rhoI)], 0.0)

    return f


def _plus_table(grid: CharacteristicGrid, base, table):
    """The forcing ``base`` (a callable of (r0, rI), or None) plus the interpolant of ``table``."""
    extra = _grid_interp(grid, table)
    if base is None:
        return extra
    return lambda r0, rI: np.asarray(base(r0, rI), dtype=float) + extra(r0, rI)


def solve_weak_null_system(
    grid: CharacteristicGrid,
    gamma,
    forcing=(None, None, None),
    couple=True,
) -> WeakNullSolution:
    """Sequential solve of the lower-triangular weak-null model system, from zero data."""
    u0 = solve_damped_mode(grid, gamma, forcing[0])

    def with_quadratic(base, source_sol):
        return _plus_table(grid, base, _quadratic_source(source_sol)) if couple else base

    u1c = solve_wave_mode(grid, with_quadratic(forcing[1], u0))
    u1 = solve_wave_mode(grid, with_quadratic(forcing[2], u1c))
    return WeakNullSolution(u0, u1c, u1)


def newton_iterate(
    grid: CharacteristicGrid,
    gamma,
    forcing=(None, None, None),
    steps=8,
):
    """Global linear-solve iteration for the weak-null system.

    Starts from zero, with zero data, and solves the linearized triangular
    system at each step (the quadratic couplings are frozen at the previous
    iterate, so a step is two marches with modified sources; the damped u0
    mode is linear and is solved once).  Returns the iterates and the
    quadratic-convergence ratios against the final iterate.
    """
    iterates = []
    sup_history = []

    def linearized(base, a_prev, a_new):
        """Source with the quadratic coupling frozen, from the derivatives d1 of the two solutions."""
        rho0 = grid.rho0[:, None]
        rhoI = grid.rhoI[None, :]
        return _plus_table(grid, base, (2.0 * a_prev * a_new - a_prev**2) / (rho0 * rhoI))

    u0 = solve_damped_mode(grid, gamma, forcing[0])
    a_u0 = u0.d1()
    a_prev = (np.zeros((len(grid.rho0), len(grid.rhoI))),) * 2    # d1 of the zero start
    for k in range(steps):
        u1c = solve_wave_mode(grid, linearized(forcing[1], a_prev[0], a_u0))
        a_u1c = u1c.d1()
        # each d1 is taken once; the old one and the source go as soon as they
        # are used, so keeping d1 adds nothing to the peak memory of the marches
        source = linearized(forcing[2], a_prev[1], a_u1c)
        a_prev = (a_u0, a_u1c)
        u1 = solve_wave_mode(grid, source)
        del source
        current = (u0, u1c, u1)
        iterates.append(current)
        sup = max(float(np.max(np.abs(c.u))) for c in current)
        sup_history.append(sup)
        if k >= 3 and all(
            sup_history[-i - 1] > sup_history[-i - 2] * (1.0 + 1e-9) for i in range(3)
        ):
            raise RuntimeError("iteration diverging: sup norm grew for 3 consecutive steps")

    ref = iterates[-1]
    errors = []
    for it in iterates:
        errors.append(
            max(float(np.max(np.abs(it[c].u - ref[c].u))) for c in range(3))
        )
    ratios = []
    for k in range(len(errors) - 1):
        if errors[k] == 0.0:
            ratios.append(0.0)
        else:
            ratios.append(errors[k + 1] / errors[k] ** 2)
    return iterates, errors, ratios


# -- leading-term fits -------------------------------------------------------


@dataclass
class LeadingFit:
    c_log: float | None
    c0: float | None
    exponent: float | None
    residual: float


def _last_decade(rhoI, values):
    rhoI = np.asarray(rhoI, dtype=float)
    values = np.asarray(values, dtype=float)
    top = rhoI[0] * 10.0
    mask = rhoI <= top * (1.0 + 1e-12)
    if np.count_nonzero(mask) < 4:
        mask = np.arange(len(rhoI)) < max(4, len(rhoI) // 3)
    return rhoI[mask], values[mask]


def fit_leading_terms(rhoI, values, model="const") -> LeadingFit:
    """Fit the boundary behavior of a radial profile on its last decade.

    ``model`` is "const" (c0 + a rhoI^exponent, the exponent read from the
    differences) or "log+const" (c_log log rhoI + c0).
    """
    x, y = _last_decade(rhoI, values)
    lx = np.log(x)

    if model == "log+const":
        design = np.stack([lx, np.ones_like(lx)], axis=1)
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = float(np.sqrt(np.mean((design @ coef - y) ** 2)))
        return LeadingFit(float(coef[0]), float(coef[1]), None, resid)

    if model == "const":
        d = np.diff(y)
        if np.all(d == 0.0):
            return LeadingFit(None, float(y[0]), None, 0.0)
        if np.any(d == 0.0) or np.any(np.sign(d) != np.sign(d[np.nonzero(d)[0][0]])):
            # remainder not resolved as a clean power; fall back to the mean
            return LeadingFit(None, float(np.mean(y)), None, float(np.std(y)))
        slope = np.polyfit(lx[:-1], np.log(np.abs(d)), 1)
        e = float(slope[0])
        growth = math.exp(e * (lx[1] - lx[0])) - 1.0
        amp = d[0] / (x[0] ** e * growth)
        c0 = float(y[0] - amp * x[0] ** e)
        fitted = c0 + amp * x**e
        resid = float(np.sqrt(np.mean((fitted - y) ** 2)))
        return LeadingFit(None, c0, e, resid)

    raise ValueError(f"unknown fit model {model!r}")


# -- model operator matrices ---------------------------------------------------


def damping_block(gamma1, gamma2) -> np.ndarray:
    """Coupling matrix of the decoupled damped block; spectrum {2 g1, g1, g2}."""
    return np.array(
        [
            [2.0 * gamma1, 0.0, 0.0],
            [0.0, gamma1, 0.0],
            [2.0 * gamma2, 0.0, gamma2],
        ]
    )


def toy_block(gamma, d1_u1c_leading) -> np.ndarray:
    """Coupling matrix of the toy system; the lower 2x2 block is nilpotent."""
    return np.array(
        [
            [gamma, 0.0, 0.0],
            [0.0, 0.0, 0.0],
            [0.0, float(d1_u1c_leading), 0.0],
        ]
    )


#: slots of the 7-component splitting used by the full coupling matrices
SPLITTING_7 = ("qq", "qs", "qa", "ss", "sa", "sph-trace", "sph-tracefree")
#: slots selected by the projection onto the components driven by the gauge
PI0_SLOTS = (0, 2, 5)
PI11_SLOT = 3
PI11C_SLOTS = (1, 4, 6)


def full_coupling_matrices(h, m, gamma1, gamma2):
    """The 7x7 first- and zeroth-order coupling matrices, entries as callables.

    Entries are scalar fields of (q, s, theta, phi); tensorial slots report
    their theta-theta representative.  Stored for inspection and structure
    tests, not used by the solvers.
    """
    # imported here, not at the top: the characteristic solvers load no sympy
    import sympy as sp

    from .compactify import _mass, inverse_tortoise
    from .metrics import PH, Q, RR, S, TH, _diff_ops, compile_fields, sphere_raise

    m = _mass(m)
    D = _diff_ops(m)
    hq = h.qs_exprs()
    d1 = D[1]
    raised_rep = sphere_raise([[hq["22"], hq["23"]], [hq["23"], hq["33"]]])[0, 0]
    vec_rep = sphere_raise([hq["12"], hq["13"]])[0]

    A = [[sp.Integer(0)] * 7 for _ in range(7)]
    B = [[sp.Integer(0)] * 7 for _ in range(7)]
    A[0][0] = sp.Float(2 * gamma1)
    A[1][0] = gamma1 - gamma2 - 2 * d1(hq["01"])
    A[1][5] = sp.Rational(1, 2) * (gamma1 - gamma2)
    A[2][2] = sp.Float(gamma1)
    A[3][0] = -2 * d1(hq["11"])
    A[3][5] = sp.Float(gamma1)
    A[3][6] = sp.Rational(1, 2) * d1(raised_rep)
    A[4][0] = -2 * d1(hq["12"])
    A[4][2] = gamma1 + d1(vec_rep)
    A[5][0] = sp.Float(2 * gamma2)
    A[5][5] = sp.Float(gamma2)
    B[1][0] = 2 * d1(d1(hq["01"]))
    B[3][0] = 2 * d1(d1(hq["11"]))
    B[4][0] = 2 * d1(d1(hq["12"]))
    B[6][0] = 2 * d1(d1(hq["22"]))

    def compile_matrix(M):
        fn = compile_fields((RR, Q, S, TH, PH), [M[i][j] for i in range(7) for j in range(7)])

        def evaluate(q, s, theta, phi):
            r = inverse_tortoise(0.5 * (q - s), m)
            return fn(r, q, s, theta, phi).reshape(7, 7)

        return evaluate

    return compile_matrix(A), compile_matrix(B)
